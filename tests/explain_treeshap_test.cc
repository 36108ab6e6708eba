#include "xai/explain/shapley/tree_shap.h"

#include <gtest/gtest.h>

#include <cmath>

#include "support/explain_reference.h"
#include "xai/core/combinatorics.h"
#include "xai/data/synthetic.h"
#include "xai/model/decision_tree.h"
#include "xai/model/gbdt.h"
#include "xai/model/random_forest.h"

namespace xai {
namespace {

// Hand-built tree: root splits f0 <= 0, left leaf 1.0 (cover 3),
// right child splits f1 <= 0 into leaves 5.0 (cover 2) / 9.0 (cover 5).
Tree HandTree() {
  std::vector<TreeNode> nodes(5);
  nodes[0] = {0, 0.0, 1, 2, 0.0, 10.0};
  nodes[1] = {-1, 0.0, -1, -1, 1.0, 3.0};
  nodes[2] = {1, 0.0, 3, 4, 0.0, 7.0};
  nodes[3] = {-1, 0.0, -1, -1, 5.0, 2.0};
  nodes[4] = {-1, 0.0, -1, -1, 9.0, 5.0};
  return Tree(std::move(nodes));
}

// The product kernel on a one-tree view (scale 1, base 0).
Vector SingleTreeShap(const Tree& tree, const Vector& x) {
  TreeEnsembleView view;
  view.trees.push_back(&tree);
  view.scales.push_back(1.0);
  return TreeShap(view, x).attributions;
}

using reference::TreeConditionalExpectation;
using reference::TreeExpectedValue;

TEST(TreeExpectedValueTest, CoverWeightedLeafMean) {
  Tree tree = HandTree();
  // (3*1 + 2*5 + 5*9) / 10 = 5.8.
  EXPECT_NEAR(TreeExpectedValue(tree), 5.8, 1e-12);
}

TEST(TreeConditionalExpectationTest, FullMaskFollowsPath) {
  Tree tree = HandTree();
  Vector x = {1.0, -1.0};  // Right then left: leaf 5.0.
  EXPECT_DOUBLE_EQ(TreeConditionalExpectation(tree, x, 0b11), 5.0);
}

TEST(TreeConditionalExpectationTest, EmptyMaskIsExpectedValue) {
  Tree tree = HandTree();
  Vector x = {1.0, -1.0};
  EXPECT_NEAR(TreeConditionalExpectation(tree, x, 0),
              TreeExpectedValue(tree), 1e-12);
}

TEST(TreeConditionalExpectationTest, PartialMaskAveragesUnknowns) {
  Tree tree = HandTree();
  Vector x = {1.0, -1.0};
  // Knowing only f0 (right subtree): (2*5 + 5*9)/7.
  EXPECT_NEAR(TreeConditionalExpectation(tree, x, 0b01), 55.0 / 7.0, 1e-12);
}

TEST(TreeShapTest, MatchesExactShapleyOnHandTree) {
  Tree tree = HandTree();
  Vector x = {1.0, -1.0};
  Vector phi = SingleTreeShap(tree, x);
  std::vector<double> exact = ShapleyOfSetFunction(2, [&](uint64_t mask) {
    return TreeConditionalExpectation(tree, x, mask);
  });
  EXPECT_NEAR(phi[0], exact[0], 1e-9);
  EXPECT_NEAR(phi[1], exact[1], 1e-9);
}

TEST(TreeShapTest, LocalAccuracyOnHandTree) {
  Tree tree = HandTree();
  Vector x = {-1.0, 3.0};
  Vector phi = SingleTreeShap(tree, x);
  EXPECT_NEAR(phi[0] + phi[1], tree.PredictRow(x) - TreeExpectedValue(tree),
              1e-9);
}

TEST(TreeShapTest, ConstantTreeGivesZeros) {
  std::vector<TreeNode> nodes(1);
  nodes[0] = {-1, 0.0, -1, -1, 4.2, 10.0};
  Tree tree(std::move(nodes));
  Vector phi = SingleTreeShap(tree, {1.0, 2.0});
  EXPECT_DOUBLE_EQ(phi[0], 0.0);
  EXPECT_DOUBLE_EQ(phi[1], 0.0);
}

// The heavyweight property: TreeSHAP on real CART trees equals brute-force
// exact Shapley values of the path-conditional game, across instances.
class TreeShapExactnessTest : public ::testing::TestWithParam<int> {};

TEST_P(TreeShapExactnessTest, MatchesBruteForceOnTrainedTree) {
  uint64_t seed = GetParam();
  Dataset d = MakeLoans(300, seed);
  CartConfig config;
  config.max_depth = 4;
  auto model = DecisionTreeModel::Train(d, config).ValueOrDie();
  const Tree& tree = model.tree();
  int dim = d.num_features();
  for (int row : {0, 17, 55}) {
    Vector x = d.Row(row);
    Vector phi = SingleTreeShap(tree, x);
    std::vector<double> exact =
        ShapleyOfSetFunction(dim, [&](uint64_t mask) {
          return TreeConditionalExpectation(tree, x, mask);
        });
    for (int j = 0; j < dim; ++j)
      EXPECT_NEAR(phi[j], exact[j], 1e-8)
          << "seed=" << seed << " row=" << row << " feature=" << j;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeShapExactnessTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(TreeShapEnsembleTest, GbdtAttributionsSumToMargin) {
  Dataset d = MakeLoans(500, 21);
  GbdtModel::Config config;
  config.n_trees = 30;
  auto model = GbdtModel::Train(d, config).ValueOrDie();
  TreeEnsembleView view = TreeEnsembleView::Of(model);
  for (int row : {1, 9, 33}) {
    Vector x = d.Row(row);
    AttributionExplanation exp = TreeShap(view, x);
    EXPECT_NEAR(exp.AttributionSum(), model.Margin(x), 1e-7);
    EXPECT_NEAR(exp.prediction, model.Margin(x), 1e-12);
  }
}

TEST(TreeShapEnsembleTest, ForestAttributionsSumToProbability) {
  Dataset d = MakeLoans(400, 22);
  RandomForestModel::Config config;
  config.n_trees = 12;
  auto model = RandomForestModel::Train(d, config).ValueOrDie();
  TreeEnsembleView view = TreeEnsembleView::Of(model);
  Vector x = d.Row(13);
  AttributionExplanation exp = TreeShap(view, x);
  EXPECT_NEAR(exp.AttributionSum(), model.Predict(x), 1e-7);
}

TEST(TreeShapEnsembleTest, EnsembleIsSumOfPerTreeShap) {
  Dataset d = MakeLoans(300, 23);
  GbdtModel::Config config;
  config.n_trees = 5;
  auto model = GbdtModel::Train(d, config).ValueOrDie();
  TreeEnsembleView view = TreeEnsembleView::Of(model);
  Vector x = d.Row(2);
  AttributionExplanation exp = TreeShap(view, x);
  Vector manual(d.num_features(), 0.0);
  for (const Tree& tree : model.trees()) {
    Vector phi = SingleTreeShap(tree, x);
    for (int j = 0; j < d.num_features(); ++j) manual[j] += phi[j];
  }
  for (int j = 0; j < d.num_features(); ++j)
    EXPECT_NEAR(exp.attributions[j], manual[j], 1e-10);
}

TEST(TreeShapTest, UnusedFeatureGetsZeroAttribution) {
  Tree tree = HandTree();  // Only uses features 0 and 1.
  Vector x = {1.0, 1.0, 99.0};
  Vector phi = SingleTreeShap(tree, x);
  EXPECT_DOUBLE_EQ(phi[2], 0.0);
}

}  // namespace
}  // namespace xai
