#include "xai/rules/sufficient_reason.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "xai/core/combinatorics.h"
#include "xai/data/synthetic.h"
#include "xai/model/decision_tree.h"

namespace xai {
namespace {

// Tree computing (f0 > 0) OR (f1 > 0) with all-leaf classes:
//   root: f0 <= 0 ? check f1 : leaf 1
Tree OrTree() {
  std::vector<TreeNode> nodes(5);
  nodes[0] = {0, 0.0, 1, 2, 0.0, 8.0};   // f0 <= 0 -> node1 else leaf 1.
  nodes[1] = {1, 0.0, 3, 4, 0.0, 4.0};   // f1 <= 0 -> leaf 0 else leaf 1.
  nodes[2] = {-1, 0.0, -1, -1, 1.0, 4.0};
  nodes[3] = {-1, 0.0, -1, -1, 0.0, 2.0};
  nodes[4] = {-1, 0.0, -1, -1, 1.0, 2.0};
  return Tree(std::move(nodes));
}

TEST(SufficiencyTest, FullMaskAlwaysSufficient) {
  Tree tree = OrTree();
  EXPECT_TRUE(IsSufficientReason(tree, {1.0, -1.0}, 0b11));
  EXPECT_TRUE(IsSufficientReason(tree, {-1.0, -1.0}, 0b11));
}

TEST(SufficiencyTest, OrSemantics) {
  Tree tree = OrTree();
  // Instance (1, -1): prediction 1 via f0. {f0} alone is sufficient.
  EXPECT_TRUE(IsSufficientReason(tree, {1.0, -1.0}, 0b01));
  // {f1} alone is NOT: f1 = -1 leaves the outcome to f0.
  EXPECT_FALSE(IsSufficientReason(tree, {1.0, -1.0}, 0b10));
  // Empty set insufficient.
  EXPECT_FALSE(IsSufficientReason(tree, {1.0, -1.0}, 0));
}

TEST(SufficiencyTest, NegativeCaseNeedsBothFeatures) {
  Tree tree = OrTree();
  // Instance (-1, -1): prediction 0; both features must be fixed.
  EXPECT_FALSE(IsSufficientReason(tree, {-1.0, -1.0}, 0b01));
  EXPECT_FALSE(IsSufficientReason(tree, {-1.0, -1.0}, 0b10));
  EXPECT_TRUE(IsSufficientReason(tree, {-1.0, -1.0}, 0b11));
}

TEST(SufficiencyDeathTest, RejectsAnInstanceNarrowerThanTheTree) {
  Tree tree = OrTree();
  // The prediction reads only f0 = 1; fixing f1 would read instance[1].
  EXPECT_DEATH(IsSufficientReason(tree, {1.0}, 0b10), "narrower than");
  EXPECT_FALSE(IsSufficientReason(tree, {1.0, -1.0}, 0b10));
}

TEST(SufficiencyTest, FeaturesPastTheMaskAreNeverFixed) {
  // One split on feature 70, which a 64-bit mask cannot name: even the
  // all-ones mask leaves it free, so both leaves stay reachable. (A shift
  // by the feature index would be undefined here, and on x86 it would test
  // bit 70 mod 64 = 6 and fix the feature.)
  std::vector<TreeNode> nodes(3);
  nodes[0] = {70, 0.0, 1, 2, 0.0, 2.0};
  nodes[1] = {-1, 0.0, -1, -1, 0.0, 1.0};
  nodes[2] = {-1, 0.0, -1, -1, 1.0, 1.0};
  Tree tree(std::move(nodes));
  Vector instance(71, 0.0);
  EXPECT_FALSE(IsSufficientReason(tree, instance, ~0ULL));
  EXPECT_FALSE(IsSufficientReason(tree, instance, 0));
  instance[70] = 1.0;
  EXPECT_FALSE(IsSufficientReason(tree, instance, ~0ULL));
}

TEST(MinimumSufficientReasonTest, OrPositiveCase) {
  Tree tree = OrTree();
  auto reason = MinimumSufficientReason(tree, {1.0, -1.0}, 2).ValueOrDie();
  EXPECT_EQ(reason.features, (std::vector<int>{0}));
  EXPECT_TRUE(reason.minimal);
}

TEST(MinimumSufficientReasonTest, OrNegativeCaseNeedsBoth) {
  Tree tree = OrTree();
  auto reason = MinimumSufficientReason(tree, {-1.0, -1.0}, 2).ValueOrDie();
  EXPECT_EQ(reason.features, (std::vector<int>{0, 1}));
}

TEST(MinimumSufficientReasonTest, BothPositiveEitherSuffices) {
  Tree tree = OrTree();
  auto reason = MinimumSufficientReason(tree, {1.0, 1.0}, 2).ValueOrDie();
  EXPECT_EQ(reason.features.size(), 1u);
}

TEST(NecessaryFeaturesTest, OrSemantics) {
  Tree tree = OrTree();
  // (1, -1): f0 necessary (dropping it from {f0,f1} loses sufficiency).
  EXPECT_EQ(NecessaryFeatures(tree, {1.0, -1.0}, 2),
            (std::vector<int>{0}));
  // (1, 1): neither necessary (either alone suffices).
  EXPECT_TRUE(NecessaryFeatures(tree, {1.0, 1.0}, 2).empty());
  // (-1, -1): both necessary.
  EXPECT_EQ(NecessaryFeatures(tree, {-1.0, -1.0}, 2),
            (std::vector<int>{0, 1}));
}

TEST(TestedFeaturesTest, OnlySplitFeatures) {
  Tree tree = OrTree();
  EXPECT_EQ(TestedFeatures(tree), (std::vector<int>{0, 1}));
}

// Property suite on trained trees: the returned reason is verified
// sufficient and dropping any single feature breaks sufficiency.
class SufficientReasonPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SufficientReasonPropertyTest, MinimalAndSufficientOnTrainedTrees) {
  Dataset d = MakeLoans(400, GetParam());
  CartConfig config;
  config.max_depth = 5;
  auto model = DecisionTreeModel::Train(d, config).ValueOrDie();
  const Tree& tree = model.tree();
  for (int row : {0, 11, 42}) {
    Vector x = d.Row(row);
    auto reason =
        MinimumSufficientReason(tree, x, d.num_features()).ValueOrDie();
    uint64_t mask = IndicesToMask(reason.features);
    EXPECT_TRUE(IsSufficientReason(tree, x, mask));
    for (int f : reason.features) {
      EXPECT_FALSE(IsSufficientReason(tree, x, mask & ~(1ULL << f)))
          << "dropping feature " << f << " should break sufficiency";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SufficientReasonPropertyTest,
                         ::testing::Values(1, 2, 3, 4));

TEST(MinimumSufficientReasonTest, GreedyFallbackStillMinimal) {
  Dataset d = MakeLoans(500, 9);
  CartConfig config;
  config.max_depth = 7;
  auto model = DecisionTreeModel::Train(d, config).ValueOrDie();
  Vector x = d.Row(3);
  // Force the greedy path by setting exact_limit = 0.
  auto reason =
      MinimumSufficientReason(model.tree(), x, d.num_features(), 0)
          .ValueOrDie();
  uint64_t mask = IndicesToMask(reason.features);
  EXPECT_TRUE(IsSufficientReason(model.tree(), x, mask));
  for (int f : reason.features)
    EXPECT_FALSE(IsSufficientReason(model.tree(), x, mask & ~(1ULL << f)));
}

TEST(MinimumSufficientReasonTest, CountsChecks) {
  Tree tree = OrTree();
  auto reason = MinimumSufficientReason(tree, {1.0, -1.0}, 2).ValueOrDie();
  EXPECT_GT(reason.checks, 0);
}

}  // namespace
}  // namespace xai
