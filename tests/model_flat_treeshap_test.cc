// Tests for the flat iterative TreeSHAP kernel
// (explain/shapley/flat_tree_shap.h): bitwise identity against the
// recursive AoS reference (tests/support/explain_reference.h) across model
// kinds and thread counts, on trained models and on generated random
// ensembles, the lazily built cover side-table, batch-vs-loop equality, the
// row-width check, and the structural edge cases (duplicate features on a
// path, NaN routing, constant / empty / deep-degenerate trees, >64-feature
// models).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "support/explain_reference.h"
#include "xai/core/combinatorics.h"
#include "xai/core/parallel.h"
#include "xai/core/rng.h"
#include "xai/data/synthetic.h"
#include "xai/explain/shapley/flat_tree_shap.h"
#include "xai/explain/shapley/tree_shap.h"
#include "xai/model/decision_tree.h"
#include "xai/model/gbdt.h"
#include "xai/model/random_forest.h"
#include "xai/model/tree_ensemble_view.h"

namespace xai {
namespace {

using reference::TreeConditionalExpectation;
using reference::TreeExpectedValue;
using reference::TreeShapLegacy;

class ThreadsGuard {
 public:
  ThreadsGuard() : saved_(GetNumThreads()) {}
  ~ThreadsGuard() { SetNumThreads(saved_); }

 private:
  int saved_;
};

// The flat kernel's contract is BITWISE identity with the recursive
// reference, not closeness: compared as bits, -0.0 differs from 0.0. Every
// expected output is finite, and the kernel shares its path arithmetic with
// the reference (tree_shap_path.h), so a NaN never matches, not even an
// identical one on both sides.
bool SameBits(double a, double b) {
  uint64_t x, y;
  std::memcpy(&x, &a, sizeof(x));
  std::memcpy(&y, &b, sizeof(y));
  return x == y && !std::isnan(a);
}

void ExpectBitIdentical(const AttributionExplanation& a,
                        const AttributionExplanation& b) {
  ASSERT_EQ(a.attributions.size(), b.attributions.size());
  for (size_t j = 0; j < a.attributions.size(); ++j)
    EXPECT_TRUE(SameBits(a.attributions[j], b.attributions[j]))
        << "feature " << j << ": " << a.attributions[j] << " vs "
        << b.attributions[j];
  EXPECT_TRUE(SameBits(a.base_value, b.base_value))
      << a.base_value << " vs " << b.base_value;
  EXPECT_TRUE(SameBits(a.prediction, b.prediction))
      << a.prediction << " vs " << b.prediction;
}

// Flat TreeShap vs the recursive reference on every row, at 1, 4 and 8
// threads (the reference parallelizes over trees, the flat kernel is
// serial per instance — both must be thread-count-invariant).
void CheckViewAgainstLegacy(const TreeEnsembleView& view, const Dataset& d,
                            int rows) {
  ThreadsGuard guard;
  for (int threads : {1, 4, 8}) {
    SetNumThreads(threads);
    for (int i = 0; i < rows; ++i) {
      Vector row = d.Row(i);
      ExpectBitIdentical(TreeShap(view, row), TreeShapLegacy(view, row));
    }
  }
}

TEST(FlatTreeShapTest, ForestBitIdenticalToLegacyAcrossThreadCounts) {
  Dataset d = MakeLoans(200, 21);
  RandomForestConfig config;
  config.n_trees = 12;
  auto model = RandomForestModel::Train(d, config).ValueOrDie();
  TreeEnsembleView view = TreeEnsembleView::Of(model);
  CheckViewAgainstLegacy(view, d, 40);
}

TEST(FlatTreeShapTest, GbdtBitIdenticalToLegacyAcrossThreadCounts) {
  Dataset d = MakeLoans(200, 22);
  GbdtConfig config;
  config.n_trees = 20;
  auto model = GbdtModel::Train(d, config).ValueOrDie();
  TreeEnsembleView view = TreeEnsembleView::Of(model);
  CheckViewAgainstLegacy(view, d, 40);
}

TEST(FlatTreeShapTest, SingleTreeBitIdenticalToLegacy) {
  Dataset d = MakeLoans(200, 23);
  auto model = DecisionTreeModel::Train(d).ValueOrDie();
  TreeEnsembleView view = TreeEnsembleView::Of(model);
  CheckViewAgainstLegacy(view, d, 40);
}

TEST(FlatTreeShapTest, BatchMatchesPerRowCallsAtAnyThreadCount) {
  Dataset d = MakeLoans(150, 24);
  GbdtConfig config;
  config.n_trees = 15;
  auto model = GbdtModel::Train(d, config).ValueOrDie();
  TreeEnsembleView view = TreeEnsembleView::Of(model);

  // Per-row references computed serially once.
  ThreadsGuard guard;
  SetNumThreads(1);
  std::vector<AttributionExplanation> per_row;
  for (int i = 0; i < d.num_rows(); ++i)
    per_row.push_back(TreeShap(view, d.Row(i)));

  for (int threads : {1, 4, 8}) {
    SetNumThreads(threads);
    TreeShapBatchResult batch = TreeShapBatch(view, d.x());
    ASSERT_EQ(batch.attributions.rows(), d.num_rows());
    ASSERT_EQ(batch.attributions.cols(), d.num_features());
    ASSERT_EQ(static_cast<int>(batch.predictions.size()), d.num_rows());
    for (int i = 0; i < d.num_rows(); ++i) {
      for (int j = 0; j < d.num_features(); ++j)
        EXPECT_EQ(batch.attributions(i, j), per_row[i].attributions[j])
            << "row " << i << " feature " << j << " threads " << threads;
      EXPECT_EQ(batch.predictions[i], per_row[i].prediction);
      EXPECT_EQ(batch.base_value, per_row[i].base_value);
    }
  }
}

// Root and a grandchild split the same feature: the walk must unwind the
// earlier occurrence (each feature appears on a path once). Checked both
// against the reference and against brute-force exact Shapley values.
TEST(FlatTreeShapTest, DuplicateFeatureAlongPath) {
  std::vector<TreeNode> nodes(7);
  nodes[0] = {0, 0.0, 1, 2, 0.0, 16.0};
  nodes[1] = {-1, 0.0, -1, -1, 1.0, 6.0};
  nodes[2] = {1, 3.0, 3, 4, 0.0, 10.0};
  nodes[3] = {0, -2.0, 5, 6, 0.0, 7.0};  // Splits feature 0 again.
  nodes[4] = {-1, 0.0, -1, -1, 9.0, 3.0};
  nodes[5] = {-1, 0.0, -1, -1, 4.0, 2.0};
  nodes[6] = {-1, 0.0, -1, -1, 6.0, 5.0};
  Tree tree(std::move(nodes));

  TreeEnsembleView view;
  view.trees.push_back(&tree);
  view.scales.push_back(1.0);

  for (Vector x : {Vector{1.0, 2.0}, Vector{1.0, 4.0}, Vector{-1.0, 0.0}}) {
    AttributionExplanation flat = TreeShap(view, x);
    ExpectBitIdentical(flat, TreeShapLegacy(view, x));
    std::vector<double> exact = ShapleyOfSetFunction(2, [&](uint64_t mask) {
      return TreeConditionalExpectation(tree, x, mask);
    });
    EXPECT_NEAR(flat.attributions[0], exact[0], 1e-9);
    EXPECT_NEAR(flat.attributions[1], exact[1], 1e-9);
  }
}

// The cold side of a split whose child has zero cover enters the path with
// both fractions 0, which zeroes the path's weights. When that feature
// splits again below it, the unwind must leave them 0: dividing them by
// that zero fraction makes them NaN, and the NaN reaches every other
// feature's attribution. The zero-cover subtree has weight 0 in every
// coalition, so the values are those of the tree without it.
TEST(FlatTreeShapTest, ZeroCoverColdBranchWithRepeatedFeatureStaysFinite) {
  std::vector<TreeNode> nodes(7);
  nodes[0] = {1, 0.0, 1, 2, 0.0, 10.0};
  nodes[1] = {0, 0.0, 3, 4, 0.0, 4.0};
  nodes[2] = {-1, 0.0, -1, -1, 3.0, 6.0};
  nodes[3] = {-1, 0.0, -1, -1, 1.0, 4.0};
  nodes[4] = {0, 1.0, 5, 6, 0.0, 0.0};  // Zero cover; splits feature 0 again.
  nodes[5] = {-1, 0.0, -1, -1, 5.0, 0.0};
  nodes[6] = {-1, 0.0, -1, -1, 7.0, 0.0};
  Tree tree(std::move(nodes));
  TreeEnsembleView view;
  view.trees.push_back(&tree);
  view.scales.push_back(1.0);

  const Vector x = {-1.0, -1.0};
  AttributionExplanation flat = TreeShap(view, x);
  ExpectBitIdentical(flat, TreeShapLegacy(view, x));
  std::vector<double> exact = ShapleyOfSetFunction(2, [&](uint64_t mask) {
    return TreeConditionalExpectation(tree, x, mask);
  });
  // v(S) = 1 when S knows feature 1, else (4 * 1 + 6 * 3) / 10 = 2.2.
  EXPECT_NEAR(exact[0], 0.0, 1e-15);
  EXPECT_NEAR(exact[1], -1.2, 1e-15);
  for (int j = 0; j < 2; ++j)
    EXPECT_NEAR(flat.attributions[j], exact[j], 1e-12) << "feature " << j;
}

TEST(FlatTreeShapTest, NanRoutesRightLikeTheReference) {
  Dataset d = MakeLoans(100, 25);
  GbdtConfig config;
  config.n_trees = 8;
  auto model = GbdtModel::Train(d, config).ValueOrDie();
  TreeEnsembleView view = TreeEnsembleView::Of(model);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (int i = 0; i < 10; ++i) {
    Vector row = d.Row(i);
    row[i % d.num_features()] = nan;
    ExpectBitIdentical(TreeShap(view, row), TreeShapLegacy(view, row));
  }
}

TEST(FlatTreeShapTest, ConstantTreeGivesZeroAttributions) {
  std::vector<TreeNode> nodes(1);
  nodes[0] = {-1, 0.0, -1, -1, 4.2, 10.0};
  Tree tree(std::move(nodes));
  TreeEnsembleView view;
  view.trees.push_back(&tree);
  view.scales.push_back(2.0);

  Vector x = {1.0, 2.0};
  AttributionExplanation exp = TreeShap(view, x);
  ExpectBitIdentical(exp, TreeShapLegacy(view, x));
  EXPECT_EQ(exp.attributions[0], 0.0);
  EXPECT_EQ(exp.attributions[1], 0.0);
  EXPECT_EQ(exp.base_value, 2.0 * 4.2);
  EXPECT_EQ(exp.prediction, 2.0 * 4.2);
}

// The degenerate empty ensemble: a view over zero trees. Attributions are
// all zero, the base value and prediction collapse to view.base.
TEST(FlatTreeShapTest, EmptyEnsembleGivesBaseOnly) {
  TreeEnsembleView view;
  view.base = 0.75;

  Vector x = {1.0, -2.0};
  AttributionExplanation exp = TreeShap(view, x);
  ExpectBitIdentical(exp, TreeShapLegacy(view, x));
  EXPECT_EQ(exp.attributions[0], 0.0);
  EXPECT_EQ(exp.attributions[1], 0.0);
  EXPECT_EQ(exp.base_value, 0.75);
  EXPECT_EQ(exp.prediction, 0.75);

  Matrix rows(2, 2);
  TreeShapBatchResult batch = TreeShapBatch(view, rows);
  EXPECT_EQ(batch.base_value, 0.75);
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(batch.attributions(i, 0), 0.0);
    EXPECT_EQ(batch.attributions(i, 1), 0.0);
    EXPECT_EQ(batch.predictions[i], 0.75);
  }
}

// Left-leaning chain 40 levels deep cycling through 3 features: stresses
// the arena's per-depth path buffers and the repeated-feature unwind far
// beyond trained-tree depths.
TEST(FlatTreeShapTest, DeepDegenerateChainTree) {
  const int kDepth = 40;
  // [split, right-leaf] pairs; each split's left child is the next split,
  // the last split's left child is the final leaf.
  std::vector<TreeNode> nodes;
  int index = 0;
  for (int level = 0; level < kDepth; ++level) {
    TreeNode split;
    split.feature = level % 3;
    split.threshold = static_cast<double>(level) - 20.0;
    split.left = index + 2;   // Next split (or the final leaf).
    split.right = index + 1;  // Leaf.
    split.cover = static_cast<double>(2 * (kDepth - level) + 2);
    nodes.push_back(split);
    TreeNode leaf;
    leaf.feature = -1;
    leaf.value = static_cast<double>(level % 7) - 3.0;
    leaf.cover = 2.0;
    nodes.push_back(leaf);
    index += 2;
  }
  TreeNode last;
  last.feature = -1;
  last.value = 11.0;
  last.cover = 2.0;
  nodes.push_back(last);
  Tree tree(std::move(nodes));
  ASSERT_EQ(tree.Depth(), kDepth);

  TreeEnsembleView view;
  view.trees.push_back(&tree);
  view.scales.push_back(1.0);
  for (Vector x : {Vector{-30.0, 0.0, 5.0}, Vector{25.0, -25.0, 0.0},
                   Vector{0.0, 0.0, 0.0}}) {
    ExpectBitIdentical(TreeShap(view, x), TreeShapLegacy(view, x));
  }
}

TEST(FlatTreeShapTest, MoreThanSixtyFourFeatures) {
  auto [d, truth] = MakeLinearData(200, 70, 0.1, 26);
  RandomForestConfig config;
  config.n_trees = 6;
  config.max_depth = 6;
  auto model = RandomForestModel::Train(d, config).ValueOrDie();
  TreeEnsembleView view = TreeEnsembleView::Of(model);
  for (int i = 0; i < 15; ++i) {
    Vector row = d.Row(i);
    ExpectBitIdentical(TreeShap(view, row), TreeShapLegacy(view, row));
  }
}

// The lazily built side-table caches per-tree expectations bit-identical
// to the per-call TreeExpectedValue scans, and building it twice returns
// the same snapshot.
TEST(FlatTreeShapTest, SideTableCachesExpectedValues) {
  Dataset d = MakeLoans(200, 27);
  RandomForestConfig config;
  config.n_trees = 7;
  auto model = RandomForestModel::Train(d, config).ValueOrDie();
  TreeEnsembleView view = TreeEnsembleView::Of(model);

  auto flat = view.flat();
  EXPECT_EQ(flat->tree_shap_data(), nullptr);  // Not built yet.
  const FlatEnsemble::TreeShapData& data =
      flat->EnsureTreeShapData(view.trees);
  EXPECT_EQ(&flat->EnsureTreeShapData(view.trees), &data);  // Idempotent.
  ASSERT_EQ(static_cast<int>(data.expected.size()), view.num_trees());
  for (int t = 0; t < view.num_trees(); ++t) {
    EXPECT_EQ(data.expected[t], TreeExpectedValue(*view.trees[t]));
    EXPECT_EQ(data.depth[t], view.trees[t]->Depth());
  }
  EXPECT_GT(data.max_depth, 0);
  ASSERT_EQ(static_cast<int>(data.cover.size()), flat->num_nodes());

  FlatTreeShap kernel = FlatTreeShap::Build(view);
  double base = view.base;
  for (int t = 0; t < view.num_trees(); ++t)
    base += view.scales[t] * data.expected[t];
  EXPECT_EQ(kernel.base_value(), base);
  EXPECT_EQ(kernel.max_depth(), data.max_depth);
}

// A row narrower than the ensemble's widest split feature would be read,
// and its attributions written, past its end; both entry points refuse it.
TEST(FlatTreeShapDeathTest, RowNarrowerThanWidestSplitFeatureAborts) {
  std::vector<TreeNode> nodes(3);
  nodes[0] = {5, 0.0, 1, 2, 0.0, 4.0};
  nodes[1] = {-1, 0.0, -1, -1, 1.0, 2.0};
  nodes[2] = {-1, 0.0, -1, -1, 3.0, 2.0};
  Tree tree(std::move(nodes));
  TreeEnsembleView view;
  view.trees.push_back(&tree);
  view.scales.push_back(1.0);

  EXPECT_EQ(view.flat()->min_width(), 6);
  EXPECT_DEATH(TreeShap(view, Vector{1.0, 2.0}), "narrower than");
  EXPECT_DEATH(TreeShapBatch(view, Matrix(3, 2)), "narrower than");
  // Six values reach feature 5.
  AttributionExplanation exp = TreeShap(view, Vector(6, 1.0));
  EXPECT_EQ(exp.prediction, 3.0);
  EXPECT_EQ(TreeShapBatch(view, Matrix(3, 6)).predictions[2], 1.0);
}

// ---- Generated ensembles: flat kernel vs the recursive reference ---------

// Split thresholds and most row values share one coarse grid, so rows land
// exactly on thresholds (where `x <= t` routes left).
double GridValue(Rng* rng) { return 0.5 * (rng->UniformInt(9) - 4); }

// Grows one random tree in preorder: a node becomes a leaf with probability
// `stop`, and always at `max_depth`. Split features favour those already on
// the path, so features repeat along paths. A fifth of the leaves carry
// zero cover, and an internal node's cover is the sum of its children's, so
// whole subtrees (children, or both children of one split) have zero cover.
int GrowNode(Rng* rng, int depth, int max_depth, double stop,
             int num_features, std::vector<int>* path,
             std::vector<TreeNode>* nodes) {
  const int index = static_cast<int>(nodes->size());
  nodes->emplace_back();
  if (depth == max_depth || rng->Bernoulli(stop)) {
    TreeNode& leaf = (*nodes)[index];
    leaf.value = rng->Uniform(-2.0, 2.0);
    leaf.cover = rng->Bernoulli(0.2) ? 0.0 : rng->UniformInt(1, 7);
    return index;
  }
  const int feature =
      !path->empty() && rng->Bernoulli(0.4)
          ? (*path)[rng->UniformInt(static_cast<int>(path->size()))]
          : rng->UniformInt(num_features);
  const double threshold = GridValue(rng);
  path->push_back(feature);
  const int left =
      GrowNode(rng, depth + 1, max_depth, stop, num_features, path, nodes);
  const int right =
      GrowNode(rng, depth + 1, max_depth, stop, num_features, path, nodes);
  path->pop_back();
  TreeNode& node = (*nodes)[index];
  node.feature = feature;
  node.threshold = threshold;
  node.left = left;
  node.right = right;
  node.cover = (*nodes)[left].cover + (*nodes)[right].cover;
  return index;
}

// Rows on the threshold grid, off it, and at NaN, +-inf and -0.0.
Matrix GenerateRows(Rng* rng, int rows, int num_features) {
  const double inf = std::numeric_limits<double>::infinity();
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(), inf,
                             -inf, -0.0};
  Matrix x(rows, num_features);
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < num_features; ++j) {
      const double u = rng->Uniform();
      x(i, j) = u < 0.15   ? specials[rng->UniformInt(4)]
                : u < 0.75 ? GridValue(rng)
                           : rng->Uniform(-2.5, 2.5);
    }
  }
  return x;
}

// TreeShap and TreeShapBatch (1, 4 and 8 threads) against the recursive
// reference, bit for bit, on random ensembles of 1-30 trees of depth 0-12
// over 1-70 features. On 10 or fewer features the attributions must also
// match brute-force Shapley values of the path-conditional game, which
// checks the path arithmetic the kernel and the reference share
// (tree_shap_path.h) against an independent computation.
TEST(FlatTreeShapTest, GeneratedEnsemblesMatchReference) {
  ThreadsGuard guard;
  const double kScales[] = {0.0, -1.0, 1.0, 0.5, -0.25, 1.5};
  int deep_trees = 0, zero_cover_children = 0, brute_force_rows = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const int num_features =
        1 + rng.UniformInt(seed % 2 == 0 ? 10 : 70);
    const int num_trees = 1 + rng.UniformInt(30);
    std::vector<Tree> trees;
    for (int t = 0; t < num_trees; ++t) {
      std::vector<TreeNode> nodes;
      std::vector<int> path;
      GrowNode(&rng, 0, rng.UniformInt(13), 0.35, num_features, &path,
               &nodes);
      for (const TreeNode& n : nodes) {
        if (n.IsLeaf()) continue;
        zero_cover_children += (nodes[n.left].cover == 0.0) +
                               (nodes[n.right].cover == 0.0);
      }
      trees.emplace_back(std::move(nodes));
      deep_trees += trees.back().Depth() > 8;
    }
    TreeEnsembleView view;
    view.base = rng.Uniform(-3.0, 3.0);
    for (const Tree& tree : trees) {
      view.trees.push_back(&tree);
      view.scales.push_back(rng.Bernoulli(0.5) ? kScales[rng.UniformInt(6)]
                                               : rng.Uniform(-2.0, 2.0));
    }
    const Matrix x = GenerateRows(&rng, 1 + rng.UniformInt(20),
                                  num_features);

    SetNumThreads(1);
    std::vector<AttributionExplanation> want;
    for (int i = 0; i < x.rows(); ++i) {
      const Vector row = x.Row(i);
      want.push_back(TreeShapLegacy(view, row));
      const AttributionExplanation got = TreeShap(view, row);
      {
        SCOPED_TRACE("row " + std::to_string(i));
        ExpectBitIdentical(got, want[i]);
      }

      if (num_features > 10 || i >= 2) continue;
      ++brute_force_rows;
      const std::vector<double> exact =
          ShapleyOfSetFunction(num_features, [&](uint64_t mask) {
            double v = 0.0;
            for (int t = 0; t < num_trees; ++t)
              v += view.scales[t] *
                   TreeConditionalExpectation(trees[t], row, mask);
            return v;
          });
      for (int j = 0; j < num_features; ++j)
        EXPECT_NEAR(got.attributions[j], exact[j], 1e-12)
            << "row " << i << " feature " << j;
    }

    for (int threads : {1, 4, 8}) {
      SetNumThreads(threads);
      const TreeShapBatchResult batch = TreeShapBatch(view, x);
      ASSERT_EQ(batch.attributions.rows(), x.rows());
      ASSERT_EQ(batch.attributions.cols(), num_features);
      for (int i = 0; i < x.rows(); ++i) {
        for (int j = 0; j < num_features; ++j)
          EXPECT_TRUE(SameBits(batch.attributions(i, j),
                               want[i].attributions[j]))
              << "threads " << threads << " row " << i << " feature " << j;
        EXPECT_TRUE(SameBits(batch.predictions[i], want[i].prediction))
            << "threads " << threads << " row " << i;
        EXPECT_TRUE(SameBits(batch.base_value, want[i].base_value))
            << "threads " << threads;
      }
    }
  }
  // The generator reaches the shapes the test is for.
  EXPECT_GT(deep_trees, 0);
  EXPECT_GT(zero_cover_children, 0);
  EXPECT_GT(brute_force_rows, 0);
}

}  // namespace
}  // namespace xai
