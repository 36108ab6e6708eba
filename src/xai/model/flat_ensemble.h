#ifndef XAI_MODEL_FLAT_ENSEMBLE_H_
#define XAI_MODEL_FLAT_ENSEMBLE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "xai/core/matrix.h"
#include "xai/model/tree.h"

namespace xai {

/// \brief Compiled inference kernel over a tree ensemble.
///
/// Every perturbation-based explainer (KernelSHAP, sampling Shapley, LIME,
/// Anchors, PDP, data valuation) bottlenecks on batch prediction over tree
/// ensembles, yet the pointer-walking path steps 48-byte AoS `TreeNode`
/// structs through a dispatch per row. A FlatEnsemble is built once from the
/// trees and stores all nodes in one contiguous structure-of-arrays block:
///
///   feature[n]  int32   split feature, or -1 for a leaf
///   bits[n]     double  split threshold for internal nodes, the leaf value
///                       for leaves (one payload slot, QuickScorer-style)
///   left[n]     int32   absolute index of the left child; the right child
///                       is always left[n] + 1 (children are re-laid
///                       adjacently during flattening)
///
/// which shrinks a node to 16 effective bytes and makes the step
///
///   node = left[node] + !(row[feature[node]] <= bits[node])
///
/// branch-reduced (a setcc, not a mispredictable jump; `!(a <= b)` rather
/// than `a > b` so NaN routes right exactly like the scalar path). Batch
/// prediction tiles rows x trees: a block of kRowBlock rows is pushed
/// through one tree before moving to the next, so each tree's node arrays
/// stay L1/L2-resident across the whole row tile instead of being re-read
/// per row.
///
/// Output convention. One kernel serves single trees, random forests and
/// GBDTs via a scale/base fold plus two post-ops:
///
///   raw(x)   = base + sum_t scales[t] * leaf_t(x)
///   score(x) = raw(x) / divisor            (when divisor > 0)
///   out(x)   = sigmoid(score(x))           (when sigmoid is set)
///
/// The fold is chosen at build time so results are BIT-IDENTICAL to the
/// scalar path being replaced (same per-tree accumulation order, same
/// operations): forests keep scales = 1 and divide by T at the end, because
/// (v0 + v1 + ...) / T is not bitwise (1/T)*v0 + (1/T)*v1 + ...; GBDTs fold
/// base_score into `base`; TreeEnsembleView folds its scales directly.
/// Multiplication by a scale of exactly 1.0 is exact in IEEE arithmetic, so
/// the fold never perturbs the forest/GBDT sums.
///
/// TreeSHAP side-table. The inference arrays above deliberately drop the
/// node covers (16 effective bytes/node is the whole point), but the exact
/// TreeSHAP kernel needs them — plus each tree's expected value and depth.
/// Those live in an optional side-table built lazily by EnsureTreeShapData
/// the first time TreeSHAP is requested, so pure-inference ensembles never
/// pay for it. The side-table is keyed by the same BFS sibling-adjacent
/// slot layout as the inference arrays (the flatten walk is shared), so
/// `cover[left[n]]` / `cover[left[n] + 1]` are the child covers of `n`.
///
/// Thread safety: immutable after Build; PredictRow / PredictBatch are
/// const-reentrant (the Model threading contract). PredictBatch partitions
/// rows over core/parallel.h and is bit-identical at any thread count.
/// EnsureTreeShapData is guarded by a shared mutex (copies of the ensemble
/// share the snapshot like LazyFlatEnsemble does) and is idempotent.
class FlatEnsemble {
 public:
  /// Rows per tile of the blocked batch traversal. 64 rows x 8 bytes of
  /// accumulator fits comfortably in L1 next to one tree's node block.
  static constexpr int kRowBlock = 64;

  struct Options {
    /// Additive offset the accumulator starts from (GBDT base_score).
    double base = 0.0;
    /// Per-tree output multipliers; empty means all 1.0. Must otherwise
    /// match the number of trees.
    std::vector<double> scales;
    /// When > 0 the accumulated sum is divided by this after the tree loop
    /// (random forests average AFTER summation).
    double divisor = 0.0;
    /// Apply the logistic link to the final score (GBDT classifiers).
    bool sigmoid = false;
  };

  FlatEnsemble() = default;

  /// Flattens `trees` (all non-empty, pointers non-null) into one SoA
  /// block. Records build time in the `model/flat_build_us` histogram.
  static FlatEnsemble Build(const std::vector<const Tree*>& trees,
                            Options options);

  int num_trees() const { return static_cast<int>(roots_.size()); }
  int num_nodes() const { return static_cast<int>(feature_.size()); }
  double base() const { return base_; }
  double divisor() const { return divisor_; }
  bool sigmoid() const { return sigmoid_; }
  /// Widest split feature + 1 (0 without splits): the fewest values a row
  /// may hold, since every kernel reads each split feature of the row.
  /// 64-bit so a parsed split feature of INT_MAX cannot overflow it.
  int64_t min_width() const { return min_width_; }
  /// The check message of every entry point that rejects a row narrower
  /// than min_width(), the tree walks' message.
  static constexpr const char* kNarrowRow = Tree::kNarrowRow;

  /// Prediction for one row (pointer to num-features contiguous doubles).
  /// Bit-identical to the scalar path the build options encode. The
  /// pointer forms read min_width() values unchecked; the Vector form and
  /// the batch paths check the width.
  double PredictRow(const double* row) const;
  double PredictRow(const Vector& row) const;

  /// Raw additive score for one row: divisor applied, sigmoid skipped
  /// (GBDT margin; equals PredictRow for non-sigmoid ensembles).
  double MarginRow(const double* row) const;

  /// Blocked batch prediction over every row of `x`, parallelized over the
  /// runtime (grain 256 rows). Bumps `model/flat_predict_rows`.
  Vector PredictBatch(const Matrix& x) const;

  /// Serial building block of PredictBatch: scores rows [begin, end) of
  /// `x` into out[begin..end). Exposed for benches that want the kernel
  /// without the ParallelFor wrapper.
  void ScoreRows(const Matrix& x, int64_t begin, int64_t end,
                 double* out) const;

  /// The post-ops of ScoreRows on one row's raw sum: the divisor, then the
  /// sigmoid (see the output convention above).
  double Finish(double acc) const;

  /// Per-node covers + per-tree expectations for the exact TreeSHAP kernel
  /// (explain/shapley/flat_tree_shap.h). Built by EnsureTreeShapData.
  struct TreeShapData {
    /// Training weight that reached each flat slot (TreeNode::cover laid
    /// out in the inference arrays' BFS slot order).
    std::vector<double> cover;
    /// Cover-weighted leaf mean per tree, accumulated in the original
    /// tree's node order so it is bit-identical to the per-call leaf scan
    /// of the test reference (tests/support/explain_reference.h).
    std::vector<double> expected;
    /// Max root-to-leaf depth per tree (arena sizing).
    std::vector<int32_t> depth;
    /// Max of `depth` over all trees.
    int max_depth = 0;
  };

  /// Builds (first call) and returns the TreeSHAP side-table. `trees` must
  /// be the same trees, in the same order, that Build flattened — the
  /// covers are re-laid with the identical BFS walk so slots line up.
  /// Thread-safe; the returned reference lives as long as any copy of this
  /// ensemble. Records build time in `model/flat_shap_build_us`.
  const TreeShapData& EnsureTreeShapData(
      const std::vector<const Tree*>& trees) const;

  /// The side-table if EnsureTreeShapData already ran, else nullptr.
  const TreeShapData* tree_shap_data() const;

  /// Read-only raw view over the SoA block for external kernels (the
  /// TreeSHAP walk); pointers are valid as long as this ensemble.
  struct NodeView {
    const int32_t* feature = nullptr;
    const double* bits = nullptr;
    const int32_t* left = nullptr;
    const int32_t* roots = nullptr;
    const double* scales = nullptr;
    int num_trees = 0;
    double base = 0.0;
  };
  NodeView nodes() const {
    return {feature_.data(), bits_.data(),   left_.data(), roots_.data(),
            scales_.data(),  num_trees(),    base_};
  }

 private:
  // One contiguous SoA block over all trees; see the class comment.
  std::vector<int32_t> feature_;
  std::vector<double> bits_;
  std::vector<int32_t> left_;
  /// Index of tree t's root inside the block.
  std::vector<int32_t> roots_;
  std::vector<double> scales_;
  double base_ = 0.0;
  double divisor_ = 0.0;
  bool sigmoid_ = false;
  int64_t min_width_ = 0;

  // Lazy TreeSHAP side-table; shared across copies (copies flatten equal
  // trees, so sharing the snapshot is sound — same reasoning as
  // LazyFlatEnsemble below).
  std::shared_ptr<std::mutex> shap_mu_ = std::make_shared<std::mutex>();
  mutable std::shared_ptr<const TreeShapData> shap_;
};

/// \brief Scores blocks of marginal-game coalitions on a tree ensemble
/// without building hybrid rows.
///
/// The hybrid row (S, b) of a coalition mask S takes the instance's value
/// for every feature in S and background row b's value elsewhere. At a
/// split on feature f it therefore goes the instance's way when f is in S
/// and row b's way otherwise, and both ways are known before any coalition
/// is seen (QuickScorer's precomputed split decisions, Lucchese et al.,
/// SIGIR 2015). Construction stores them once:
///
///   - one word per (node, 64-row background tile) whose bit b says whether
///     row b goes right, by the kernel's own predicate `!(x <= t)` so NaN
///     still goes right (leaf words stay 0);
///   - per node, whether the instance goes right (all ones or zero);
///   - per tree, the mask of features it splits on.
///
/// SumOver then never loads a feature. Per tile and tree it groups the
/// block's masks by `S & features(tree)` in a hash table, walks the tree
/// once per distinct group for all rows of the tile at once
/// (`reach(left) = reach & ~right`, `reach(right) = reach & right`, where
/// `right` is the instance's bit when the split feature is in S and the
/// background word otherwise), visits only nodes some row reaches, and
/// adds the group's leaf vector to each of its masks' row accumulators.
/// A tree forms at most min(masks, 2^|features(tree)|) groups, and the
/// leaf vectors are sized by that bound. SumOver scores up to 256 masks
/// per pass, and each pass counts one `model/scorer_passes`.
///
/// Bit identity: every row starts at `base`, adds `scale_t * leaf_t` in
/// tree order and finishes through Finish, and each mask's rows are summed
/// in background order — the operations, in order, of ScoreRows over the
/// hybrid rows followed by a serial sum. The accumulation is
/// simd::AddScaledRows, four trees per call: each lane does the same IEEE
/// operations as ScoreRows' loop, on every tier.
///
/// Thread safety: immutable after construction; SumOver is
/// const-reentrant and keeps its scratch per call.
class CoalitionScorer {
 public:
  /// `flat` is the model's kernel snapshot. Every split feature must lie
  /// inside the instance (XAI_CHECK), and the background must be as wide as
  /// the instance, which has at most 64 features.
  CoalitionScorer(std::shared_ptr<const FlatEnsemble> flat,
                  const Matrix& background, const Vector& instance);

  /// Background rows each mask's sum runs over.
  int num_rows() const { return rows_; }

  /// out[i] = the sum over background rows b, ascending, of the ensemble's
  /// prediction on the hybrid row (masks[i], b).
  void SumOver(std::span<const uint64_t> masks, std::span<double> out) const;

 private:
  /// Trees whose leaves one accumulate adds.
  static constexpr int kTrees = 4;

  /// Leaf vectors a pass over n masks needs: the most groups any batch of
  /// kTrees consecutive trees can form.
  int LeafRows(int n) const;
  void SumPass(std::span<const uint64_t> masks, std::span<double> out) const;

  std::shared_ptr<const FlatEnsemble> flat_;
  int rows_ = 0;
  int tiles_ = 0;
  int max_depth_ = 0;
  /// Background right-words, [tile * num_nodes + node].
  std::vector<uint64_t> row_right_;
  /// Instance right-words per node: all ones when the instance goes right.
  std::vector<uint64_t> instance_right_;
  /// Features each tree splits on, as a coalition mask.
  std::vector<uint64_t> tree_features_;
};

/// \brief Thread-safe lazily built FlatEnsemble cache for model classes.
///
/// Models are copied freely (Result<Model> returns by value), so the guard
/// mutex is shared; the cached kernel pointer itself is per-copy state that
/// copies shallowly (copies have equal trees, so sharing the snapshot is
/// sound). Invalidate() drops this copy's snapshot — call it from any
/// non-const accessor that exposes the trees for mutation.
class LazyFlatEnsemble {
 public:
  /// Returns the cached kernel, building it via `build` on first use.
  std::shared_ptr<const FlatEnsemble> GetOrBuild(
      const std::function<FlatEnsemble()>& build) const {
    std::lock_guard<std::mutex> lock(*mu_);
    if (flat_ == nullptr)
      flat_ = std::make_shared<const FlatEnsemble>(build());
    return flat_;
  }

  void Invalidate() {
    std::lock_guard<std::mutex> lock(*mu_);
    flat_.reset();
  }

 private:
  std::shared_ptr<std::mutex> mu_ = std::make_shared<std::mutex>();
  mutable std::shared_ptr<const FlatEnsemble> flat_;
};

}  // namespace xai

#endif  // XAI_MODEL_FLAT_ENSEMBLE_H_
