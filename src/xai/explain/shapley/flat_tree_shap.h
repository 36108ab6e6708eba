#ifndef XAI_EXPLAIN_SHAPLEY_FLAT_TREE_SHAP_H_
#define XAI_EXPLAIN_SHAPLEY_FLAT_TREE_SHAP_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "xai/core/matrix.h"
#include "xai/explain/explanation.h"
#include "xai/explain/shapley/tree_shap_path.h"
#include "xai/model/flat_ensemble.h"
#include "xai/model/tree_ensemble_view.h"

namespace xai {

/// \brief Preallocated scratch for the iterative TreeSHAP walk: one path
/// buffer per tree level, an explicit node stack, and the per-tree phi
/// accumulator. Sized once per (max_depth, num_features) and reused across
/// trees, rows, and requests — the walk itself never touches the heap.
///
/// Layout contract. The walk descends the *hot* child (the one the
/// instance follows) by extending the current level's path buffer in
/// place; only the *cold* branch snapshots the path, into the buffer of
/// the child's tree depth. At most one cold snapshot is pending per depth
/// at any time (they correspond to ancestors of the DFS position), and the
/// hot chain's working buffer always has a strictly smaller level index
/// than any pending cold snapshot, so `(max_depth + 2)` buffers of
/// `(max_depth + 2)` elements each can never alias: (max_depth+2)^2
/// path elements total, the arena bound quoted in DESIGN.md §14.
class TreeShapArena {
 public:
  /// Grows the arena if `max_depth` / `num_features` exceed the current
  /// capacity; otherwise reuses the existing block. Bumps the
  /// `tree_shap/arena_reuse` (capacity hit) or `tree_shap/arena_grow`
  /// (reallocation) counter so steady-state zero-allocation is observable.
  void Ensure(int max_depth, int num_features);

  treeshap::PathElement* Level(int level) {
    return path_.data() + static_cast<size_t>(level) * stride_;
  }
  double* phi_tree() { return phi_tree_.data(); }

  struct Frame {
    int32_t node = 0;          // Flat slot to visit.
    int32_t path_level = 0;    // Arena level holding this frame's path.
    int32_t depth = 0;         // Tree depth of the node (level allocator).
    int32_t feature = -1;      // Parent split feature (-1 at the root).
    int32_t unique_depth = 0;  // Path length on entry (pre-extend).
    double zero_fraction = 1.0;
    double one_fraction = 1.0;
  };
  Frame* stack() { return stack_.data(); }

 private:
  std::vector<treeshap::PathElement> path_;
  std::vector<Frame> stack_;
  std::vector<double> phi_tree_;
  int stride_ = 0;
  int max_depth_ = -1;
  int num_features_ = -1;
};

/// \brief Iterative, allocation-free polynomial TreeSHAP over the flat SoA
/// ensemble (DESIGN.md §14).
///
/// The recursive reference walk (tests/support/explain_reference.h)
/// chases 48-byte AoS TreeNode structs and copies the live path once per
/// internal node — a heap allocation per visit. This kernel walks the
/// 16-byte-effective flat inference layout plus its lazily built cover
/// side-table (FlatEnsemble::EnsureTreeShapData), replaces recursion with
/// an explicit node stack, and extends the hot branch's path in place so
/// only cold branches pay a (stack-arena) snapshot. Per-node float
/// arithmetic is the shared tree_shap_path.h code, executed in the same
/// DFS order as the recursion, so attributions and base values are
/// BIT-IDENTICAL to the reference walk — at any thread count.
///
/// Cheap to construct once the underlying caches are warm: Build reuses
/// the view's cached FlatEnsemble and the ensemble's cached side-table, so
/// the serving path constructs one per request for the price of two
/// shared_ptr copies.
class FlatTreeShap {
 public:
  /// Rows per tile of the batch walk: one tree's node block and covers
  /// service the whole row tile from cache before the next tree is
  /// touched. Also the ParallelFor grain, so chunks tile cleanly.
  static constexpr int kRowBlock = 8;

  FlatTreeShap() = default;

  /// Compiles (or reuses) the view's flat kernel and TreeSHAP side-table.
  /// The view must outlive nothing — the returned object shares ownership
  /// of the flat ensemble; only `view.base` and the tree count are copied.
  static FlatTreeShap Build(const TreeEnsembleView& view);

  /// view.base + sum_t scales[t] * E[tree_t] — the cached base value every
  /// explanation shares (bit-identical to the reference's per-call leaf
  /// scans).
  double base_value() const { return base_value_; }
  int num_trees() const { return nodes_.num_trees; }
  int max_depth() const { return shap_->max_depth; }
  int64_t num_nodes() const { return flat_->num_nodes(); }

  /// Exact Shapley attributions of one instance; bit-identical to the
  /// reference walk. Serial over trees (single-row latency is already
  /// sub-millisecond; batch throughput parallelizes over rows). `x` must
  /// hold at least FlatEnsemble::min_width() values (CHECKed).
  AttributionExplanation Shap(const Vector& x) const;

  /// Attributions for every row of `x` (rows x features), blocked
  /// rows-by-trees and parallelized over row tiles with tree-ordered
  /// accumulation: row i of the result is bit-identical to Shap(x.Row(i))
  /// — and therefore to the reference walk — at any thread count. `x` must
  /// have at least FlatEnsemble::min_width() columns (CHECKed).
  Matrix ShapBatch(const Matrix& x) const;

 private:
  /// Serial building block of ShapBatch: attributions for rows
  /// [begin, end) into out rows [begin, end).
  void ShapRows(const Matrix& x, int64_t begin, int64_t end,
                Matrix* out) const;

  /// One (tree, row) polynomial walk accumulating into phi (d doubles,
  /// caller-zeroed). Returns the deepest unique path depth reached.
  int WalkTree(int32_t root, const double* row, TreeShapArena* arena,
               double* phi) const;

  std::shared_ptr<const FlatEnsemble> flat_;
  const FlatEnsemble::TreeShapData* shap_ = nullptr;
  FlatEnsemble::NodeView nodes_;
  double base_value_ = 0.0;
};

}  // namespace xai

#endif  // XAI_EXPLAIN_SHAPLEY_FLAT_TREE_SHAP_H_
