#include "xai/explain/shapley/flat_tree_shap.h"

#include <algorithm>
#include <cstddef>

#include "xai/core/check.h"
#include "xai/core/parallel.h"
#include "xai/core/telemetry.h"

namespace xai {
namespace {

/// One arena per OS thread, grown to the largest (depth, features) it has
/// served and then reused across trees, rows, batches, and requests — the
/// steady-state walk performs zero heap allocations. Pool workers persist
/// across ParallelFor calls, so serving traffic hits the reuse path on
/// every request after warm-up (observable via `tree_shap/arena_reuse`).
TreeShapArena& LocalArena() {
  static thread_local TreeShapArena arena;
  return arena;
}

}  // namespace

void TreeShapArena::Ensure(int max_depth, int num_features) {
  if (max_depth <= max_depth_ && num_features <= num_features_) {
    XAI_COUNTER_INC("tree_shap/arena_reuse");
    return;
  }
  max_depth_ = std::max(max_depth, max_depth_);
  num_features_ = std::max(num_features, num_features_);
  // Levels 0..max_depth+1, each holding up to max_depth+2 path elements;
  // see the aliasing argument in the class comment.
  stride_ = max_depth_ + 2;
  path_.resize(static_cast<size_t>(stride_) * stride_);
  // DFS holds at most one pending cold frame per ancestor depth plus the
  // two just-pushed children.
  stack_.resize(static_cast<size_t>(max_depth_) + 4);
  phi_tree_.resize(num_features_);
  XAI_COUNTER_INC("tree_shap/arena_grow");
}

FlatTreeShap FlatTreeShap::Build(const TreeEnsembleView& view) {
  FlatTreeShap kernel;
  kernel.flat_ = view.flat();
  kernel.shap_ = &kernel.flat_->EnsureTreeShapData(view.trees);
  kernel.nodes_ = kernel.flat_->nodes();
  // Same accumulation order as the reference's per-call loop (base, then
  // scaled expectations in tree order), over the cached per-tree
  // expectations.
  double base = kernel.nodes_.base;
  for (int t = 0; t < kernel.nodes_.num_trees; ++t)
    base += kernel.nodes_.scales[t] * kernel.shap_->expected[t];
  kernel.base_value_ = base;
  return kernel;
}

int FlatTreeShap::WalkTree(int32_t root, const double* row,
                           TreeShapArena* arena, double* phi) const {
  using treeshap::PathElement;
  const int32_t* feature = nodes_.feature;
  const double* bits = nodes_.bits;
  const int32_t* left = nodes_.left;
  const double* cover = shap_->cover.data();

  TreeShapArena::Frame* stack = arena->stack();
  PathElement* const level0 = arena->Level(0);
  const std::ptrdiff_t stride = arena->Level(1) - level0;
  int top = 0;
  int max_ud = 0;

  // Preorder DFS, hot child first — the exact visit (and therefore
  // leaf-accumulation) order of the recursive reference, with the same
  // shared path arithmetic, so every += lands bit-identically. The live
  // descent is held in locals and *chases the hot child* without touching
  // the stack; only cold siblings are pushed, and popping the most recent
  // pending cold frame is exactly where the recursion would resume after
  // unwinding its hot subtree.
  int32_t node = root;
  PathElement* path = level0;
  int32_t depth = 0;
  int ud = 0;
  double zero = 1.0, one = 1.0;
  int32_t feat = -1;

  for (;;) {
    treeshap::ExtendPath(path, ud, zero, one, feat);
    const int32_t fidx = feature[node];
    if (fidx < 0) {
      const double leaf = bits[node];
      for (int i = 1; i <= ud; ++i) {
        const double w = treeshap::UnwoundPathSum(path, ud, i);
        phi[path[i].feature_index] +=
            w * (path[i].one_fraction - path[i].zero_fraction) * leaf;
      }
      max_ud = std::max(max_ud, ud);
      if (top == 0) break;
      const TreeShapArena::Frame& f = stack[--top];
      node = f.node;
      path = level0 + f.path_level * stride;
      depth = f.depth;
      ud = f.unique_depth;
      zero = f.zero_fraction;
      one = f.one_fraction;
      feat = f.feature;
      continue;
    }

    const int32_t l = left[node];
    const int32_t r = l + 1;  // Sibling-adjacent layout.
    // `<=` routes NaN right exactly like the AoS walk.
    const bool goes_left = row[fidx] <= bits[node];
    const int32_t hot = goes_left ? l : r;
    const int32_t cold = goes_left ? r : l;
    const double total = cover[l] + cover[r];
    const double hot_zero = total > 0.0 ? cover[hot] / total : 0.0;
    const double cold_zero = total > 0.0 ? cover[cold] / total : 0.0;

    // A feature may appear on the path only once (Lundberg Algorithm 2):
    // undo a previous split on this feature before extending through it.
    double incoming_zero = 1.0;
    double incoming_one = 1.0;
    int path_index = 1;
    for (; path_index <= ud; ++path_index)
      if (path[path_index].feature_index == fidx) break;
    if (path_index <= ud) {
      incoming_zero = path[path_index].zero_fraction;
      incoming_one = path[path_index].one_fraction;
      treeshap::UnwindPath(path, ud, path_index);
      ud -= 1;
    }

    // The hot branch keeps extending this level's path in place; only the
    // cold branch snapshots the post-unwind state, into the level owned by
    // the child's tree depth (never aliased — see TreeShapArena).
    const int32_t child_depth = depth + 1;
    std::copy(path, path + ud + 1, level0 + child_depth * stride);
    stack[top++] = {cold,   child_depth, child_depth,
                    fidx,   ud + 1,      cold_zero * incoming_zero, 0.0};
    node = hot;
    depth = child_depth;
    ud += 1;
    zero = hot_zero * incoming_zero;
    one = incoming_one;
    feat = fidx;
  }
  return max_ud;
}

AttributionExplanation FlatTreeShap::Shap(const Vector& x) const {
  XAI_CHECK(flat_ != nullptr);
  const int d = static_cast<int>(x.size());
  // The walk reads row[feature] and adds into phi[feature] for every split
  // feature, so a narrower row would be read and written past its end.
  XAI_CHECK_MSG(d >= flat_->min_width(), FlatEnsemble::kNarrowRow);
  AttributionExplanation exp;
  exp.attributions.assign(d, 0.0);
  exp.base_value = base_value_;

  TreeShapArena& arena = LocalArena();
  arena.Ensure(shap_->max_depth, d);
  double* phi = arena.phi_tree();
  int max_ud = 0;
  for (int t = 0; t < nodes_.num_trees; ++t) {
    // Per-tree scratch zeroed then folded with the tree's scale — the same
    // two-step accumulation (and float ops) as the reference's per-tree
    // phis.
    std::fill(phi, phi + d, 0.0);
    max_ud = std::max(max_ud, WalkTree(nodes_.roots[t], x.data(), &arena,
                                       phi));
    const double scale = nodes_.scales[t];
    for (int j = 0; j < d; ++j) exp.attributions[j] += scale * phi[j];
  }
  exp.prediction = flat_->MarginRow(x.data());
  XAI_COUNTER_INC("tree_shap/flat_rows");
  XAI_HISTOGRAM_RECORD("tree_shap/path_depth", max_ud);
  return exp;
}

void FlatTreeShap::ShapRows(const Matrix& x, int64_t begin, int64_t end,
                            Matrix* out) const {
  const int d = x.cols();
  TreeShapArena& arena = LocalArena();
  arena.Ensure(shap_->max_depth, d);
  double* phi = arena.phi_tree();

  const double* rows[kRowBlock];
  double* outs[kRowBlock];
  int depth_seen[kRowBlock];
  for (int64_t block = begin; block < end; block += kRowBlock) {
    const int bn = static_cast<int>(std::min<int64_t>(kRowBlock,
                                                      end - block));
    for (int i = 0; i < bn; ++i) {
      rows[i] = x.RowPtr(static_cast<int>(block + i));
      outs[i] = out->RowPtr(static_cast<int>(block + i));
      std::fill(outs[i], outs[i] + d, 0.0);
      depth_seen[i] = 0;
    }
    // Rows x trees tile: one tree's nodes + covers service the whole row
    // tile from cache before the next tree's block is touched. Per-row
    // accumulation stays in ascending tree order, so each output row is
    // bit-identical to the single-instance walk regardless of tiling.
    for (int t = 0; t < nodes_.num_trees; ++t) {
      const int32_t root = nodes_.roots[t];
      const double scale = nodes_.scales[t];
      for (int i = 0; i < bn; ++i) {
        std::fill(phi, phi + d, 0.0);
        depth_seen[i] = std::max(depth_seen[i],
                                 WalkTree(root, rows[i], &arena, phi));
        double* o = outs[i];
        for (int j = 0; j < d; ++j) o[j] += scale * phi[j];
      }
    }
    for (int i = 0; i < bn; ++i)
      XAI_HISTOGRAM_RECORD("tree_shap/path_depth", depth_seen[i]);
  }
}

Matrix FlatTreeShap::ShapBatch(const Matrix& x) const {
  XAI_CHECK(flat_ != nullptr);
  XAI_CHECK_MSG(x.cols() >= flat_->min_width(), FlatEnsemble::kNarrowRow);
  Matrix out(x.rows(), x.cols());
  // Chunk grain equals the row tile so every chunk tiles cleanly; per-row
  // results are independent of the chunking, so output is bit-identical at
  // any thread count.
  ParallelFor(x.rows(), /*grain=*/kRowBlock,
              [&](int64_t begin, int64_t end, int64_t) {
                ShapRows(x, begin, end, &out);
              });
  XAI_COUNTER_ADD("tree_shap/flat_rows", x.rows());
  return out;
}

}  // namespace xai
