#include "xai/model/flat_ensemble.h"

#include <algorithm>
#include <bit>
#include <deque>
#include <limits>
#include <utility>

#include "xai/core/check.h"
#include "xai/core/parallel.h"
#include "xai/core/simd.h"
#include "xai/core/telemetry.h"
#include "xai/core/timer.h"
#include "xai/core/trace.h"
#include "xai/model/model.h"  // kPredictSpanMinRows.
#include "xai/model/logistic_regression.h"

namespace xai {
namespace {

/// Replays the BFS sibling-adjacent re-layout over `trees`, invoking
/// `emit(tree_index, original_node, slot, left_child_slot)` for every node
/// in slot order (left_child_slot is 0 for leaves; the right child always
/// sits at left_child_slot + 1). Both the inference arrays (Build) and the
/// TreeSHAP cover side-table (EnsureTreeShapData) are laid out through this
/// one walk, so their slot numbering can never diverge. Returns the total
/// slot count.
template <typename Emit>
int32_t ForEachFlatSlot(const std::vector<const Tree*>& trees,
                        const Emit& emit) {
  int32_t next = 0;
  for (int t = 0; t < static_cast<int>(trees.size()); ++t) {
    const std::vector<TreeNode>& nodes = trees[t]->nodes();
    const int32_t root = next++;
    // (original node index, flattened slot) pairs still to emit.
    std::deque<std::pair<int, int32_t>> pending;
    pending.emplace_back(0, root);
    while (!pending.empty()) {
      auto [orig, slot] = pending.front();
      pending.pop_front();
      const TreeNode& n = nodes[orig];
      if (n.IsLeaf()) {
        emit(t, orig, slot, 0);
      } else {
        emit(t, orig, slot, next);
        pending.emplace_back(n.left, next);
        pending.emplace_back(n.right, next + 1);
        next += 2;
      }
    }
  }
  return next;
}

}  // namespace

FlatEnsemble FlatEnsemble::Build(const std::vector<const Tree*>& trees,
                                 Options options) {
  WallTimer timer;
  FlatEnsemble flat;
  flat.base_ = options.base;
  flat.divisor_ = options.divisor;
  flat.sigmoid_ = options.sigmoid;

  if (options.scales.empty()) {
    flat.scales_.assign(trees.size(), 1.0);
  } else {
    XAI_CHECK_EQ(options.scales.size(), trees.size());
    flat.scales_ = std::move(options.scales);
  }

  int64_t total_nodes = 0;
  for (const Tree* tree : trees) {
    XAI_CHECK(tree != nullptr);
    XAI_CHECK_MSG(!tree->empty(), "cannot flatten an empty tree");
    total_nodes += tree->num_nodes();
  }
  XAI_CHECK_LE(total_nodes, std::numeric_limits<int32_t>::max());

  flat.feature_.resize(total_nodes);
  flat.bits_.resize(total_nodes);
  flat.left_.resize(total_nodes);
  flat.roots_.reserve(trees.size());

  // Re-lay each tree breadth-first with sibling pairs adjacent: the right
  // child always sits at left + 1, which is what makes the traversal step
  // `left + !(x <= t)` valid, and keeps the hot top levels of the tree in
  // a handful of consecutive cache lines.
  int32_t next = ForEachFlatSlot(
      trees, [&](int t, int orig, int32_t slot, int32_t children) {
        const TreeNode& n = trees[t]->nodes()[orig];
        if (orig == 0) flat.roots_.push_back(slot);
        if (n.IsLeaf()) {
          flat.feature_[slot] = -1;
          flat.bits_[slot] = n.value;
          flat.left_[slot] = 0;
        } else {
          flat.feature_[slot] = n.feature;
          flat.bits_[slot] = n.threshold;
          flat.left_[slot] = children;
          flat.min_width_ = std::max(flat.min_width_, int64_t{n.feature} + 1);
        }
      });
  XAI_CHECK_EQ(static_cast<int64_t>(next), total_nodes);

  XAI_HISTOGRAM_RECORD("model/flat_build_us", timer.Nanos() / 1000);
  return flat;
}

double FlatEnsemble::Finish(double acc) const {
  if (divisor_ > 0.0) acc /= divisor_;
  if (sigmoid_) acc = Sigmoid(acc);
  return acc;
}

double FlatEnsemble::PredictRow(const double* row) const {
  const double margin = MarginRow(row);
  return sigmoid_ ? Sigmoid(margin) : margin;
}

double FlatEnsemble::PredictRow(const Vector& row) const {
  XAI_CHECK_MSG(static_cast<int64_t>(row.size()) >= min_width_, kNarrowRow);
  return PredictRow(row.data());
}

double FlatEnsemble::MarginRow(const double* row) const {
  XAI_COUNTER_INC("model/flat_predict_rows");
  const int32_t* feature = feature_.data();
  const double* bits = bits_.data();
  const int32_t* left = left_.data();
  double acc = base_;
  const int num_trees = static_cast<int>(roots_.size());
  for (int t = 0; t < num_trees; ++t) {
    int32_t node = roots_[t];
    int32_t f = feature[node];
    while (f >= 0) {
      node = left[node] + static_cast<int32_t>(!(row[f] <= bits[node]));
      f = feature[node];
    }
    acc += scales_[t] * bits[node];
  }
  return divisor_ > 0.0 ? acc / divisor_ : acc;
}

void FlatEnsemble::ScoreRows(const Matrix& x, int64_t begin, int64_t end,
                             double* out) const {
  XAI_CHECK_MSG(x.cols() >= min_width_, kNarrowRow);
  const int32_t* feature = feature_.data();
  const double* bits = bits_.data();
  const int32_t* left = left_.data();
  const int32_t* roots = roots_.data();
  const double* scales = scales_.data();
  const int num_trees = static_cast<int>(roots_.size());

  double acc[kRowBlock];
  const double* rows[kRowBlock];
  for (int64_t block = begin; block < end; block += kRowBlock) {
    const int bn = static_cast<int>(std::min<int64_t>(kRowBlock, end - block));
    for (int i = 0; i < bn; ++i) {
      acc[i] = base_;
      rows[i] = x.RowPtr(static_cast<int>(block + i));
    }
    // Rows x trees tile: one tree's node block services the whole row tile
    // from L1 before the next tree's block is touched. Per-tree scale and
    // root are hoisted out of the row loop (the AoS path re-read
    // scales[t] / trees[t] through two indirections per tree per row).
    for (int t = 0; t < num_trees; ++t) {
      const double scale = scales[t];
      const int32_t root = roots[t];
      for (int i = 0; i < bn; ++i) {
        const double* row = rows[i];
        int32_t node = root;
        int32_t f = feature[node];
        while (f >= 0) {
          node = left[node] + static_cast<int32_t>(!(row[f] <= bits[node]));
          f = feature[node];
        }
        acc[i] += scale * bits[node];
      }
    }
    for (int i = 0; i < bn; ++i) out[block + i] = Finish(acc[i]);
  }
}

const FlatEnsemble::TreeShapData& FlatEnsemble::EnsureTreeShapData(
    const std::vector<const Tree*>& trees) const {
  std::lock_guard<std::mutex> lock(*shap_mu_);
  if (shap_ != nullptr) return *shap_;
  WallTimer timer;
  XAI_CHECK_EQ(trees.size(), roots_.size());

  auto data = std::make_shared<TreeShapData>();
  data->cover.resize(feature_.size());
  data->expected.reserve(trees.size());
  data->depth.reserve(trees.size());
  // Covers ride the exact BFS walk the inference arrays were laid with.
  int32_t next = ForEachFlatSlot(
      trees, [&](int t, int orig, int32_t slot, int32_t) {
        data->cover[slot] = trees[t]->nodes()[orig].cover;
      });
  XAI_CHECK_EQ(static_cast<size_t>(next), feature_.size());

  for (const Tree* tree : trees) {
    // Cover-weighted leaf mean, accumulated in the original node order —
    // the same float operations as the test reference's per-call scan, so
    // the cached value is bit-identical to it.
    double num = 0.0, den = 0.0;
    for (const TreeNode& node : tree->nodes()) {
      if (node.IsLeaf()) {
        num += node.cover * node.value;
        den += node.cover;
      }
    }
    data->expected.push_back(den > 0.0 ? num / den : 0.0);
    const int depth = tree->Depth();
    data->depth.push_back(depth);
    data->max_depth = std::max(data->max_depth, depth);
  }

  shap_ = std::move(data);
  XAI_HISTOGRAM_RECORD("model/flat_shap_build_us", timer.Nanos() / 1000);
  return *shap_;
}

const FlatEnsemble::TreeShapData* FlatEnsemble::tree_shap_data() const {
  std::lock_guard<std::mutex> lock(*shap_mu_);
  return shap_.get();
}

CoalitionScorer::CoalitionScorer(std::shared_ptr<const FlatEnsemble> flat,
                                 const Matrix& background,
                                 const Vector& instance)
    : flat_(std::move(flat)), rows_(background.rows()) {
  XAI_CHECK(flat_ != nullptr);
  XAI_CHECK_LE(instance.size(), 64u);
  XAI_CHECK_EQ(background.cols(), static_cast<int>(instance.size()));
  const FlatEnsemble::NodeView v = flat_->nodes();
  const int num_nodes = flat_->num_nodes();
  const int width = static_cast<int>(instance.size());
  XAI_CHECK_MSG(flat_->min_width() <= width,
                "tree splits on a feature outside the instance");
  tiles_ = (rows_ + FlatEnsemble::kRowBlock - 1) / FlatEnsemble::kRowBlock;
  row_right_.assign(static_cast<size_t>(tiles_) * num_nodes, 0);
  instance_right_.assign(num_nodes, 0);
  tree_features_.assign(v.num_trees, 0);

  // Slots of tree t are [roots[t], roots[t + 1]), and children always sit
  // after their parent, so one forward pass sees every node's depth.
  std::vector<int> depth(num_nodes, 0);
  for (int t = 0; t < v.num_trees; ++t) {
    const int32_t end = t + 1 < v.num_trees ? v.roots[t + 1] : num_nodes;
    for (int32_t n = v.roots[t]; n < end; ++n) {
      const int32_t f = v.feature[n];
      if (f < 0) {
        max_depth_ = std::max(max_depth_, depth[n]);
        continue;
      }
      depth[v.left[n]] = depth[v.left[n] + 1] = depth[n] + 1;
      tree_features_[t] |= uint64_t{1} << f;
      const double threshold = v.bits[n];
      instance_right_[n] = !(instance[f] <= threshold) ? ~uint64_t{0} : 0;
      for (int tile = 0; tile < tiles_; ++tile) {
        const int begin = tile * FlatEnsemble::kRowBlock;
        const int bn = std::min(FlatEnsemble::kRowBlock, rows_ - begin);
        uint64_t word = 0;
        for (int b = 0; b < bn; ++b)
          word |= uint64_t{!(background(begin + b, f) <= threshold)} << b;
        row_right_[static_cast<size_t>(tile) * num_nodes + n] = word;
      }
    }
  }
}

int CoalitionScorer::LeafRows(int n) const {
  // Tree t forms at most min(n, 2^|features(t)|) groups: one per distinct
  // `mask & features(t)`.
  const int num_trees = static_cast<int>(tree_features_.size());
  int most = 0;
  for (int t0 = 0; t0 < num_trees; t0 += kTrees) {
    int rows = 0;
    for (int t = t0; t < std::min(t0 + kTrees, num_trees); ++t) {
      const int width = std::popcount(tree_features_[t]);
      rows += width < 30 ? std::min(n, 1 << width) : n;
    }
    most = std::max(most, rows);
  }
  return most;
}

void CoalitionScorer::SumOver(std::span<const uint64_t> masks,
                              std::span<double> out) const {
  XAI_CHECK_EQ(masks.size(), out.size());
  // Passes bound the per-call scratch, which grows as at most 5 x 64
  // doubles per mask (about 650 KB at 256 masks), while the estimators'
  // chunks of up to 2 048 masks keep their one call.
  constexpr size_t kPass = 256;
  for (size_t i = 0; i < masks.size(); i += kPass) {
    const size_t n = std::min(kPass, masks.size() - i);
    SumPass(masks.subspan(i, n), out.subspan(i, n));
  }
}

void CoalitionScorer::SumPass(std::span<const uint64_t> masks,
                              std::span<double> out) const {
  static_assert(kTrees <= simd::kAddScaledRowsWays);
  XAI_COUNTER_INC("model/scorer_passes");
  constexpr int kTile = FlatEnsemble::kRowBlock;
  const FlatEnsemble::NodeView v = flat_->nodes();
  const int num_nodes = flat_->num_nodes();
  const int n = static_cast<int>(masks.size());

  // Per-mask row accumulators of the current tile; per tree of the batch,
  // each mask's group, and one leaf vector per group of the batch.
  std::vector<double> acc(static_cast<size_t>(n) * kTile);
  std::vector<double> group_leaves(static_cast<size_t>(LeafRows(n)) * kTile);
  std::vector<int> group_of(static_cast<size_t>(kTrees) * n);
  // Open-addressing table from group key to group id, at most half full.
  // A slot is live when its stamp equals the current (tile, tree) stamp,
  // so it is never cleared.
  int log_slots = 1;
  while ((1 << log_slots) < 2 * n) ++log_slots;
  const size_t slot_mask = (size_t{1} << log_slots) - 1;
  std::vector<uint64_t> slot_key(slot_mask + 1);
  std::vector<int> slot_group(slot_mask + 1);
  std::vector<uint32_t> slot_stamp(slot_mask + 1, 0);
  uint32_t stamp = 0;
  std::vector<uint64_t> group_key;
  group_key.reserve(n);
  struct Pending {
    int32_t node;
    uint64_t reach;
  };
  std::vector<Pending> stack(max_depth_ + 2);

  // Groups the masks by the coalition bits tree t can see, then walks the
  // tree once per group over the nodes some row of the tile reaches,
  // writing each row's leaf value into the group's leaf vector. Returns
  // the number of groups.
  auto group_and_walk = [&](int t, const uint64_t* row_right, uint64_t valid,
                            int* groups, double* leaves) {
    const uint64_t features = tree_features_[t];
    ++stamp;
    group_key.clear();
    for (int m = 0; m < n; ++m) {
      const uint64_t key = masks[m] & features;
      size_t slot = (key * 0x9E3779B97F4A7C15ULL) >> (64 - log_slots);
      while (slot_stamp[slot] == stamp && slot_key[slot] != key)
        slot = (slot + 1) & slot_mask;
      if (slot_stamp[slot] != stamp) {
        slot_stamp[slot] = stamp;
        slot_key[slot] = key;
        slot_group[slot] = static_cast<int>(group_key.size());
        group_key.push_back(key);
      }
      groups[m] = slot_group[slot];
    }
    for (size_t g = 0; g < group_key.size(); ++g) {
      const uint64_t key = group_key[g];
      double* group_leaf = leaves + g * kTile;
      int top = 0;
      stack[top++] = {v.roots[t], valid};
      while (top > 0) {
        Pending p = stack[--top];
        // Descend while the reaching rows go one way; stack the right part
        // only where they split.
        for (int32_t f = v.feature[p.node]; f >= 0; f = v.feature[p.node]) {
          const uint64_t right =
              (key >> f) & 1 ? instance_right_[p.node] : row_right[p.node];
          const int32_t child = v.left[p.node];
          const uint64_t r = p.reach & right;
          if (r == p.reach) {
            p.node = child + 1;
            continue;
          }
          if (r != 0) stack[top++] = {child + 1, r};
          p = {child, p.reach & ~right};
        }
        const double leaf = v.bits[p.node];
        for (uint64_t r = p.reach; r != 0; r &= r - 1)
          group_leaf[std::countr_zero(r)] = leaf;
      }
    }
    return group_key.size();
  };

  std::fill(out.begin(), out.end(), 0.0);
  for (int tile = 0; tile < tiles_; ++tile) {
    const int bn = std::min(kTile, rows_ - tile * kTile);
    const uint64_t valid =
        bn == kTile ? ~uint64_t{0} : (uint64_t{1} << bn) - 1;
    const uint64_t* row_right =
        row_right_.data() + static_cast<size_t>(tile) * num_nodes;
    std::fill(acc.begin(), acc.end(), v.base);

    for (int t0 = 0; t0 < v.num_trees; t0 += kTrees) {
      const int batch = std::min(kTrees, v.num_trees - t0);
      // Tree j of the batch keeps its leaf vectors from first_leaf[j] on.
      const double* first_leaf[kTrees];
      size_t used = 0;
      for (int j = 0; j < batch; ++j) {
        first_leaf[j] = group_leaves.data() + used * kTile;
        used += group_and_walk(t0 + j, row_right, valid,
                               group_of.data() + static_cast<size_t>(j) * n,
                               group_leaves.data() + used * kTile);
      }

      // Each mask adds its groups' leaf vectors, one row at a time in tree
      // order, exactly as ScoreRows adds each tree's leaf to a row.
      for (int m = 0; m < n; ++m) {
        const double* l[kTrees];
        for (int j = 0; j < batch; ++j)
          l[j] = first_leaf[j] +
                 static_cast<size_t>(group_of[static_cast<size_t>(j) * n + m]) *
                     kTile;
        simd::AddScaledRows(v.scales + t0, l, batch, kTile,
                            acc.data() + static_cast<size_t>(m) * kTile);
      }
    }

    for (int m = 0; m < n; ++m) {
      const double* a = acc.data() + static_cast<size_t>(m) * kTile;
      double sum = out[m];
      for (int b = 0; b < bn; ++b) sum += flat_->Finish(a[b]);
      out[m] = sum;
    }
  }
}

Vector FlatEnsemble::PredictBatch(const Matrix& x) const {
  XAI_SPAN_IF(x.rows() >= kPredictSpanMinRows, "model/flat_predict_batch");
  XAI_COUNTER_ADD("model/flat_predict_rows", x.rows());
  Vector out(x.rows());
  // Chunk grain is a multiple of kRowBlock so every chunk tiles cleanly;
  // per-row results are independent of both the tiling and the chunking,
  // so output is bit-identical at any thread count.
  ParallelFor(x.rows(), /*grain=*/4 * kRowBlock,
              [&](int64_t begin, int64_t end, int64_t) {
                ScoreRows(x, begin, end, out.data());
              });
  return out;
}

}  // namespace xai
