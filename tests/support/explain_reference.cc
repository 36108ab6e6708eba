#include "support/explain_reference.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "xai/core/linalg.h"
#include "xai/core/parallel.h"
#include "xai/explain/shapley/tree_shap_path.h"

namespace xai::reference {

double TreeExpectedValue(const Tree& tree) {
  if (tree.empty()) return 0.0;
  double num = 0.0, den = 0.0;
  for (const TreeNode& node : tree.nodes()) {
    if (node.IsLeaf()) {
      num += node.cover * node.value;
      den += node.cover;
    }
  }
  return den > 0.0 ? num / den : 0.0;
}

double TreeConditionalExpectation(const Tree& tree, const Vector& x,
                                  uint64_t known_mask) {
  struct Walker {
    const Tree& tree;
    const Vector& x;
    uint64_t mask;
    double Visit(int index) const {
      const TreeNode& node = tree.nodes()[index];
      if (node.IsLeaf()) return node.value;
      if (mask & (1ULL << node.feature)) {
        return Visit(x[node.feature] <= node.threshold ? node.left
                                                       : node.right);
      }
      const TreeNode& l = tree.nodes()[node.left];
      const TreeNode& r = tree.nodes()[node.right];
      double total = l.cover + r.cover;
      if (total <= 0.0) return 0.0;
      return (l.cover * Visit(node.left) + r.cover * Visit(node.right)) /
             total;
    }
  };
  if (tree.empty()) return 0.0;
  return Walker{tree, x, known_mask}.Visit(0);
}

namespace {

using treeshap::ExtendPath;
using treeshap::PathElement;
using treeshap::UnwindPath;
using treeshap::UnwoundPathSum;

// Recursive reference walk over the AoS tree (Lundberg et al. Algorithm 2).
// The path is threaded by pointer: the hot child (the one the instance
// follows) extends the parent's buffer in place — Algorithm 2 never reads
// the parent's weights again once the child has extended past them — and
// only the cold branch, which must restart from the parent's post-unwind
// state after the hot subtree scribbled over it, snapshots the live prefix.
struct TreeShapWalker {
  const Tree& tree;
  const Vector& x;
  Vector* phi;
  int capacity;  // Path elements per buffer: tree depth + 2.

  void Recurse(int node_index, PathElement* path,
               double parent_zero_fraction, double parent_one_fraction,
               int parent_feature_index, int unique_depth) {
    ExtendPath(path, unique_depth, parent_zero_fraction,
               parent_one_fraction, parent_feature_index);
    const TreeNode& node = tree.nodes()[node_index];
    if (node.IsLeaf()) {
      for (int i = 1; i <= unique_depth; ++i) {
        const double w = UnwoundPathSum(path, unique_depth, i);
        const PathElement& el = path[i];
        (*phi)[el.feature_index] +=
            w * (el.one_fraction - el.zero_fraction) * node.value;
      }
      return;
    }

    const TreeNode& left = tree.nodes()[node.left];
    const TreeNode& right = tree.nodes()[node.right];
    bool goes_left = x[node.feature] <= node.threshold;
    int hot = goes_left ? node.left : node.right;
    int cold = goes_left ? node.right : node.left;
    double cover = left.cover + right.cover;
    double hot_zero_fraction =
        cover > 0.0 ? tree.nodes()[hot].cover / cover : 0.0;
    double cold_zero_fraction =
        cover > 0.0 ? tree.nodes()[cold].cover / cover : 0.0;
    double incoming_zero_fraction = 1.0;
    double incoming_one_fraction = 1.0;

    // If this feature already appears on the path, undo its previous
    // contribution (each feature may appear on the path only once).
    int path_index = 1;
    for (; path_index <= unique_depth; ++path_index)
      if (path[path_index].feature_index == node.feature) break;
    if (path_index <= unique_depth) {
      incoming_zero_fraction = path[path_index].zero_fraction;
      incoming_one_fraction = path[path_index].one_fraction;
      UnwindPath(path, unique_depth, path_index);
      unique_depth -= 1;
    }

    std::vector<PathElement> cold_path(capacity);
    std::copy(path, path + unique_depth + 1, cold_path.data());
    Recurse(hot, path, hot_zero_fraction * incoming_zero_fraction,
            incoming_one_fraction, node.feature, unique_depth + 1);
    Recurse(cold, cold_path.data(),
            cold_zero_fraction * incoming_zero_fraction, 0.0, node.feature,
            unique_depth + 1);
  }
};

}  // namespace

Vector TreeShapValues(const Tree& tree, const Vector& x, int num_features) {
  Vector phi(num_features, 0.0);
  if (tree.empty()) return phi;
  if (tree.nodes()[0].IsLeaf()) return phi;  // Constant tree: all zero.
  const int capacity = tree.Depth() + 2;
  std::vector<PathElement> path(capacity);
  TreeShapWalker walker{tree, x, &phi, capacity};
  walker.Recurse(0, path.data(), 1.0, 1.0, -1, 0);
  return phi;
}

AttributionExplanation TreeShapLegacy(const TreeEnsembleView& view,
                                      const Vector& x) {
  int d = static_cast<int>(x.size());
  AttributionExplanation exp;
  exp.attributions.assign(d, 0.0);
  exp.base_value = view.base;
  // Trees are independent: run the per-tree polynomial walk in parallel,
  // then accumulate in tree order so the sums are bit-identical to a plain
  // serial loop at any thread count.
  int num_trees = view.num_trees();
  std::vector<Vector> per_tree(num_trees);
  std::vector<double> expected(num_trees);
  ParallelFor(num_trees, /*grain=*/1,
              [&](int64_t begin, int64_t end, int64_t) {
                for (int64_t t = begin; t < end; ++t) {
                  per_tree[t] = TreeShapValues(*view.trees[t], x, d);
                  expected[t] = TreeExpectedValue(*view.trees[t]);
                }
              });
  for (int t = 0; t < num_trees; ++t) {
    for (int j = 0; j < d; ++j)
      exp.attributions[j] += view.scales[t] * per_tree[t][j];
    exp.base_value += view.scales[t] * expected[t];
  }
  exp.prediction = view.Margin(x);
  return exp;
}

Result<Vector> ConstrainedWeightedLeastSquares(const Matrix& x,
                                               const Vector& y,
                                               const Vector& sample_weights,
                                               const Vector& c, double d,
                                               double l2) {
  // Eliminate the last variable with non-zero constraint coefficient:
  //   w_k = (d - sum_{j != k} c_j w_j) / c_k
  // and solve the reduced unconstrained problem.
  int dim = x.cols();
  if (static_cast<int>(c.size()) != dim)
    return Status::InvalidArgument("constraint dimension mismatch");
  int k = -1;
  for (int j = dim - 1; j >= 0; --j) {
    if (std::fabs(c[j]) > 1e-12) {
      k = j;
      break;
    }
  }
  if (k < 0) return Status::InvalidArgument("constraint vector is zero");

  // Reduced design: for each row i,
  //   pred_i = sum_{j != k} w_j (x_ij - x_ik c_j / c_k) + x_ik d / c_k.
  // Hoist the per-column constraint ratios so the row loop is a contiguous
  // gather-subtract over raw spans.
  Vector ratio(dim);
  for (int j = 0; j < dim; ++j) ratio[j] = c[j] / c[k];
  Matrix xr(x.rows(), dim - 1);
  Vector yr(y.size());
  for (int i = 0; i < x.rows(); ++i) {
    const double* src = x.RowPtr(i);
    double* dst = xr.RowPtr(i);
    double xik = src[k];
    int jj = 0;
    for (int j = 0; j < dim; ++j) {
      if (j == k) continue;
      dst[jj++] = src[j] - xik * ratio[j];
    }
    yr[i] = y[i] - xik * d / c[k];
  }
  XAI_ASSIGN_OR_RETURN(Vector wr,
                       WeightedRidgeRegression(xr, yr, sample_weights, l2));
  Vector w(dim);
  int jj = 0;
  double acc = 0.0;
  for (int j = 0; j < dim; ++j) {
    if (j == k) continue;
    w[j] = wr[jj++];
    acc += c[j] * w[j];
  }
  w[k] = (d - acc) / c[k];
  return w;
}

}  // namespace xai::reference
