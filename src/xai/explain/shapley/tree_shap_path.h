#ifndef XAI_EXPLAIN_SHAPLEY_TREE_SHAP_PATH_H_
#define XAI_EXPLAIN_SHAPLEY_TREE_SHAP_PATH_H_

namespace xai {
namespace treeshap {

/// \brief Path bookkeeping of the polynomial TreeSHAP algorithm (Lundberg
/// et al., "Consistent Individualized Feature Attribution for Tree
/// Ensembles", Algorithm 2). `pweight` holds the proportion of subsets of a
/// given cardinality flowing down the path.
///
/// These helpers are shared between the flat iterative kernel
/// (flat_tree_shap.cc) and the recursive test reference
/// (tests/support/explain_reference.cc): both paths execute the exact same
/// floating-point operations in the same order, which is what makes the
/// flat kernel bit-identical to the recursive reference by construction.
struct PathElement {
  int feature_index = -1;
  double zero_fraction = 0.0;  // Fraction of paths when the feature is absent.
  double one_fraction = 0.0;   // 1 if x follows this split, else 0.
  double pweight = 0.0;
};

/// Grows the path by one split (Algorithm 2, EXTEND): pushes the new
/// element at `unique_depth` and redistributes the subset-proportion
/// weights of every prefix length.
inline void ExtendPath(PathElement* p, int unique_depth, double zero_fraction,
                       double one_fraction, int feature_index) {
  p[unique_depth].feature_index = feature_index;
  p[unique_depth].zero_fraction = zero_fraction;
  p[unique_depth].one_fraction = one_fraction;
  p[unique_depth].pweight = unique_depth == 0 ? 1.0 : 0.0;
  for (int i = unique_depth - 1; i >= 0; --i) {
    p[i + 1].pweight +=
        one_fraction * p[i].pweight * (i + 1) / (unique_depth + 1.0);
    p[i].pweight =
        zero_fraction * p[i].pweight * (unique_depth - i) /
        (unique_depth + 1.0);
  }
}

/// Removes the element at `path_index` (Algorithm 2, UNWIND), restoring the
/// weights to what they were before that split was extended onto the path.
/// An element with both fractions 0 (the cold side of a split whose child
/// has zero cover) zeroed every weight when it was extended, and they stay
/// 0: dividing them by its zero fraction would make them NaN.
inline void UnwindPath(PathElement* p, int unique_depth, int path_index) {
  const double one_fraction = p[path_index].one_fraction;
  const double zero_fraction = p[path_index].zero_fraction;
  double next_one_portion = p[unique_depth].pweight;
  for (int i = unique_depth - 1; i >= 0; --i) {
    if (one_fraction != 0.0) {
      const double tmp = p[i].pweight;
      p[i].pweight =
          next_one_portion * (unique_depth + 1.0) / ((i + 1) * one_fraction);
      next_one_portion = tmp - p[i].pweight * zero_fraction *
                                   (unique_depth - i) / (unique_depth + 1.0);
    } else if (zero_fraction != 0.0) {
      p[i].pweight = p[i].pweight * (unique_depth + 1.0) /
                     (zero_fraction * (unique_depth - i));
    }
  }
  for (int i = path_index; i < unique_depth; ++i) {
    p[i].feature_index = p[i + 1].feature_index;
    p[i].zero_fraction = p[i + 1].zero_fraction;
    p[i].one_fraction = p[i + 1].one_fraction;
  }
}

/// Total pweight the path would carry after unwinding `path_index`, without
/// mutating the path — the leaf-time per-feature weight of Algorithm 2.
inline double UnwoundPathSum(const PathElement* p, int unique_depth,
                             int path_index) {
  const double one_fraction = p[path_index].one_fraction;
  const double zero_fraction = p[path_index].zero_fraction;
  double next_one_portion = p[unique_depth].pweight;
  double total = 0.0;
  for (int i = unique_depth - 1; i >= 0; --i) {
    if (one_fraction != 0.0) {
      const double tmp =
          next_one_portion * (unique_depth + 1.0) / ((i + 1) * one_fraction);
      total += tmp;
      next_one_portion =
          p[i].pweight -
          tmp * zero_fraction * (unique_depth - i) / (unique_depth + 1.0);
    } else if (zero_fraction != 0.0) {
      total += (p[i].pweight / zero_fraction) /
               ((unique_depth - i) / (unique_depth + 1.0));
    }
  }
  return total;
}

}  // namespace treeshap
}  // namespace xai

#endif  // XAI_EXPLAIN_SHAPLEY_TREE_SHAP_PATH_H_
