#ifndef XAI_CORE_LINALG_H_
#define XAI_CORE_LINALG_H_

#include <functional>

#include "xai/core/matrix.h"
#include "xai/core/status.h"

namespace xai {

/// \brief Higher-level solvers built on Matrix: ridge / weighted least
/// squares (the workhorse of LIME and KernelSHAP) and conjugate gradient
/// (the workhorse of influence functions).

/// Solves min_w ||X w - y||^2 + l2 ||w||^2 via normal equations.
/// When `fit_intercept` is true an intercept column is appended internally
/// and returned as the last coefficient (the intercept is not regularized).
Result<Vector> RidgeRegression(const Matrix& x, const Vector& y, double l2,
                               bool fit_intercept = false);

/// Solves min_w sum_i s_i (x_i . w - y_i)^2 + l2 ||w||^2 for sample weights s.
Result<Vector> WeightedRidgeRegression(const Matrix& x, const Vector& y,
                                       const Vector& sample_weights, double l2,
                                       bool fit_intercept = false);

/// Matrix-free conjugate gradient for SPD systems A x = b, where `apply_a`
/// computes A v. Stops at `tol` relative residual or `max_iter`.
Result<Vector> ConjugateGradient(
    const std::function<Vector(const Vector&)>& apply_a, const Vector& b,
    int max_iter = 200, double tol = 1e-10);

/// \brief Streaming normal-equation accumulator for weighted ridge — the
/// fusion substrate under LIME's and KernelSHAP's sample→predict→weight→
/// solve pipelines.
///
/// Instead of materializing the full n_samples x dim design matrix and
/// calling WeightedRidgeRegression, callers push row blocks as they are
/// generated; the accumulator folds each block straight into the Gram
/// matrix (X^T diag(w) X, via the upper-only packed Gram kernel
/// simd::GemmTNUpper over a weight-scaled copy of the block, with columns
/// padded to a full register tile) and right-hand side (X^T (w .* y)), so
/// the working set per block stays L2-resident regardless of n_samples.
///
/// Bit-identity with the materialized path is part of the contract on the
/// default SIMD tiers: per Gram element the accumulation chain is
/// (w_i * x_ia) * x_ib over nonzero-weight rows in ascending row order —
/// exactly the chain Matrix::WeightedGram produces — provided blocks are
/// added in ascending row order. Zero-weight rows are compacted out of the
/// Gram update (WeightedGram skips them) but kept in the rhs update
/// (TransposeMatVec does not). Solve() then mirrors the upper triangle,
/// regularizes, and Cholesky-solves in the same order as
/// WeightedRidgeRegression, so coefficients match that path bitwise.
class WlsAccumulator {
 public:
  /// `dim` counts ALL design columns — including the intercept column,
  /// which the caller appends to each row (trailing 1.0) when fitting one.
  /// `fit_intercept` only controls which diagonal entries Solve()
  /// regularizes (the last column is exempt, as in WeightedRidgeRegression).
  WlsAccumulator(int dim, bool fit_intercept);

  /// Folds an n x dim row-major block with targets y[0..n) and sample
  /// weights w[0..n). Blocks must arrive in ascending row order for the
  /// bit-identity guarantee; n == 0 is a no-op.
  void AddBlock(const double* rows, const double* y, const double* w, int n);

  /// Regularizes and solves the accumulated normal equations; the
  /// accumulator itself is untouched, so callers may keep streaming and
  /// solve again. Matches WeightedRidgeRegression(X, y, w, l2,
  /// fit_intercept) on the same data bit-for-bit (default tiers).
  Result<Vector> Solve(double l2) const;

  /// Weighted residual sum of squares ||diag(w)^(1/2) (X coef - y)||^2,
  /// computed algebraically from the accumulated moments:
  ///   sum_i w_i y_i^2 - 2 coef^T rhs + coef^T Gram coef.
  /// Exact up to summation order (NOT bitwise against a row-by-row
  /// residual pass); used for the fused LIME local R^2.
  double ResidualSumOfSquares(const Vector& coef) const;

  /// Accumulated moments for goodness-of-fit summaries.
  double weight_sum() const { return weight_sum_; }
  double weighted_y_sum() const { return wy_sum_; }
  double weighted_yy_sum() const { return wyy_sum_; }
  int dim() const { return dim_; }
  int rows_seen() const { return rows_seen_; }

 private:
  int dim_;
  // Internal column stride, dim_ rounded up to the GEMM register-tile width
  // (simd::kGemmNR). The padded tail columns of scaled_/compact_ stay zero
  // (grow-only resizes, rows written only up to dim_), so the Gram kernel
  // runs entirely on full register tiles without perturbing any real entry
  // — each Gram element's chain touches only its own two columns.
  int pad_;
  bool fit_intercept_;
  int rows_seen_ = 0;
  double weight_sum_ = 0.0;
  double wy_sum_ = 0.0;
  double wyy_sum_ = 0.0;
  // pad_ x pad_; upper triangle (a <= b < dim_) carries the
  // WeightedGram-identical chains. Lower triangle and padded tail are
  // scratch (GemmTNUpper leaves sub-diagonal tiles partially updated).
  Matrix gram_;
  Vector rhs_;
  std::vector<double> scaled_;  // Per-block w-scaled rows (Gram operand A).
  std::vector<double> compact_;  // Per-block nonzero-weight rows (operand B).
};

/// \brief Equality-constrained weighted least squares
///   min_w sum_i s_i (x_i . w - y_i)^2   s.t.  c . w = d
/// solved streaming: eliminates the pinned variable (the last one with a
/// nonzero c entry) row-by-row and feeds the reduced rows into a
/// WlsAccumulator, so KernelSHAP's efficiency-constrained solve never
/// materializes its coalition design matrix. Same block-order /
/// bit-identity contract as WlsAccumulator; the materialized elimination
/// it matches is the test reference
/// (tests/support/explain_reference.h).
class CwlsAccumulator {
 public:
  /// Constraint c . w = d over `dim` coefficients. `c` must have a nonzero
  /// entry (checked at Solve()).
  CwlsAccumulator(int dim, const Vector& c, double d);

  /// Folds an n x dim row-major block; same contract as
  /// WlsAccumulator::AddBlock.
  void AddBlock(const double* rows, const double* y, const double* w, int n);

  /// Solves the reduced problem and reconstructs the eliminated
  /// coefficient. Matches the materialized reference solve bit-for-bit on
  /// the default tiers.
  Result<Vector> Solve(double l2) const;

 private:
  int dim_;
  int pivot_;  // Index of the eliminated variable; -1 if c == 0.
  Vector c_;
  Vector ratio_;
  double d_;
  WlsAccumulator inner_;
  std::vector<double> reduced_;  // Per-block reduced rows.
  std::vector<double> yr_;       // Per-block reduced targets.
};

}  // namespace xai

#endif  // XAI_CORE_LINALG_H_
