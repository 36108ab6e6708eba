#include "xai/core/linalg.h"

#include <cmath>
#include <cstring>

#include "xai/core/simd.h"
#include "xai/core/telemetry.h"
#include "xai/core/timer.h"

namespace xai {
namespace {

Matrix AppendOnesColumn(const Matrix& x) {
  Matrix out(x.rows(), x.cols() + 1);
  for (int i = 0; i < x.rows(); ++i) {
    double* dst = out.RowPtr(i);
    if (x.cols() > 0)
      std::memcpy(dst, x.RowPtr(i), sizeof(double) * x.cols());
    dst[x.cols()] = 1.0;
  }
  return out;
}

}  // namespace

Result<Vector> RidgeRegression(const Matrix& x, const Vector& y, double l2,
                               bool fit_intercept) {
  Vector ones(x.rows(), 1.0);
  return WeightedRidgeRegression(x, y, ones, l2, fit_intercept);
}

Result<Vector> WeightedRidgeRegression(const Matrix& x, const Vector& y,
                                       const Vector& sample_weights, double l2,
                                       bool fit_intercept) {
  if (x.rows() != static_cast<int>(y.size()) ||
      x.rows() != static_cast<int>(sample_weights.size())) {
    return Status::InvalidArgument("row count mismatch in ridge regression");
  }
  WallTimer timer;
  Matrix xx = fit_intercept ? AppendOnesColumn(x) : x;
  // Normal-equation assembly: X^T diag(s) X via the blocked rank-1 kernel
  // and X^T (s .* y) via axpy — both simd-dispatched.
  Matrix gram = xx.WeightedGram(sample_weights);
  // Regularize all but the intercept coefficient.
  int d = gram.rows();
  int reg_dims = fit_intercept ? d - 1 : d;
  for (int i = 0; i < reg_dims; ++i) gram(i, i) += l2;
  // Tiny jitter for numerical robustness of the Cholesky factorization.
  gram.AddScaledIdentity(1e-12);
  Vector wy(y.size());
  for (size_t i = 0; i < y.size(); ++i) wy[i] = sample_weights[i] * y[i];
  Vector rhs = xx.TransposeMatVec(wy);
  auto solution = CholeskySolve(gram, rhs);
  XAI_HISTOGRAM_RECORD("linalg/wls_solve_us", timer.Nanos() / 1000);
  return solution;
}

WlsAccumulator::WlsAccumulator(int dim, bool fit_intercept)
    : dim_(dim),
      pad_((dim + simd::kGemmNR - 1) / simd::kGemmNR * simd::kGemmNR),
      fit_intercept_(fit_intercept), gram_(pad_, pad_), rhs_(dim, 0.0) {
  XAI_CHECK_GE(dim, 0);
}

void WlsAccumulator::AddBlock(const double* rows, const double* y,
                              const double* w, int n) {
  if (n <= 0) return;
  // Right-hand side and moments run over ALL rows, zero weights included —
  // TransposeMatVec does not skip them, and a +0.0 contribution is not
  // always a bitwise no-op (it flips -0.0 accumulators).
  for (int i = 0; i < n; ++i) {
    double wyi = w[i] * y[i];
    simd::Axpy(wyi, rows + static_cast<size_t>(i) * dim_, rhs_.data(), dim_);
    weight_sum_ += w[i];
    wy_sum_ += wyi;
    wyy_sum_ += wyi * y[i];
  }
  // Gram operands compact zero-weight rows out, exactly as WeightedGram
  // skips them. The scaled copy carries w_i * x_ia, so the Gram update
  // g(a,b) += (w_i * x_ia) * x_ib replays WeightedOuterAccumulate's
  // operation chain element-for-element (upper triangle; Solve() mirrors).
  // Rows are laid out at stride pad_ with zero tails (grow-only resize,
  // columns [dim_, pad_) never written), so the padded-width kernel call
  // below runs on full register tiles while leaving every real upper-
  // triangle chain untouched — a zero tail column only feeds chains of
  // entries in that same tail column.
  size_t need = static_cast<size_t>(n) * pad_;
  if (scaled_.size() < need) scaled_.resize(need, 0.0);
  if (compact_.size() < need) compact_.resize(need, 0.0);
  int nz = 0;
  for (int i = 0; i < n; ++i) {
    if (w[i] == 0.0) continue;
    const double* src = rows + static_cast<size_t>(i) * dim_;
    double* srow = scaled_.data() + static_cast<size_t>(nz) * pad_;
    double* crow = compact_.data() + static_cast<size_t>(nz) * pad_;
    for (int j = 0; j < dim_; ++j) srow[j] = w[i] * src[j];
    std::memcpy(crow, src, sizeof(double) * dim_);
    ++nz;
  }
  simd::GemmTNUpper(pad_, nz, scaled_.data(), pad_, compact_.data(), pad_,
                    gram_.RowPtr(0), pad_);
  rows_seen_ += n;
}

Result<Vector> WlsAccumulator::Solve(double l2) const {
  WallTimer timer;
  // Assemble the dense dim_ x dim_ system from gram_'s upper triangle (its
  // lower triangle and padded tail are kernel scratch): copy the upper,
  // mirror the lower, exactly as WeightedGram's final mirror does.
  Matrix gram(dim_, dim_);
  for (int a = 0; a < dim_; ++a) {
    const double* src = gram_.RowPtr(a);
    double* dst = gram.RowPtr(a);
    for (int b = 0; b < a; ++b) dst[b] = gram_.RowPtr(b)[a];
    for (int b = a; b < dim_; ++b) dst[b] = src[b];
  }
  int reg_dims = fit_intercept_ ? dim_ - 1 : dim_;
  for (int i = 0; i < reg_dims; ++i) gram(i, i) += l2;
  gram.AddScaledIdentity(1e-12);
  auto solution = CholeskySolve(gram, rhs_);
  XAI_HISTOGRAM_RECORD("linalg/wls_solve_us", timer.Nanos() / 1000);
  return solution;
}

double WlsAccumulator::ResidualSumOfSquares(const Vector& coef) const {
  XAI_CHECK_EQ(static_cast<int>(coef.size()), dim_);
  // ||sqrt(w)(X c - y)||^2 = c^T G c - 2 c^T rhs + sum w y^2 with the
  // unregularized Gram; use the mirrored-symmetric form for c^T G c.
  double quad = 0.0;
  for (int a = 0; a < dim_; ++a) {
    const double* grow = gram_.RowPtr(a);
    double rowdot = 0.0;
    for (int b = 0; b < dim_; ++b)
      rowdot += (b < a ? gram_.RowPtr(b)[a] : grow[b]) * coef[b];
    quad += coef[a] * rowdot;
  }
  double cross = 0.0;
  for (int a = 0; a < dim_; ++a) cross += coef[a] * rhs_[a];
  double ss = wyy_sum_ - 2.0 * cross + quad;
  return ss > 0.0 ? ss : 0.0;
}

CwlsAccumulator::CwlsAccumulator(int dim, const Vector& c, double d)
    : dim_(dim), pivot_(-1), c_(c), ratio_(dim, 0.0), d_(d),
      inner_(dim > 0 ? dim - 1 : 0, /*fit_intercept=*/false) {
  XAI_CHECK_EQ(static_cast<int>(c.size()), dim);
  for (int j = dim - 1; j >= 0; --j) {
    if (std::fabs(c_[j]) > 1e-12) {
      pivot_ = j;
      break;
    }
  }
  if (pivot_ >= 0)
    for (int j = 0; j < dim; ++j) ratio_[j] = c_[j] / c_[pivot_];
}

void CwlsAccumulator::AddBlock(const double* rows, const double* y,
                               const double* w, int n) {
  if (n <= 0 || pivot_ < 0) return;
  const int rdim = dim_ - 1;
  reduced_.resize(static_cast<size_t>(n) * rdim);
  yr_.resize(n);
  for (int i = 0; i < n; ++i) {
    const double* src = rows + static_cast<size_t>(i) * dim_;
    double* dst = reduced_.data() + static_cast<size_t>(i) * rdim;
    double xik = src[pivot_];
    int jj = 0;
    for (int j = 0; j < dim_; ++j) {
      if (j == pivot_) continue;
      dst[jj++] = src[j] - xik * ratio_[j];
    }
    yr_[i] = y[i] - xik * d_ / c_[pivot_];
  }
  inner_.AddBlock(reduced_.data(), yr_.data(), w, n);
}

Result<Vector> CwlsAccumulator::Solve(double l2) const {
  if (pivot_ < 0) return Status::InvalidArgument("constraint vector is zero");
  XAI_ASSIGN_OR_RETURN(Vector wr, inner_.Solve(l2));
  Vector w(dim_);
  int jj = 0;
  double acc = 0.0;
  for (int j = 0; j < dim_; ++j) {
    if (j == pivot_) continue;
    w[j] = wr[jj++];
    acc += c_[j] * w[j];
  }
  w[pivot_] = (d_ - acc) / c_[pivot_];
  return w;
}

Result<Vector> ConjugateGradient(
    const std::function<Vector(const Vector&)>& apply_a, const Vector& b,
    int max_iter, double tol) {
  Vector x(b.size(), 0.0);
  Vector r = b;
  Vector p = r;
  double rs_old = Dot(r, r);
  double b_norm = std::sqrt(Dot(b, b));
  // Stopping rule: relative residual against ||b||, falling back to the
  // absolute residual when ||b|| == 0 (otherwise the relative test would
  // divide by zero). For b == 0 the initial residual already passes and the
  // exact solution x = 0 is returned without touching apply_a.
  const double threshold = tol * (b_norm > 0.0 ? b_norm : 1.0);
  if (std::sqrt(rs_old) <= threshold) return x;
  for (int it = 0; it < max_iter; ++it) {
    Vector ap = apply_a(p);
    double p_ap = Dot(p, ap);
    if (p_ap <= 0.0 || !std::isfinite(p_ap))
      return Status::InvalidArgument(
          "conjugate gradient: operator is not positive definite");
    double alpha = rs_old / p_ap;
    Axpy(alpha, p, &x);
    Axpy(-alpha, ap, &r);
    double rs_new = Dot(r, r);
    if (std::sqrt(rs_new) <= threshold) break;
    double beta = rs_new / rs_old;
    for (size_t i = 0; i < p.size(); ++i) p[i] = r[i] + beta * p[i];
    rs_old = rs_new;
  }
  return x;
}

}  // namespace xai
