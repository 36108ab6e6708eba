#include "xai/core/matrix.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "xai/core/simd.h"
#include "xai/core/telemetry.h"

// Kernel-style loops in this file work on raw row spans (RowPtr) instead of
// the checked operator(): the per-element XAI_DCHECK bounds test is hoisted
// to one shape check per call, which is what lets the simd kernels see
// plain contiguous doubles. The checked accessor remains the public API.

namespace xai {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = static_cast<int>(rows.size());
  cols_ = rows_ == 0 ? 0 : static_cast<int>(rows.begin()->size());
  data_.reserve(static_cast<size_t>(rows_) * cols_);
  for (const auto& row : rows) {
    XAI_CHECK_EQ(static_cast<int>(row.size()), cols_);
    for (double v : row) data_.push_back(v);
  }
}

Matrix Matrix::Identity(int n) {
  Matrix m(n, n);
  for (int i = 0; i < n; ++i) m.RowPtr(i)[i] = 1.0;
  return m;
}

Matrix Matrix::Diagonal(const Vector& diag) {
  int n = static_cast<int>(diag.size());
  Matrix m(n, n);
  for (int i = 0; i < n; ++i) m.RowPtr(i)[i] = diag[i];
  return m;
}

Matrix Matrix::FromRows(const std::vector<Vector>& rows) {
  int r = static_cast<int>(rows.size());
  int c = r == 0 ? 0 : static_cast<int>(rows[0].size());
  Matrix m(r, c);
  for (int i = 0; i < r; ++i) {
    XAI_CHECK_EQ(static_cast<int>(rows[i].size()), c);
    if (c > 0) std::memcpy(m.RowPtr(i), rows[i].data(), sizeof(double) * c);
  }
  return m;
}

Vector Matrix::Row(int r) const {
  XAI_DCHECK(r >= 0 && r < rows_);
  const double* src = RowPtr(r);
  return Vector(src, src + cols_);
}

Vector Matrix::Col(int c) const {
  XAI_DCHECK(c >= 0 && c < cols_);
  Vector v(rows_);
  for (int i = 0; i < rows_; ++i) v[i] = RowPtr(i)[c];
  return v;
}

void Matrix::SetRow(int r, const Vector& v) {
  XAI_CHECK_EQ(static_cast<int>(v.size()), cols_);
  XAI_DCHECK(r >= 0 && r < rows_);
  if (cols_ > 0) std::memcpy(RowPtr(r), v.data(), sizeof(double) * cols_);
}

Matrix Matrix::Transpose() const {
  Matrix t(cols_, rows_);
  for (int i = 0; i < rows_; ++i) {
    const double* src = RowPtr(i);
    for (int j = 0; j < cols_; ++j) t.RowPtr(j)[i] = src[j];
  }
  return t;
}

Matrix Matrix::operator+(const Matrix& other) const {
  XAI_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  Matrix m(rows_, cols_);
  for (size_t i = 0; i < data_.size(); ++i) m.data_[i] = data_[i] + other.data_[i];
  return m;
}

Matrix Matrix::operator-(const Matrix& other) const {
  XAI_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  Matrix m(rows_, cols_);
  for (size_t i = 0; i < data_.size(); ++i) m.data_[i] = data_[i] - other.data_[i];
  return m;
}

Matrix Matrix::operator*(double s) const {
  Matrix m(rows_, cols_);
  for (size_t i = 0; i < data_.size(); ++i) m.data_[i] = data_[i] * s;
  return m;
}

Matrix Matrix::MatMul(const Matrix& other) const {
  XAI_CHECK_EQ(cols_, other.rows_);
  Matrix out(rows_, other.cols_);
  XAI_COUNTER_ADD("linalg/gemm_flops",
                  2LL * rows_ * cols_ * other.cols_);
  simd::Gemm(rows_, other.cols_, cols_, data_.data(), cols_,
             other.data_.data(), other.cols_, out.data_.data(), out.cols_);
  return out;
}

Vector Matrix::MatVec(const Vector& v) const {
  XAI_CHECK_EQ(static_cast<int>(v.size()), cols_);
  Vector out(rows_, 0.0);
  for (int i = 0; i < rows_; ++i) out[i] = simd::Dot(RowPtr(i), v.data(), cols_);
  return out;
}

Vector Matrix::TransposeMatVec(const Vector& v) const {
  XAI_CHECK_EQ(static_cast<int>(v.size()), rows_);
  Vector out(cols_, 0.0);
  for (int i = 0; i < rows_; ++i) simd::Axpy(v[i], RowPtr(i), out.data(), cols_);
  return out;
}

Matrix Matrix::Gram() const {
  Matrix g(cols_, cols_);
  XAI_COUNTER_ADD("linalg/gemm_flops", 1LL * rows_ * cols_ * cols_);
  for (int i = 0; i < rows_; ++i)
    simd::WeightedOuterAccumulate(1.0, RowPtr(i), cols_, g.data_.data(),
                                  cols_);
  // Mirror upper triangle into the lower one.
  for (int a = 0; a < cols_; ++a)
    for (int b = 0; b < a; ++b) g.RowPtr(a)[b] = g.RowPtr(b)[a];
  return g;
}

Matrix Matrix::WeightedGram(const Vector& w) const {
  XAI_CHECK_EQ(static_cast<int>(w.size()), rows_);
  Matrix g(cols_, cols_);
  XAI_COUNTER_ADD("linalg/gemm_flops", 1LL * rows_ * cols_ * cols_);
  for (int i = 0; i < rows_; ++i) {
    if (w[i] == 0.0) continue;
    simd::WeightedOuterAccumulate(w[i], RowPtr(i), cols_, g.data_.data(),
                                  cols_);
  }
  for (int a = 0; a < cols_; ++a)
    for (int b = 0; b < a; ++b) g.RowPtr(a)[b] = g.RowPtr(b)[a];
  return g;
}

void Matrix::AddScaledIdentity(double s) {
  XAI_CHECK_EQ(rows_, cols_);
  for (int i = 0; i < rows_; ++i) RowPtr(i)[i] += s;
}

double Matrix::FrobeniusNorm() const {
  double acc = 0.0;
  for (double v : data_) acc += v * v;
  return std::sqrt(acc);
}

bool Matrix::ApproxEquals(const Matrix& other, double tol) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  for (size_t i = 0; i < data_.size(); ++i)
    if (std::fabs(data_[i] - other.data_[i]) > tol) return false;
  return true;
}

std::string Matrix::ToString(int max_rows) const {
  std::ostringstream os;
  os << rows_ << "x" << cols_ << " [\n";
  for (int i = 0; i < rows_ && i < max_rows; ++i) {
    os << "  ";
    for (int j = 0; j < cols_; ++j) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%10.4f", (*this)(i, j));
      os << buf << (j + 1 < cols_ ? " " : "");
    }
    os << "\n";
  }
  if (rows_ > max_rows) os << "  ... (" << rows_ - max_rows << " more)\n";
  os << "]";
  return os.str();
}

double Dot(const Vector& a, const Vector& b) {
  XAI_CHECK_EQ(a.size(), b.size());
  return simd::Dot(a.data(), b.data(), a.size());
}

double Norm2(const Vector& a) { return std::sqrt(Dot(a, a)); }

Vector Add(const Vector& a, const Vector& b) {
  XAI_CHECK_EQ(a.size(), b.size());
  Vector out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] + b[i];
  return out;
}

Vector Sub(const Vector& a, const Vector& b) {
  XAI_CHECK_EQ(a.size(), b.size());
  Vector out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] - b[i];
  return out;
}

Vector Scale(const Vector& a, double s) {
  Vector out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = a[i] * s;
  return out;
}

void Axpy(double s, const Vector& b, Vector* a) {
  XAI_CHECK_EQ(a->size(), b.size());
  simd::Axpy(s, b.data(), a->data(), b.size());
}

Result<Matrix> CholeskyFactor(const Matrix& a) {
  if (a.rows() != a.cols())
    return Status::InvalidArgument("Cholesky requires a square matrix");
  int n = a.rows();
  Matrix l(n, n);
  for (int j = 0; j < n; ++j) {
    // Row-major lower-triangular L keeps l(j, 0..j) contiguous, so the
    // triangular inner products are striped dots over row prefixes.
    double* lj = l.RowPtr(j);
    double diag = a(j, j) - simd::Dot(lj, lj, j);
    if (diag <= 0.0 || !std::isfinite(diag))
      return Status::InvalidArgument("matrix is not positive definite");
    lj[j] = std::sqrt(diag);
    for (int i = j + 1; i < n; ++i) {
      double* li = l.RowPtr(i);
      li[j] = (a(i, j) - simd::Dot(li, lj, j)) / lj[j];
    }
  }
  return l;
}

namespace {

// Solves L y = b then L^T x = y given lower-triangular L.
Vector CholeskyBackSubstitute(const Matrix& l, const Vector& b) {
  int n = l.rows();
  Vector y(n);
  for (int i = 0; i < n; ++i) {
    const double* li = l.RowPtr(i);
    y[i] = (b[i] - simd::Dot(li, y.data(), i)) / li[i];
  }
  // L^T solve in axpy form so the inner loop runs over the contiguous row
  // l(i, 0..i) instead of a strided column.
  Vector x = std::move(y);
  for (int i = n - 1; i >= 0; --i) {
    const double* li = l.RowPtr(i);
    x[i] /= li[i];
    simd::Axpy(-x[i], li, x.data(), i);
  }
  return x;
}

}  // namespace

Result<Vector> CholeskySolve(const Matrix& a, const Vector& b) {
  if (a.rows() != static_cast<int>(b.size()))
    return Status::InvalidArgument("dimension mismatch in CholeskySolve");
  XAI_ASSIGN_OR_RETURN(Matrix l, CholeskyFactor(a));
  return CholeskyBackSubstitute(l, b);
}

Result<Vector> LuSolve(const Matrix& a, const Vector& b) {
  if (a.rows() != a.cols())
    return Status::InvalidArgument("LuSolve requires a square matrix");
  if (a.rows() != static_cast<int>(b.size()))
    return Status::InvalidArgument("dimension mismatch in LuSolve");
  int n = a.rows();
  Matrix lu = a;
  Vector x = b;
  std::vector<int> piv(n);
  for (int i = 0; i < n; ++i) piv[i] = i;
  for (int col = 0; col < n; ++col) {
    int best = col;
    for (int r = col + 1; r < n; ++r)
      if (std::fabs(lu(r, col)) > std::fabs(lu(best, col))) best = r;
    if (std::fabs(lu(best, col)) < 1e-14)
      return Status::InvalidArgument("matrix is singular");
    if (best != col) {
      double* rc = lu.RowPtr(col);
      double* rb = lu.RowPtr(best);
      for (int j = 0; j < n; ++j) std::swap(rc[j], rb[j]);
      std::swap(x[col], x[best]);
    }
    const double* pivot_row = lu.RowPtr(col);
    const double pivot = pivot_row[col];
    for (int r = col + 1; r < n; ++r) {
      double* row = lu.RowPtr(r);
      double f = row[col] / pivot;
      row[col] = f;
      // Rank-1 elimination over the trailing row suffix.
      simd::Axpy(-f, pivot_row + col + 1, row + col + 1, n - col - 1);
      x[r] -= f * x[col];
    }
  }
  for (int i = n - 1; i >= 0; --i) {
    const double* row = lu.RowPtr(i);
    x[i] = (x[i] - simd::Dot(row + i + 1, x.data() + i + 1, n - i - 1)) /
           row[i];
  }
  return x;
}

Result<Matrix> Inverse(const Matrix& a) {
  if (a.rows() != a.cols())
    return Status::InvalidArgument("Inverse requires a square matrix");
  int n = a.rows();
  Matrix inv(n, n);
  for (int c = 0; c < n; ++c) {
    Vector e(n, 0.0);
    e[c] = 1.0;
    XAI_ASSIGN_OR_RETURN(Vector col, LuSolve(a, e));
    for (int r = 0; r < n; ++r) inv(r, c) = col[r];
  }
  return inv;
}

}  // namespace xai
