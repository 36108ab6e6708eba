#ifndef XAI_CORE_MATRIX_H_
#define XAI_CORE_MATRIX_H_

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "xai/core/check.h"
#include "xai/core/status.h"

namespace xai {

/// \brief Dense column vector of doubles.
using Vector = std::vector<double>;

/// \brief Dense row-major matrix of doubles.
///
/// Small, dependency-free linear algebra sufficient for the models and
/// explainers in libxai (ridge regression, Newton steps, Hessian solves).
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}
  /// Creates a rows x cols matrix filled with `fill`.
  Matrix(int rows, int cols, double fill = 0.0)
      : rows_(rows), cols_(cols),
        data_(static_cast<size_t>(rows) * cols, fill) {
    XAI_CHECK_GE(rows, 0);
    XAI_CHECK_GE(cols, 0);
  }
  /// Creates a matrix from nested initializer lists (row major).
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  /// Identity matrix of size n.
  static Matrix Identity(int n);
  /// Matrix with `diag` on the diagonal.
  static Matrix Diagonal(const Vector& diag);
  /// Builds a matrix from a vector of rows (all the same length).
  static Matrix FromRows(const std::vector<Vector>& rows);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  size_t size() const { return data_.size(); }

  double& operator()(int r, int c) {
    XAI_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  double operator()(int r, int c) const {
    XAI_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }

  /// Raw pointer to row r (cols() contiguous doubles). Pointer arithmetic,
  /// not &data_[i]: a zero-column matrix has no element to reference.
  double* RowPtr(int r) {
    return data_.data() + static_cast<size_t>(r) * cols_;
  }
  const double* RowPtr(int r) const {
    return data_.data() + static_cast<size_t>(r) * cols_;
  }

  /// Copies row r into a Vector.
  Vector Row(int r) const;
  /// Copies column c into a Vector.
  Vector Col(int c) const;
  /// Overwrites row r.
  void SetRow(int r, const Vector& v);

  Matrix Transpose() const;
  Matrix operator+(const Matrix& other) const;
  Matrix operator-(const Matrix& other) const;
  Matrix operator*(double s) const;
  /// Matrix product; inner dimensions must agree.
  Matrix MatMul(const Matrix& other) const;
  /// Matrix-vector product (v has cols() entries).
  Vector MatVec(const Vector& v) const;
  /// X^T v for v with rows() entries.
  Vector TransposeMatVec(const Vector& v) const;
  /// X^T X (Gram matrix), computed without materializing the transpose.
  Matrix Gram() const;
  /// X^T diag(w) X.
  Matrix WeightedGram(const Vector& w) const;

  /// In-place add s * I.
  void AddScaledIdentity(double s);

  /// Frobenius norm.
  double FrobeniusNorm() const;

  /// True if dimensions and all entries match to within `tol`.
  bool ApproxEquals(const Matrix& other, double tol = 1e-9) const;

  std::string ToString(int max_rows = 8) const;

 private:
  int rows_;
  int cols_;
  std::vector<double> data_;
};

/// \name Vector helpers
/// @{
double Dot(const Vector& a, const Vector& b);
double Norm2(const Vector& a);
Vector Add(const Vector& a, const Vector& b);
Vector Sub(const Vector& a, const Vector& b);
Vector Scale(const Vector& a, double s);
/// a += s * b
void Axpy(double s, const Vector& b, Vector* a);
/// @}

/// \name Factorizations and solvers
/// @{

/// Cholesky factorization of a symmetric positive-definite matrix.
/// Returns lower-triangular L with A = L L^T, or InvalidArgument if A is not
/// (numerically) SPD.
Result<Matrix> CholeskyFactor(const Matrix& a);

/// Solves A x = b for SPD A via Cholesky.
Result<Vector> CholeskySolve(const Matrix& a, const Vector& b);

/// Solves A x = b for general square A via partial-pivot LU.
Result<Vector> LuSolve(const Matrix& a, const Vector& b);

/// Inverse of a general square matrix via LU.
Result<Matrix> Inverse(const Matrix& a);

/// @}

}  // namespace xai

#endif  // XAI_CORE_MATRIX_H_
