#include "linalg/matrix.h"

#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/rng.h"
#include "linalg/blas.h"

namespace dtucker {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows)
    : rows_(static_cast<Index>(rows.size())),
      cols_(rows.size() == 0 ? 0 : static_cast<Index>(rows.begin()->size())),
      data_(static_cast<std::size_t>(rows_ * cols_)) {
  Index i = 0;
  for (const auto& row : rows) {
    DT_CHECK_EQ(static_cast<Index>(row.size()), cols_)
        << "ragged initializer list";
    Index j = 0;
    for (double v : row) {
      (*this)(i, j) = v;
      ++j;
    }
    ++i;
  }
}

Matrix Matrix::Identity(Index n) {
  Matrix m(n, n);
  for (Index i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::Constant(Index rows, Index cols, double value) {
  Matrix m = Uninitialized(rows, cols);
  m.Fill(value);
  return m;
}

Matrix Matrix::GaussianRandom(Index rows, Index cols, Rng& rng) {
  Matrix m = Uninitialized(rows, cols);
  rng.FillGaussian(m.data(), static_cast<std::size_t>(m.size()));
  return m;
}

Matrix Matrix::ColumnVector(const std::vector<double>& values) {
  Matrix m = Uninitialized(static_cast<Index>(values.size()), 1);
  for (std::size_t i = 0; i < values.size(); ++i) m.data()[i] = values[i];
  return m;
}

Matrix Matrix::Diagonal(const std::vector<double>& diag) {
  Index n = static_cast<Index>(diag.size());
  Matrix m(n, n);
  for (Index i = 0; i < n; ++i) m(i, i) = diag[static_cast<std::size_t>(i)];
  return m;
}

void Matrix::Fill(double value) {
  for (auto& v : data_) v = value;
}

Matrix Matrix::Transposed() const {
  Matrix t = Uninitialized(cols_, rows_);
  for (Index j = 0; j < cols_; ++j) {
    const double* src = col_data(j);
    for (Index i = 0; i < rows_; ++i) t(j, i) = src[i];
  }
  return t;
}

Matrix Matrix::Block(Index r0, Index c0, Index nr, Index nc) const {
  DT_CHECK(r0 >= 0 && c0 >= 0 && nr >= 0 && nc >= 0 && r0 + nr <= rows_ &&
           c0 + nc <= cols_)
      << "block (" << r0 << "," << c0 << ")+" << nr << "x" << nc
      << " out of range for " << rows_ << "x" << cols_;
  Matrix b = Uninitialized(nr, nc);
  for (Index j = 0; j < nc; ++j) {
    const double* src = col_data(c0 + j) + r0;
    double* dst = b.col_data(j);
    for (Index i = 0; i < nr; ++i) dst[i] = src[i];
  }
  return b;
}

void Matrix::SetBlock(Index r0, Index c0, const Matrix& block) {
  DT_CHECK(r0 >= 0 && c0 >= 0 && r0 + block.rows() <= rows_ &&
           c0 + block.cols() <= cols_)
      << "SetBlock out of range";
  for (Index j = 0; j < block.cols(); ++j) {
    const double* src = block.col_data(j);
    double* dst = col_data(c0 + j) + r0;
    for (Index i = 0; i < block.rows(); ++i) dst[i] = src[i];
  }
}

Matrix& Matrix::operator+=(const Matrix& other) {
  DT_CHECK(rows_ == other.rows_ && cols_ == other.cols_) << "shape mismatch";
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  DT_CHECK(rows_ == other.rows_ && cols_ == other.cols_) << "shape mismatch";
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double scalar) {
  for (auto& v : data_) v *= scalar;
  return *this;
}

double Matrix::SquaredNorm() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return s;
}

double Matrix::FrobeniusNorm() const { return std::sqrt(SquaredNorm()); }

double Matrix::MaxAbs() const {
  return dtucker::MaxAbs(data_.data(), static_cast<Index>(data_.size()));
}

std::string Matrix::ToString(int precision) const {
  std::ostringstream os;
  char buf[64];
  for (Index i = 0; i < rows_; ++i) {
    os << (i == 0 ? "[[" : " [");
    for (Index j = 0; j < cols_; ++j) {
      std::snprintf(buf, sizeof(buf), "% .*f", precision, (*this)(i, j));
      os << buf << (j + 1 < cols_ ? ", " : "");
    }
    os << (i + 1 < rows_ ? "]\n" : "]]");
  }
  return os.str();
}

Matrix operator+(Matrix a, const Matrix& b) {
  a += b;
  return a;
}

Matrix operator-(Matrix a, const Matrix& b) {
  a -= b;
  return a;
}

Matrix operator*(Matrix a, double s) {
  a *= s;
  return a;
}

Matrix operator*(double s, Matrix a) {
  a *= s;
  return a;
}

bool AlmostEqual(const Matrix& a, const Matrix& b, double tol) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (Index j = 0; j < a.cols(); ++j) {
    for (Index i = 0; i < a.rows(); ++i) {
      if (std::fabs(a(i, j) - b(i, j)) > tol) return false;
    }
  }
  return true;
}

}  // namespace dtucker
