#ifndef FAIRMOVE_NN_MATRIX_H_
#define FAIRMOVE_NN_MATRIX_H_

#include <cstddef>
#include <vector>

#include "fairmove/common/macros.h"
#include "fairmove/common/rng.h"

namespace fairmove {

/// Dense row-major float matrix. Minimal by design: exactly the operations
/// the MLP forward/backward passes need, no expression templates, no BLAS
/// dependency (the policy networks here are small: tens of inputs, two
/// hidden layers).
class Matrix {
 public:
  Matrix() = default;
  Matrix(int rows, int cols) { Resize(rows, cols); }

  void Resize(int rows, int cols) {
    FM_CHECK(rows >= 0 && cols >= 0);
    rows_ = rows;
    cols_ = cols;
    data_.assign(static_cast<size_t>(rows) * cols, 0.0f);
  }

  /// Resize for a caller that writes every element before reading any:
  /// no zero fill, so elements kept from the old buffer hold stale values.
  /// Same capacity reuse as Resize.
  void ResizeForOverwrite(int rows, int cols) {
    FM_CHECK(rows >= 0 && cols >= 0);
    rows_ = rows;
    cols_ = cols;
    data_.resize(static_cast<size_t>(rows) * cols);
  }

  /// Capacity for `rows` rows of the current width: growing up to them
  /// later moves no element.
  void ReserveRows(int rows) {
    data_.reserve(static_cast<size_t>(rows) * cols_);
  }

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& At(int r, int c) {
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  float At(int r, int c) const {
    return data_[static_cast<size_t>(r) * cols_ + c];
  }

  float* Row(int r) { return &data_[static_cast<size_t>(r) * cols_]; }
  const float* Row(int r) const {
    return &data_[static_cast<size_t>(r) * cols_];
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  void Zero() { std::fill(data_.begin(), data_.end(), 0.0f); }

  /// Fills with N(0, stddev) entries.
  void RandomGaussian(Rng& rng, double stddev);

  /// He/Kaiming initialisation for a [in x out] weight matrix feeding ReLU.
  void HeInit(Rng& rng) { RandomGaussian(rng, std::sqrt(2.0 / rows_)); }
  /// Xavier/Glorot initialisation (tanh/linear layers).
  void XavierInit(Rng& rng) {
    RandomGaussian(rng, std::sqrt(2.0 / (rows_ + cols_)));
  }

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<float> data_;
};

/// out = a * b. Shapes: [m x k] * [k x n] -> [m x n]. `out` is resized.
/// Every output element sums its k contributions in ascending-p order from
/// zero (simd::KernelTable::matmul_rows_accumulate), so row i of the result
/// never depends on how many rows `a` has.
void MatMul(const Matrix& a, const Matrix& b, Matrix* out);

/// out = a^T * b. Shapes: [k x m]^T * [k x n] -> [m x n]. `out` is resized.
/// Same per-element order (simd::KernelTable::matmul_trans_a_rows).
void MatMulTransA(const Matrix& a, const Matrix& b, Matrix* out);

/// out = m^T. `out` is resized.
void Transpose(const Matrix& m, Matrix* out);

}  // namespace fairmove

#endif  // FAIRMOVE_NN_MATRIX_H_
