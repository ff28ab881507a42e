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
void MatMul(const Matrix& a, const Matrix& b, Matrix* out);

/// `rows` consecutive rows of MatMul: for each row i,
/// out_i[j] += sum_p a_i[p] * b(p, j), accumulated in the pinned
/// ascending-p order starting from whatever `out` holds (callers zero it
/// first). Row i of `a` starts at a + i * b.rows(), row i of `out` at
/// out + i * b.cols(), as in a row-major Matrix. This is the exact kernel
/// MatMul runs per batch row; it is exposed so batched layers can shard
/// row blocks across threads while staying bit-identical to the serial
/// pass.
void MatMulRowsAccumulate(const float* a, int rows, const Matrix& b,
                          float* out);

/// out = a^T * b. Shapes: [k x m]^T * [k x n] -> [m x n].
void MatMulTransA(const Matrix& a, const Matrix& b, Matrix* out);

/// Rows [row_begin, row_end) of out = a^T * b, overwritten; `out` must
/// already be [a.cols() x b.cols()] and no other row is touched. Each
/// element sums its k contributions in ascending-p order from zero, as
/// MatMulTransA does, so disjoint row blocks can run concurrently and still
/// give MatMulTransA's bits (the weight gradient of Mlp::Backward).
void MatMulTransARows(const Matrix& a, const Matrix& b, int row_begin,
                      int row_end, Matrix* out);

/// out = m^T. `out` is resized.
void Transpose(const Matrix& m, Matrix* out);

}  // namespace fairmove

#endif  // FAIRMOVE_NN_MATRIX_H_
