#include "fairmove/nn/matrix.h"

#include <cmath>

#include "fairmove/nn/simd.h"

namespace fairmove {

void Matrix::RandomGaussian(Rng& rng, double stddev) {
  for (float& v : data_) {
    v = static_cast<float>(rng.Gaussian(0.0, stddev));
  }
}

// Both products run the active kernel table (nn/simd.h), whose every table
// gives the same bits. There is deliberately NO zero-skip on a(i, p): it
// would silently drop 0 * NaN / 0 * Inf contributions from a diverged weight
// matrix and let it pass output-side NaN screening.
void MatMul(const Matrix& a, const Matrix& b, Matrix* out) {
  FM_CHECK(a.cols() == b.rows())
      << "MatMul shape mismatch: " << a.cols() << " vs " << b.rows();
  out->Resize(a.rows(), b.cols());
  simd::Kernels().matmul_rows_accumulate(a.data(), a.rows(), b.data(),
                                         b.rows(), b.cols(), out->data());
}

void MatMulTransA(const Matrix& a, const Matrix& b, Matrix* out) {
  FM_CHECK(a.rows() == b.rows())
      << "MatMulTransA shape mismatch: " << a.rows() << " vs " << b.rows();
  out->ResizeForOverwrite(a.cols(), b.cols());
  simd::Kernels().matmul_trans_a_rows(a.data(), a.cols(), b.data(), b.cols(),
                                      a.rows(), 0, a.cols(), out->data());
}

void Transpose(const Matrix& m, Matrix* out) {
  out->ResizeForOverwrite(m.cols(), m.rows());
  for (int i = 0; i < m.rows(); ++i) {
    const float* row = m.Row(i);
    for (int j = 0; j < m.cols(); ++j) out->At(j, i) = row[j];
  }
}

}  // namespace fairmove
