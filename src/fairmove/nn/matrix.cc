#include "fairmove/nn/matrix.h"

#include <algorithm>
#include <cmath>

#include "fairmove/nn/simd.h"

namespace fairmove {

namespace {

// Column tile of the accumulation kernels. Keeps the active output slice and
// the matching B-panel rows resident in L1 when n is large; a no-op cost for
// the small layers the policies use (n <= 64 fits in one tile).
constexpr int kColBlock = 256;

// The single-row kernel shared by every batch row: out(i, j) accumulates
// its k contributions in ascending-p order, one add per contribution. The
// p-loop is unrolled 4x and the j-loop runs simd::kFloatLanes output
// columns per iteration. Lanes are independent output elements, and
// simd::Add/Mul are unfused single IEEE ops, so every element still
// receives exactly the scalar tail loop's float sequence — the SIMD and
// scalar paths are bit-identical (pinned by simd_kernels_test), the wider
// registers just retire more elements per cycle.
void MatMulRow(const float* a_row, const Matrix& b, int k, int n,
               float* out_row) {
  using simd::kFloatLanes;
  for (int j0 = 0; j0 < n; j0 += kColBlock) {
    const int j1 = std::min(n, j0 + kColBlock);
    int p = 0;
    for (; p + 4 <= k; p += 4) {
      const float a0 = a_row[p], a1 = a_row[p + 1];
      const float a2 = a_row[p + 2], a3 = a_row[p + 3];
      const float* b0 = b.Row(p);
      const float* b1 = b.Row(p + 1);
      const float* b2 = b.Row(p + 2);
      const float* b3 = b.Row(p + 3);
      int j = j0;
      if constexpr (kFloatLanes > 1) {
        const simd::VecF va0 = simd::Set1(a0), va1 = simd::Set1(a1);
        const simd::VecF va2 = simd::Set1(a2), va3 = simd::Set1(a3);
        for (; j + kFloatLanes <= j1; j += kFloatLanes) {
          simd::VecF t = simd::LoadU(out_row + j);
          t = simd::Add(t, simd::Mul(va0, simd::LoadU(b0 + j)));
          t = simd::Add(t, simd::Mul(va1, simd::LoadU(b1 + j)));
          t = simd::Add(t, simd::Mul(va2, simd::LoadU(b2 + j)));
          t = simd::Add(t, simd::Mul(va3, simd::LoadU(b3 + j)));
          simd::StoreU(out_row + j, t);
        }
      }
      for (; j < j1; ++j) {
        float t = out_row[j];
        t += a0 * b0[j];
        t += a1 * b1[j];
        t += a2 * b2[j];
        t += a3 * b3[j];
        out_row[j] = t;
      }
    }
    for (; p < k; ++p) {
      const float av = a_row[p];
      const float* b_row = b.Row(p);
      int j = j0;
      if constexpr (kFloatLanes > 1) {
        const simd::VecF vav = simd::Set1(av);
        for (; j + kFloatLanes <= j1; j += kFloatLanes) {
          const simd::VecF t = simd::Add(
              simd::LoadU(out_row + j), simd::Mul(vav, simd::LoadU(b_row + j)));
          simd::StoreU(out_row + j, t);
        }
      }
      for (; j < j1; ++j) out_row[j] += av * b_row[j];
    }
  }
}

}  // namespace

void MatMulRowsAccumulate(const float* a, int rows, const Matrix& b,
                          float* out) {
  const int k = b.rows(), n = b.cols();
  for (int i = 0; i < rows; ++i) {
    MatMulRow(a + static_cast<size_t>(i) * k, b, k, n,
              out + static_cast<size_t>(i) * n);
  }
}

void Matrix::RandomGaussian(Rng& rng, double stddev) {
  for (float& v : data_) {
    v = static_cast<float>(rng.Gaussian(0.0, stddev));
  }
}

// Accumulation order invariant (all MatMul* kernels): every output element
// out(i, j) sums its k contributions in ascending-p order, one add per
// contribution, starting from zero (the zero Resize left behind, or the
// row-block zero fill of MatMulTransARows). Batched
// Mlp::Forward is documented to be bit-identical to per-row Forward1,
// which holds exactly because rows are independent here — every batch row
// runs the same MatMulRow kernel, so the per-element order never depends
// on the batch size. There is deliberately NO zero-skip on a(i, p): it
// would silently drop 0 * NaN / 0 * Inf contributions from a diverged
// weight matrix and let it pass output-side NaN screening.
void MatMul(const Matrix& a, const Matrix& b, Matrix* out) {
  FM_CHECK(a.cols() == b.rows())
      << "MatMul shape mismatch: " << a.cols() << " vs " << b.rows();
  out->Resize(a.rows(), b.cols());
  MatMulRowsAccumulate(a.data(), a.rows(), b, out->data());
}

void MatMulTransA(const Matrix& a, const Matrix& b, Matrix* out) {
  out->ResizeForOverwrite(a.cols(), b.cols());
  MatMulTransARows(a, b, 0, a.cols(), out);
}

void MatMulTransARows(const Matrix& a, const Matrix& b, int row_begin,
                      int row_end, Matrix* out) {
  FM_CHECK(a.rows() == b.rows())
      << "MatMulTransA shape mismatch: " << a.rows() << " vs " << b.rows();
  FM_CHECK(out->rows() == a.cols() && out->cols() == b.cols());
  FM_CHECK(0 <= row_begin && row_begin <= row_end && row_end <= a.cols());
  if (row_begin == row_end) return;
  const int k = a.rows(), n = b.cols();
  std::fill(out->data() + static_cast<size_t>(row_begin) * n,
            out->data() + static_cast<size_t>(row_end) * n, 0.0f);
  using simd::kFloatLanes;
  for (int j0 = 0; j0 < n; j0 += kColBlock) {
    const int j1 = std::min(n, j0 + kColBlock);
    int p = 0;
    for (; p + 4 <= k; p += 4) {
      const float* a0 = a.Row(p);
      const float* a1 = a.Row(p + 1);
      const float* a2 = a.Row(p + 2);
      const float* a3 = a.Row(p + 3);
      const float* b0 = b.Row(p);
      const float* b1 = b.Row(p + 1);
      const float* b2 = b.Row(p + 2);
      const float* b3 = b.Row(p + 3);
      for (int i = row_begin; i < row_end; ++i) {
        float* out_row = out->Row(i);
        const float v0 = a0[i], v1 = a1[i], v2 = a2[i], v3 = a3[i];
        int j = j0;
        if constexpr (kFloatLanes > 1) {
          const simd::VecF vv0 = simd::Set1(v0), vv1 = simd::Set1(v1);
          const simd::VecF vv2 = simd::Set1(v2), vv3 = simd::Set1(v3);
          for (; j + kFloatLanes <= j1; j += kFloatLanes) {
            simd::VecF t = simd::LoadU(out_row + j);
            t = simd::Add(t, simd::Mul(vv0, simd::LoadU(b0 + j)));
            t = simd::Add(t, simd::Mul(vv1, simd::LoadU(b1 + j)));
            t = simd::Add(t, simd::Mul(vv2, simd::LoadU(b2 + j)));
            t = simd::Add(t, simd::Mul(vv3, simd::LoadU(b3 + j)));
            simd::StoreU(out_row + j, t);
          }
        }
        for (; j < j1; ++j) {
          float t = out_row[j];
          t += v0 * b0[j];
          t += v1 * b1[j];
          t += v2 * b2[j];
          t += v3 * b3[j];
          out_row[j] = t;
        }
      }
    }
    for (; p < k; ++p) {
      const float* a_row = a.Row(p);
      const float* b_row = b.Row(p);
      for (int i = row_begin; i < row_end; ++i) {
        const float av = a_row[i];
        float* out_row = out->Row(i);
        int j = j0;
        if constexpr (kFloatLanes > 1) {
          const simd::VecF vav = simd::Set1(av);
          for (; j + kFloatLanes <= j1; j += kFloatLanes) {
            const simd::VecF t =
                simd::Add(simd::LoadU(out_row + j),
                          simd::Mul(vav, simd::LoadU(b_row + j)));
            simd::StoreU(out_row + j, t);
          }
        }
        for (; j < j1; ++j) out_row[j] += av * b_row[j];
      }
    }
  }
}

void Transpose(const Matrix& m, Matrix* out) {
  out->ResizeForOverwrite(m.cols(), m.rows());
  for (int i = 0; i < m.rows(); ++i) {
    const float* row = m.Row(i);
    for (int j = 0; j < m.cols(); ++j) out->At(j, i) = row[j];
  }
}

}  // namespace fairmove
