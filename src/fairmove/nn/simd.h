#ifndef FAIRMOVE_NN_SIMD_H_
#define FAIRMOVE_NN_SIMD_H_

#include <cstddef>
#include <span>

// Run-time dispatched kernels for the dense NN loops. Every build compiles
// the kernel bodies (nn/simd_kernels.inc) once per ISA its target can run:
// scalar everywhere, SSE2 and AVX2 on x86-64, NEON on arm64. Only
// nn/simd_avx2.cc is compiled with -mavx2. At start-up the widest table the
// host runs becomes the active one; AVX2 needs both the CPU feature and the
// OS saving YMM state, which __builtin_cpu_supports checks.
//
// Bit-exactness contract: every vector operation in the kernels is a single
// IEEE-754 single-precision operation per lane, never fused, and each
// output element receives exactly the float sequence of the scalar loop:
// the same ascending-p accumulation order, the same NaN propagation. So
// every table gives the same bits, and which one runs changes throughput
// only (pinned per table by simd_kernels_test). fairmove_nn is compiled
// with -ffp-contract=off so no loop can be contracted into FMAs either.

namespace fairmove {
namespace simd {

/// One ISA's build of every dense float loop of the inference and training
/// passes. The kernels take raw row-major pointers and sizes.
struct KernelTable {
  /// "scalar", "sse2", "neon" or "avx2".
  const char* name;
  int float_lanes;
  /// out[i*n + j] += sum_p a[i*k + p] * b[p*n + j] for i < rows, j < n,
  /// accumulated from whatever `out` holds in ascending-p order, one add per
  /// contribution. Every batch row runs the same per-row sequence, so a row's
  /// result never depends on the batch size or on how rows are sharded.
  void (*matmul_rows_accumulate)(const float* a, int rows, const float* b,
                                 int k, int n, float* out);
  /// Rows [row_begin, row_end) of out = a^T * b, overwritten, with a [k x m],
  /// b [k x n] and out [m x n]. Each element sums its k contributions in
  /// ascending-p order from zero, so disjoint row blocks may run
  /// concurrently; no other row of `out` is touched.
  void (*matmul_trans_a_rows)(const float* a, int m, const float* b, int n,
                              int k, int row_begin, int row_end, float* out);
  /// In place: data[i] = FastTanh(data[i]).
  void (*tanh)(float* data, size_t n);
  /// In place: data[i] = (0 < data[i]) ? data[i] : +0, as std::max(0.0f, v)
  /// (NaN and -0 both give +0).
  void (*relu)(float* data, size_t n);
  /// delta[i] *= 1 - post[i] * post[i] (tanh' at the activation's output).
  void (*tanh_grad)(const float* post, float* delta, size_t n);
  /// delta[i] = +0 where post[i] <= 0 (a NaN post keeps its delta).
  void (*relu_grad)(const float* post, float* delta, size_t n);
  /// out[i*n + j] += bias[j] for i < rows, j < n.
  void (*add_bias_rows)(float* out, int rows, int n, const float* bias);
  /// acc[i] += x[i] for i < n.
  void (*add)(float* acc, const float* x, size_t n);
  /// out[j] = the sum over p < rows of m[p*stride + j], from zero in
  /// ascending-p order, for j in [col_begin, col_end); nothing else written.
  void (*column_sums)(const float* m, int rows, int stride, int col_begin,
                      int col_end, float* out);
};

// The tables nn/simd_<isa>.cc define; the rest of the library reaches them
// through Kernels().
namespace scalar {
extern const KernelTable kTable;
}  // namespace scalar
#if defined(__x86_64__)
namespace sse2 {
extern const KernelTable kTable;
}  // namespace sse2
namespace avx2 {
extern const KernelTable kTable;
}  // namespace avx2
#elif defined(__aarch64__)
namespace neon {
extern const KernelTable kTable;
}  // namespace neon
#endif

/// The table every NN kernel call goes through: the widest this host runs,
/// picked once during static initialisation.
const KernelTable& Kernels();

/// Name of the table Kernels() returns (what perf artefacts record).
extern const char* const& kIsaName;

/// Every table this build compiled, narrowest first: scalar, then the
/// baseline ISA (sse2 or neon), then avx2.
std::span<const KernelTable* const> CompiledTables();

/// Whether this host can run `table`'s instructions.
bool HostSupports(const KernelTable& table);

/// Test-only hook: makes `table` the one Kernels() returns until
/// destruction, so a test can run the same case under every table the host
/// supports. No kernel call may be in flight while one is created or
/// destroyed.
class ScopedKernelTableForTesting {
 public:
  explicit ScopedKernelTableForTesting(const KernelTable& table);
  ~ScopedKernelTableForTesting();
  ScopedKernelTableForTesting(const ScopedKernelTableForTesting&) = delete;
  ScopedKernelTableForTesting& operator=(const ScopedKernelTableForTesting&) =
      delete;

 private:
  KernelTable previous_;
};

}  // namespace simd

/// Branch-free tanh, the scalar routine of every table's tanh kernel (their
/// vector loops transcribe it lane for lane). Evaluates (e - 1) / (e + 1)
/// with e = exp(2x) built from a degree-6 polynomial exp2 and an
/// exponent-bit splice, so the activation loop vectorises instead of making
/// one libm call per element. Max absolute error vs std::tanh is < 4e-7
/// over the full range; FastTanh(0) == 0 exactly, |x| >= 10 saturates to
/// +/-1, and NaN propagates (no clamping path can swallow a diverged
/// pre-activation).
float FastTanh(float x);

}  // namespace fairmove

#endif  // FAIRMOVE_NN_SIMD_H_
