// The AVX2 kernel table: 8 lanes, x86-64 only. The one object built with
// -mavx2, and Kernels() picks it only on hosts that run AVX2, so nothing in
// it may be shared with baseline code: see the vague-linkage rule in
// nn/simd_kernels.inc (checked by the isa_linkage test).

#include <immintrin.h>

#include <cstddef>
#include <cstdint>

#include "fairmove/nn/simd.h"

namespace fairmove::simd::avx2 {
namespace {

constexpr int kFloatLanes = 8;
using VecF = __m256;
using VecI = __m256i;

VecF LoadU(const float* p) { return _mm256_loadu_ps(p); }
void StoreU(float* p, VecF v) { _mm256_storeu_ps(p, v); }
VecF Set1(float x) { return _mm256_set1_ps(x); }
VecF Zero() { return _mm256_setzero_ps(); }
VecF Add(VecF a, VecF b) { return _mm256_add_ps(a, b); }
VecF Sub(VecF a, VecF b) { return _mm256_sub_ps(a, b); }
VecF Mul(VecF a, VecF b) { return _mm256_mul_ps(a, b); }
VecF Div(VecF a, VecF b) { return _mm256_div_ps(a, b); }
/// Lanewise ordered comparisons (false for NaN operands): all-ones lanes
/// where true.
VecF CmpGt(VecF a, VecF b) { return _mm256_cmp_ps(a, b, _CMP_GT_OQ); }
VecF CmpLt(VecF a, VecF b) { return _mm256_cmp_ps(a, b, _CMP_LT_OQ); }
VecF CmpLe(VecF a, VecF b) { return _mm256_cmp_ps(a, b, _CMP_LE_OQ); }
/// Bitwise select, mask ? a : b (mask lanes are all-ones or all-zero).
VecF Select(VecF mask, VecF a, VecF b) { return _mm256_blendv_ps(b, a, mask); }
VecI CastToInt(VecF v) { return _mm256_castps_si256(v); }
VecF CastToFloat(VecI v) { return _mm256_castsi256_ps(v); }
VecI Set1I(int32_t x) { return _mm256_set1_epi32(x); }
VecI AddI32(VecI a, VecI b) { return _mm256_add_epi32(a, b); }
template <int N>
VecI ShlI32(VecI v) {
  return _mm256_slli_epi32(v, N);
}

#include "fairmove/nn/simd_kernels.inc"

}  // namespace

const KernelTable kTable = MakeKernelTable("avx2");

}  // namespace fairmove::simd::avx2
