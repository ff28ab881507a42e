// The SSE2 kernel table: 4 lanes, the x86-64 baseline, so it needs no
// compiler flag and every x86-64 host runs it.

#include <emmintrin.h>

#include <cstddef>
#include <cstdint>

#include "fairmove/nn/simd.h"

namespace fairmove::simd::sse2 {
namespace {

constexpr int kFloatLanes = 4;
using VecF = __m128;
using VecI = __m128i;

VecF LoadU(const float* p) { return _mm_loadu_ps(p); }
void StoreU(float* p, VecF v) { _mm_storeu_ps(p, v); }
VecF Set1(float x) { return _mm_set1_ps(x); }
VecF Zero() { return _mm_setzero_ps(); }
VecF Add(VecF a, VecF b) { return _mm_add_ps(a, b); }
VecF Sub(VecF a, VecF b) { return _mm_sub_ps(a, b); }
VecF Mul(VecF a, VecF b) { return _mm_mul_ps(a, b); }
VecF Div(VecF a, VecF b) { return _mm_div_ps(a, b); }
/// Lanewise ordered comparisons (false for NaN operands): all-ones lanes
/// where true.
VecF CmpGt(VecF a, VecF b) { return _mm_cmpgt_ps(a, b); }
VecF CmpLt(VecF a, VecF b) { return _mm_cmplt_ps(a, b); }
VecF CmpLe(VecF a, VecF b) { return _mm_cmple_ps(a, b); }
/// Bitwise select, mask ? a : b. SSE2 has no blendv: (mask & a) | (~mask & b).
VecF Select(VecF mask, VecF a, VecF b) {
  return _mm_or_ps(_mm_and_ps(mask, a), _mm_andnot_ps(mask, b));
}
VecI CastToInt(VecF v) { return _mm_castps_si128(v); }
VecF CastToFloat(VecI v) { return _mm_castsi128_ps(v); }
VecI Set1I(int32_t x) { return _mm_set1_epi32(x); }
VecI AddI32(VecI a, VecI b) { return _mm_add_epi32(a, b); }
template <int N>
VecI ShlI32(VecI v) {
  return _mm_slli_epi32(v, N);
}

#include "fairmove/nn/simd_kernels.inc"

}  // namespace

const KernelTable kTable = MakeKernelTable("sse2");

}  // namespace fairmove::simd::sse2
