// The NEON kernel table: 4 lanes, the arm64 baseline, so it needs no
// compiler flag and every arm64 host runs it.

#include <arm_neon.h>

#include <cstddef>
#include <cstdint>

#include "fairmove/nn/simd.h"

namespace fairmove::simd::neon {
namespace {

constexpr int kFloatLanes = 4;
using VecF = float32x4_t;
using VecI = int32x4_t;

VecF LoadU(const float* p) { return vld1q_f32(p); }
void StoreU(float* p, VecF v) { vst1q_f32(p, v); }
VecF Set1(float x) { return vdupq_n_f32(x); }
VecF Zero() { return vdupq_n_f32(0.0f); }
VecF Add(VecF a, VecF b) { return vaddq_f32(a, b); }
VecF Sub(VecF a, VecF b) { return vsubq_f32(a, b); }
VecF Mul(VecF a, VecF b) { return vmulq_f32(a, b); }
VecF Div(VecF a, VecF b) { return vdivq_f32(a, b); }
/// Lanewise ordered comparisons (false for NaN operands): all-ones lanes
/// where true.
VecF CmpGt(VecF a, VecF b) { return vreinterpretq_f32_u32(vcgtq_f32(a, b)); }
VecF CmpLt(VecF a, VecF b) { return vreinterpretq_f32_u32(vcltq_f32(a, b)); }
VecF CmpLe(VecF a, VecF b) { return vreinterpretq_f32_u32(vcleq_f32(a, b)); }
/// Bitwise select, mask ? a : b.
VecF Select(VecF mask, VecF a, VecF b) {
  return vbslq_f32(vreinterpretq_u32_f32(mask), a, b);
}
VecI CastToInt(VecF v) { return vreinterpretq_s32_f32(v); }
VecF CastToFloat(VecI v) { return vreinterpretq_f32_s32(v); }
VecI Set1I(int32_t x) { return vdupq_n_s32(x); }
VecI AddI32(VecI a, VecI b) { return vaddq_s32(a, b); }
template <int N>
VecI ShlI32(VecI v) {
  return vshlq_n_s32(v, N);
}

#include "fairmove/nn/simd_kernels.inc"

}  // namespace

const KernelTable kTable = MakeKernelTable("neon");

}  // namespace fairmove::simd::neon
