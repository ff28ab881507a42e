#ifndef FAIRMOVE_NN_SIMD_H_
#define FAIRMOVE_NN_SIMD_H_

#include <cstdint>
#include <cstring>

// Portable SIMD wrapper for the dense NN kernels. The backend is selected at
// configure time: the compiler's target ISA macros pick AVX2, SSE2 or NEON,
// and -DFAIRMOVE_SIMD=scalar (which defines FAIRMOVE_SIMD_FORCE_SCALAR)
// forces the one-lane fallback for debugging and A/B timing.
//
// Bit-exactness contract: every operation here is a single IEEE-754
// single-precision operation per lane — there is deliberately NO fused
// multiply-add and no approximate reciprocal/rsqrt. A kernel written with
// these ops therefore produces, per output element, exactly the float
// sequence of the equivalent scalar loop, which is what lets the SIMD
// MatMul*/FastTanh paths keep the documented ascending-p accumulation order
// and NaN-propagation behaviour bit-for-bit (pinned by simd_kernels_test).
// fairmove_nn is compiled with -ffp-contract=off so the scalar reference
// loops cannot be silently contracted into FMAs either.

#if !defined(FAIRMOVE_SIMD_FORCE_SCALAR)
#if defined(__AVX2__)
#define FAIRMOVE_SIMD_AVX2 1
#include <immintrin.h>
#elif defined(__SSE2__) || defined(_M_X64) || \
    (defined(_M_IX86_FP) && _M_IX86_FP >= 2)
#define FAIRMOVE_SIMD_SSE2 1
#include <emmintrin.h>
#elif defined(__ARM_NEON) || defined(__ARM_NEON__) || defined(__aarch64__)
#define FAIRMOVE_SIMD_NEON 1
#include <arm_neon.h>
#endif
#endif  // !FAIRMOVE_SIMD_FORCE_SCALAR

namespace fairmove {
namespace simd {

#if defined(FAIRMOVE_SIMD_AVX2)

inline constexpr int kFloatLanes = 8;
inline constexpr const char* kIsaName = "avx2";
using VecF = __m256;
using VecI = __m256i;

inline VecF LoadU(const float* p) { return _mm256_loadu_ps(p); }
inline void StoreU(float* p, VecF v) { _mm256_storeu_ps(p, v); }
inline VecF Set1(float x) { return _mm256_set1_ps(x); }
inline VecF Zero() { return _mm256_setzero_ps(); }
inline VecF Add(VecF a, VecF b) { return _mm256_add_ps(a, b); }
inline VecF Sub(VecF a, VecF b) { return _mm256_sub_ps(a, b); }
inline VecF Mul(VecF a, VecF b) { return _mm256_mul_ps(a, b); }
inline VecF Div(VecF a, VecF b) { return _mm256_div_ps(a, b); }
/// Lanewise ordered a > b (false for NaN operands), all-ones mask when true.
inline VecF CmpGt(VecF a, VecF b) { return _mm256_cmp_ps(a, b, _CMP_GT_OQ); }
inline VecF CmpLt(VecF a, VecF b) { return _mm256_cmp_ps(a, b, _CMP_LT_OQ); }
/// Bitwise select: mask ? a : b (mask lanes must be all-ones or all-zero).
inline VecF Select(VecF mask, VecF a, VecF b) {
  return _mm256_blendv_ps(b, a, mask);
}
inline VecI CastToInt(VecF v) { return _mm256_castps_si256(v); }
inline VecF CastToFloat(VecI v) { return _mm256_castsi256_ps(v); }
inline VecI Set1I(int32_t x) { return _mm256_set1_epi32(x); }
inline VecI AddI32(VecI a, VecI b) { return _mm256_add_epi32(a, b); }
template <int N>
inline VecI ShlI32(VecI v) {
  return _mm256_slli_epi32(v, N);
}

#elif defined(FAIRMOVE_SIMD_SSE2)

inline constexpr int kFloatLanes = 4;
inline constexpr const char* kIsaName = "sse2";
using VecF = __m128;
using VecI = __m128i;

inline VecF LoadU(const float* p) { return _mm_loadu_ps(p); }
inline void StoreU(float* p, VecF v) { _mm_storeu_ps(p, v); }
inline VecF Set1(float x) { return _mm_set1_ps(x); }
inline VecF Zero() { return _mm_setzero_ps(); }
inline VecF Add(VecF a, VecF b) { return _mm_add_ps(a, b); }
inline VecF Sub(VecF a, VecF b) { return _mm_sub_ps(a, b); }
inline VecF Mul(VecF a, VecF b) { return _mm_mul_ps(a, b); }
inline VecF Div(VecF a, VecF b) { return _mm_div_ps(a, b); }
inline VecF CmpGt(VecF a, VecF b) { return _mm_cmpgt_ps(a, b); }
inline VecF CmpLt(VecF a, VecF b) { return _mm_cmplt_ps(a, b); }
inline VecF Select(VecF mask, VecF a, VecF b) {
  // SSE2 has no blendv: (mask & a) | (~mask & b).
  return _mm_or_ps(_mm_and_ps(mask, a), _mm_andnot_ps(mask, b));
}
inline VecI CastToInt(VecF v) { return _mm_castps_si128(v); }
inline VecF CastToFloat(VecI v) { return _mm_castsi128_ps(v); }
inline VecI Set1I(int32_t x) { return _mm_set1_epi32(x); }
inline VecI AddI32(VecI a, VecI b) { return _mm_add_epi32(a, b); }
template <int N>
inline VecI ShlI32(VecI v) {
  return _mm_slli_epi32(v, N);
}

#elif defined(FAIRMOVE_SIMD_NEON)

inline constexpr int kFloatLanes = 4;
inline constexpr const char* kIsaName = "neon";
using VecF = float32x4_t;
using VecI = int32x4_t;

inline VecF LoadU(const float* p) { return vld1q_f32(p); }
inline void StoreU(float* p, VecF v) { vst1q_f32(p, v); }
inline VecF Set1(float x) { return vdupq_n_f32(x); }
inline VecF Zero() { return vdupq_n_f32(0.0f); }
inline VecF Add(VecF a, VecF b) { return vaddq_f32(a, b); }
inline VecF Sub(VecF a, VecF b) { return vsubq_f32(a, b); }
inline VecF Mul(VecF a, VecF b) { return vmulq_f32(a, b); }
inline VecF Div(VecF a, VecF b) {
#if defined(__aarch64__)
  return vdivq_f32(a, b);
#else
  // ARMv7 NEON has no float division; fall through the scalar unit so the
  // result stays correctly rounded (bit-exactness beats throughput here).
  float av[4], bv[4];
  vst1q_f32(av, a);
  vst1q_f32(bv, b);
  for (int i = 0; i < 4; ++i) av[i] /= bv[i];
  return vld1q_f32(av);
#endif
}
inline VecF CmpGt(VecF a, VecF b) {
  return vreinterpretq_f32_u32(vcgtq_f32(a, b));
}
inline VecF CmpLt(VecF a, VecF b) {
  return vreinterpretq_f32_u32(vcltq_f32(a, b));
}
inline VecF Select(VecF mask, VecF a, VecF b) {
  return vbslq_f32(vreinterpretq_u32_f32(mask), a, b);
}
inline VecI CastToInt(VecF v) { return vreinterpretq_s32_f32(v); }
inline VecF CastToFloat(VecI v) { return vreinterpretq_f32_s32(v); }
inline VecI Set1I(int32_t x) { return vdupq_n_s32(x); }
inline VecI AddI32(VecI a, VecI b) { return vaddq_s32(a, b); }
template <int N>
inline VecI ShlI32(VecI v) {
  return vshlq_n_s32(v, N);
}

#else  // scalar fallback

inline constexpr int kFloatLanes = 1;
inline constexpr const char* kIsaName = "scalar";
struct VecF {
  float v;
};
struct VecI {
  int32_t v;
};

inline VecF LoadU(const float* p) { return VecF{*p}; }
inline void StoreU(float* p, VecF v) { *p = v.v; }
inline VecF Set1(float x) { return VecF{x}; }
inline VecF Zero() { return VecF{0.0f}; }
inline VecF Add(VecF a, VecF b) { return VecF{a.v + b.v}; }
inline VecF Sub(VecF a, VecF b) { return VecF{a.v - b.v}; }
inline VecF Mul(VecF a, VecF b) { return VecF{a.v * b.v}; }
inline VecF Div(VecF a, VecF b) { return VecF{a.v / b.v}; }
inline VecF CmpGt(VecF a, VecF b) {
  VecF m;
  const uint32_t bits = a.v > b.v ? 0xFFFFFFFFu : 0u;
  std::memcpy(&m.v, &bits, sizeof(m.v));
  return m;
}
inline VecF CmpLt(VecF a, VecF b) { return CmpGt(b, a); }
inline VecF Select(VecF mask, VecF a, VecF b) {
  uint32_t mb, ab, bb;
  std::memcpy(&mb, &mask.v, 4);
  std::memcpy(&ab, &a.v, 4);
  std::memcpy(&bb, &b.v, 4);
  const uint32_t rb = (mb & ab) | (~mb & bb);
  VecF r;
  std::memcpy(&r.v, &rb, 4);
  return r;
}
inline VecI CastToInt(VecF v) {
  VecI r;
  std::memcpy(&r.v, &v.v, 4);
  return r;
}
inline VecF CastToFloat(VecI v) {
  VecF r;
  std::memcpy(&r.v, &v.v, 4);
  return r;
}
inline VecI Set1I(int32_t x) { return VecI{x}; }
inline VecI AddI32(VecI a, VecI b) {
  // Wrapping add, matching the vector ISAs (signed overflow must not UB).
  return VecI{static_cast<int32_t>(static_cast<uint32_t>(a.v) +
                                   static_cast<uint32_t>(b.v))};
}
template <int N>
inline VecI ShlI32(VecI v) {
  return VecI{static_cast<int32_t>(static_cast<uint32_t>(v.v) << N)};
}

#endif

}  // namespace simd
}  // namespace fairmove

#endif  // FAIRMOVE_NN_SIMD_H_
