// The scalar kernel table: one lane, so only the kernels' scalar loops run.
// Every build has it; it is the reference the other tables are tested
// against, and the table a host without any vector ISA runs.

#include <cstddef>
#include <cstdint>

#include "fairmove/nn/simd.h"

namespace fairmove::simd::scalar {
namespace {

// One-lane stand-ins for the vector operations. The vector loops that use
// them are compiled out (kFloatLanes == 1), but must still type-check.
constexpr int kFloatLanes = 1;
struct VecF {
  float v;
};
struct VecI {
  int32_t v;
};

VecF LoadU(const float* p) { return VecF{*p}; }
void StoreU(float* p, VecF v) { *p = v.v; }
VecF Set1(float x) { return VecF{x}; }
VecF Zero() { return VecF{0.0f}; }
VecF Add(VecF a, VecF b) { return VecF{a.v + b.v}; }
VecF Sub(VecF a, VecF b) { return VecF{a.v - b.v}; }
VecF Mul(VecF a, VecF b) { return VecF{a.v * b.v}; }
VecF Div(VecF a, VecF b) { return VecF{a.v / b.v}; }
VecF Mask(bool on) {
  const uint32_t bits = on ? 0xFFFFFFFFu : 0u;
  VecF m;
  __builtin_memcpy(&m.v, &bits, sizeof(m.v));
  return m;
}
VecF CmpGt(VecF a, VecF b) { return Mask(a.v > b.v); }
VecF CmpLt(VecF a, VecF b) { return Mask(a.v < b.v); }
VecF CmpLe(VecF a, VecF b) { return Mask(a.v <= b.v); }
VecF Select(VecF mask, VecF a, VecF b) {
  uint32_t mb, ab, bb;
  __builtin_memcpy(&mb, &mask.v, 4);
  __builtin_memcpy(&ab, &a.v, 4);
  __builtin_memcpy(&bb, &b.v, 4);
  const uint32_t rb = (mb & ab) | (~mb & bb);
  VecF r;
  __builtin_memcpy(&r.v, &rb, 4);
  return r;
}
VecI CastToInt(VecF v) {
  VecI r;
  __builtin_memcpy(&r.v, &v.v, 4);
  return r;
}
VecF CastToFloat(VecI v) {
  VecF r;
  __builtin_memcpy(&r.v, &v.v, 4);
  return r;
}
VecI Set1I(int32_t x) { return VecI{x}; }
VecI AddI32(VecI a, VecI b) {
  // Wrapping add, matching the vector ISAs (signed overflow must not UB).
  return VecI{static_cast<int32_t>(static_cast<uint32_t>(a.v) +
                                   static_cast<uint32_t>(b.v))};
}
template <int N>
VecI ShlI32(VecI v) {
  return VecI{static_cast<int32_t>(static_cast<uint32_t>(v.v) << N)};
}

#include "fairmove/nn/simd_kernels.inc"

}  // namespace

const KernelTable kTable = MakeKernelTable("scalar");

}  // namespace fairmove::simd::scalar

namespace fairmove {

// The public scalar FastTanh is this table's routine, so the reference the
// tests hold every table's tanh kernel to is the code their tails run.
float FastTanh(float x) { return simd::scalar::FastTanhScalar(x); }

}  // namespace fairmove
