#ifndef FAIRMOVE_IO_BINARY_H_
#define FAIRMOVE_IO_BINARY_H_

// The one byte codec for everything FairMove persists. Every format below is
// encoded with BinaryWriter and decoded with BinaryReader, so each is
// little-endian on any host:
//   FMCKPT1  checkpoint frame (resilience/checkpoint.h)
//   TRN1     trainer run-state record, the FMCKPT1 payload (core/trainer)
//   CA21, DQN1, TQL1, TBA1
//            policy state records (DisplacementPolicy::SaveState)
//   ADM1     Adam optimiser state (nn/adam), nested in CA21/DQN1/TBA1
//   GRD1     DivergenceGuard state (resilience/divergence_guard), in CA21
//   FMLP1    one network (Mlp::Save): a model file (CMA2C holds two, DQN
//            one) and a length-prefixed member of CA21/DQN1/TBA1/GRD1
//   FMTQ1    the TQL Q-table model file (TqlPolicy::SaveModel)
//   FMFR1    flight-recorder dump (obs/flight_recorder.h)

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fairmove/common/rng.h"
#include "fairmove/common/status.h"

namespace fairmove {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) of `size` bytes at
/// `data`. `seed` is a previous Crc32 result, so computation chains:
/// Crc32(b, n, Crc32(a, m)) == Crc32 of a then b.
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);
inline uint32_t Crc32(std::string_view text, uint32_t seed = 0) {
  return Crc32(text.data(), text.size(), seed);
}

/// Append-only little-endian byte-buffer writer: the encoding side of the
/// checkpoint/serialization formats. All multi-byte integers are written
/// explicitly little-endian (independent of host endianness); floats are
/// written as their IEEE-754 bit patterns, which round-trip exactly.
class BinaryWriter {
 public:
  void WriteU8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }
  void WriteU16(uint16_t v);
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteI32(int32_t v) { WriteU32(static_cast<uint32_t>(v)); }
  void WriteI64(int64_t v) { WriteU64(static_cast<uint64_t>(v)); }
  void WriteF32(float v);
  void WriteF64(double v);
  void WriteBytes(const void* data, size_t size);
  /// u64 byte count followed by the raw bytes.
  void WriteString(std::string_view s);
  /// u64 element count followed by each element as WriteF32.
  void WriteFloatVec(const std::vector<float>& v);
  /// Same, from a raw buffer (Matrix rows, parameter blocks).
  void WriteFloats(const float* data, size_t count);

  const std::string& str() const { return buf_; }
  std::string Release() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }
  void Clear() { buf_.clear(); }

 private:
  std::string buf_;
};

/// Cursor-based reader over a byte buffer; the decoding mirror of
/// BinaryWriter. Every Read returns InvalidArgument — with the offset and
/// what was being read — instead of running past the end, so truncated or
/// corrupted payloads fail loudly and never crash. The referenced buffer
/// must outlive the reader.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  Status ReadU8(uint8_t* out);
  Status ReadBool(bool* out);
  Status ReadU16(uint16_t* out);
  Status ReadU32(uint32_t* out);
  Status ReadU64(uint64_t* out);
  Status ReadI32(int32_t* out);
  Status ReadI64(int64_t* out);
  Status ReadF32(float* out);
  Status ReadF64(double* out);
  Status ReadBytes(void* out, size_t size);
  /// Reads a WriteString field. `max_size` bounds the declared length so a
  /// corrupted count cannot trigger a huge allocation.
  Status ReadString(std::string* out, uint64_t max_size = kDefaultLimit);
  /// Reads a WriteFloatVec/WriteFloats field, bounded by `max_count`.
  Status ReadFloatVec(std::vector<float>* out,
                      uint64_t max_count = kDefaultLimit);

  size_t offset() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  /// Default cap on declared string/array lengths (64 MiB of elements):
  /// far above any legitimate field here, far below an OOM.
  static constexpr uint64_t kDefaultLimit = 64ull << 20;

  Status Need(size_t n, const char* what);

  std::string_view data_;
  size_t pos_ = 0;
};

/// Reads the u32 tag that opens a tagged record and checks it is `tag`.
/// The InvalidArgument names `record` (e.g. "CMA2C state") and the bad tag.
Status ReadRecordTag(BinaryReader* in, uint32_t tag, std::string_view record);
/// Same for records whose tag is followed by a u32 format version, which
/// must equal `version`.
Status ReadRecordHeader(BinaryReader* in, uint32_t tag, uint32_t version,
                        std::string_view record);

/// Serializes an Rng stream position (Rng::State) into `out`; the exact
/// mirror of ReadRngState. Used by every checkpointable component that owns
/// a generator.
void WriteRngState(const Rng& rng, BinaryWriter* out);
Status ReadRngState(BinaryReader* in, Rng* rng);

}  // namespace fairmove

#endif  // FAIRMOVE_IO_BINARY_H_
