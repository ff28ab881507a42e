#include "fairmove/io/binary.h"

#include <array>
#include <cstdio>
#include <cstring>

namespace fairmove {

namespace {

std::array<uint32_t, 256> MakeCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  static const std::array<uint32_t, 256> table = MakeCrcTable();
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

void BinaryWriter::WriteU16(uint16_t v) {
  char b[2];
  for (int i = 0; i < 2; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  buf_.append(b, sizeof(b));
}

void BinaryWriter::WriteU32(uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  buf_.append(b, sizeof(b));
}

void BinaryWriter::WriteU64(uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  buf_.append(b, sizeof(b));
}

void BinaryWriter::WriteF32(float v) {
  uint32_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  WriteU32(bits);
}

void BinaryWriter::WriteF64(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  WriteU64(bits);
}

void BinaryWriter::WriteBytes(const void* data, size_t size) {
  buf_.append(static_cast<const char*>(data), size);
}

void BinaryWriter::WriteString(std::string_view s) {
  WriteU64(s.size());
  buf_.append(s.data(), s.size());
}

void BinaryWriter::WriteFloatVec(const std::vector<float>& v) {
  WriteFloats(v.data(), v.size());
}

void BinaryWriter::WriteFloats(const float* data, size_t count) {
  WriteU64(count);
  for (size_t i = 0; i < count; ++i) WriteF32(data[i]);
}

Status BinaryReader::Need(size_t n, const char* what) {
  if (remaining() < n) {
    return Status::InvalidArgument(
        "truncated blob: need " + std::to_string(n) + " byte(s) for " + what +
        " at offset " + std::to_string(pos_) + ", have " +
        std::to_string(remaining()));
  }
  return Status::OK();
}

Status BinaryReader::ReadU8(uint8_t* out) {
  FM_RETURN_IF_ERROR(Need(1, "u8"));
  *out = static_cast<uint8_t>(data_[pos_++]);
  return Status::OK();
}

Status BinaryReader::ReadBool(bool* out) {
  uint8_t v = 0;
  FM_RETURN_IF_ERROR(ReadU8(&v));
  if (v > 1) {
    return Status::InvalidArgument("corrupt bool value " + std::to_string(v) +
                                   " at offset " + std::to_string(pos_ - 1));
  }
  *out = v != 0;
  return Status::OK();
}

Status BinaryReader::ReadU16(uint16_t* out) {
  FM_RETURN_IF_ERROR(Need(2, "u16"));
  uint16_t v = 0;
  for (int i = 0; i < 2; ++i) {
    v = static_cast<uint16_t>(
        v | static_cast<uint16_t>(static_cast<unsigned char>(data_[pos_ + i]))
                << (8 * i));
  }
  pos_ += 2;
  *out = v;
  return Status::OK();
}

Status BinaryReader::ReadU32(uint32_t* out) {
  FM_RETURN_IF_ERROR(Need(4, "u32"));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  *out = v;
  return Status::OK();
}

Status BinaryReader::ReadU64(uint64_t* out) {
  FM_RETURN_IF_ERROR(Need(8, "u64"));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  *out = v;
  return Status::OK();
}

Status BinaryReader::ReadI32(int32_t* out) {
  uint32_t v = 0;
  FM_RETURN_IF_ERROR(ReadU32(&v));
  *out = static_cast<int32_t>(v);
  return Status::OK();
}

Status BinaryReader::ReadI64(int64_t* out) {
  uint64_t v = 0;
  FM_RETURN_IF_ERROR(ReadU64(&v));
  *out = static_cast<int64_t>(v);
  return Status::OK();
}

Status BinaryReader::ReadF32(float* out) {
  uint32_t bits = 0;
  FM_RETURN_IF_ERROR(ReadU32(&bits));
  std::memcpy(out, &bits, sizeof(*out));
  return Status::OK();
}

Status BinaryReader::ReadF64(double* out) {
  uint64_t bits = 0;
  FM_RETURN_IF_ERROR(ReadU64(&bits));
  std::memcpy(out, &bits, sizeof(*out));
  return Status::OK();
}

Status BinaryReader::ReadBytes(void* out, size_t size) {
  FM_RETURN_IF_ERROR(Need(size, "raw bytes"));
  std::memcpy(out, data_.data() + pos_, size);
  pos_ += size;
  return Status::OK();
}

Status BinaryReader::ReadString(std::string* out, uint64_t max_size) {
  uint64_t len = 0;
  FM_RETURN_IF_ERROR(ReadU64(&len));
  if (len > max_size) {
    return Status::InvalidArgument("corrupt string length " +
                                   std::to_string(len) + " (cap " +
                                   std::to_string(max_size) + ") at offset " +
                                   std::to_string(pos_ - 8));
  }
  FM_RETURN_IF_ERROR(Need(static_cast<size_t>(len), "string bytes"));
  out->assign(data_.data() + pos_, static_cast<size_t>(len));
  pos_ += static_cast<size_t>(len);
  return Status::OK();
}

Status ReadRecordTag(BinaryReader* in, uint32_t tag, std::string_view record) {
  uint32_t got = 0;
  FM_RETURN_IF_ERROR(in->ReadU32(&got));
  if (got == tag) return Status::OK();
  char hex[16];
  std::snprintf(hex, sizeof(hex), "0x%08x", got);
  return Status::InvalidArgument("not a " + std::string(record) +
                                 " record (bad tag " + hex + ")");
}

Status ReadRecordHeader(BinaryReader* in, uint32_t tag, uint32_t version,
                        std::string_view record) {
  FM_RETURN_IF_ERROR(ReadRecordTag(in, tag, record));
  uint32_t got = 0;
  FM_RETURN_IF_ERROR(in->ReadU32(&got));
  if (got == version) return Status::OK();
  return Status::InvalidArgument("unsupported " + std::string(record) +
                                 " record version " + std::to_string(got));
}

void WriteRngState(const Rng& rng, BinaryWriter* out) {
  const Rng::State st = rng.SaveState();
  for (uint64_t w : st.words) out->WriteU64(w);
  out->WriteBool(st.has_gaussian);
  out->WriteF64(st.cached_gaussian);
}

Status ReadRngState(BinaryReader* in, Rng* rng) {
  Rng::State st;
  for (auto& w : st.words) {
    FM_RETURN_IF_ERROR(in->ReadU64(&w));
  }
  FM_RETURN_IF_ERROR(in->ReadBool(&st.has_gaussian));
  FM_RETURN_IF_ERROR(in->ReadF64(&st.cached_gaussian));
  rng->RestoreState(st);
  return Status::OK();
}

Status BinaryReader::ReadFloatVec(std::vector<float>* out,
                                  uint64_t max_count) {
  uint64_t count = 0;
  FM_RETURN_IF_ERROR(ReadU64(&count));
  if (count > max_count) {
    return Status::InvalidArgument("corrupt array length " +
                                   std::to_string(count) + " (cap " +
                                   std::to_string(max_count) + ") at offset " +
                                   std::to_string(pos_ - 8));
  }
  FM_RETURN_IF_ERROR(Need(static_cast<size_t>(count) * 4, "float array"));
  out->resize(static_cast<size_t>(count));
  for (auto& f : *out) {
    FM_RETURN_IF_ERROR(ReadF32(&f));
  }
  return Status::OK();
}

}  // namespace fairmove
