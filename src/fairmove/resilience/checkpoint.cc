#include "fairmove/resilience/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <utility>

#include "fairmove/io/atomic_file.h"
#include "fairmove/io/binary.h"
#include "fairmove/obs/flight_recorder.h"
#include "fairmove/obs/jsonl.h"
#include "fairmove/obs/metrics.h"
#include "fairmove/obs/span.h"
#include "fairmove/obs/telemetry.h"

namespace fairmove {

namespace {

constexpr char kCheckpointMagic[8] = {'F', 'M', 'C', 'K', 'P', 'T', '1', 0};
constexpr uint32_t kFormatVersion = 1;
constexpr char kLatestName[] = "LATEST";
constexpr char kFramePrefix[] = "ckpt-";
constexpr char kFrameSuffix[] = ".fmck";

/// Episode encoded in a canonical frame file name, or -1.
int64_t EpisodeFromName(const std::string& name) {
  const size_t prefix_len = sizeof(kFramePrefix) - 1;
  const size_t suffix_len = sizeof(kFrameSuffix) - 1;
  if (name.size() <= prefix_len + suffix_len) return -1;
  if (name.compare(0, prefix_len, kFramePrefix) != 0) return -1;
  if (name.compare(name.size() - suffix_len, suffix_len, kFrameSuffix) != 0) {
    return -1;
  }
  int64_t episode = 0;
  for (size_t i = prefix_len; i < name.size() - suffix_len; ++i) {
    if (name[i] < '0' || name[i] > '9') return -1;
    episode = episode * 10 + (name[i] - '0');
    if (episode > (int64_t{1} << 40)) return -1;
  }
  return episode;
}

}  // namespace

std::string FrameCheckpoint(CheckpointMeta meta, std::string_view payload) {
  meta.format_version = kFormatVersion;
  meta.payload_size = payload.size();
  meta.payload_crc = Crc32(payload);

  BinaryWriter header;
  header.WriteI64(meta.episode);
  header.WriteString(meta.policy_name);
  header.WriteU32(meta.config_crc);
  header.WriteU64(meta.payload_size);
  header.WriteU32(meta.payload_crc);

  BinaryWriter file;
  file.WriteBytes(kCheckpointMagic, sizeof(kCheckpointMagic));
  file.WriteU32(meta.format_version);
  file.WriteU32(static_cast<uint32_t>(header.size()));
  file.WriteBytes(header.str().data(), header.size());
  file.WriteU32(Crc32(header.str()));
  file.WriteBytes(payload.data(), payload.size());
  file.WriteU32(meta.payload_crc);
  return file.Release();
}

StatusOr<CheckpointMeta> ParseCheckpointMeta(std::string_view file_bytes) {
  BinaryReader in(file_bytes);
  char magic[sizeof(kCheckpointMagic)];
  FM_RETURN_IF_ERROR(in.ReadBytes(magic, sizeof(magic)));
  if (std::memcmp(magic, kCheckpointMagic, sizeof(magic)) != 0) {
    return Status::InvalidArgument("not an FMCKPT1 checkpoint (bad magic)");
  }
  CheckpointMeta meta;
  FM_RETURN_IF_ERROR(in.ReadU32(&meta.format_version));
  if (meta.format_version != kFormatVersion) {
    return Status::InvalidArgument("unsupported checkpoint format version " +
                                   std::to_string(meta.format_version));
  }
  uint32_t header_len = 0;
  FM_RETURN_IF_ERROR(in.ReadU32(&header_len));
  if (header_len > in.remaining() || header_len < 4) {
    return Status::InvalidArgument("corrupt checkpoint header length " +
                                   std::to_string(header_len));
  }
  const std::string_view header_bytes =
      file_bytes.substr(in.offset(), header_len);
  BinaryReader header(header_bytes);
  FM_RETURN_IF_ERROR(header.ReadI64(&meta.episode));
  FM_RETURN_IF_ERROR(header.ReadString(&meta.policy_name, /*max_size=*/256));
  FM_RETURN_IF_ERROR(header.ReadU32(&meta.config_crc));
  FM_RETURN_IF_ERROR(header.ReadU64(&meta.payload_size));
  FM_RETURN_IF_ERROR(header.ReadU32(&meta.payload_crc));
  if (!header.AtEnd()) {
    return Status::InvalidArgument("checkpoint header carries trailing bytes");
  }
  BinaryReader after(file_bytes.substr(in.offset() + header_len));
  uint32_t header_crc = 0;
  FM_RETURN_IF_ERROR(after.ReadU32(&header_crc));
  if (header_crc != Crc32(header_bytes)) {
    return Status::InvalidArgument("checkpoint header CRC mismatch");
  }
  if (meta.episode < 0) {
    return Status::InvalidArgument("checkpoint carries negative episode " +
                                   std::to_string(meta.episode));
  }
  if (after.remaining() != meta.payload_size + 4) {
    return Status::InvalidArgument(
        "checkpoint payload size mismatch: header declares " +
        std::to_string(meta.payload_size) + " byte(s), file carries " +
        std::to_string(after.remaining() >= 4 ? after.remaining() - 4 : 0));
  }
  return meta;
}

StatusOr<std::string> UnframeCheckpoint(std::string_view file_bytes,
                                        CheckpointMeta* meta_out) {
  FM_ASSIGN_OR_RETURN(const CheckpointMeta meta,
                      ParseCheckpointMeta(file_bytes));
  const std::string_view payload = file_bytes.substr(
      file_bytes.size() - 4 - meta.payload_size, meta.payload_size);
  BinaryReader tail(file_bytes.substr(file_bytes.size() - 4));
  uint32_t payload_crc = 0;
  FM_RETURN_IF_ERROR(tail.ReadU32(&payload_crc));
  if (payload_crc != meta.payload_crc || Crc32(payload) != meta.payload_crc) {
    return Status::InvalidArgument("checkpoint payload CRC mismatch");
  }
  if (meta_out != nullptr) *meta_out = meta;
  return std::string(payload);
}

CheckpointStore::CheckpointStore(std::string dir, Options options)
    : dir_(std::move(dir)), options_(options) {
  FM_CHECK(!dir_.empty()) << "checkpoint directory must be non-empty";
  FM_CHECK(options_.retain >= 1) << "checkpoint retention must be >= 1";
}

Status CheckpointStore::Init() {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) {
    return Status::IOError("cannot create checkpoint directory '" + dir_ +
                           "': " + ec.message());
  }
  return Status::OK();
}

std::string CheckpointStore::FileName(int64_t episode) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s%08lld%s", kFramePrefix,
                static_cast<long long>(episode), kFrameSuffix);
  return buf;
}

std::string CheckpointStore::LatestPath() const {
  return dir_ + "/" + kLatestName;
}

Status CheckpointStore::Write(const CheckpointMeta& meta,
                              std::string_view payload) {
  FM_SPAN("checkpoint.write");
  FM_FLIGHT_EVENT("checkpoint.write", meta.episode,
                  static_cast<int64_t>(payload.size()));
  const std::string framed = FrameCheckpoint(meta, payload);
  const std::string name = FileName(meta.episode);
  const std::string path = dir_ + "/" + name;
  FM_RETURN_IF_ERROR(AtomicWriteFile(path, framed));

  // Read-back verification before the pointer advance: LATEST must never
  // name bytes that do not decode.
  FM_ASSIGN_OR_RETURN(const std::string reread, ReadFileToString(path));
  CheckpointMeta verified;
  FM_RETURN_IF_ERROR(UnframeCheckpoint(reread, &verified).status());
  FM_RETURN_IF_ERROR(AtomicWriteFile(LatestPath(), name + "\n"));

  // Prune beyond the retention depth (never the frame just written).
  std::vector<Candidate> frames = ListCandidates();
  std::sort(frames.begin(), frames.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.episode > b.episode;
            });
  frames.erase(std::unique(frames.begin(), frames.end(),
                           [](const Candidate& a, const Candidate& b) {
                             return a.file == b.file;
                           }),
               frames.end());
  for (size_t i = static_cast<size_t>(options_.retain); i < frames.size();
       ++i) {
    std::error_code ec;
    std::filesystem::remove(frames[i].file, ec);  // best effort
  }

  lineage_.push_back(LineageEvent{"write", name, verified.episode,
                                  verified.payload_crc});
  PublishLineage();
  return Status::OK();
}

std::vector<CheckpointStore::Candidate> CheckpointStore::ListCandidates()
    const {
  std::vector<Candidate> scanned;
  std::error_code ec;
  for (std::filesystem::directory_iterator it(dir_, ec), end;
       !ec && it != end; it.increment(ec)) {
    const std::string name = it->path().filename().string();
    const int64_t episode = EpisodeFromName(name);
    if (episode < 0) continue;
    scanned.push_back(Candidate{dir_ + "/" + name, episode});
  }
  std::sort(scanned.begin(), scanned.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.episode > b.episode;
            });

  // The LATEST target leads (it is the newest *verified* frame, which the
  // episode ordering alone cannot know); the scan follows as fallback.
  std::vector<Candidate> out;
  const StatusOr<std::string> latest = ReadFileToString(LatestPath());
  if (latest.ok()) {
    std::string name = *latest;
    while (!name.empty() && (name.back() == '\n' || name.back() == '\r')) {
      name.pop_back();
    }
    const int64_t episode = EpisodeFromName(name);
    // A LATEST naming a missing or foreign file is itself a fault the scan
    // recovers from; stale pointers simply fall through to the scan order.
    if (episode >= 0) {
      const std::string path = dir_ + "/" + name;
      if (std::filesystem::exists(path, ec) && !ec) {
        out.push_back(Candidate{path, episode});
      }
    }
  }
  for (const Candidate& c : scanned) {
    if (out.empty() || c.file != out.front().file) out.push_back(c);
  }
  return out;
}

StatusOr<CheckpointStore::Loaded> CheckpointStore::Load(
    const std::string& file) const {
  FM_ASSIGN_OR_RETURN(const std::string bytes, ReadFileToString(file));
  Loaded loaded;
  FM_ASSIGN_OR_RETURN(loaded.payload, UnframeCheckpoint(bytes, &loaded.meta));
  loaded.file = file;
  return loaded;
}

StatusOr<CheckpointStore::Loaded> CheckpointStore::LoadLatest() const {
  for (const Candidate& candidate : ListCandidates()) {
    StatusOr<Loaded> loaded = Load(candidate.file);
    if (loaded.ok()) return loaded;
    NoteRejected(candidate.file, loaded.status());
  }
  return Status::NotFound("no valid checkpoint in '" + dir_ + "'");
}

void CheckpointStore::NoteRejected(const std::string& file,
                                   const Status& why) const {
  Metrics().Count("resilience/checkpoint_rejects");
  Telemetry& telemetry = Telemetry::Get();
  if (!telemetry.enabled()) return;
  JsonObject row;
  row.Set("kind", "fault")
      .Set("fault", "checkpoint_reject")
      .Set("file", file)
      .Set("error", why.ToString());
  telemetry.sim_stream().Write(row);
}

void CheckpointStore::NoteResumed(const Loaded& loaded) {
  Metrics().Count("resilience/checkpoint_resumes");
  lineage_.push_back(LineageEvent{
      "resume", std::filesystem::path(loaded.file).filename().string(),
      loaded.meta.episode, loaded.meta.payload_crc});
  PublishLineage();
}

void CheckpointStore::PublishLineage() {
  Telemetry& telemetry = Telemetry::Get();
  if (!telemetry.enabled()) return;
  JsonArray events;
  for (const LineageEvent& e : lineage_) {
    JsonObject row;
    row.Set("event", e.event)
        .Set("file", e.file)
        .Set("episode", e.episode)
        .Set("payload_crc", static_cast<uint64_t>(e.payload_crc));
    events.PushRaw(row.Str());
  }
  JsonObject entry;
  entry.Set("dir", dir_).Set("retain", options_.retain);
  telemetry.manifest().SetExtra("checkpoints", entry.Str());
  telemetry.manifest().SetExtra("checkpoint_lineage", events.Str());
}

}  // namespace fairmove
