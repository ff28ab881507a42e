#include "fairmove/obs/flight_recorder.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>

#include "fairmove/common/macros.h"
#include "fairmove/io/atomic_file.h"
#include "fairmove/io/binary.h"

namespace fairmove {

namespace {

constexpr char kMagic[6] = {'F', 'M', 'F', 'R', '1', '\n'};
constexpr uint16_t kVersion = 1;
constexpr int kMaxRings = 256;
constexpr int kMaxNames = 512;
/// Events per thread ring; a power of two, so the ring index is a mask.
constexpr uint32_t kRingCapacity = 4096;
static_assert((kRingCapacity & (kRingCapacity - 1)) == 0);
/// Bound on a ring section of a dump read back from a file.
constexpr uint32_t kMaxCapacity = 1u << 20;

/// One ring slot: a FlightEvent packed into three relaxed atomic words
/// (w0 = t_ns, w1 = name_id | kind<<16 | reserved<<24 | arg0<<32,
/// w2 = arg1). Plain FlightEvent slots would make the overwrite frontier
/// of a live dump a C++ data race; relaxed word atomics cost nothing on
/// the write path (plain stores on x86/ARM) and downgrade that frontier
/// to a torn-but-well-defined event value, which the dump contract
/// already documents.
struct FlightSlot {
  std::atomic<uint64_t> w0{0};
  std::atomic<uint64_t> w1{0};
  std::atomic<uint64_t> w2{0};
};
static_assert(sizeof(FlightSlot) == 24, "slot must stay 24 bytes");

void StoreSlot(FlightSlot* slot, int64_t t_ns, uint16_t name_id, uint8_t kind,
               int32_t arg0, int64_t arg1) {
  slot->w0.store(static_cast<uint64_t>(t_ns), std::memory_order_relaxed);
  slot->w1.store(static_cast<uint64_t>(name_id) |
                     (static_cast<uint64_t>(kind) << 16) |
                     (static_cast<uint64_t>(static_cast<uint32_t>(arg0))
                      << 32),
                 std::memory_order_relaxed);
  slot->w2.store(static_cast<uint64_t>(arg1), std::memory_order_relaxed);
}

FlightEvent LoadSlot(const FlightSlot& slot) {
  FlightEvent e;
  e.t_ns = static_cast<int64_t>(slot.w0.load(std::memory_order_relaxed));
  const uint64_t w1 = slot.w1.load(std::memory_order_relaxed);
  e.name_id = static_cast<uint16_t>(w1 & 0xffff);
  e.kind = static_cast<uint8_t>((w1 >> 16) & 0xff);
  e.reserved = static_cast<uint8_t>((w1 >> 24) & 0xff);
  e.arg0 = static_cast<int32_t>(static_cast<uint32_t>(w1 >> 32));
  e.arg1 = static_cast<int64_t>(slot.w2.load(std::memory_order_relaxed));
  return e;
}

/// One thread's ring. Single writer (the owning thread); dumpers read
/// `head` with acquire and the slots below it. Leaked on thread exit so a
/// crash dump can still see the history of finished threads.
struct FlightRing {
  uint32_t tid = 0;  // registry lane
  std::atomic<uint64_t> head{0};
  FlightSlot* events = nullptr;
};

std::atomic<FlightRing*> g_rings[kMaxRings];
std::atomic<int> g_num_rings{0};

const char* g_names[kMaxNames];
std::atomic<int> g_num_names{1};  // id 0 reserved for overflow
std::mutex g_intern_mu;

/// Constant-initialised, so spans opened during static initialisation see
/// the recorder on.
std::atomic<bool> g_enabled{true};

FlightRing* RegisterRing() {
  const int lane = g_num_rings.fetch_add(1, std::memory_order_relaxed);
  if (lane >= kMaxRings) return nullptr;  // >256 threads: drop, don't crash
  auto* ring = new FlightRing();
  ring->tid = static_cast<uint32_t>(lane);
  ring->events = new FlightSlot[kRingCapacity]();
  g_rings[lane].store(ring, std::memory_order_release);
  return ring;
}

FlightRing* LocalRing() {
  thread_local FlightRing* ring = RegisterRing();
  return ring;
}

int64_t OriginNs() {
  static const int64_t origin =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count();
  return origin;
}

// ---- crash capture ---------------------------------------------------------

constexpr int kCrashSignals[] = {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT};
constexpr int kNumCrashSignals = 5;

char g_crash_path[4096];  // preformatted; "" == not armed
struct sigaction g_old_actions[kNumCrashSignals];
std::atomic<bool> g_crash_dumped{false};
std::atomic<bool> g_handlers_installed{false};

/// Incremental writer used by both dump paths: normal context appends to a
/// BinaryWriter, signal context streams chunks straight to an fd. Both keep
/// a running CRC so the trailer covers every preceding byte identically.
struct DumpSink {
  BinaryWriter* writer = nullptr;  // normal path
  int fd = -1;                     // signal path
  uint32_t crc = 0;
  bool failed = false;

  void Bytes(const void* data, size_t size) {
    if (failed || size == 0) return;
    crc = Crc32(data, size, crc);
    if (writer != nullptr) {
      writer->WriteBytes(data, size);
      return;
    }
    const char* p = static_cast<const char*>(data);
    size_t left = size;
    while (left > 0) {
      const ssize_t n = write(fd, p, left);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        failed = true;
        return;
      }
      p += n;
      left -= static_cast<size_t>(n);
    }
  }
  void U16(uint16_t v) {
    unsigned char b[2] = {static_cast<unsigned char>(v & 0xff),
                          static_cast<unsigned char>(v >> 8)};
    Bytes(b, 2);
  }
  void U32(uint32_t v) {
    unsigned char b[4];
    for (int i = 0; i < 4; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
    Bytes(b, 4);
  }
  void U64(uint64_t v) {
    unsigned char b[8];
    for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
    Bytes(b, 8);
  }
  void Event(const FlightEvent& e) {
    U64(static_cast<uint64_t>(e.t_ns));
    U16(e.name_id);
    unsigned char b[2] = {e.kind, e.reserved};
    Bytes(b, 2);
    U32(static_cast<uint32_t>(e.arg0));
    U64(static_cast<uint64_t>(e.arg1));
  }
};

/// Serializes the whole recorder into `sink`. Signal-safe when the sink is
/// fd-backed: no allocation, no locks; the name table and ring registry are
/// fixed arrays read through acquire loads.
void DumpToSink(DumpSink* sink) {
  sink->Bytes(kMagic, sizeof(kMagic));
  sink->U16(kVersion);
  const int num_names =
      std::min(g_num_names.load(std::memory_order_acquire), kMaxNames);
  sink->U16(static_cast<uint16_t>(num_names));
  for (int i = 0; i < num_names; ++i) {
    const char* name = i == 0 ? "(overflow)" : g_names[i];
    if (name == nullptr) name = "";  // interner raced mid-publish
    const size_t len = std::min<size_t>(std::strlen(name), 0xffff);
    sink->U16(static_cast<uint16_t>(len));
    sink->Bytes(name, len);
  }
  const int num_rings =
      std::min(g_num_rings.load(std::memory_order_acquire), kMaxRings);
  // Count rings that finished registration before writing the section count.
  uint32_t present = 0;
  for (int i = 0; i < num_rings; ++i) {
    if (g_rings[i].load(std::memory_order_acquire) != nullptr) ++present;
  }
  sink->U32(present);
  for (int i = 0; i < num_rings; ++i) {
    const FlightRing* ring = g_rings[i].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    const uint64_t head = ring->head.load(std::memory_order_acquire);
    const uint64_t stored = std::min<uint64_t>(head, kRingCapacity);
    sink->U32(ring->tid);
    sink->U64(head);
    sink->U32(static_cast<uint32_t>(stored));
    const uint64_t mask = kRingCapacity - 1;
    for (uint64_t s = head - stored; s < head; ++s) {
      sink->Event(LoadSlot(ring->events[s & mask]));
    }
  }
  sink->U32(sink->crc);
}

/// Writes the crash dump from ordinary (non-signal) context. Used by the
/// FM_CHECK fail hook so a tripped invariant leaves the same artefact a
/// fatal signal would.
void DumpCrashFileFromFailHook() {
  if (g_crash_path[0] == '\0') return;
  if (g_crash_dumped.exchange(true, std::memory_order_acq_rel)) return;
  (void)FlightRecorder::DumpToFile(g_crash_path);
}

void CrashSignalHandler(int sig, siginfo_t* /*info*/, void* /*ctx*/) {
  // First crasher wins; a second fault (or the FM_CHECK path having already
  // dumped) skips straight to the re-raise.
  if (g_crash_path[0] != '\0' &&
      !g_crash_dumped.exchange(true, std::memory_order_acq_rel)) {
    const int fd =
        open(g_crash_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      FlightRecorder::DumpToFdSignalSafe(fd);
      close(fd);
    }
  }
  // Restore the previous disposition and re-raise so the default action
  // (core dump, abort exit code) still happens.
  for (int i = 0; i < kNumCrashSignals; ++i) {
    if (kCrashSignals[i] == sig) {
      sigaction(sig, &g_old_actions[i], nullptr);
      break;
    }
  }
  raise(sig);
}

}  // namespace

bool FlightRecorder::enabled() {
  return g_enabled.load(std::memory_order_relaxed);
}

void FlightRecorder::SetEnabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

uint16_t FlightRecorder::InternName(const char* name) {
  FM_CHECK(name != nullptr);
  std::lock_guard<std::mutex> lock(g_intern_mu);
  const int n = std::min(g_num_names.load(std::memory_order_relaxed),
                         kMaxNames);
  for (int i = 1; i < n; ++i) {
    if (g_names[i] != nullptr && std::strcmp(g_names[i], name) == 0) {
      return static_cast<uint16_t>(i);
    }
  }
  if (n >= kMaxNames) return 0;  // overflow id
  // Copy (leaked) so callers may pass transient strings; the signal-context
  // dumper reads these pointers without synchronisation beyond the count.
  char* copy = new char[std::strlen(name) + 1];
  std::strcpy(copy, name);
  g_names[n] = copy;
  g_num_names.store(n + 1, std::memory_order_release);
  return static_cast<uint16_t>(n);
}

void FlightRecorder::Record(uint8_t kind, uint16_t name_id, int32_t arg0,
                            int64_t arg1) {
  if (!enabled()) return;
  FlightRing* ring = LocalRing();
  if (ring == nullptr) return;
  const uint64_t head = ring->head.load(std::memory_order_relaxed);
  StoreSlot(&ring->events[head & (kRingCapacity - 1)], NowNs(), name_id,
            kind, arg0, arg1);
  ring->head.store(head + 1, std::memory_order_release);
}

int64_t FlightRecorder::NowNs() {
  // Resolve the origin BEFORE sampling the clock: on the very first call
  // the origin static initialises from its own now(), and sampling first
  // would hand that event a (slightly) negative timestamp.
  const int64_t origin = OriginNs();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
             .count() -
         origin;
}

std::string FlightRecorder::SerializeDump() {
  BinaryWriter writer;
  DumpSink sink;
  sink.writer = &writer;
  DumpToSink(&sink);
  return writer.Release();
}

Status FlightRecorder::DumpToFile(const std::string& path) {
  return AtomicWriteFile(path, SerializeDump());
}

void FlightRecorder::DumpToFdSignalSafe(int fd) {
  DumpSink sink;
  sink.fd = fd;
  DumpToSink(&sink);
}

void FlightRecorder::SetCrashDumpDir(const std::string& dir) {
  std::string path = dir + "/flight_crash.fmfr";
  FM_CHECK(path.size() < sizeof(g_crash_path))
      << "crash dump path too long: " << path;
  std::memcpy(g_crash_path, path.c_str(), path.size() + 1);
  g_crash_dumped.store(false, std::memory_order_release);
  if (g_handlers_installed.exchange(true, std::memory_order_acq_rel)) return;
  // Pre-warm everything the handler touches that is lazily initialised:
  // the CRC table and the flight-clock origin.
  (void)Crc32("", 0);
  (void)NowNs();
  internal::RegisterFailHook(&DumpCrashFileFromFailHook);
  struct sigaction action;
  std::memset(&action, 0, sizeof(action));
  action.sa_sigaction = &CrashSignalHandler;
  action.sa_flags = SA_SIGINFO;
  sigemptyset(&action.sa_mask);
  for (int i = 0; i < kNumCrashSignals; ++i) {
    sigaction(kCrashSignals[i], &action, &g_old_actions[i]);
  }
}

std::string FlightRecorder::crash_dump_path() { return g_crash_path; }

void FlightRecorder::ResetForTesting() {
  const int n = std::min(g_num_rings.load(std::memory_order_acquire),
                         kMaxRings);
  for (int i = 0; i < n; ++i) {
    FlightRing* ring = g_rings[i].load(std::memory_order_acquire);
    if (ring != nullptr) ring->head.store(0, std::memory_order_release);
  }
  g_crash_dumped.store(false, std::memory_order_release);
}

StatusOr<FlightDump> ParseFlightDump(std::string_view data) {
  if (data.size() < sizeof(kMagic) + 2 + 2 + 4 + 4 ||
      std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not an FMFR1 flight dump (bad magic)");
  }
  const uint32_t want_crc = Crc32(data.data(), data.size() - 4);
  BinaryReader tail(data.substr(data.size() - 4));
  uint32_t got_crc = 0;
  FM_RETURN_IF_ERROR(tail.ReadU32(&got_crc));
  if (want_crc != got_crc) {
    return Status::InvalidArgument(
        "flight dump CRC mismatch (truncated or corrupted)");
  }
  BinaryReader in(
      data.substr(sizeof(kMagic), data.size() - sizeof(kMagic) - 4));
  uint16_t version = 0;
  FM_RETURN_IF_ERROR(in.ReadU16(&version));
  if (version != kVersion) {
    return Status::InvalidArgument("unsupported flight dump version " +
                                   std::to_string(version));
  }
  FlightDump dump;
  uint16_t num_names = 0;
  FM_RETURN_IF_ERROR(in.ReadU16(&num_names));
  dump.names.reserve(num_names);
  for (uint16_t i = 0; i < num_names; ++i) {
    uint16_t len = 0;
    FM_RETURN_IF_ERROR(in.ReadU16(&len));
    std::string name(len, '\0');
    FM_RETURN_IF_ERROR(in.ReadBytes(name.data(), len));
    dump.names.push_back(std::move(name));
  }
  uint32_t num_rings = 0;
  FM_RETURN_IF_ERROR(in.ReadU32(&num_rings));
  if (num_rings > kMaxRings) {
    return Status::InvalidArgument("corrupt ring count " +
                                   std::to_string(num_rings));
  }
  dump.rings.reserve(num_rings);
  for (uint32_t r = 0; r < num_rings; ++r) {
    FlightDumpRing ring;
    FM_RETURN_IF_ERROR(in.ReadU32(&ring.tid));
    FM_RETURN_IF_ERROR(in.ReadU64(&ring.recorded_total));
    uint32_t stored = 0;
    FM_RETURN_IF_ERROR(in.ReadU32(&stored));
    if (stored > kMaxCapacity || ring.recorded_total < stored) {
      return Status::InvalidArgument("corrupt ring section (stored=" +
                                     std::to_string(stored) + ")");
    }
    ring.events.resize(stored);
    for (uint32_t e = 0; e < stored; ++e) {
      FlightEvent& ev = ring.events[e];
      FM_RETURN_IF_ERROR(in.ReadI64(&ev.t_ns));
      FM_RETURN_IF_ERROR(in.ReadU16(&ev.name_id));
      FM_RETURN_IF_ERROR(in.ReadU8(&ev.kind));
      FM_RETURN_IF_ERROR(in.ReadU8(&ev.reserved));
      FM_RETURN_IF_ERROR(in.ReadI32(&ev.arg0));
      FM_RETURN_IF_ERROR(in.ReadI64(&ev.arg1));
    }
    dump.rings.push_back(std::move(ring));
  }
  if (!in.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after flight dump body");
  }
  return dump;
}

StatusOr<FlightDump> ReadFlightDumpFile(const std::string& path) {
  FM_ASSIGN_OR_RETURN(const std::string data, ReadFileToString(path));
  return ParseFlightDump(data);
}

}  // namespace fairmove
