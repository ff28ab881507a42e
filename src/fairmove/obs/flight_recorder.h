#ifndef FAIRMOVE_OBS_FLIGHT_RECORDER_H_
#define FAIRMOVE_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fairmove/common/status.h"

namespace fairmove {

/// One flight-recorder entry. Layout is exactly 24 bytes with no padding so
/// the ring is cache-friendly and the on-disk format (little-endian, field
/// by field) matches the in-memory layout on LE hosts.
struct FlightEvent {
  int64_t t_ns = 0;      // steady-clock ns since the process flight origin
  uint16_t name_id = 0;  // FlightRecorder::InternName id
  uint8_t kind = 0;      // FlightEventKind
  uint8_t reserved = 0;
  int32_t arg0 = 0;      // site-defined (slot index, shard id, region id...)
  int64_t arg1 = 0;      // site-defined (duration, fault id, count...)
};
static_assert(sizeof(FlightEvent) == 24, "FlightEvent must pack to 24 bytes");

enum FlightEventKind : uint8_t {
  kFlightSpanBegin = 1,
  kFlightSpanEnd = 2,
  kFlightInstant = 3,
};

/// Always-on, fixed-capacity, per-thread ring of the last N events. The
/// write path is lock-free and allocation-free after a thread's first
/// event: one relaxed enabled-check, one thread-local load, a 24-byte store
/// and a release head bump. Rings live in a fixed-slot global registry so a
/// dumper — including an async-signal-context dumper on a crashing thread —
/// can walk them without taking a lock.
///
/// Dumps are best-effort snapshots: threads keep writing while a dump
/// reads, so a wrapped ring may yield a few torn events at the overwrite
/// frontier. That is the standard flight-recorder trade and is harmless —
/// the recorder is observational and never feeds back into simulation
/// state (determinism contract, DESIGN.md §8).
class FlightRecorder {
 public:
  /// On from process start; tests switch it with SetEnabled.
  static bool enabled();
  static void SetEnabled(bool on);

  /// Interns `name` into the process-wide name table and returns its id.
  /// Idempotent per string value; at most kMaxNames distinct names (later
  /// ones collapse onto the reserved "overflow" id 0). Call once per site
  /// from a function-local static — interning takes a mutex, recording
  /// does not.
  static uint16_t InternName(const char* name);

  /// Appends one event to the calling thread's ring. Safe from any thread
  /// (but not from a signal handler — the first event on a thread
  /// allocates its ring).
  static void Record(uint8_t kind, uint16_t name_id, int32_t arg0 = 0,
                     int64_t arg1 = 0);
  static void Instant(uint16_t name_id, int32_t arg0 = 0, int64_t arg1 = 0) {
    Record(kFlightInstant, name_id, arg0, arg1);
  }

  /// Nanoseconds since the process flight origin (first use).
  static int64_t NowNs();

  /// Serializes every ring into the FMFR1 binary format (see DESIGN.md
  /// §13): magic "FMFR1\n", u16 version, name table, per-ring event
  /// sections in chronological order, trailing CRC-32 of everything before
  /// it. Normal-context path (allocates).
  static std::string SerializeDump();

  /// SerializeDump() atomically written to `path`.
  static Status DumpToFile(const std::string& path);

  /// Streams the same format to `fd` using only async-signal-safe calls
  /// (write(2), no allocation, CRC table pre-warmed at handler install).
  static void DumpToFdSignalSafe(int fd);

  /// Arms crash capture: installs SIGSEGV/SIGBUS/SIGFPE/SIGILL/SIGABRT
  /// handlers that stream a dump to `<dir>/flight_crash.fmfr` before
  /// restoring the previous disposition and re-raising, and registers an
  /// FM_CHECK fail hook that writes the same file from ordinary context.
  /// The path is preformatted into a static buffer at install time so the
  /// handler never touches the heap. Later calls just retarget the path.
  static void SetCrashDumpDir(const std::string& dir);

  /// Full preformatted crash dump path, or "" when capture is not armed.
  static std::string crash_dump_path();

  /// Drops all recorded events and re-enables crash dumping (tests only;
  /// rings of exited threads are cleared, not reclaimed).
  static void ResetForTesting();
};

/// Parsed form of an FMFR1 dump, for tools and tests.
struct FlightDumpRing {
  uint32_t tid = 0;             // registry lane, not the OS thread id
  uint64_t recorded_total = 0;  // events ever recorded (>= events.size())
  std::vector<FlightEvent> events;  // chronological
};
struct FlightDump {
  std::vector<std::string> names;  // index == name_id
  std::vector<FlightDumpRing> rings;
};

/// Decodes and CRC-verifies an FMFR1 payload.
StatusOr<FlightDump> ParseFlightDump(std::string_view data);
StatusOr<FlightDump> ReadFlightDumpFile(const std::string& path);

/// Records an instant event under a site-interned name:
///   FM_FLIGHT_EVENT("sim.fault", fault_kind, vehicle_id);
#define FM_FLIGHT_EVENT(name, a0, a1)                                     \
  do {                                                                    \
    if (::fairmove::FlightRecorder::enabled()) {                          \
      static const uint16_t fm_flight_name_id =                           \
          ::fairmove::FlightRecorder::InternName(name);                   \
      ::fairmove::FlightRecorder::Instant(                                \
          fm_flight_name_id, static_cast<int32_t>(a0),                    \
          static_cast<int64_t>(a1));                                      \
    }                                                                     \
  } while (false)

}  // namespace fairmove

#endif  // FAIRMOVE_OBS_FLIGHT_RECORDER_H_
