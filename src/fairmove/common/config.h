#ifndef FAIRMOVE_COMMON_CONFIG_H_
#define FAIRMOVE_COMMON_CONFIG_H_

#include <cstdint>
#include <string>

#include "fairmove/common/status.h"

namespace fairmove {

/// Environment-variable overrides shared by all bench/example binaries:
///   FAIRMOVE_SCALE     — fleet/city scale factor in (0, 1]   (default varies)
///   FAIRMOVE_EPISODES  — training episodes for learned policies
///   FAIRMOVE_SEED      — master RNG seed
///   FAIRMOVE_DAYS      — evaluation horizon in days
///   FAIRMOVE_THREADS   — execution-layer thread count (>= 1; 1 = exact
///                        serial path, unset = hardware concurrency)
///   FAIRMOVE_TELEMETRY — directory for JSONL telemetry streams + run
///                        manifest (non-empty path; unset = telemetry off)
///   FAIRMOVE_PROFILE   — "1" prints the FM_SPAN tree at run end and writes
///                        profile.json, "0"/unset does not (parsed by the
///                        profiler, obs/span.h, which aborts on other values)
///   FAIRMOVE_CHECKPOINT_DIR    — directory for durable training
///                        checkpoints (non-empty path; unset = off)
///   FAIRMOVE_CHECKPOINT_EVERY  — checkpoint every N episodes (>= 1)
///   FAIRMOVE_CHECKPOINT_RETAIN — retained checkpoint depth (>= 1)
///   FAIRMOVE_METRICS_EXPORT — <dir>:<period_ms> live metrics export
///                        (period in [10, 3600000]; unset = off)
///   FAIRMOVE_STALL_MS  — stall watchdog wall-clock budget in ms
///                        ([100, 3600000]; unset = watchdog off)
///   FAIRMOVE_FLIGHT    — "0" disables the flight recorder (default on)
///   FAIRMOVE_FLIGHT_EVENTS — per-thread ring capacity (rounded up to a
///                        power of two in [256, 1048576])
/// Unset variables leave the provided default untouched; malformed values
/// return InvalidArgument so a typo fails loudly instead of silently running
/// the wrong experiment.
struct EnvOverrides {
  double scale = 1.0;
  int episodes = 0;
  uint64_t seed = 0;
  int days = 0;
  /// 0 = unset (the pool sizes itself from hardware concurrency).
  int threads = 0;
  /// Empty = telemetry off.
  std::string telemetry_dir;
  /// Empty = checkpointing off.
  std::string checkpoint_dir;
  int checkpoint_every = 1;
  int checkpoint_retain = 3;
  /// Empty = live metrics export off.
  std::string metrics_export_dir;
  int64_t metrics_export_period_ms = 0;
  /// 0 = stall watchdog off.
  int64_t stall_budget_ms = 0;

  /// Reads the FAIRMOVE_* variables, using the current field values as
  /// defaults.
  Status LoadFromEnv();
};

/// Parses helpers usable for any env/CLI string. Return InvalidArgument on
/// malformed input; never abort.
StatusOr<double> ParseDouble(const std::string& text);
StatusOr<int64_t> ParseInt(const std::string& text);

}  // namespace fairmove

#endif  // FAIRMOVE_COMMON_CONFIG_H_
