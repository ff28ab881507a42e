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
///   FAIRMOVE_CHECKPOINT_DIR    — directory for durable training
///                        checkpoints (non-empty path; unset = off)
///   FAIRMOVE_CHECKPOINT_EVERY  — checkpoint every N episodes (>= 1)
///   FAIRMOVE_CHECKPOINT_RETAIN — retained checkpoint depth (>= 1)
/// Unset variables leave the provided default untouched; malformed values
/// return InvalidArgument so a typo fails loudly instead of silently running
/// the wrong experiment.
///
/// Every other variable is parsed once, by the code that owns it. These
/// are off (or at their default) when unset, and abort with the variable's
/// name on an empty or malformed value:
///   FAIRMOVE_THREADS   — pool lanes in [1, 4096]; unset = hardware
///                        concurrency (ParseThreadCount, common/parallel.h)
///   FAIRMOVE_TELEMETRY — JSONL telemetry + run manifest directory
///                        (ParseTelemetryDir, obs/telemetry.h)
///   FAIRMOVE_PROFILE   — 0 or 1 (ParseProfileSetting, obs/span.h)
///   FAIRMOVE_METRICS_EXPORT — <dir>:<period_ms> live metrics export,
///                        period in [10, 3600000] (ParseExportSpec,
///                        obs/exporter.h)
///   FAIRMOVE_STALL_MS  — stall watchdog budget in ms, [100, 3600000]
///                        (ParseStallBudget, obs/watchdog.h)
/// FAIRMOVE_FLIGHT_DUMP_DIR, the flight recorder's crash-dump directory, is
/// read by Telemetry (obs/telemetry.cc).
struct EnvOverrides {
  double scale = 1.0;
  int episodes = 0;
  uint64_t seed = 0;
  int days = 0;
  /// Empty = checkpointing off.
  std::string checkpoint_dir;
  int checkpoint_every = 1;
  int checkpoint_retain = 3;

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
