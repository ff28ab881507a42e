#ifndef FAIRMOVE_OBS_WATCHDOG_H_
#define FAIRMOVE_OBS_WATCHDOG_H_

#include <cstdint>
#include <string>

#include "fairmove/common/status.h"

namespace fairmove {

/// Parses a FAIRMOVE_STALL_MS value: a budget in [100, 3600000] ms, or 0
/// (watchdog off) when `value` is null (unset). Empty and malformed values
/// are InvalidArgument.
StatusOr<int64_t> ParseStallBudget(const char* value);

/// Wall-clock stall detector for long-running fleet processes. Instrumented
/// loops call Heartbeat() whenever they make progress (per slot, per shard
/// batch); a monitor thread samples the heartbeat counter and, when it has
/// not moved for the configured budget, emits one structured `stall` event:
///
///   - a JSON line on stderr ({"kind":"stall",...}) and, when telemetry is
///     enabled, the same row into sim.jsonl
///   - an `obs/stall` counter bump in the metrics registry
///   - a flight-recorder dump to `<dir>/flight_stall.fmfr` capturing what
///     every thread was doing when progress stopped
///
/// One report is emitted per quiescent period — the watchdog re-arms only
/// after the heartbeat moves again. Purely observational: it never unblocks
/// or kills anything, and a disabled watchdog costs one relaxed atomic
/// increment per Heartbeat().
class StallWatchdog {
 public:
  /// Starts the monitor from FAIRMOVE_STALL_MS (ParseStallBudget); no-op
  /// when unset, aborts on a value the parser refuses. `dump_dir` receives
  /// flight_stall.fmfr.
  static void StartFromEnv(const std::string& dump_dir);

  /// Starts the monitor explicitly (tests). Idempotent while running —
  /// Stop() first to reconfigure.
  static void Start(int64_t budget_ms, const std::string& dump_dir);

  /// Stops and joins the monitor thread. Idempotent.
  static void Stop();

  static bool running();

  /// Progress signal from instrumented loops. Wait-free.
  static void Heartbeat();

  /// Stall events emitted since process start (tests poll this).
  static int64_t stall_count();
};

}  // namespace fairmove

#endif  // FAIRMOVE_OBS_WATCHDOG_H_
