#ifndef FAIRMOVE_OBS_EXPORTER_H_
#define FAIRMOVE_OBS_EXPORTER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fairmove/common/status.h"
#include "fairmove/obs/jsonl.h"
#include "fairmove/obs/latency.h"

namespace fairmove {

/// Parsed form of FAIRMOVE_METRICS_EXPORT=<dir>:<period_ms>. The period is
/// the last ':'-separated field so directory paths containing ':' still
/// parse; period must be in [10, 3600000].
struct ExporterOptions {
  std::string dir;
  int64_t period_ms = 1000;
};
StatusOr<ExporterOptions> ParseExportSpec(const std::string& spec);

/// Periodic metrics exporter: every period (a tick) it snapshots the
/// metrics registry and each latency site's Cumulative() (obs/span.h), and
/// publishes
///
///   metrics.prom  — Prometheus text exposition (atomically replaced)
///   export.json   — fairmove.export.v1 snapshot with freshness_utc /
///                   freshness_seq / epoch_id (atomically replaced)
///   windows.jsonl — one appended row per site per tick with the tick
///                   number as epoch id, the last tick's count and rate,
///                   and p50/p90/p99/p999 over the last kExportWindows ticks
///   flight.fmfr   — flight-recorder dump (atomically replaced, so the
///                   last completed export survives even SIGKILL)
///
/// Strictly read-only with respect to the simulation: it never touches RNG
/// or simulation state, and the tables it reads are designed for
/// concurrent read-while-write, so enabling export leaves every
/// simulation/bench output byte-identical (enforced by the §8 invariance
/// test at FAIRMOVE_THREADS 1 and 4).
class MetricsExporter {
 public:
  /// Starts the process-wide exporter from FAIRMOVE_METRICS_EXPORT.
  /// Returns nullptr when the variable is unset; aborts on an empty or
  /// malformed spec (a typo must not silently disable observability).
  /// Idempotent — later calls return the already-running instance, which
  /// lives until exit (an atexit hook stops it).
  static MetricsExporter* StartFromEnv();

  /// Starts an exporter the caller owns (tests). Creates `dir`.
  static StatusOr<std::unique_ptr<MetricsExporter>> Start(
      const ExporterOptions& options);

  /// Stops a still-running exporter (see Stop).
  ~MetricsExporter();

  /// Stops the export thread and writes one final snapshot. Idempotent.
  void Stop();

  /// One synchronous export tick (also what the thread runs).
  void Tick();

  uint64_t ticks() const { return seq_.load(std::memory_order_acquire); }
  const std::string& dir() const { return options_.dir; }
  const ExporterOptions& options() const { return options_; }

 private:
  explicit MetricsExporter(ExporterOptions options);
  void Loop();

  ExporterOptions options_;
  JsonlWriter windows_;
  std::atomic<uint64_t> seq_{0};
  /// Serialises ticks (the thread's, Stop's and callers').
  std::mutex tick_mu_;
  /// The windows' bases: each site's Cumulative() (LatencyRegistry::All()
  /// order) at the last kExportWindows ticks, newest first, or at Start.
  std::deque<std::vector<LogHistogram::Snapshot>> history_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_requested_ = false;
  bool stopped_ = false;
  std::thread thread_;
};

/// Prometheus metric-name sanitisation: [a-zA-Z0-9_:] pass through, every
/// other byte becomes '_', and a leading digit gains a '_' prefix.
std::string PrometheusName(const std::string& name);

}  // namespace fairmove

#endif  // FAIRMOVE_OBS_EXPORTER_H_
