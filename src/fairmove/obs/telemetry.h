#ifndef FAIRMOVE_OBS_TELEMETRY_H_
#define FAIRMOVE_OBS_TELEMETRY_H_

#include <string>

#include "fairmove/common/status.h"
#include "fairmove/obs/jsonl.h"
#include "fairmove/obs/manifest.h"

namespace fairmove {

/// Parses a FAIRMOVE_TELEMETRY value: the telemetry directory, or "" (off)
/// when `value` is null (unset). An empty value is InvalidArgument.
StatusOr<std::string> ParseTelemetryDir(const char* value);

/// Process-wide telemetry hub, gated by FAIRMOVE_TELEMETRY=<dir>.
///
/// When the variable is unset, enabled() is false and every hook in the
/// instrumented layers reduces to a branch on that flag — no allocation, no
/// file, no change to any simulation or RNG output (the invariance test
/// enforces byte-identical FleetMetrics either way). When it is set, the
/// directory is created and three JSONL streams are opened:
///
///   training.jsonl — one row per training/eval episode from Trainer
///   sim.jsonl      — one row per slot from the labelled Simulator, plus
///                    structured fault-event rows
///   pool.jsonl     — thread-pool health snapshots from bench_common
///
/// Rows carry their own identity keys (kind / method / slot / episode):
/// concurrent writers interleave nondeterministically in file order, but
/// every line is intact and self-describing, so consumers sort by keys.
/// Finalize() stamps the manifest's end time and writes manifest.json plus
/// metrics.json (the registry snapshot).
class Telemetry {
 public:
  static Telemetry& Get();

  bool enabled() const { return enabled_; }
  const std::string& dir() const { return dir_; }

  JsonlWriter& training_stream() { return training_; }
  JsonlWriter& sim_stream() { return sim_; }
  JsonlWriter& pool_stream() { return pool_; }
  RunManifest& manifest() { return manifest_; }

  /// Writes manifest.json + metrics.json into dir(); safe to call more than
  /// once (later calls overwrite with fresher state). No-op when disabled.
  void Finalize();

  /// Test hooks: (re-)point telemetry at `dir`, creating it and reopening
  /// the streams, or shut it back off. Not for use while instrumented code
  /// is running on other threads.
  Status EnableForTesting(const std::string& dir);
  void DisableForTesting();

 private:
  Telemetry();

  Status EnableAt(const std::string& dir);

  bool enabled_ = false;
  std::string dir_;
  JsonlWriter training_;
  JsonlWriter sim_;
  JsonlWriter pool_;
  RunManifest manifest_;
};

}  // namespace fairmove

#endif  // FAIRMOVE_OBS_TELEMETRY_H_
