#include "fairmove/obs/telemetry.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "fairmove/common/parallel.h"
#include "fairmove/obs/exporter.h"
#include "fairmove/obs/flight_recorder.h"
#include "fairmove/obs/metrics.h"
#include "fairmove/obs/span.h"
#include "fairmove/obs/watchdog.h"

namespace fairmove {

namespace {

/// Queue-wait tap feeding the "pool.queue_wait" latency series. Installed
/// once at hub construction; only fired while ThreadPool timing is enabled.
void RecordQueueWaitLatency(int64_t wait_ns) {
  static const SpanSite& site = LatencyRegistry::Get("pool.queue_wait");
  site.Record(wait_ns);
}

std::string CompilerString() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string BuildTypeString() {
#if defined(FAIRMOVE_BUILD_TYPE)
  const std::string configured = FAIRMOVE_BUILD_TYPE;
  if (!configured.empty()) return configured;
#endif
#if defined(NDEBUG)
  return "release";
#else
  return "debug";
#endif
}

}  // namespace

StatusOr<std::string> ParseTelemetryDir(const char* value) {
  if (value == nullptr) return std::string();
  if (value[0] == '\0') {
    return Status::InvalidArgument(
        "FAIRMOVE_TELEMETRY must be a non-empty directory path (unset it to "
        "disable telemetry)");
  }
  return std::string(value);
}

Telemetry::Telemetry() {
  const StatusOr<std::string> dir =
      ParseTelemetryDir(std::getenv("FAIRMOVE_TELEMETRY"));
  FM_CHECK(dir.ok()) << dir.status().ToString();
  if (!dir->empty()) {
    const Status status = EnableAt(*dir);
    FM_CHECK(status.ok()) << "FAIRMOVE_TELEMETRY=" << *dir << ": "
                          << status.ToString();
  }
  // Live observability services. These run regardless of the telemetry
  // streams — a resident server wants export and crash capture without
  // per-slot JSONL — and are all strictly observational.
  ThreadPool::SetQueueWaitObserver(&RecordQueueWaitLatency);
  MetricsExporter* exporter = MetricsExporter::StartFromEnv();
  // Crash dumps land in the most specific directory configured:
  // FAIRMOVE_FLIGHT_DUMP_DIR > telemetry dir > export dir.
  std::string dump_dir;
  if (const char* fd = std::getenv("FAIRMOVE_FLIGHT_DUMP_DIR");
      fd != nullptr && fd[0] != '\0') {
    dump_dir = fd;
  } else if (enabled_) {
    dump_dir = dir_;
  } else if (exporter != nullptr) {
    dump_dir = exporter->dir();
  }
  if (!dump_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(dump_dir, ec);
    if (!ec) FlightRecorder::SetCrashDumpDir(dump_dir);
  }
  StallWatchdog::StartFromEnv(dump_dir.empty() ? "." : dump_dir);
}

Status Telemetry::EnableAt(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IOError("cannot create telemetry dir '" + dir +
                           "': " + ec.message());
  }
  FM_RETURN_IF_ERROR(training_.Open(dir + "/training.jsonl"));
  FM_RETURN_IF_ERROR(sim_.Open(dir + "/sim.jsonl"));
  FM_RETURN_IF_ERROR(pool_.Open(dir + "/pool.jsonl"));
  dir_ = dir;
  enabled_ = true;
  manifest_ = RunManifest();
  manifest_.started_utc = Iso8601UtcNow();
  manifest_.threads = EffectiveThreadCount();
  manifest_.build_type = BuildTypeString();
  manifest_.compiler = CompilerString();
  manifest_.profiling = Profiler::enabled();
  // Queue-latency timestamps are only taken while someone is listening.
  ThreadPool::SetTimingEnabled(true);
  return Status::OK();
}

void Telemetry::Finalize() {
  if (!enabled_) return;
  manifest_.finished_utc = Iso8601UtcNow();
  manifest_.profiling = Profiler::enabled();
  const Status manifest_status = manifest_.WriteFile(dir_ + "/manifest.json");
  FM_CHECK(manifest_status.ok()) << manifest_status.ToString();
  std::ofstream metrics_out(dir_ + "/metrics.json",
                            std::ios::out | std::ios::trunc);
  if (metrics_out) metrics_out << Metrics().ToJson() << '\n';
  if (Profiler::enabled()) {
    std::ofstream profile_out(dir_ + "/profile.json",
                              std::ios::out | std::ios::trunc);
    if (profile_out) profile_out << Profiler::ReportJson() << '\n';
  }
}

Status Telemetry::EnableForTesting(const std::string& dir) {
  DisableForTesting();
  return EnableAt(dir);
}

void Telemetry::DisableForTesting() {
  enabled_ = false;
  dir_.clear();
  training_.Close();
  sim_.Close();
  pool_.Close();
  manifest_ = RunManifest();
  ThreadPool::SetTimingEnabled(false);
}

Telemetry& Telemetry::Get() {
  // Leaked like GlobalPool: worker threads may still consult enabled() while
  // static destructors run.
  static Telemetry* telemetry = new Telemetry();
  return *telemetry;
}

}  // namespace fairmove
