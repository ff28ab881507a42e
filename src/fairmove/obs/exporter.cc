#include "fairmove/obs/exporter.h"

#include <chrono>
#include <cstdlib>
#include <filesystem>

#include "fairmove/common/config.h"
#include "fairmove/obs/flight_recorder.h"
#include "fairmove/obs/manifest.h"
#include "fairmove/obs/metrics.h"
#include "fairmove/obs/span.h"
#include "fairmove/io/atomic_file.h"

namespace fairmove {

namespace {

constexpr int64_t kMinPeriodMs = 10;
constexpr int64_t kMaxPeriodMs = 3600000;
/// Width of the exported tail quantiles' window, in ticks.
constexpr size_t kExportWindows = 4;

MetricsExporter* g_exporter = nullptr;
std::mutex g_exporter_mu;

void StopGlobalExporter() {
  std::lock_guard<std::mutex> lock(g_exporter_mu);
  if (g_exporter != nullptr) g_exporter->Stop();
}

/// Every site's Cumulative(), in LatencyRegistry::All() order.
std::vector<LogHistogram::Snapshot> SiteCumulatives(
    const std::vector<const SpanSite*>& sites) {
  std::vector<LogHistogram::Snapshot> out;
  out.reserve(sites.size());
  for (const SpanSite* site : sites) out.push_back(site->Cumulative());
  return out;
}

void AppendPromLine(std::string* out, const std::string& name,
                    const std::string& labels, double value) {
  out->append(name);
  out->append(labels);
  out->push_back(' ');
  out->append(JsonNumber(value));  // %.17g, also valid Prometheus
  out->push_back('\n');
}

}  // namespace

std::string PrometheusName(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') out = "_" + out;
  return out;
}

StatusOr<ExporterOptions> ParseExportSpec(const std::string& spec) {
  const size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == spec.size()) {
    return Status::InvalidArgument(
        "metrics export spec must be <dir>:<period_ms>, got '" + spec + "'");
  }
  const StatusOr<int64_t> period = ParseInt(spec.substr(colon + 1));
  if (!period.ok() || *period < kMinPeriodMs || *period > kMaxPeriodMs) {
    return Status::InvalidArgument(
        "metrics export period_ms must be an integer in [" +
        std::to_string(kMinPeriodMs) + ", " + std::to_string(kMaxPeriodMs) +
        "], got '" + spec.substr(colon + 1) + "'");
  }
  ExporterOptions options;
  options.dir = spec.substr(0, colon);
  options.period_ms = *period;
  return options;
}

MetricsExporter* MetricsExporter::StartFromEnv() {
  {
    std::lock_guard<std::mutex> lock(g_exporter_mu);
    if (g_exporter != nullptr) return g_exporter;
  }
  const char* spec = std::getenv("FAIRMOVE_METRICS_EXPORT");
  if (spec == nullptr) return nullptr;
  const StatusOr<ExporterOptions> options = ParseExportSpec(spec);
  FM_CHECK(options.ok()) << "FAIRMOVE_METRICS_EXPORT=" << spec << ": "
                         << options.status().ToString();
  StatusOr<std::unique_ptr<MetricsExporter>> exporter = Start(*options);
  FM_CHECK(exporter.ok()) << "FAIRMOVE_METRICS_EXPORT=" << spec << ": "
                          << exporter.status().ToString();
  // Kept like the other obs singletons; Stop() is what releases the
  // thread, and it is wired to atexit. A caller that lost the race to
  // start it destroys its own copy, which stops it.
  std::lock_guard<std::mutex> lock(g_exporter_mu);
  if (g_exporter == nullptr) {
    g_exporter = std::move(*exporter).release();
    std::atexit(&StopGlobalExporter);
  }
  return g_exporter;
}

StatusOr<std::unique_ptr<MetricsExporter>> MetricsExporter::Start(
    const ExporterOptions& options) {
  std::error_code ec;
  std::filesystem::create_directories(options.dir, ec);
  if (ec) {
    return Status::IOError("cannot create export dir '" + options.dir +
                           "': " + ec.message());
  }
  std::unique_ptr<MetricsExporter> exporter(new MetricsExporter(options));
  exporter->history_.push_front(SiteCumulatives(LatencyRegistry::All()));
  FM_RETURN_IF_ERROR(
      exporter->windows_.Open(options.dir + "/windows.jsonl"));
  MetricsExporter* running = exporter.get();
  exporter->thread_ = std::thread([running] { running->Loop(); });
  return exporter;
}

MetricsExporter::MetricsExporter(ExporterOptions options)
    : options_(std::move(options)) {}

MetricsExporter::~MetricsExporter() {
  // Only a started, not yet stopped exporter has a thread to join; one
  // whose Start failed never ticks.
  if (thread_.joinable()) Stop();
}

void MetricsExporter::Loop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_requested_) {
    const auto wait = std::chrono::milliseconds(options_.period_ms);
    if (cv_.wait_for(lock, wait, [this] { return stop_requested_; })) break;
    lock.unlock();
    Tick();
    lock.lock();
  }
}

void MetricsExporter::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    stop_requested_ = true;
    stopped_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  Tick();  // final snapshot so short runs still leave artefacts
  windows_.Close();
}

void MetricsExporter::Tick() {
  std::lock_guard<std::mutex> tick_lock(tick_mu_);
  const uint64_t seq = seq_.fetch_add(1, std::memory_order_acq_rel) + 1;
  const auto epoch_id = static_cast<int64_t>(seq);
  const std::vector<const SpanSite*> sites = LatencyRegistry::All();
  std::vector<LogHistogram::Snapshot> now = SiteCumulatives(sites);
  const std::string now_utc = Iso8601UtcNow();
  const double period_s = static_cast<double>(options_.period_ms) / 1000.0;

  std::string prom = "# fairmove metrics export seq=" + std::to_string(seq) +
                     " " + now_utc + "\n";
  for (const auto& [name, value] : Metrics().Counters()) {
    const std::string metric = "fairmove_" + PrometheusName(name);
    prom += "# TYPE " + metric + " counter\n";
    AppendPromLine(&prom, metric, "", static_cast<double>(value));
  }

  // Per site: a windows.jsonl row (the tick number as epoch id), an
  // export.json entry and a Prometheus summary. The last window goes back
  // one tick, the quantiles' window kExportWindows ticks (or to Start).
  constexpr struct {
    double q;
    const char* key;
    const char* label;
  } kQuantiles[] = {{0.50, "p50_ns", "{quantile=\"0.5\"}"},
                    {0.90, "p90_ns", "{quantile=\"0.9\"}"},
                    {0.99, "p99_ns", "{quantile=\"0.99\"}"},
                    {0.999, "p999_ns", "{quantile=\"0.999\"}"}};
  JsonArray latency_json;
  for (size_t i = 0; i < sites.size(); ++i) {
    const LogHistogram::Snapshot& cumulative = now[i];
    const auto since = [&](const std::vector<LogHistogram::Snapshot>& base) {
      return i < base.size() ? cumulative.Since(base[i]) : cumulative.Since({});
    };
    const LogHistogram::Snapshot last = since(history_.front());
    const LogHistogram::Snapshot window = since(history_.back());
    const double rate =
        period_s > 0.0 ? static_cast<double>(last.count) / period_s : 0.0;
    const std::string metric =
        "fairmove_latency_" + PrometheusName(sites[i]->name()) + "_ns";
    prom += "# TYPE " + metric + " summary\n";
    JsonObject row;
    row.Set("epoch_id", epoch_id)
        .Set("name", sites[i]->name())
        .Set("count", last.count)
        .Set("rate_per_s", rate);
    JsonObject entry;
    entry.Set("name", sites[i]->name())
        .Set("epoch_id", epoch_id)
        .Set("cum_count", cumulative.count)
        .Set("cum_mean_ns", cumulative.mean())
        .Set("cum_max_ns", cumulative.max);
    for (const auto& quantile : kQuantiles) {
      const int64_t value = window.Quantile(quantile.q);
      row.Set(quantile.key, value);
      entry.Set(quantile.key, value);
      AppendPromLine(&prom, metric, quantile.label, static_cast<double>(value));
    }
    row.Set("window_count", window.count)
        .Set("window_max_ns", window.max)
        .Set("cum_count", cumulative.count);
    windows_.Write(row);
    entry.Set("rate_per_s", rate);
    latency_json.PushRaw(entry.Str());
    AppendPromLine(&prom, metric + "_sum", "",
                   static_cast<double>(cumulative.sum));
    AppendPromLine(&prom, metric + "_count", "",
                   static_cast<double>(cumulative.count));
  }
  history_.push_front(std::move(now));
  if (history_.size() > kExportWindows) history_.pop_back();

  JsonObject root;
  root.Set("schema", "fairmove.export.v1")
      .Set("freshness_utc", now_utc)
      .Set("freshness_seq", epoch_id)
      .Set("epoch_id", epoch_id)
      .Set("period_ms", options_.period_ms)
      .SetRaw("latency", latency_json.Str())
      .SetRaw("metrics", Metrics().ToJson());
  (void)AtomicWriteFile(options_.dir + "/export.json", root.Str() + "\n");
  (void)AtomicWriteFile(options_.dir + "/metrics.prom", prom);

  // --- flight.fmfr: last-good dump survives even SIGKILL -----------------
  (void)FlightRecorder::DumpToFile(options_.dir + "/flight.fmfr");
}

}  // namespace fairmove
