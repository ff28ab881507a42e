#include "fairmove/obs/metrics.h"

#include "fairmove/obs/jsonl.h"

namespace fairmove {

void MetricsRegistry::Count(const std::string& name, int64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  counters_[name] += delta;
}

std::map<std::string, int64_t> MetricsRegistry::Counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

std::string MetricsRegistry::ToJson() const {
  JsonObject counters;
  for (const auto& [name, value] : Counters()) counters.Set(name, value);
  JsonObject root;
  root.SetRaw("counters", counters.Str())
      .SetRaw("gauges", "{}")
      .SetRaw("histograms", "{}");
  return root.Str();
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  counters_.clear();
}

MetricsRegistry& Metrics() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

}  // namespace fairmove
