#ifndef FAIRMOVE_OBS_METRICS_H_
#define FAIRMOVE_OBS_METRICS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace fairmove {

/// Process-wide registry of named event counters.
///
/// Count() takes an internal mutex and may be issued from any thread — the
/// callers are rare events (fault applications, divergence rollbacks,
/// checkpoint rejects, stalls). Integer sums do not depend on the order of
/// the increments, so the registry contents are the same at any thread
/// count. Durations go to the span table (obs/span.h) instead.
///
/// Everything here is observational: no RNG, no effect on simulation state.
class MetricsRegistry {
 public:
  void Count(const std::string& name, int64_t delta = 1);

  /// Name-sorted copy of every counter.
  std::map<std::string, int64_t> Counters() const;

  /// `{"counters":{...},"gauges":{},"histograms":{}}` with counters
  /// name-sorted. The empty gauge and histogram objects are part of the
  /// metrics.json / export.json schema that obs_check requires.
  std::string ToJson() const;

  /// Drops every counter (tests).
  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, int64_t> counters_;
};

/// The process-wide registry every instrumented layer reports into.
MetricsRegistry& Metrics();

}  // namespace fairmove

#endif  // FAIRMOVE_OBS_METRICS_H_
