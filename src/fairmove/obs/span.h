#ifndef FAIRMOVE_OBS_SPAN_H_
#define FAIRMOVE_OBS_SPAN_H_

#include <chrono>
#include <cstdint>
#include <string>

namespace fairmove {

class LatencyRecorder;
struct SpanNode;

/// Wall-clock profiler built from scoped spans. Each thread owns a private
/// span tree (nodes keyed by span name, nested by dynamic scope), so adding
/// a span to the tree costs a map lookup with no synchronisation. Report
/// time merges every thread's tree by name path and renders the aggregate
/// with per-span count / total / max.
///
/// The tree is off by default; enable with FAIRMOVE_PROFILE=1 or
/// SetEnabled(true). Reports are meant for run end — after parallel regions
/// have completed, the pool's completion acquire/release gives the
/// reporting thread a consistent view of worker trees.
class Profiler {
 public:
  static bool enabled();
  static void SetEnabled(bool on);

  /// Human-readable indented tree; empty string when nothing was recorded.
  static std::string ReportText();
  /// `{"spans":[{name,count,total_ns,max_ns,children:[...]},...]}` with
  /// siblings name-sorted.
  static std::string ReportJson();

  /// Clears every thread's recorded spans (tests; callers must ensure no
  /// span is live on any thread).
  static void Reset();
};

/// What one FM_SPAN site resolves once, into a function-local static: its
/// name, the flight-recorder id interned for it and the latency recorder
/// of the same name.
struct SpanSite {
  explicit SpanSite(const char* site_name);

  const char* name;
  uint16_t flight_name_id;
  LatencyRecorder& latency;
};

/// RAII timer for one dynamic scope. Use through FM_SPAN below.
///
/// Every span records its duration into the site's latency recorder,
/// whatever FAIRMOVE_PROFILE and FAIRMOVE_FLIGHT say. While the profiler is
/// enabled it also nests into the span tree, and while the flight recorder
/// is enabled it records begin/end events, so the last moments before a
/// crash or stall show the span structure.
class ScopedSpan {
 public:
  explicit ScopedSpan(const SpanSite& site);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const SpanSite& site_;
  SpanNode* node_ = nullptr;
  SpanNode* parent_ = nullptr;
  bool flight_ = false;
  std::chrono::steady_clock::time_point start_;
};

#define FM_SPAN_CONCAT_INNER(a, b) a##b
#define FM_SPAN_CONCAT(a, b) FM_SPAN_CONCAT_INNER(a, b)
/// Times the enclosing scope under `name`: a sample in the latency recorder
/// `name`, plus the profiler's span tree and the flight recorder when they
/// are on. `name` must be a persistent string (in practice a literal) — it
/// is resolved once per site.
#define FM_SPAN(name)                                                   \
  static const ::fairmove::SpanSite FM_SPAN_CONCAT(fm_span_site_,       \
                                                   __LINE__)(name);     \
  ::fairmove::ScopedSpan FM_SPAN_CONCAT(fm_span_, __LINE__)(            \
      FM_SPAN_CONCAT(fm_span_site_, __LINE__))

}  // namespace fairmove

#endif  // FAIRMOVE_OBS_SPAN_H_
