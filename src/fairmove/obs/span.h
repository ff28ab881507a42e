#ifndef FAIRMOVE_OBS_SPAN_H_
#define FAIRMOVE_OBS_SPAN_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "fairmove/common/status.h"
#include "fairmove/obs/latency.h"

namespace fairmove {

struct SiteNode;

/// The one store of span timings. Each thread owns a table of nodes keyed
/// by (parent node, site); a node holds one LogHistogram, written by that
/// thread only, whose count, sum and max are the span count, total and max
/// of its site under its parent. The profile tree (Profiler), the per-name
/// series (SpanSite::Cumulative) and the exporter's windows are views over
/// the tables, read while threads keep writing. Tables are never freed, so
/// a worker's timings outlive its pool.
///
/// A site is a name interned once by LatencyRegistry::Get: FM_SPAN sites
/// that share a name share its nodes.
class SpanSite {
 public:
  const std::string& name() const { return name_; }
  uint16_t flight_name_id() const { return flight_name_id_; }

  /// Records a duration that no scope encloses (the pool's queue wait) on
  /// the calling thread's table, outside the span tree: it counts in
  /// Cumulative() and the exporter, not in the profile.
  void Record(int64_t ns) const;

  /// Everything recorded under this name on every thread since the process
  /// started. Profiler::Reset() does not move it.
  LogHistogram::Snapshot Cumulative() const;

 private:
  friend class LatencyRegistry;
  explicit SpanSite(const std::string& name);

  const std::string name_;
  const uint16_t flight_name_id_;
};

class LatencyRegistry {
 public:
  /// Interns `name` under a mutex; call it once per site into a
  /// function-local static, as FM_SPAN does. Sites live forever.
  static const SpanSite& Get(const std::string& name);
  /// Every site, in the order it was first interned.
  static std::vector<const SpanSite*> All();
};

/// The span tree, merged over every thread by name path. Spans are recorded
/// whatever enabled() says: FAIRMOVE_PROFILE=1 (or SetEnabled(true)) only
/// asks a run to print the tree at its end and write profile.json.
class Profiler {
 public:
  static bool enabled();
  static void SetEnabled(bool on);

  /// Human-readable indented tree; empty string when nothing was recorded.
  static std::string ReportText();
  /// `{"spans":[{name,count,total_ns,max_ns,children:[...]},...]}` with
  /// siblings name-sorted.
  static std::string ReportJson();

  /// Makes the reports cover only what is recorded from now on, by taking
  /// each node's histogram as its base (a node's max is then derived as in
  /// LogHistogram::Snapshot::Since). Cumulative() and the exporter's windows
  /// do not move.
  static void Reset();
};

/// FAIRMOVE_PROFILE's rule: unset or "0" is off, "1" is on, anything else is
/// an error. The profiler parses the variable once, at start-up, and aborts
/// on an error.
StatusOr<bool> ParseProfileSetting(const char* value);

/// RAII timer for one dynamic scope; use FM_SPAN. It enters its site's node
/// under the thread's innermost live span and records its duration there on
/// exit. While the flight recorder is enabled it also records begin/end
/// events, so the last moments before a crash or stall show the spans.
class ScopedSpan {
 public:
  explicit ScopedSpan(const SpanSite& site);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SiteNode* node_;
  bool flight_ = false;
  std::chrono::steady_clock::time_point start_;
};

#define FM_SPAN_CONCAT_INNER(a, b) a##b
#define FM_SPAN_CONCAT(a, b) FM_SPAN_CONCAT_INNER(a, b)
/// Times the enclosing scope under `name`, interned once per site.
#define FM_SPAN(name)                                               \
  static const ::fairmove::SpanSite& FM_SPAN_CONCAT(fm_span_site_,  \
                                                    __LINE__) =     \
      ::fairmove::LatencyRegistry::Get(name);                       \
  ::fairmove::ScopedSpan FM_SPAN_CONCAT(fm_span_, __LINE__)(        \
      FM_SPAN_CONCAT(fm_span_site_, __LINE__))

}  // namespace fairmove

#endif  // FAIRMOVE_OBS_SPAN_H_
