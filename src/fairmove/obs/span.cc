#include "fairmove/obs/span.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "fairmove/obs/flight_recorder.h"
#include "fairmove/obs/jsonl.h"
#include "fairmove/obs/latency.h"

namespace fairmove {

struct SpanNode {
  std::string name;
  int64_t count = 0;
  int64_t total_ns = 0;
  int64_t max_ns = 0;
  std::map<std::string, std::unique_ptr<SpanNode>> children;
};

namespace {

std::atomic<bool>& EnabledFlag() {
  static std::atomic<bool> flag([] {
    const char* v = std::getenv("FAIRMOVE_PROFILE");
    return v != nullptr && std::strcmp(v, "1") == 0;
  }());
  return flag;
}

/// Per-thread span tree. `root` is a sentinel whose children are the
/// top-level spans; `current` tracks the innermost live span.
struct ThreadSpans {
  SpanNode root;
  SpanNode* current = &root;
};

/// Registry of every thread's tree, for report-time merging. Entries are
/// leaked: a worker thread may outlive main's static destruction order, and
/// a few dozen small trees per process is a fine price for never touching a
/// destructed registry.
std::mutex g_spans_mu;
std::vector<ThreadSpans*>* g_all_spans = nullptr;

ThreadSpans& LocalSpans() {
  thread_local ThreadSpans* spans = [] {
    auto* s = new ThreadSpans();
    std::lock_guard<std::mutex> lock(g_spans_mu);
    if (g_all_spans == nullptr) g_all_spans = new std::vector<ThreadSpans*>();
    g_all_spans->push_back(s);
    return s;
  }();
  return *spans;
}

void MergeTree(const SpanNode& from, SpanNode* into) {
  into->count += from.count;
  into->total_ns += from.total_ns;
  into->max_ns = std::max(into->max_ns, from.max_ns);
  for (const auto& [name, child] : from.children) {
    auto& slot = into->children[name];
    if (slot == nullptr) {
      slot = std::make_unique<SpanNode>();
      slot->name = name;
    }
    MergeTree(*child, slot.get());
  }
}

/// Snapshot of all thread trees merged under one root.
SpanNode MergedRoot() {
  SpanNode merged;
  std::lock_guard<std::mutex> lock(g_spans_mu);
  if (g_all_spans != nullptr) {
    for (const ThreadSpans* spans : *g_all_spans) {
      MergeTree(spans->root, &merged);
    }
  }
  return merged;
}

std::string HumanDuration(int64_t ns) {
  char buf[32];
  const double d = static_cast<double>(ns);
  if (ns >= 1000000000) {
    std::snprintf(buf, sizeof(buf), "%.3fs", d / 1e9);
  } else if (ns >= 1000000) {
    std::snprintf(buf, sizeof(buf), "%.2fms", d / 1e6);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1fus", d / 1e3);
  }
  return buf;
}

void RenderText(const SpanNode& node, int indent, std::string* out) {
  for (const auto& [name, child] : node.children) {
    out->append(static_cast<size_t>(indent), ' ');
    char line[160];
    std::snprintf(line, sizeof(line), "%-32s count=%-7lld total=%-10s max=%s\n",
                  name.c_str(), static_cast<long long>(child->count),
                  HumanDuration(child->total_ns).c_str(),
                  HumanDuration(child->max_ns).c_str());
    out->append(line);
    RenderText(*child, indent + 2, out);
  }
}

std::string RenderJson(const SpanNode& node) {
  JsonArray children;
  for (const auto& [name, child] : node.children) {
    JsonObject obj;
    obj.Set("name", name)
        .Set("count", child->count)
        .Set("total_ns", child->total_ns)
        .Set("max_ns", child->max_ns);
    obj.SetRaw("children", RenderJson(*child));
    children.PushRaw(obj.Str());
  }
  return children.Str();
}

}  // namespace

bool Profiler::enabled() {
  return EnabledFlag().load(std::memory_order_relaxed);
}

void Profiler::SetEnabled(bool on) {
  EnabledFlag().store(on, std::memory_order_relaxed);
}

std::string Profiler::ReportText() {
  const SpanNode merged = MergedRoot();
  if (merged.children.empty()) return "";
  std::string out = "span tree (wall clock):\n";
  RenderText(merged, 2, &out);
  return out;
}

std::string Profiler::ReportJson() {
  const SpanNode merged = MergedRoot();
  JsonObject root;
  root.SetRaw("spans", RenderJson(merged));
  return root.Str();
}

void Profiler::Reset() {
  std::lock_guard<std::mutex> lock(g_spans_mu);
  if (g_all_spans == nullptr) return;
  for (ThreadSpans* spans : *g_all_spans) {
    spans->root.children.clear();
    spans->root.count = 0;
    spans->root.total_ns = 0;
    spans->root.max_ns = 0;
    spans->current = &spans->root;
  }
}

SpanSite::SpanSite(const char* site_name)
    : name(site_name),
      flight_name_id(FlightRecorder::InternName(site_name)),
      latency(LatencyRegistry::Get(site_name)) {}

ScopedSpan::ScopedSpan(const SpanSite& site) : site_(site) {
  if (Profiler::enabled()) {
    ThreadSpans& spans = LocalSpans();
    parent_ = spans.current;
    auto& slot = parent_->children[site.name];
    if (slot == nullptr) {
      slot = std::make_unique<SpanNode>();
      slot->name = site.name;
    }
    node_ = slot.get();
    spans.current = node_;
  }
  // The enabled() result is latched so the end event is only recorded when
  // the begin event was (toggling mid-span cannot unbalance the ring).
  if (FlightRecorder::enabled()) {
    flight_ = true;
    FlightRecorder::Record(kFlightSpanBegin, site.flight_name_id);
  }
  start_ = std::chrono::steady_clock::now();
}

ScopedSpan::~ScopedSpan() {
  const int64_t elapsed_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_)
          .count();
  site_.latency.Record(elapsed_ns);
  if (flight_) FlightRecorder::Record(kFlightSpanEnd, site_.flight_name_id);
  if (node_ == nullptr) return;
  node_->count += 1;
  node_->total_ns += elapsed_ns;
  node_->max_ns = std::max(node_->max_ns, elapsed_ns);
  LocalSpans().current = parent_;
}

}  // namespace fairmove
