#include "fairmove/obs/span.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <utility>

#include "fairmove/obs/flight_recorder.h"
#include "fairmove/obs/jsonl.h"

namespace fairmove {

/// One (parent, site) entry of a thread's span table. `site` and `parent`
/// are set before the node is published; only the owning thread writes
/// `hist` and `next` and reads `children`, its lookup, kept as one small
/// array so that entering a span does not visit every sibling's node.
struct SiteNode {
  SiteNode(const SpanSite* s, SiteNode* p) : site(s), parent(p) {}

  const SpanSite* const site;
  SiteNode* const parent;
  std::atomic<SiteNode*> next{nullptr};  // the table's next node
  std::vector<std::pair<const SpanSite*, SiteNode*>> children;
  LogHistogram hist;
  /// Guarded by g_profile_mu: Profiler::Reset's base and the report's row.
  LogHistogram::Snapshot profile_base;
  size_t row = 0;
};

namespace {

/// One thread's table. Its nodes form a list from `root` in creation order,
/// so a parent comes before its children; readers walk it while the owner
/// appends at `tail`.
struct ThreadTable {
  SiteNode root{nullptr, nullptr};     // parent of the outermost spans
  SiteNode samples{nullptr, nullptr};  // parent of SpanSite::Record series
  SiteNode* tail = &root;
  ThreadTable* next = nullptr;
};

/// Every table, newest first. Tables are never freed: a worker may exit
/// before the report, and its timings must stay in it.
std::atomic<ThreadTable*> g_tables{nullptr};
thread_local ThreadTable* t_table = nullptr;
/// The innermost live span of this thread, or its table's root.
thread_local SiteNode* t_current = nullptr;

std::mutex g_sites_mu;
std::vector<const SpanSite*>* g_sites = nullptr;  // interning order, leaked
std::mutex g_profile_mu;

/// FAIRMOVE_PROFILE, parsed during static initialisation so that a
/// malformed value stops every binary before it does any work.
std::atomic<bool> g_profile_enabled{[] {
  const StatusOr<bool> on =
      ParseProfileSetting(std::getenv("FAIRMOVE_PROFILE"));
  FM_CHECK(on.ok()) << on.status().ToString();
  return *on;
}()};

ThreadTable& LocalTable() {
  if (t_table == nullptr) {
    t_table = new ThreadTable();
    t_current = &t_table->root;
    t_table->next = g_tables.load(std::memory_order_relaxed);
    while (!g_tables.compare_exchange_weak(t_table->next, t_table,
                                           std::memory_order_release,
                                           std::memory_order_relaxed)) {
    }
  }
  return *t_table;
}

/// The owner's node for `site` under `parent`, made on first use.
SiteNode* Child(SiteNode* parent, const SpanSite& site) {
  for (const auto& [child_site, child] : parent->children) {
    if (child_site == &site) return child;
  }
  ThreadTable& table = LocalTable();
  auto* node = new SiteNode(&site, parent);
  table.tail->next.store(node, std::memory_order_release);
  table.tail = node;
  parent->children.emplace_back(&site, node);
  return node;
}

template <typename Fn>
void ForEachNode(Fn fn) {
  for (ThreadTable* table = g_tables.load(std::memory_order_acquire);
       table != nullptr; table = table->next) {
    for (SiteNode* node = table->root.next.load(std::memory_order_acquire);
         node != nullptr; node = node->next.load(std::memory_order_acquire)) {
      fn(*table, *node);
    }
  }
}

/// One row of the report: the nodes of every thread at one name path, and
/// what they recorded since the last Reset. Row 0 is the root; a row's
/// parent comes before it.
struct Row {
  const SpanSite* site;
  size_t parent;
  int64_t count = 0;
  int64_t total_ns = 0;
  int64_t max_ns = 0;
  bool shown = false;  // it, or a row below it, recorded a span
};

std::vector<Row> MergedRows() {
  std::lock_guard<std::mutex> lock(g_profile_mu);
  std::vector<Row> rows = {{nullptr, 0}};
  ForEachNode([&](const ThreadTable& table, SiteNode& node) {
    if (node.parent == &table.samples) return;  // not a span
    const size_t parent = node.parent == &table.root ? 0 : node.parent->row;
    const auto it =
        std::find_if(rows.begin() + 1, rows.end(), [&](const Row& r) {
          return r.parent == parent && r.site == node.site;
        });
    node.row = static_cast<size_t>(it - rows.begin());
    if (it == rows.end()) rows.push_back({node.site, parent});
    const LogHistogram::Snapshot delta =
        node.hist.TakeSnapshot().Since(node.profile_base);
    Row& row = rows[node.row];
    row.count += delta.count;
    row.total_ns += delta.sum;
    row.max_ns = std::max(row.max_ns, delta.max);
  });
  for (size_t r = rows.size(); r-- > 1;) {
    rows[r].shown = rows[r].shown || rows[r].count > 0;
    if (rows[r].shown) rows[rows[r].parent].shown = true;
  }
  return rows;
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

/// The shown rows under `parent`, name-sorted: returns their JSON array and
/// appends their indented text lines to `text`.
std::string Render(const std::vector<Row>& rows, size_t parent, int indent,
                   std::string* text) {
  std::vector<const Row*> kids;
  for (size_t r = parent + 1; r < rows.size(); ++r) {
    if (rows[r].parent == parent && rows[r].shown) kids.push_back(&rows[r]);
  }
  std::sort(kids.begin(), kids.end(), [](const Row* a, const Row* b) {
    return a->site->name() < b->site->name();
  });
  JsonArray json;
  for (const Row* row : kids) {
    char line[160];
    std::snprintf(line, sizeof(line), "%-32s count=%-7lld total=%-10s max=%s\n",
                  row->site->name().c_str(), static_cast<long long>(row->count),
                  HumanDuration(row->total_ns).c_str(),
                  HumanDuration(row->max_ns).c_str());
    text->append(static_cast<size_t>(indent), ' ').append(line);
    JsonObject obj;
    obj.Set("name", row->site->name())
        .Set("count", row->count)
        .Set("total_ns", row->total_ns)
        .Set("max_ns", row->max_ns);
    obj.SetRaw("children", Render(rows, static_cast<size_t>(row - rows.data()),
                                  indent + 2, text));
    json.PushRaw(obj.Str());
  }
  return json.Str();
}

}  // namespace

StatusOr<bool> ParseProfileSetting(const char* value) {
  if (value == nullptr || std::strcmp(value, "0") == 0) return false;
  if (std::strcmp(value, "1") == 0) return true;
  return Status::InvalidArgument(
      std::string("FAIRMOVE_PROFILE must be 0 or 1, got '") + value + "'");
}

SpanSite::SpanSite(const std::string& name)
    : name_(name), flight_name_id_(FlightRecorder::InternName(name.c_str())) {}

void SpanSite::Record(int64_t ns) const {
  Child(&LocalTable().samples, *this)->hist.Record(ns);
}

LogHistogram::Snapshot SpanSite::Cumulative() const {
  LogHistogram::Snapshot total;
  total.buckets.resize(LogHistogram::kNumBuckets);
  ForEachNode([&](const ThreadTable&, const SiteNode& node) {
    if (node.site == this) total.MergeFrom(node.hist.TakeSnapshot());
  });
  return total;
}

const SpanSite& LatencyRegistry::Get(const std::string& name) {
  std::lock_guard<std::mutex> lock(g_sites_mu);
  if (g_sites == nullptr) g_sites = new std::vector<const SpanSite*>();
  for (const SpanSite* site : *g_sites) {
    if (site->name() == name) return *site;
  }
  g_sites->push_back(new SpanSite(name));
  return *g_sites->back();
}

std::vector<const SpanSite*> LatencyRegistry::All() {
  std::lock_guard<std::mutex> lock(g_sites_mu);
  return g_sites != nullptr ? *g_sites : std::vector<const SpanSite*>();
}

bool Profiler::enabled() {
  return g_profile_enabled.load(std::memory_order_relaxed);
}

void Profiler::SetEnabled(bool on) {
  g_profile_enabled.store(on, std::memory_order_relaxed);
}

std::string Profiler::ReportText() {
  std::string text;
  Render(MergedRows(), 0, 2, &text);
  return text.empty() ? "" : "span tree (wall clock):\n" + text;
}

std::string Profiler::ReportJson() {
  std::string text;
  JsonObject root;
  root.SetRaw("spans", Render(MergedRows(), 0, 0, &text));
  return root.Str();
}

void Profiler::Reset() {
  std::lock_guard<std::mutex> lock(g_profile_mu);
  ForEachNode([](const ThreadTable&, SiteNode& node) {
    node.profile_base = node.hist.TakeSnapshot();
  });
}

ScopedSpan::ScopedSpan(const SpanSite& site) {
  if (t_current == nullptr) LocalTable();
  node_ = Child(t_current, site);
  t_current = node_;
  // The enabled() result is latched so the end event is only recorded when
  // the begin event was (toggling mid-span cannot unbalance the ring).
  if (FlightRecorder::enabled()) {
    flight_ = true;
    FlightRecorder::Record(kFlightSpanBegin, site.flight_name_id());
  }
  start_ = std::chrono::steady_clock::now();
}

ScopedSpan::~ScopedSpan() {
  const int64_t elapsed_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_)
          .count();
  node_->hist.Record(elapsed_ns);
  if (flight_) {
    FlightRecorder::Record(kFlightSpanEnd, node_->site->flight_name_id());
  }
  t_current = node_->parent;
}

}  // namespace fairmove
