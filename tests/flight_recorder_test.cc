// Live observability: the always-on flight recorder (ring wrap, interning,
// FMFR1 dump round-trip + CRC rejection), log-bucketed latency histograms,
// the periodic metrics exporter with its tick windows and artefacts,
// Chrome/Perfetto trace conversion with balance guarantees, the
// stall watchdog, and — via real forked children — that an aborted or
// SIGKILLed process still leaves a parseable flight dump behind.

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fairmove/common/parallel.h"
#include "fairmove/core/fairmove.h"
#include "fairmove/core/metrics.h"
#include "fairmove/obs/exporter.h"
#include "fairmove/obs/flight_recorder.h"
#include "fairmove/obs/json_parse.h"
#include "fairmove/obs/jsonl.h"
#include "fairmove/obs/latency.h"
#include "fairmove/obs/span.h"
#include "fairmove/obs/telemetry.h"
#include "fairmove/obs/trace.h"
#include "fairmove/obs/watchdog.h"

namespace fairmove {
namespace {

std::string TempSubdir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "fairmove_flight_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// ------------------------------------------------------- flight recorder --

TEST(FlightRecorderTest, RecordedEventsRoundTripThroughTheDump) {
  FlightRecorder::SetEnabled(true);
  FlightRecorder::ResetForTesting();
  const uint16_t begin_id = FlightRecorder::InternName("rt.span");
  const uint16_t inst_id = FlightRecorder::InternName("rt.instant");
  EXPECT_EQ(begin_id, FlightRecorder::InternName("rt.span"));  // idempotent
  FlightRecorder::Record(kFlightSpanBegin, begin_id, 7, 70);
  FlightRecorder::Instant(inst_id, 8, 80);
  FlightRecorder::Record(kFlightSpanEnd, begin_id, 7, 71);

  const StatusOr<FlightDump> dump = ParseFlightDump(
      FlightRecorder::SerializeDump());
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  ASSERT_GT(dump->names.size(), static_cast<size_t>(begin_id));
  EXPECT_EQ(dump->names[0], "(overflow)");
  EXPECT_EQ(dump->names[begin_id], "rt.span");
  EXPECT_EQ(dump->names[inst_id], "rt.instant");

  // Find our three events on whichever ring this thread landed in, in
  // chronological order with args intact.
  std::vector<FlightEvent> mine;
  for (const FlightDumpRing& ring : dump->rings) {
    int64_t prev_t = 0;
    for (const FlightEvent& event : ring.events) {
      EXPECT_GE(event.t_ns, prev_t) << "events must be chronological";
      prev_t = event.t_ns;
      if (event.name_id == begin_id || event.name_id == inst_id) {
        mine.push_back(event);
      }
    }
  }
  ASSERT_EQ(mine.size(), 3u);
  EXPECT_EQ(mine[0].kind, kFlightSpanBegin);
  EXPECT_EQ(mine[0].arg0, 7);
  EXPECT_EQ(mine[0].arg1, 70);
  EXPECT_EQ(mine[1].kind, kFlightInstant);
  EXPECT_EQ(mine[1].arg0, 8);
  EXPECT_EQ(mine[2].kind, kFlightSpanEnd);
  EXPECT_EQ(mine[2].arg1, 71);
}

TEST(FlightRecorderTest, RingWrapKeepsTheMostRecentEvents) {
  FlightRecorder::SetEnabled(true);
  FlightRecorder::ResetForTesting();
  const uint16_t id = FlightRecorder::InternName("wrap.event");
  // Default capacity is 4096; overfill by 3x so the ring must wrap.
  const int total = 3 * 4096;
  for (int i = 0; i < total; ++i) FlightRecorder::Instant(id, i, 0);

  const StatusOr<FlightDump> dump =
      ParseFlightDump(FlightRecorder::SerializeDump());
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  const FlightDumpRing* ring = nullptr;
  for (const FlightDumpRing& r : dump->rings) {
    for (const FlightEvent& e : r.events) {
      if (e.name_id == id) ring = &r;
    }
  }
  ASSERT_NE(ring, nullptr);
  EXPECT_EQ(ring->recorded_total, static_cast<uint64_t>(total));
  EXPECT_LE(ring->events.size(), 4096u);
  // The survivors are exactly the newest events, still in order.
  EXPECT_EQ(ring->events.back().arg0, total - 1);
  EXPECT_EQ(ring->events.front().arg0,
            total - static_cast<int>(ring->events.size()));
}

TEST(FlightRecorderTest, DisabledRecorderDropsEvents) {
  FlightRecorder::SetEnabled(true);
  FlightRecorder::ResetForTesting();
  const uint16_t id = FlightRecorder::InternName("toggle.event");
  FlightRecorder::SetEnabled(false);
  FM_FLIGHT_EVENT("toggle.event", 1, 1);  // macro gates on enabled()
  FlightRecorder::SetEnabled(true);
  FM_FLIGHT_EVENT("toggle.event", 2, 2);
  const StatusOr<FlightDump> dump =
      ParseFlightDump(FlightRecorder::SerializeDump());
  ASSERT_TRUE(dump.ok());
  int seen = 0;
  for (const FlightDumpRing& ring : dump->rings) {
    for (const FlightEvent& event : ring.events) {
      if (event.name_id == id) {
        ++seen;
        EXPECT_EQ(event.arg0, 2);
      }
    }
  }
  EXPECT_EQ(seen, 1);
}

TEST(FlightRecorderTest, ParserRejectsCorruptedAndTruncatedDumps) {
  FlightRecorder::SetEnabled(true);
  FlightRecorder::ResetForTesting();
  FM_FLIGHT_EVENT("corrupt.event", 1, 2);
  const std::string good = FlightRecorder::SerializeDump();
  ASSERT_TRUE(ParseFlightDump(good).ok());

  std::string flipped = good;
  flipped[flipped.size() / 2] ^= 0x5A;  // payload byte -> CRC mismatch
  EXPECT_FALSE(ParseFlightDump(flipped).ok());

  std::string bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_FALSE(ParseFlightDump(bad_magic).ok());

  EXPECT_FALSE(ParseFlightDump(good.substr(0, good.size() - 7)).ok());
  EXPECT_FALSE(ParseFlightDump("").ok());
}

TEST(FlightRecorderTest, DumpToFileRoundTrips) {
  FlightRecorder::SetEnabled(true);
  FlightRecorder::ResetForTesting();
  FM_FLIGHT_EVENT("file.event", 3, 4);
  const std::string dir = TempSubdir("dumpfile");
  const std::string path = dir + "/dump.fmfr";
  ASSERT_TRUE(FlightRecorder::DumpToFile(path).ok());
  const StatusOr<FlightDump> dump = ReadFlightDumpFile(path);
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  EXPECT_FALSE(dump->rings.empty());
}

// ------------------------------------------------------- log histograms ---

TEST(LogHistogramTest, SmallValuesLandInExactUnitBuckets) {
  for (int64_t v = 0; v < (1 << LogHistogram::kSubBits); ++v) {
    EXPECT_EQ(LogHistogram::BucketIndex(v), static_cast<int>(v));
    EXPECT_EQ(LogHistogram::BucketLowerBound(static_cast<int>(v)), v);
  }
  EXPECT_EQ(LogHistogram::BucketIndex(-5), 0);  // negative clamps
}

TEST(LogHistogramTest, BucketBoundsBracketTheirValues) {
  const int64_t samples[] = {16,      17,        100,        1023,
                             4096,    123456789, 1LL << 40,  (1LL << 62) + 5};
  int prev_index = -1;
  for (int64_t v : samples) {
    const int index = LogHistogram::BucketIndex(v);
    ASSERT_GE(index, 0);
    ASSERT_LT(index, LogHistogram::kNumBuckets);
    EXPECT_LE(LogHistogram::BucketLowerBound(index), v) << "v=" << v;
    EXPECT_GT(LogHistogram::BucketUpperBound(index), v) << "v=" << v;
    EXPECT_GT(index, prev_index) << "indices must grow with value";
    prev_index = index;
  }
}

TEST(LogHistogramTest, QuantilesApproximateAUniformStream) {
  LogHistogram hist;
  for (int64_t v = 1; v <= 1000; ++v) hist.Record(v);
  const LogHistogram::Snapshot snap = hist.TakeSnapshot();
  EXPECT_EQ(snap.count, 1000);
  EXPECT_EQ(snap.max, 1000);
  EXPECT_EQ(snap.sum, 1000 * 1001 / 2);
  // Worst-case relative bucket error is 2^-4 ~ 6%; allow 10%.
  EXPECT_NEAR(static_cast<double>(snap.Quantile(0.50)), 500.0, 50.0);
  EXPECT_NEAR(static_cast<double>(snap.Quantile(0.90)), 900.0, 90.0);
  EXPECT_NEAR(static_cast<double>(snap.Quantile(0.99)), 990.0, 99.0);
  // The top quantile clamps to the exact observed max.
  EXPECT_LE(snap.Quantile(0.999), 1000);
}

TEST(LogHistogramTest, SnapshotsMergeAdditively) {
  LogHistogram a;
  LogHistogram b;
  for (int64_t v = 1; v <= 100; ++v) a.Record(v);
  for (int64_t v = 1000; v <= 1100; ++v) b.Record(v);
  LogHistogram::Snapshot merged = a.TakeSnapshot();
  merged.MergeFrom(b.TakeSnapshot());
  EXPECT_EQ(merged.count, 201);
  EXPECT_EQ(merged.max, 1100);
  EXPECT_GT(merged.Quantile(0.9), 900);
  EXPECT_LT(merged.Quantile(0.1), 200);
}

// ------------------------------------------------------ latency registry --

TEST(LatencyRegistryTest, GetInternsOneRecorderPerName) {
  const SpanSite& a = LatencyRegistry::Get("registry.name");
  const SpanSite& b = LatencyRegistry::Get("registry.name");
  EXPECT_EQ(&a, &b);
  bool found = false;
  for (const SpanSite* site : LatencyRegistry::All()) {
    if (site == &a) found = true;
  }
  EXPECT_TRUE(found);
  // FM_SPAN records into its site whatever the profiler and the flight
  // recorder say: exactly one sample per span exit.
  Profiler::SetEnabled(false);
  FlightRecorder::SetEnabled(false);
  const int64_t before =
      LatencyRegistry::Get("registry.scoped").Cumulative().count;
  { FM_SPAN("registry.scoped"); }
  FlightRecorder::SetEnabled(true);
  EXPECT_EQ(LatencyRegistry::Get("registry.scoped").Cumulative().count,
            before + 1);
}

// ------------------------------------------------------------- exporter ---

TEST(ExporterTest, ParseExportSpecAcceptsDirColonPeriod) {
  const StatusOr<ExporterOptions> ok = ParseExportSpec("/tmp/x:250");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->dir, "/tmp/x");
  EXPECT_EQ(ok->period_ms, 250);
  // Period is the LAST colon field so ':' in the dir still parses.
  const StatusOr<ExporterOptions> colon = ParseExportSpec("/tmp/a:b:100");
  ASSERT_TRUE(colon.ok());
  EXPECT_EQ(colon->dir, "/tmp/a:b");
  EXPECT_FALSE(ParseExportSpec("/tmp/x").ok());
  EXPECT_FALSE(ParseExportSpec("/tmp/x:").ok());
  EXPECT_FALSE(ParseExportSpec(":100").ok());
  EXPECT_FALSE(ParseExportSpec("/tmp/x:5").ok());       // below minimum
  EXPECT_FALSE(ParseExportSpec("/tmp/x:abc").ok());
  // An empty FAIRMOVE_METRICS_EXPORT is refused, not read as off.
  EXPECT_FALSE(ParseExportSpec("").ok());
}

TEST(ExporterTest, PrometheusNameSanitises) {
  EXPECT_EQ(PrometheusName("sim.step"), "sim_step");
  EXPECT_EQ(PrometheusName("a/b-c"), "a_b_c");
  EXPECT_EQ(PrometheusName("9lives"), "_9lives");
  EXPECT_EQ(PrometheusName("ok_name:x"), "ok_name:x");
}

TEST(ExporterTest, TickPublishesAllFourArtefacts) {
  const std::string dir = TempSubdir("exporter");
  FlightRecorder::SetEnabled(true);
  const SpanSite& site = LatencyRegistry::Get("exporter.probe");
  for (int64_t v = 1000; v < 2000; v += 100) site.Record(v);
  FM_FLIGHT_EVENT("exporter.event", 1, 2);

  const StatusOr<std::unique_ptr<MetricsExporter>> exporter =
      MetricsExporter::Start({.dir = dir, .period_ms = 3600000});
  ASSERT_TRUE(exporter.ok()) << exporter.status().ToString();
  (*exporter)->Tick();
  site.Record(5000);
  (*exporter)->Stop();  // joins the thread + one final snapshot
  EXPECT_GE((*exporter)->ticks(), 2u);

  // export.json: schema + freshness fields a poller relies on.
  std::ifstream in(dir + "/export.json");
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const StatusOr<JsonValue> root = ParseJson(text);
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  EXPECT_EQ(root->StringOr("schema", ""), "fairmove.export.v1");
  EXPECT_GE(root->NumberOr("freshness_seq", 0.0), 2.0);
  EXPECT_GE(root->StringOr("freshness_utc", "").size(), 20u);
  ASSERT_NE(root->Find("latency"), nullptr);
  ASSERT_NE(root->Find("metrics"), nullptr);
  bool probe_found = false;
  for (const JsonValue& entry : root->Find("latency")->items) {
    if (entry.StringOr("name", "") == "exporter.probe") {
      probe_found = true;
      EXPECT_GE(entry.NumberOr("cum_count", 0.0), 10.0);
      EXPECT_GT(entry.NumberOr("p50_ns", 0.0), 0.0);
    }
  }
  EXPECT_TRUE(probe_found);

  // windows.jsonl: parseable rows with per-site monotonic epoch ids.
  std::ifstream windows(dir + "/windows.jsonl");
  ASSERT_TRUE(windows.good());
  std::vector<std::pair<std::string, int64_t>> last_epoch;
  std::string line;
  int64_t rows = 0;
  while (std::getline(windows, line)) {
    if (line.empty()) continue;
    const StatusOr<JsonValue> row = ParseJson(line);
    ASSERT_TRUE(row.ok()) << line;
    const std::string name = row->StringOr("name", "");
    const int64_t epoch =
        static_cast<int64_t>(row->NumberOr("epoch_id", -1.0));
    ASSERT_GE(epoch, 0) << line;
    bool seen = false;
    for (auto& entry : last_epoch) {
      if (entry.first == name) {
        EXPECT_GT(epoch, entry.second) << "epoch ids must be monotonic";
        entry.second = epoch;
        seen = true;
      }
    }
    if (!seen) last_epoch.emplace_back(name, epoch);
    ++rows;
  }
  EXPECT_GT(rows, 0);

  // metrics.prom: exposition header + the latency summary.
  std::ifstream prom_in(dir + "/metrics.prom");
  ASSERT_TRUE(prom_in.good());
  std::string prom((std::istreambuf_iterator<char>(prom_in)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(prom.rfind("# fairmove metrics export", 0), 0u);
  EXPECT_NE(prom.find("fairmove_latency_exporter_probe_ns"),
            std::string::npos);
  EXPECT_NE(prom.find("{quantile=\"0.999\"}"), std::string::npos);

  // flight.fmfr: a CRC-valid dump survives as the last export.
  const StatusOr<FlightDump> dump = ReadFlightDumpFile(dir + "/flight.fmfr");
  EXPECT_TRUE(dump.ok()) << dump.status().ToString();
}

/// The rows windows.jsonl in `dir` holds for `name`, in file order.
std::vector<JsonValue> WindowRows(const std::string& dir,
                                  const std::string& name) {
  std::vector<JsonValue> rows;
  std::ifstream in(dir + "/windows.jsonl");
  std::string line;
  while (std::getline(in, line)) {
    StatusOr<JsonValue> row = ParseJson(line);
    if (row.ok() && row->StringOr("name", "") == name) {
      rows.push_back(std::move(*row));
    }
  }
  return rows;
}

int64_t Field(const JsonValue& row, const char* key) {
  return static_cast<int64_t>(row.NumberOr(key, -1.0));
}

// A tick's row counts what was recorded since the tick before (count) and
// since four ticks before, or since Start while fewer have run
// (window_count); its epoch id is the tick number.
TEST(ExporterTest, WindowsCountTheLastTickAndTheLastFourTicks) {
  const std::string dir = TempSubdir("exporter_windows");
  const SpanSite& site = LatencyRegistry::Get("exporter.windows");
  site.Record(100);  // before Start: cumulative only
  StatusOr<std::unique_ptr<MetricsExporter>> exporter =
      MetricsExporter::Start({.dir = dir, .period_ms = 3600000});
  ASSERT_TRUE(exporter.ok()) << exporter.status().ToString();
  for (int tick = 1; tick <= 6; ++tick) {
    for (int i = 0; i < tick; ++i) site.Record(100);
    (*exporter)->Tick();
  }
  (*exporter)->Stop();  // a seventh tick, with nothing new

  const std::vector<JsonValue> rows = WindowRows(dir, "exporter.windows");
  ASSERT_EQ(rows.size(), 7u);
  const int64_t last[] = {1, 2, 3, 4, 5, 6, 0};
  const int64_t window[] = {1, 3, 6, 10, 14, 18, 15};
  int64_t cumulative = 1;
  for (size_t t = 0; t < rows.size(); ++t) {
    cumulative += last[t];
    EXPECT_EQ(Field(rows[t], "epoch_id"), static_cast<int64_t>(t + 1));
    EXPECT_EQ(Field(rows[t], "count"), last[t]) << "tick " << t + 1;
    EXPECT_EQ(Field(rows[t], "window_count"), window[t]) << "tick " << t + 1;
    EXPECT_EQ(Field(rows[t], "cum_count"), cumulative) << "tick " << t + 1;
  }
}

// A window's max is the upper edge of its highest non-empty bucket, capped
// at the cumulative max: exact while the series' largest sample is inside
// the window, one bucket's resolution once that sample has slid out.
TEST(ExporterTest, WindowMaxSlidesOutWithItsSample) {
  const std::string dir = TempSubdir("exporter_window_max");
  const SpanSite& site = LatencyRegistry::Get("exporter.window_max");
  StatusOr<std::unique_ptr<MetricsExporter>> exporter =
      MetricsExporter::Start({.dir = dir, .period_ms = 3600000});
  ASSERT_TRUE(exporter.ok()) << exporter.status().ToString();
  site.Record(5000);
  for (int tick = 1; tick <= 6; ++tick) {
    site.Record(100);
    (*exporter)->Tick();
  }
  (*exporter)->Stop();

  const std::vector<JsonValue> rows = WindowRows(dir, "exporter.window_max");
  ASSERT_EQ(rows.size(), 7u);
  const int64_t small_edge =
      LogHistogram::BucketUpperBound(LogHistogram::BucketIndex(100)) - 1;
  for (size_t t = 0; t < rows.size(); ++t) {
    const bool holds_5000 = t < 4;  // tick 1 leaves the window at tick 5
    EXPECT_EQ(Field(rows[t], "window_max_ns"), holds_5000 ? 5000 : small_edge)
        << "tick " << t + 1;
    EXPECT_LE(Field(rows[t], "p999_ns"), Field(rows[t], "window_max_ns"));
    if (!holds_5000) {
      EXPECT_GE(Field(rows[t], "p50_ns"), 100) << "tick " << t + 1;
    }
  }
  EXPECT_EQ(Field(rows.back(), "window_count"), 3);  // ticks 4, 5 and 6
}

// ------------------------------------------------- trace conversion -------

FlightDump MakeDump(std::vector<FlightEvent> events) {
  FlightDump dump;
  dump.names = {"(overflow)", "alpha", "beta"};
  FlightDumpRing ring;
  ring.tid = 0;
  ring.recorded_total = events.size();
  ring.events = std::move(events);
  dump.rings.push_back(std::move(ring));
  return dump;
}

TEST(TraceTest, BalancedSpansConvertWithoutSynthesis) {
  const FlightDump dump = MakeDump({
      {100, 1, kFlightSpanBegin, 0, 1, 0},
      {150, 2, kFlightInstant, 0, 5, 6},
      {200, 1, kFlightSpanEnd, 0, 1, 0},
  });
  const std::string trace = FlightDumpToChromeTrace(dump);
  EXPECT_TRUE(ValidateChromeTrace(trace).ok()) << trace;
  EXPECT_NE(trace.find("\"alpha\""), std::string::npos);
  EXPECT_NE(trace.find("\"beta\""), std::string::npos);
  EXPECT_EQ(trace.find("open_at_crash"), std::string::npos);
}

TEST(TraceTest, CrashOpenSpansAreSynthesisedClosedAndOrphanEndsDropped) {
  const FlightDump dump = MakeDump({
      {50, 2, kFlightSpanEnd, 0, 0, 0},    // begin lost to ring wrap
      {100, 1, kFlightSpanBegin, 0, 0, 0},  // still open at crash
      {170, 2, kFlightInstant, 0, 0, 0},
  });
  const std::string trace = FlightDumpToChromeTrace(dump);
  EXPECT_TRUE(ValidateChromeTrace(trace).ok()) << trace;
  EXPECT_NE(trace.find("open_at_crash"), std::string::npos);
}

TEST(TraceTest, ValidatorRejectsUnbalancedTraces) {
  EXPECT_FALSE(ValidateChromeTrace(
                   R"({"traceEvents":[{"ph":"B","pid":1,"tid":0,"ts":0,)"
                   R"("name":"x"}]})")
                   .ok());
  EXPECT_FALSE(ValidateChromeTrace(
                   R"({"traceEvents":[{"ph":"E","pid":1,"tid":0,"ts":0,)"
                   R"("name":"x"}]})")
                   .ok());
  EXPECT_TRUE(ValidateChromeTrace(
                  R"({"traceEvents":[{"ph":"B","pid":1,"tid":0,"ts":0,)"
                  R"("name":"x"},{"ph":"E","pid":1,"tid":0,"ts":5,)"
                  R"("name":"x"}]})")
                  .ok());
  EXPECT_FALSE(ValidateChromeTrace("not json").ok());
  EXPECT_FALSE(ValidateChromeTrace("{}").ok());
}

TEST(TraceTest, ProfileJsonConvertsToNestedCompleteEvents) {
  const std::string profile =
      R"({"spans":[{"name":"outer","count":1,"total_ns":10000,)"
      R"("max_ns":10000,"children":[{"name":"inner","count":2,)"
      R"("total_ns":4000,"max_ns":3000,"children":[]}]}]})";
  const StatusOr<std::string> trace = ProfileJsonToChromeTrace(profile);
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_TRUE(ValidateChromeTrace(*trace).ok()) << *trace;
  EXPECT_NE(trace->find("\"outer\""), std::string::npos);
  EXPECT_NE(trace->find("\"inner\""), std::string::npos);
  EXPECT_FALSE(ProfileJsonToChromeTrace("garbage").ok());
}

// ------------------------------------------------------------ watchdog ----

TEST(WatchdogTest, EmitsOneStallPerQuietPeriodAndRearms) {
  const std::string dir = TempSubdir("watchdog");
  FlightRecorder::SetEnabled(true);
  StallWatchdog::Stop();
  const int64_t before = StallWatchdog::stall_count();
  StallWatchdog::Start(/*budget_ms=*/150, dir);
  ASSERT_TRUE(StallWatchdog::running());
  StallWatchdog::Heartbeat();
  // Go quiet past the budget: exactly one stall event must appear.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (StallWatchdog::stall_count() == before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(StallWatchdog::stall_count(), before + 1);
  // Still quiet: no second report without progress in between.
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  EXPECT_EQ(StallWatchdog::stall_count(), before + 1);
  StallWatchdog::Stop();
  EXPECT_FALSE(StallWatchdog::running());

  const StatusOr<FlightDump> dump =
      ReadFlightDumpFile(dir + "/flight_stall.fmfr");
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  bool stall_event = false;
  for (const FlightDumpRing& ring : dump->rings) {
    for (const FlightEvent& event : ring.events) {
      if (static_cast<size_t>(event.name_id) < dump->names.size() &&
          dump->names[event.name_id] == "obs.stall") {
        stall_event = true;
      }
    }
  }
  EXPECT_TRUE(stall_event);
}

// ----------------------------------------- exporter ⊥ simulation ----------

std::string FleetDigest(const FleetMetrics& m) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "%.17g|%.17g|%.17g|%.17g|%lld|%lld|%lld|%lld",
                m.pe.empty() ? 0.0 : m.pe.Mean(), m.pf, m.pe_sum,
                m.revenue_cny, static_cast<long long>(m.trips),
                static_cast<long long>(m.charge_events),
                static_cast<long long>(m.expired_requests),
                static_cast<long long>(m.total_requests));
  return buf;
}

std::string RunTinySim(bool export_on, int threads, const std::string& dir) {
  SetGlobalThreads(threads);
  // The city is below the pool's cost rule; lowering it keeps the exporter
  // racing pool workers inside the sharded phases.
  ScopedForkThresholdForTesting fork_every_phase(0);
  std::unique_ptr<MetricsExporter> exporter;
  if (export_on) {
    StatusOr<std::unique_ptr<MetricsExporter>> started =
        MetricsExporter::Start({.dir = dir, .period_ms = 10});
    EXPECT_TRUE(started.ok()) << started.status().ToString();
    if (started.ok()) exporter = std::move(*started);
  }
  FairMoveConfig cfg = FairMoveConfig::FullShenzhen().Scaled(0.04);
  auto system = std::move(FairMoveSystem::Create(cfg)).value();
  auto policy = MakePolicy(PolicyKind::kGroundTruth, system->sim(), 7000);
  system->sim().Reset();
  system->sim().RunSlots(policy.get(), 200);
  const std::string digest = FleetDigest(ComputeFleetMetrics(system->sim()));
  if (exporter != nullptr) exporter->Stop();
  SetGlobalThreads(1);
  return digest;
}

// The acceptance bar of the live exporter: turning it on — with its
// background thread rotating epochs and snapshotting registries every 10 ms
// while the simulation runs — must not change one byte of simulation
// output, at FAIRMOVE_THREADS 1 and 4 alike.
TEST(ExporterInvarianceTest, OnOffProducesByteIdenticalFleetMetrics) {
  const std::string off_1 = RunTinySim(false, 1, "");
  const std::string on_1 = RunTinySim(true, 1, TempSubdir("invariance1"));
  EXPECT_EQ(off_1, on_1);

  const std::string off_4 = RunTinySim(false, 4, "");
  const std::string on_4 = RunTinySim(true, 4, TempSubdir("invariance4"));
  EXPECT_EQ(off_4, on_4);
  EXPECT_EQ(off_1, off_4);
}

// ------------------------------------------------------ crash capture -----

TEST(CrashDumpTest, AbortedChildLeavesDumpTraceAndFlushedJsonl) {
  SetGlobalThreads(1);  // no worker threads to lose across fork()
  const std::string dir = TempSubdir("crash_abort");
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: arm crash capture, stream a few telemetry rows, leave a span
    // open mid-"episode", then fail an FM_CHECK. Each Write already flushed
    // its row; the fail hook must write the flight dump before abort
    // re-raises.
    FlightRecorder::SetEnabled(true);
    FlightRecorder::SetCrashDumpDir(dir);
    JsonlWriter writer;
    if (!writer.Open(dir + "/rows.jsonl").ok()) _exit(10);
    for (int64_t i = 0; i < 3; ++i) {
      JsonObject row;
      row.Set("kind", "row").Set("i", i);
      writer.Write(row);
    }
    static const uint16_t span_id =
        FlightRecorder::InternName("child.episode");
    FlightRecorder::Record(kFlightSpanBegin, span_id, 7, 0);
    FM_FLIGHT_EVENT("child.work", 1, 2);
    FM_CHECK(false) << "synthetic mid-episode failure";
    _exit(11);  // unreachable
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  EXPECT_EQ(WTERMSIG(status), SIGABRT);

  const StatusOr<FlightDump> dump =
      ReadFlightDumpFile(dir + "/flight_crash.fmfr");
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  bool begin_seen = false;
  for (const FlightDumpRing& ring : dump->rings) {
    for (const FlightEvent& event : ring.events) {
      if (static_cast<size_t>(event.name_id) < dump->names.size() &&
          dump->names[event.name_id] == "child.episode" &&
          event.kind == kFlightSpanBegin) {
        begin_seen = true;
      }
    }
  }
  EXPECT_TRUE(begin_seen);

  // The dump converts to balanced Perfetto JSON, with the mid-crash open
  // span synthetically closed and flagged.
  const std::string trace = FlightDumpToChromeTrace(*dump);
  EXPECT_TRUE(ValidateChromeTrace(trace).ok());
  EXPECT_NE(trace.find("open_at_crash"), std::string::npos);

  // Every row written before the failure survived the abort, whole.
  EXPECT_EQ(
      std::move(ValidateJsonlFile(dir + "/rows.jsonl", {"kind", "i"})).value(),
      3);
}

/// Whether any ring of `dump` holds an event named `name`.
bool HoldsEvent(const FlightDump& dump, const std::string& name) {
  for (const FlightDumpRing& ring : dump.rings) {
    for (const FlightEvent& event : ring.events) {
      if (static_cast<size_t>(event.name_id) < dump.names.size() &&
          dump.names[event.name_id] == name) {
        return true;
      }
    }
  }
  return false;
}

TEST(CrashDumpTest, SigkilledChildLeavesLastExportedFlightDump) {
  SetGlobalThreads(1);
  const std::string dir = TempSubdir("crash_kill");
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: run a periodic exporter and keep recording until killed. The
    // exporter replaces flight.fmfr atomically every 20 ms, so whatever
    // tick completed last must survive SIGKILL intact.
    FlightRecorder::SetEnabled(true);
    StatusOr<std::unique_ptr<MetricsExporter>> exporter =
        MetricsExporter::Start({.dir = dir, .period_ms = 20});
    if (!exporter.ok()) _exit(10);
    static const SpanSite& site = LatencyRegistry::Get("child.loop");
    for (int i = 0; i < 100000; ++i) {
      FM_FLIGHT_EVENT("child.tick", i, 0);
      site.Record(1000 + i);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    _exit(0);  // parent kills us long before this
  }
  // Kill only once an exporter tick has written flight.fmfr, the last file
  // of a tick, holding the child's ticks: under a loaded parallel ctest run
  // the first tick can come later than any fixed delay allows.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  bool dumped = false;
  while (!dumped && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const StatusOr<FlightDump> early =
        ReadFlightDumpFile(dir + "/flight.fmfr");
    dumped = early.ok() && HoldsEvent(*early, "child.tick");
  }
  kill(pid, SIGKILL);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);
  ASSERT_TRUE(dumped) << "the child's exporter wrote no flight.fmfr holding "
                         "child.tick within 60 s";

  const StatusOr<FlightDump> dump = ReadFlightDumpFile(dir + "/flight.fmfr");
  ASSERT_TRUE(dump.ok()) << dump.status().ToString();
  const bool ticks_seen = HoldsEvent(*dump, "child.tick");
  EXPECT_TRUE(ticks_seen);
  const std::string trace = FlightDumpToChromeTrace(*dump);
  EXPECT_TRUE(ValidateChromeTrace(trace).ok());

  // export.json was replaced atomically too: whole, schema-tagged, fresh.
  std::ifstream in(dir + "/export.json");
  ASSERT_TRUE(in.good());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const StatusOr<JsonValue> root = ParseJson(text);
  ASSERT_TRUE(root.ok()) << root.status().ToString();
  EXPECT_EQ(root->StringOr("schema", ""), "fairmove.export.v1");
  EXPECT_GE(root->NumberOr("freshness_seq", 0.0), 1.0);

  // windows.jsonl may end in one torn line (the kill can land mid-write);
  // every complete line must parse with monotonic per-recorder epoch ids.
  std::ifstream windows(dir + "/windows.jsonl");
  ASSERT_TRUE(windows.good());
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(windows, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  ASSERT_FALSE(lines.empty());
  std::vector<std::pair<std::string, int64_t>> last_epoch;
  for (size_t i = 0; i < lines.size(); ++i) {
    const StatusOr<JsonValue> row = ParseJson(lines[i]);
    if (!row.ok()) {
      EXPECT_EQ(i, lines.size() - 1) << "only the final line may be torn";
      continue;
    }
    const std::string name = row->StringOr("name", "");
    const int64_t epoch =
        static_cast<int64_t>(row->NumberOr("epoch_id", -1.0));
    bool seen = false;
    for (auto& entry : last_epoch) {
      if (entry.first == name) {
        EXPECT_GT(epoch, entry.second);
        entry.second = epoch;
        seen = true;
      }
    }
    if (!seen) last_epoch.emplace_back(name, epoch);
  }
}

}  // namespace
}  // namespace fairmove
