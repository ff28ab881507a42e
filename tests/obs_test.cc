// Observability layer: JSON building/validation, the counters registry
// (including its thread-count invariance under the thread pool), scoped
// profiling spans, the telemetry hub, and — the load-bearing guarantee —
// that enabling telemetry changes no simulation output byte.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "fairmove/common/parallel.h"
#include "fairmove/core/fairmove.h"
#include "fairmove/core/metrics.h"
#include "fairmove/obs/json_parse.h"
#include "fairmove/obs/jsonl.h"
#include "fairmove/obs/latency.h"
#include "fairmove/obs/manifest.h"
#include "fairmove/obs/metrics.h"
#include "fairmove/obs/span.h"
#include "fairmove/obs/telemetry.h"

namespace fairmove {
namespace {

std::string TempSubdir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "fairmove_obs_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// ------------------------------------------------------------------ JSON --

TEST(JsonTest, EscapeHandlesQuotesBackslashesAndControls) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(JsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(JsonTest, NumberRoundTripsAndMapsNonFiniteToNull) {
  EXPECT_EQ(JsonNumber(0.0), "0");
  EXPECT_EQ(JsonNumber(1.0 / 0.0), "null");
  EXPECT_EQ(JsonNumber(0.0 / 0.0), "null");
  // %.17g must reproduce the classic non-representable decimal exactly.
  EXPECT_EQ(std::stod(JsonNumber(0.1)), 0.1);
}

TEST(JsonTest, ObjectAndArrayRenderValidJson) {
  JsonObject obj;
  obj.Set("s", "x\"y").Set("d", 2.5).Set("i", int64_t{-3}).Set("b", true);
  JsonArray arr;
  arr.Push(1.0).Push(int64_t{2}).PushRaw(obj.Str());
  JsonObject root;
  root.SetRaw("items", arr.Str());
  EXPECT_TRUE(ParseJson(root.Str()).ok()) << root.Str();
  const auto keys = std::move(JsonObjectKeys(obj.Str())).value();
  EXPECT_EQ(keys, (std::vector<std::string>{"s", "d", "i", "b"}));
  // Keys come back unescaped, so a required-key check sees the real name.
  const auto escaped = std::move(JsonObjectKeys(
      "{\"a\\\"b\":1,\"tab\\tkey\":2,\"\\u0041x\":3}")).value();
  EXPECT_EQ(escaped, (std::vector<std::string>{"a\"b", "tab\tkey", "Ax"}));
}

// JsonObjectKeys is the artefact validator behind obs_check and
// ValidateJsonlFile: malformed documents and non-objects fail it.
TEST(JsonTest, ValidatorRejectsMalformedDocuments) {
  EXPECT_TRUE(JsonObjectKeys("{\"a\":[1,2,{\"b\":null}]}").ok());
  EXPECT_FALSE(JsonObjectKeys("").ok());
  EXPECT_FALSE(JsonObjectKeys("{\"a\":1,}").ok());
  EXPECT_FALSE(JsonObjectKeys("{\"a\" 1}").ok());
  EXPECT_FALSE(JsonObjectKeys("{\"a\":1} trailing").ok());
  EXPECT_FALSE(JsonObjectKeys("{'a':1}").ok());
  EXPECT_FALSE(JsonObjectKeys("  42  ").ok());
  EXPECT_FALSE(JsonObjectKeys("[1,2]").ok());
}

TEST(JsonParseTest, ParsesBuilderOutputBackToTheSameValues) {
  // The DOM parser and the builders must round-trip: what JsonObject/
  // JsonArray emit, ParseJson reads back value-for-value (this is the
  // contract the perf gate's document diffing stands on).
  JsonObject obj;
  obj.Set("name", "BM_X/5").Set("cpu", 123.25).Set("iters", int64_t{1000});
  obj.Set("flag", true).SetRaw("tags", JsonArray().Push(1.0).Push(2.0).Str());
  const JsonValue doc = std::move(ParseJson(obj.Str())).value();
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.StringOr("name", ""), "BM_X/5");
  EXPECT_DOUBLE_EQ(doc.NumberOr("cpu", -1.0), 123.25);
  EXPECT_DOUBLE_EQ(doc.NumberOr("iters", -1.0), 1000.0);
  ASSERT_NE(doc.Find("flag"), nullptr);
  EXPECT_TRUE(doc.Find("flag")->bool_value);
  const JsonValue* tags = doc.Find("tags");
  ASSERT_NE(tags, nullptr);
  ASSERT_TRUE(tags->is_array());
  ASSERT_EQ(tags->items.size(), 2u);
  EXPECT_DOUBLE_EQ(tags->items[1].number_value, 2.0);
  // %.17g doubles survive the full write -> parse cycle bit-exactly.
  EXPECT_EQ(std::move(ParseJson(JsonNumber(0.1))).value().number_value, 0.1);
}

TEST(JsonParseTest, HandlesEscapesNullsAndMemberOrder) {
  const JsonValue doc =
      std::move(ParseJson("{\"a\\n\\\"b\":null,\"u\":\"\\u0041\","
                          "\"z\":1,\"a\\n\\\"b\":2}"))
          .value();
  ASSERT_TRUE(doc.is_object());
  ASSERT_EQ(doc.members.size(), 4u);
  EXPECT_EQ(doc.members[0].first, "a\n\"b");
  EXPECT_TRUE(doc.members[0].second.is_null());
  EXPECT_EQ(doc.StringOr("u", ""), "A");
  // Find returns the FIRST member with the key (document order).
  EXPECT_TRUE(doc.Find("a\n\"b")->is_null());
}

TEST(JsonParseTest, RejectsWhatTheValidatorRejects) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{\"a\":1,}").ok());
  EXPECT_FALSE(ParseJson("{\"a\" 1}").ok());
  EXPECT_FALSE(ParseJson("[1,2").ok());
  EXPECT_FALSE(ParseJson("{\"a\":1} trailing").ok());
  EXPECT_FALSE(ParseJson("{'a':1}").ok());
  EXPECT_FALSE(ParseJson("nul").ok());
  EXPECT_FALSE(ParseJson("01").ok());
  EXPECT_FALSE(ParseJson("1.").ok());
  EXPECT_FALSE(ParseJson("\"\\x\"").ok());
  EXPECT_FALSE(ParseJson("-").ok());
  EXPECT_FALSE(ParseJson("1e+").ok());
  EXPECT_FALSE(ParseJson("tru").ok());
  EXPECT_FALSE(ParseJson("\"\\u00g0\"").ok());
  EXPECT_FALSE(ParseJson("\"a\tb\"").ok());  // raw control character
  // Hostile nesting is rejected, not recursed into the stack guard; 65
  // nested arrays reach depth 64, the deepest value accepted.
  EXPECT_FALSE(ParseJson(std::string(100, '[')).ok());
  EXPECT_TRUE(ParseJson(std::string(65, '[') + std::string(65, ']')).ok());
  EXPECT_FALSE(ParseJson(std::string(66, '[') + std::string(66, ']')).ok());
  EXPECT_TRUE(ParseJson("  42  ").ok());
}

TEST(JsonTest, JsonlWriterRoundTripsThroughValidator) {
  const std::string dir = TempSubdir("jsonl");
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/rows.jsonl";
  JsonlWriter writer;
  ASSERT_TRUE(writer.Open(path).ok());
  for (int i = 0; i < 3; ++i) {
    JsonObject row;
    row.Set("kind", "t").Set("i", i);
    writer.Write(row);
  }
  EXPECT_EQ(writer.rows_written(), 3);
  writer.Close();
  EXPECT_EQ(std::move(ValidateJsonlFile(path, {"kind", "i"})).value(), 3);
  // A required key that rows lack must fail validation.
  EXPECT_FALSE(ValidateJsonlFile(path, {"kind", "missing"}).ok());
  EXPECT_FALSE(ValidateJsonlFile(dir + "/nope.jsonl", {}).ok());
}

// -------------------------------------------------------------- Registry --

TEST(MetricsRegistryTest, CountersGaugesHistogramsSnapshotAndJson) {
  MetricsRegistry registry;
  registry.Count("events");
  registry.Count("events", 4);
  EXPECT_EQ(registry.Counters().at("events"), 5);
  // Byte-pinned: metrics.json and export.json's `metrics` object keep the
  // empty gauge and histogram objects that obs_check requires.
  EXPECT_EQ(registry.ToJson(),
            "{\"counters\":{\"events\":5},\"gauges\":{},\"histograms\":{}}");

  registry.Reset();
  EXPECT_TRUE(registry.Counters().empty());
}

// Counts issued concurrently from every task of a ParallelFor produce
// byte-identical registry JSON at any thread count: the registry mutex
// serialises them, and integer sums do not depend on their order.
TEST(MetricsRegistryTest, ShardedParallelForIsThreadCountInvariant) {
  constexpr int64_t kTasks = 64;
  auto run = [](int threads) {
    SetGlobalThreads(threads);
    MetricsRegistry registry;
    GlobalPool().ParallelFor(kTasks, [&](int64_t i) {
      registry.Count("work/tasks");
      registry.Count("work/units", i);
    });
    return registry.ToJson();
  };
  const std::string serial = run(1);
  const std::string four = run(4);
  const std::string three = run(3);
  SetGlobalThreads(1);
  EXPECT_EQ(serial, four);
  EXPECT_EQ(serial, three);
  EXPECT_EQ(serial,
            "{\"counters\":{\"work/tasks\":64,\"work/units\":2016},"
            "\"gauges\":{},\"histograms\":{}}");
}

TEST(PoolStatsTest, CountersMoveOnlyOnParallelBranch) {
  SetGlobalThreads(1);
  const PoolStats before = GlobalPool().stats();
  GlobalPool().ParallelFor(8, [](int64_t) {});
  const PoolStats serial = GlobalPool().stats();
  // One lane: the region is not shared, so no counter moves.
  EXPECT_EQ(serial.regions, before.regions);
  EXPECT_EQ(serial.tasks, before.tasks);

  SetGlobalThreads(2);
  GlobalPool().ParallelFor(8, [](int64_t) {});
  const PoolStats parallel = GlobalPool().stats();
  EXPECT_EQ(parallel.regions, 1);
  EXPECT_EQ(parallel.tasks, 8);
  // Queue-wait timing is gated off by default.
  EXPECT_EQ(parallel.queue_wait_ns_total, 0);
  ThreadPool::SetTimingEnabled(true);
  GlobalPool().ParallelFor(8, [](int64_t) {});
  ThreadPool::SetTimingEnabled(false);
  SetGlobalThreads(1);
}

// ----------------------------------------------------------------- Spans --

TEST(SpanTest, NestedSpansBuildAHierarchicalTree) {
  Profiler::SetEnabled(true);
  Profiler::Reset();
  for (int i = 0; i < 3; ++i) {
    FM_SPAN("outer");
    {
      FM_SPAN("inner");
    }
    {
      FM_SPAN("inner");
    }
  }
  Profiler::SetEnabled(false);

  const std::string text = Profiler::ReportText();
  EXPECT_NE(text.find("outer"), std::string::npos);
  EXPECT_NE(text.find("inner"), std::string::npos);
  EXPECT_NE(text.find("count=6"), std::string::npos);  // inner: 2 per loop

  const std::string json = Profiler::ReportJson();
  EXPECT_TRUE(ParseJson(json).ok()) << json;
  EXPECT_NE(json.find("\"name\":\"outer\""), std::string::npos);

  Profiler::Reset();
  EXPECT_EQ(Profiler::ReportText(), "");
}

// The trainer is the only caller of Learn, so its span attributes every
// learning policy's update time: a TQL training episode must show a
// train/learn node under train/episode.
TEST(SpanTest, TrainingEpisodeNestsLearnUnderEpisode) {
  FairMoveConfig cfg = FairMoveConfig::FullShenzhen().Scaled(0.04);
  cfg.trainer.episodes = 1;
  cfg.trainer.slots_per_episode = 12;
  auto system = std::move(FairMoveSystem::Create(cfg)).value();
  auto policy = MakePolicy(PolicyKind::kTql, system->sim(), 5);
  Trainer trainer = system->MakeTrainer();
  Profiler::SetEnabled(true);
  Profiler::Reset();
  trainer.Train(policy.get());
  Profiler::SetEnabled(false);
  const std::string json = Profiler::ReportJson();
  Profiler::Reset();

  StatusOr<JsonValue> doc = ParseJson(json);
  ASSERT_TRUE(doc.ok()) << json;
  const JsonValue* roots = doc.value().Find("spans");
  ASSERT_NE(roots, nullptr) << json;
  const auto child = [](const JsonValue* spans, const std::string& name) {
    const JsonValue* found = nullptr;
    if (spans == nullptr) return found;
    for (const JsonValue& node : spans->items) {
      if (node.StringOr("name", "") == name) found = &node;
    }
    return found;
  };
  const JsonValue* episode = child(roots, "train/episode");
  ASSERT_NE(episode, nullptr) << json;
  const JsonValue* learn = child(episode->Find("children"), "train/learn");
  ASSERT_NE(learn, nullptr) << json;
  EXPECT_GE(learn->NumberOr("count", 0.0), 1.0) << json;
}

/// Span counts of a ReportJson "spans" array, summed per name.
void SumCounts(const JsonValue& spans, std::map<std::string, int64_t>* out) {
  for (const JsonValue& node : spans.items) {
    (*out)[node.StringOr("name", "")] +=
        static_cast<int64_t>(node.NumberOr("count", 0.0));
    if (const JsonValue* kids = node.Find("children"); kids != nullptr) {
      SumCounts(*kids, out);
    }
  }
}

/// Every site's Cumulative(), by name.
std::map<std::string, LogHistogram::Snapshot> Cumulatives() {
  std::map<std::string, LogHistogram::Snapshot> out;
  for (const SpanSite* site : LatencyRegistry::All()) {
    out[site->name()] = site->Cumulative();
  }
  return out;
}

// The report and the per-name series are views of one table. After a
// Reset, a TQL training episode on this thread and an evaluator fan-out
// whose cells train and step on pool workers (which then exit), the report
// counts of each site add up to exactly what its Cumulative() gained.
// Spans record whatever the profiler flag says, and Reset moves no
// Cumulative().
TEST(SpanTest, ReportAndCumulativeAreViewsOfOneTable) {
  const int threads_before = GlobalPool().num_threads();
  SetGlobalThreads(4);
  ThreadPool::SetTimingEnabled(false);  // no pool.queue_wait samples
  Profiler::SetEnabled(false);
  FairMoveConfig cfg = FairMoveConfig::FullShenzhen().Scaled(0.03);
  cfg.trainer.episodes = 1;
  cfg.trainer.slots_per_episode = 12;
  cfg.eval.days = 1;
  auto system = std::move(FairMoveSystem::Create(cfg)).value();

  const std::map<std::string, LogHistogram::Snapshot> before = Cumulatives();
  Profiler::Reset();
  std::map<std::string, LogHistogram::Snapshot> base = Cumulatives();
  for (const auto& [name, snap] : before) {
    const LogHistogram::Snapshot& now = base[name];
    EXPECT_EQ(now.count, snap.count) << name;
    EXPECT_EQ(now.sum, snap.sum) << name;
    EXPECT_EQ(now.max, snap.max) << name;
    EXPECT_EQ(now.buckets, snap.buckets) << name;
  }

  { FM_SPAN("span/profiler_off"); }
  {
    // A reader walks every table while the caller and the workers write
    // theirs (the TSan pass runs this).
    std::atomic<bool> done{false};
    std::thread reader([&done] {
      while (!done.load()) {
        (void)Profiler::ReportJson();
        (void)LatencyRegistry::Get("sim.step").Cumulative();
      }
    });
    ScopedForkThresholdForTesting fork_every_phase(0);
    auto policy = MakePolicy(PolicyKind::kTql, system->sim(), 5);
    Trainer trainer = system->MakeTrainer();
    trainer.Train(policy.get());
    system->RunComparison(
        {PolicyKind::kGroundTruth, PolicyKind::kSd2, PolicyKind::kTql});
    done.store(true);
    reader.join();
  }
  SetGlobalThreads(threads_before);

  const StatusOr<JsonValue> doc = ParseJson(Profiler::ReportJson());
  ASSERT_TRUE(doc.ok());
  ASSERT_NE(doc->Find("spans"), nullptr);
  std::map<std::string, int64_t> reported;
  SumCounts(*doc->Find("spans"), &reported);
  EXPECT_EQ(reported["span/profiler_off"], 1);
  EXPECT_GT(reported["evaluator/method"], 0);
  EXPECT_GT(reported["train/learn"], 0);
  for (const auto& [name, now] : Cumulatives()) {
    EXPECT_EQ(reported[name], now.count - base[name].count) << name;
  }
}

// ------------------------------------------------------ Manifest & hub ----

TEST(ManifestTest, RendersSchemaFieldsAndExtras) {
  RunManifest manifest;
  manifest.run_name = "unit";
  manifest.seed = 7;
  manifest.AddExtra("custom", "{\"a\":1}");
  const std::string json = manifest.ToJson();
  ASSERT_TRUE(ParseJson(json).ok()) << json;
  const auto keys = std::move(JsonObjectKeys(json)).value();
  EXPECT_EQ(keys.front(), "schema");
  EXPECT_NE(std::find(keys.begin(), keys.end(), "custom"), keys.end());
}

TEST(TelemetryTest, DisabledByDefaultWithoutEnv) {
  // The suite never sets FAIRMOVE_TELEMETRY, so the singleton must be off.
  EXPECT_FALSE(Telemetry::Get().enabled());
}

TEST(TelemetryTest, EnableWriteFinalizeProducesValidArtefacts) {
  const std::string dir = TempSubdir("hub");
  Telemetry& telemetry = Telemetry::Get();
  ASSERT_TRUE(telemetry.EnableForTesting(dir).ok());
  EXPECT_TRUE(telemetry.enabled());

  JsonObject row;
  row.Set("kind", "episode").Set("phase", "train").Set("method", "X");
  telemetry.training_stream().Write(row);
  telemetry.manifest().run_name = "unit-test";
  telemetry.Finalize();
  telemetry.DisableForTesting();
  EXPECT_FALSE(telemetry.enabled());

  EXPECT_EQ(std::move(ValidateJsonlFile(dir + "/training.jsonl",
                                        {"kind", "phase", "method"}))
                .value(),
            1);
  std::ifstream manifest_in(dir + "/manifest.json");
  ASSERT_TRUE(manifest_in.good());
  std::string manifest_json((std::istreambuf_iterator<char>(manifest_in)),
                            std::istreambuf_iterator<char>());
  ASSERT_TRUE(ParseJson(manifest_json).ok());
  const auto keys = std::move(JsonObjectKeys(manifest_json)).value();
  for (const char* required :
       {"schema", "run_name", "started_utc", "finished_utc", "seed",
        "threads", "build_type", "compiler"}) {
    EXPECT_NE(std::find(keys.begin(), keys.end(), required), keys.end())
        << "manifest missing " << required;
  }
  std::ifstream metrics_in(dir + "/metrics.json");
  ASSERT_TRUE(metrics_in.good());
  std::string metrics_json((std::istreambuf_iterator<char>(metrics_in)),
                           std::istreambuf_iterator<char>());
  EXPECT_TRUE(ParseJson(metrics_json).ok());
}

// --------------------------------------------- telemetry ⊥ simulation -----

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

std::string RunTinySim(bool telemetry_on, int threads,
                       const std::string& dir) {
  SetGlobalThreads(threads);
  // The city is below the pool's cost rule; lowering it keeps the shards'
  // telemetry on pool workers.
  ScopedForkThresholdForTesting fork_every_phase(0);
  Telemetry& telemetry = Telemetry::Get();
  if (telemetry_on) {
    EXPECT_TRUE(telemetry.EnableForTesting(dir).ok());
  } else {
    telemetry.DisableForTesting();
  }
  FairMoveConfig cfg = FairMoveConfig::FullShenzhen().Scaled(0.04);
  auto system = std::move(FairMoveSystem::Create(cfg)).value();
  if (telemetry_on) system->sim().SetTelemetryLabel("main");
  auto policy = MakePolicy(PolicyKind::kGroundTruth, system->sim(), 7000);
  system->sim().Reset();
  system->sim().RunDays(policy.get(), 1);
  const std::string digest = FleetDigest(ComputeFleetMetrics(system->sim()));
  if (telemetry_on) {
    telemetry.Finalize();
    telemetry.DisableForTesting();
  }
  SetGlobalThreads(1);
  return digest;
}

// The acceptance bar of the observability layer: flipping telemetry on must
// not change one byte of simulation output, at any thread count, while
// still producing a parseable sim stream and manifest.
TEST(TelemetryInvarianceTest, OnOffProducesByteIdenticalFleetMetrics) {
  const std::string dir = TempSubdir("invariance");
  const std::string off_1 = RunTinySim(false, 1, "");
  const std::string on_1 = RunTinySim(true, 1, dir);
  EXPECT_EQ(off_1, on_1);

  const std::string dir4 = TempSubdir("invariance4");
  const std::string off_4 = RunTinySim(false, 4, "");
  const std::string on_4 = RunTinySim(true, 4, dir4);
  EXPECT_EQ(off_4, on_4);
  EXPECT_EQ(off_1, off_4);

  // The telemetry run must have produced a coherent sim stream: one slot
  // row per simulated slot plus any fault rows, all self-labelled.
  const int64_t rows =
      std::move(ValidateJsonlFile(dir + "/sim.jsonl", {"kind", "run", "slot"}))
          .value();
  EXPECT_GT(rows, 0);
  std::ifstream manifest_in(dir + "/manifest.json");
  std::string manifest_json((std::istreambuf_iterator<char>(manifest_in)),
                            std::istreambuf_iterator<char>());
  EXPECT_TRUE(ParseJson(manifest_json).ok());
}

// Training emits one self-describing row per episode when telemetry is on.
TEST(TelemetryInvarianceTest, TrainerStreamsEpisodeRows) {
  const std::string dir = TempSubdir("trainer");
  Telemetry& telemetry = Telemetry::Get();
  ASSERT_TRUE(telemetry.EnableForTesting(dir).ok());

  FairMoveConfig cfg = FairMoveConfig::FullShenzhen().Scaled(0.04);
  cfg.trainer.episodes = 2;
  auto system = std::move(FairMoveSystem::Create(cfg)).value();
  auto policy = MakePolicy(PolicyKind::kFairMove, system->sim(), 5);
  Trainer trainer = system->MakeTrainer();
  trainer.Train(policy.get());
  telemetry.Finalize();
  telemetry.DisableForTesting();

  const int64_t rows = std::move(ValidateJsonlFile(
                                     dir + "/training.jsonl",
                                     {"kind", "phase", "method", "episode"}))
                           .value();
  EXPECT_EQ(rows, 2);
}

}  // namespace
}  // namespace fairmove
