#include "bench_common.h"

#include <cstdio>
#include <cstdlib>

#include "fairmove/common/flags.h"
#include "fairmove/common/parallel.h"
#include "fairmove/obs/jsonl.h"
#include "fairmove/obs/span.h"
#include "fairmove/obs/telemetry.h"

namespace fairmove::bench {

namespace {

/// Run-end hook shared by every bench: flush the run manifest + registry
/// snapshot + a final pool-health row (telemetry), and print the span tree
/// (profiling). Registered once from PrintHeader via atexit so even benches
/// that exit through std::exit produce complete artefacts.
void FinalizeObservability() {
  Telemetry& telemetry = Telemetry::Get();
  if (telemetry.enabled()) {
    const PoolStats stats = GlobalPool().stats();
    JsonObject row;
    row.Set("kind", "pool")
        .Set("threads", GlobalPool().num_threads())
        .Set("regions", stats.regions)
        .Set("tasks", stats.tasks)
        .Set("queue_wait_ns_total", stats.queue_wait_ns_total)
        .Set("queue_wait_ns_max", stats.queue_wait_ns_max);
    telemetry.pool_stream().Write(row);
    telemetry.Finalize();
  }
  if (Profiler::enabled()) {
    const std::string tree = Profiler::ReportText();
    if (!tree.empty()) std::fputs(tree.c_str(), stdout);
  }
}

void RegisterFinalizerOnce() {
  static const bool registered = [] {
    std::atexit(FinalizeObservability);
    return true;
  }();
  (void)registered;
}

}  // namespace

BenchSetup MakeSetup(double default_scale, int default_episodes,
                     int default_days) {
  BenchSetup setup;
  setup.env.scale = default_scale;
  setup.env.episodes = default_episodes;
  setup.env.days = default_days;
  if (Status s = setup.env.LoadFromEnv(); !s.ok()) {
    std::fprintf(stderr, "bad FAIRMOVE_* environment: %s\n",
                 s.ToString().c_str());
    std::exit(1);
  }
  setup.config = FairMoveConfig::FullShenzhen().Scaled(setup.env.scale);
  setup.config.trainer.episodes = setup.env.episodes;
  setup.config.eval.days = setup.env.days;
  if (setup.env.seed != 0) {
    setup.config.sim.seed = setup.env.seed;
    setup.config.trainer.seed_base = 9000 + setup.env.seed * 1000;
    setup.config.eval.seed = 424242 + setup.env.seed;
  }
  return setup;
}

int RepeatsFromEnv(int fallback) {
  const char* v = std::getenv("FAIRMOVE_REPEATS");
  if (v == nullptr) return fallback;
  auto parsed = ParseInt(v);
  if (!parsed.ok() || *parsed <= 0) {
    std::fprintf(stderr, "bad FAIRMOVE_REPEATS\n");
    std::exit(1);
  }
  return static_cast<int>(*parsed);
}

std::unique_ptr<FairMoveSystem> BuildSystem(const FairMoveConfig& config) {
  auto system_or = FairMoveSystem::Create(config);
  if (!system_or.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 system_or.status().ToString().c_str());
    std::exit(1);
  }
  std::unique_ptr<FairMoveSystem> system = std::move(system_or).value();
  // Only the bench's main simulator feeds sim.jsonl; the evaluator's
  // replica sims stay silent so the stream is one coherent series.
  system->sim().SetTelemetryLabel("main");
  return system;
}

void RunGroundTruthTrace(FairMoveSystem& system, int days) {
  auto policy = MakePolicy(PolicyKind::kGroundTruth, system.sim(), 7000);
  system.sim().Reset();
  system.sim().RunDays(policy.get(), days);
}

std::vector<MethodResult> RunSixMethodComparison(FairMoveSystem& system) {
  std::printf("training %d episodes per learned method, evaluating %d "
              "day(s) on a shared demand realisation...\n\n",
              system.config().trainer.episodes, system.config().eval.days);
  std::vector<MethodResult> results =
      system.RunComparison(FairMoveSystem::AllMethods());
  Telemetry& telemetry = Telemetry::Get();
  if (telemetry.enabled()) {
    JsonArray digests;
    for (const MethodResult& r : results) {
      JsonObject digest;
      digest.Set("name", r.name);
      AppendFleetMetricsJson(r.metrics, &digest);
      digests.PushRaw(digest.Str());
    }
    telemetry.manifest().AddExtra("results", digests.Str());
  }
  return results;
}

void PrintHeader(const std::string& artefact, const BenchSetup& setup) {
  std::printf("=== FairMove reproduction: %s ===\n", artefact.c_str());
  std::printf("config: scale %.3f -> %d regions / %d stations / %d taxis | "
              "seed %llu | threads %d\n",
              setup.env.scale, setup.config.city.num_regions,
              setup.config.city.num_stations, setup.config.sim.num_taxis,
              static_cast<unsigned long long>(setup.config.sim.seed),
              GlobalPool().num_threads());
  RegisterFinalizerOnce();
  Telemetry& telemetry = Telemetry::Get();
  if (telemetry.enabled()) {
    RunManifest& manifest = telemetry.manifest();
    manifest.run_name = artefact;
    manifest.seed = setup.config.sim.seed;
    manifest.scale = setup.env.scale;
    manifest.episodes = setup.config.trainer.episodes;
    manifest.days = setup.config.eval.days;
    JsonObject city;
    city.Set("num_regions", setup.config.city.num_regions)
        .Set("num_stations", setup.config.city.num_stations)
        .Set("num_taxis", setup.config.sim.num_taxis);
    manifest.AddExtra("city", city.Str());
  }
}

namespace {

/// Applies the racing knob flags onto `config` (leaving unset knobs at
/// their incoming values) and validates the result.
Status ApplyRacingFlags(const Flags& flags, RacingConfig* config) {
  auto delta = flags.GetDouble("delta", config->delta);
  if (!delta.ok()) return delta.status();
  config->delta = *delta;
  if (flags.Has("bound")) {
    auto bound = ParseCiBound(flags.GetString("bound"));
    if (!bound.ok()) return bound.status();
    config->bound = *bound;
  }
  auto min_replicas = flags.GetInt("min-replicas", config->min_replicas);
  if (!min_replicas.ok()) return min_replicas.status();
  config->min_replicas = static_cast<int>(*min_replicas);
  auto batch = flags.GetInt("batch", config->batch);
  if (!batch.ok()) return batch.status();
  config->batch = static_cast<int>(*batch);
  auto max_replicas = flags.GetInt("max-replicas", config->max_replicas);
  if (!max_replicas.ok()) return max_replicas.status();
  config->max_replicas = static_cast<int>(*max_replicas);
  auto reuse = flags.GetBool("reuse-freed-budget", config->reuse_freed_budget);
  if (!reuse.ok()) return reuse.status();
  config->reuse_freed_budget = *reuse;
  return config->Validate();
}

}  // namespace

RacingArgs ParseRacingArgs(int argc, char** argv, int default_max_replicas) {
  auto flags_or = Flags::Parse(argc, argv,
                               {"racing", "delta", "bound", "min-replicas",
                                "batch", "max-replicas", "reuse-freed-budget",
                                "json"});
  if (!flags_or.ok()) {
    std::fprintf(stderr,
                 "%s\nusage: %s [--racing] [--json=<path>] [--delta=D] "
                 "[--bound=gaussian|hoeffding|bernstein] [--min-replicas=N] "
                 "[--batch=N] [--max-replicas=N] [--reuse-freed-budget=0|1]\n",
                 flags_or.status().ToString().c_str(), argv[0]);
    std::exit(1);
  }
  const Flags flags = std::move(flags_or).value();
  RacingArgs args;
  args.config.max_replicas = default_max_replicas;
  Status status = ApplyRacingFlags(flags, &args.config);
  auto racing = flags.GetBool("racing", false);
  if (status.ok() && !racing.ok()) status = racing.status();
  args.json_path = flags.GetString("json");
  if (status.ok() && flags.Has("json") && args.json_path.empty()) {
    status = Status::InvalidArgument("--json needs a path (--json=<path>)");
  }
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    std::exit(1);
  }
  args.racing = *racing;
  return args;
}

}  // namespace fairmove::bench
