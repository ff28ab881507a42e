#include "bench_common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

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

std::vector<std::string> RacingFlagNames() {
  return {"racing",       "delta", "bound",
          "min-replicas", "batch", "max-replicas",
          "reuse-freed-budget"};
}

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

RacingOutcome FixedGridOutcome(const RepeatedComparison& result,
                               const RacingConfig& config) {
  RacingOutcome outcome;
  outcome.rounds = 1;
  for (const RepeatedMethodResult& m : result.methods) {
    RacingCell cell;
    cell.name = m.name;
    cell.replicas = result.repeats;
    cell.reward = m.reward;
    cell.half_width = m.reward.CiHalfWidth(config.bound, config.delta);
    outcome.cells.push_back(std::move(cell));
    outcome.replicas_spent += result.repeats;
  }
  outcome.fixed_budget = outcome.replicas_spent;
  for (size_t i = 0; i < outcome.cells.size(); ++i) {
    if (outcome.best_arm < 0 ||
        outcome.cells[i].reward.mean() >
            outcome.cells[static_cast<size_t>(outcome.best_arm)]
                .reward.mean()) {
      outcome.best_arm = static_cast<int>(i);
    }
    outcome.order.push_back(static_cast<int>(i));
  }
  std::stable_sort(outcome.order.begin(), outcome.order.end(),
                   [&outcome](int a, int b) {
                     return outcome.cells[static_cast<size_t>(a)]
                                .reward.mean() >
                            outcome.cells[static_cast<size_t>(b)]
                                .reward.mean();
                   });
  return outcome;
}

}  // namespace fairmove::bench
