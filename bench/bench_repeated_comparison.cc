// Robustness harness (paper §IV-A: "all the experiments are repeated 10
// times"): repeats the full six-method comparison across independently
// seeded cities / demand realisations / policy initialisations and reports
// mean ± std of every headline metric. FAIRMOVE_REPEATS overrides the
// repeat count (default sized for a single core).
//
// One engine, two configs (core/racing.h):
//   (default)  the fixed grid: a race with min_replicas == max_replicas ==
//       FAIRMOVE_REPEATS, so every method runs every repeat in one round.
//       The table is byte-identical to the pre-racing harness (pinned by
//       racing_test).
//   --racing   best-arm identification with early stopping: methods whose
//       confidence interval falls below a rival's stop consuming replicas;
//       the per-arm budget defaults to the paper's 10 repeats
//       (FAIRMOVE_REPEATS / --max-replicas override).
// `--json=<path>` emits wall-clock, cells/s and per-cell replica spend as
// machine-readable JSON (schema "fairmove.racing.v1") in either mode.

#include <chrono>
#include <cstdio>

#include "bench_common.h"
#include "fairmove/common/parallel.h"
#include "fairmove/core/racing.h"

int main(int argc, char** argv) {
  using namespace fairmove;
  // The race replaces the paper's 10-repeat grid, so its per-arm budget
  // defaults to 10 (not the fixed mode's single-core default of 2).
  bench::RacingArgs args = bench::ParseRacingArgs(argc, argv, 10);
  RacingConfig& racing = args.config;
  bench::BenchSetup setup = bench::MakeSetup(0.06, 10, 1);
  std::string title;
  if (args.racing) {
    racing.max_replicas = bench::RepeatsFromEnv(racing.max_replicas);
    if (Status s = racing.Validate(); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    title = "racing, per-arm budget " + std::to_string(racing.max_replicas);
  } else {
    // The fixed grid: one round in which every method runs every repeat.
    racing.min_replicas = racing.max_replicas = bench::RepeatsFromEnv(2);
    title = "mean ± std over " + std::to_string(racing.max_replicas) +
            " seeds";
  }
  bench::PrintHeader("repeated six-method comparison (" + title + ")", setup);

  const auto t0 = std::chrono::steady_clock::now();
  auto raced_or =
      RunRacingComparison(setup.config, FairMoveSystem::AllMethods(), racing);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (!raced_or.ok()) {
    std::fprintf(stderr, "%s\n", raced_or.status().ToString().c_str());
    return 1;
  }
  const RacingOutcome& outcome = raced_or->outcome;
  std::printf("%s\n", raced_or->aggregate.ToTable().ToAlignedText().c_str());
  if (args.racing) {
    std::printf("%s\n",
                outcome.ToTable(racing.bound, racing.delta)
                    .ToAlignedText()
                    .c_str());
  }
  // A "cell" is one (method, replica) unit of the execution grid, GT
  // baselines included — the granularity the thread pool schedules.
  std::printf("threads %d | wall %.2fs | %.3f cells/s (%lld cells)\n",
              GlobalPool().num_threads(), secs,
              static_cast<double>(outcome.replicas_spent) / secs,
              static_cast<long long>(outcome.replicas_spent));
  if (args.racing) {
    std::printf("racing: %lld of %lld replica budget spent (%.2fx saving) | "
                "%d rounds | best arm %s | bound %s delta %g\n",
                static_cast<long long>(outcome.replicas_spent),
                static_cast<long long>(outcome.fixed_budget),
                outcome.SavingsFactor(), outcome.rounds,
                outcome.best_arm >= 0
                    ? outcome.cells[static_cast<size_t>(outcome.best_arm)]
                          .name.c_str()
                    : "?",
                CiBoundName(racing.bound), racing.delta);
    EmitRacingTelemetry("repeated_comparison", racing, outcome);
  } else {
    std::printf("paper protocol: 10 repeats; raise FAIRMOVE_REPEATS for "
                "tighter intervals.\n");
  }
  if (!args.json_path.empty()) {
    if (Status s = WriteRacingJson(args.json_path, "repeated_comparison",
                                   args.racing ? "racing" : "fixed-replicas",
                                   racing, outcome, secs);
        !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("json written to %s\n", args.json_path.c_str());
  }
  return 0;
}
