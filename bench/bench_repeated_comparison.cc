// Robustness harness (paper §IV-A: "all the experiments are repeated 10
// times"): repeats the full six-method comparison across independently
// seeded cities / demand realisations / policy initialisations and reports
// mean ± std of every headline metric. FAIRMOVE_REPEATS overrides the
// repeat count (default sized for a single core).
//
// Two execution modes:
//   (default)  the original fixed grid: every method runs the same
//       replica count. Output is byte-identical to the pre-racing harness
//       (pinned by racing_test).
//   --racing   best-arm identification with early stopping (core/racing.h):
//       methods whose confidence interval falls below a rival's stop
//       consuming replicas; the per-arm budget defaults to the paper's 10
//       repeats (FAIRMOVE_REPEATS / --max-replicas override).
// `--json=<path>` emits wall-clock, cells/s and per-cell replica spend as
// machine-readable JSON (schema "fairmove.racing.v1") in either mode.

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "bench_common.h"
#include "fairmove/common/parallel.h"
#include "fairmove/core/experiment.h"
#include "fairmove/core/racing.h"

namespace {

using namespace fairmove;

int ReplicaBudgetFromEnv(int fallback) {
  if (const char* v = std::getenv("FAIRMOVE_REPEATS")) {
    auto parsed = ParseInt(v);
    if (!parsed.ok() || *parsed <= 0) {
      std::fprintf(stderr, "bad FAIRMOVE_REPEATS\n");
      std::exit(1);
    }
    return static_cast<int>(*parsed);
  }
  return fallback;
}

int RunFixed(const bench::BenchSetup& setup, const RacingConfig& racing,
             const std::string& json_path) {
  const int repeats = ReplicaBudgetFromEnv(2);
  bench::PrintHeader("repeated six-method comparison (mean ± std over " +
                         std::to_string(repeats) + " seeds)",
                     setup);

  const std::vector<PolicyKind> kinds = FairMoveSystem::AllMethods();
  const auto t0 = std::chrono::steady_clock::now();
  auto result_or = RunRepeatedComparison(setup.config, kinds, repeats);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (!result_or.ok()) {
    std::fprintf(stderr, "%s\n", result_or.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", result_or->ToTable().ToAlignedText().c_str());
  // A "cell" is one (repeat, method) unit of the execution grid, GT
  // baselines included — the granularity the thread pool schedules.
  const double cells =
      static_cast<double>(repeats) * static_cast<double>(kinds.size());
  std::printf("threads %d | wall %.2fs | %.3f cells/s (%.0f cells)\n",
              GlobalPool().num_threads(), secs, cells / secs, cells);
  std::printf("paper protocol: 10 repeats; raise FAIRMOVE_REPEATS for "
              "tighter intervals.\n");
  if (!json_path.empty()) {
    const RacingOutcome outcome = bench::FixedGridOutcome(*result_or, racing);
    if (Status s = WriteRacingJson(json_path, "repeated_comparison",
                                   "fixed-replicas", racing, outcome, secs);
        !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("json written to %s\n", json_path.c_str());
  }
  return 0;
}

int RunRacing(const bench::BenchSetup& setup, RacingConfig racing,
              const std::string& json_path) {
  // The race replaces the paper's 10-repeat grid, so the per-arm budget
  // defaults to 10 (not the fixed mode's single-core default of 2).
  racing.max_replicas = ReplicaBudgetFromEnv(racing.max_replicas);
  if (Status s = racing.Validate(); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  bench::PrintHeader(
      "repeated six-method comparison (racing, per-arm budget " +
          std::to_string(racing.max_replicas) + ")",
      setup);

  const std::vector<PolicyKind> kinds = FairMoveSystem::AllMethods();
  const auto t0 = std::chrono::steady_clock::now();
  auto raced_or = RunRacingComparison(setup.config, kinds, racing);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (!raced_or.ok()) {
    std::fprintf(stderr, "%s\n", raced_or.status().ToString().c_str());
    return 1;
  }
  const RacedComparison& raced = *raced_or;
  const RacingOutcome& outcome = raced.outcome;
  std::printf("%s\n", raced.aggregate.ToTable().ToAlignedText().c_str());
  std::printf("%s\n",
              outcome.ToTable(racing.bound, racing.delta)
                  .ToAlignedText()
                  .c_str());
  std::printf("threads %d | wall %.2fs | %.3f cells/s (%lld cells)\n",
              GlobalPool().num_threads(), secs,
              static_cast<double>(outcome.replicas_spent) / secs,
              static_cast<long long>(outcome.replicas_spent));
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
  if (!json_path.empty()) {
    if (Status s = WriteRacingJson(json_path, "repeated_comparison",
                                   "racing", racing, outcome, secs);
        !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("json written to %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fairmove;
  std::vector<std::string> known = bench::RacingFlagNames();
  known.push_back("json");
  auto flags_or = Flags::Parse(argc, argv, known);
  if (!flags_or.ok()) {
    std::fprintf(stderr,
                 "%s\nusage: %s [--racing] [--json=<path>] [--delta=D] "
                 "[--bound=gaussian|hoeffding|bernstein] [--min-replicas=N] "
                 "[--batch=N] [--max-replicas=N] [--reuse-freed-budget=0|1]\n",
                 flags_or.status().ToString().c_str(), argv[0]);
    return 1;
  }
  const Flags flags = std::move(flags_or).value();
  RacingConfig racing;
  racing.max_replicas = 10;  // the paper's repeat count
  if (Status s = bench::ApplyRacingFlags(flags, &racing); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  const std::string json_path = flags.GetString("json");
  if (flags.Has("json") && json_path.empty()) {
    std::fprintf(stderr, "--json needs a path (--json=<path>)\n");
    return 1;
  }
  bench::BenchSetup setup = bench::MakeSetup(0.06, 10, 1);
  auto is_racing = flags.GetBool("racing", false);
  if (!is_racing.ok()) {
    std::fprintf(stderr, "%s\n", is_racing.status().ToString().c_str());
    return 1;
  }
  return *is_racing ? RunRacing(setup, racing, json_path)
                    : RunFixed(setup, racing, json_path);
}
