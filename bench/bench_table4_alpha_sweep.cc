// Table IV: average CMA2C reward under different weight factors
// alpha in {0, 0.2, 0.4, 0.6, 0.8, 1.0}. Paper: 6.95, 7.05, 7.16, 7.44,
// 7.39, 7.15 — a peak at alpha = 0.6-0.8 (pure fairness or pure
// efficiency are both worse than the tradeoff).
//
// Note on units and protocol: the paper does not define its reward scale,
// and an alpha-weighted objective evaluated under its own alpha is trivially
// monotone in alpha (the fairness penalty is non-negative). Each policy is
// therefore trained under its own alpha but *scored under the fixed
// reference objective* (alpha = 0.6, the paper's operating point), in our
// normalised Eq-5 units. The reproduction target is the *location of the
// peak* (an interior alpha), not the absolute values.
//
// Modes: the default single pass trains each alpha once (byte-identical to
// the pre-racing bench). `--racing` races the alphas as arms over
// independently seeded replicas (core/racing.h): clearly-dominated alphas
// stop early and the freed replica budget tightens the interval around the
// peak. `--json=<path>` emits machine-readable results in either mode; the
// single pass reports itself as a one-replica race.

#include <chrono>
#include <cstdio>

#include "bench_common.h"
#include "fairmove/common/csv.h"
#include "fairmove/common/parallel.h"
#include "fairmove/core/racing.h"
#include "fairmove/rl/cma2c_policy.h"

namespace {

using namespace fairmove;

constexpr double kReferenceAlpha = 0.6;
const std::vector<double>& Alphas() {
  static const std::vector<double> alphas = {0.0, 0.2, 0.4, 0.6, 0.8, 1.0};
  return alphas;
}

int RunFixed(const bench::BenchSetup& setup, const RacingConfig& racing,
             const std::string& json_path) {
  bench::PrintHeader("Table IV — average reward vs weight factor alpha",
                     setup);

  Table table({"alpha", "avg reward r (measured)", "avg reward r (paper)",
               "eval fleet PE", "eval PF"});
  const char* paper[] = {"6.95", "7.05", "7.16", "7.44", "7.39", "7.15"};
  double best_reward = -1e18, best_alpha = -1.0;
  int idx = 0;
  std::vector<std::string> arms;
  std::vector<double> rewards;  // one replica per arm, for --json
  const auto t0 = std::chrono::steady_clock::now();
  for (double alpha : Alphas()) {
    FairMoveConfig cfg = setup.config;
    cfg.trainer.reward.alpha = alpha;
    auto system = bench::BuildSystem(cfg);
    Cma2cPolicy::Options options;
    options.seed = 7055;
    Cma2cPolicy policy(system->sim(), options);
    Trainer trainer = system->MakeTrainer();
    trainer.Train(&policy);
    // Score the trained policy under the fixed reference objective.
    FairMoveConfig ref_cfg = cfg;
    ref_cfg.trainer.reward.alpha = kReferenceAlpha;
    Trainer reference(&system->sim(), ref_cfg.trainer);
    const auto eval = reference.RunEvaluationEpisode(
        &policy, cfg.eval.seed,
        static_cast<int64_t>(cfg.eval.days) * kSlotsPerDay);
    table.Row()
        .Num(alpha, 1)
        .Num(eval.avg_reward, 3)
        .Str(paper[idx++])
        .Num(eval.fleet_pe_mean, 1)
        .Num(eval.fleet_pf, 1)
        .Done();
    if (eval.avg_reward > best_reward) {
      best_reward = eval.avg_reward;
      best_alpha = alpha;
    }
    char name[32];
    std::snprintf(name, sizeof(name), "alpha=%g", alpha);
    arms.push_back(name);
    rewards.push_back(eval.avg_reward);
    std::printf("alpha %.1f done (avg reward %.3f)\n", alpha,
                eval.avg_reward);
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::printf("\n%s\n", table.ToAlignedText().c_str());
  std::printf("best alpha (measured): %.1f | paper: 0.6-0.8\n", best_alpha);
  std::printf("note: rewards are in normalised Eq-5 units, not the paper's "
              "(undocumented) scale; compare the peak location only.\n");
  if (!json_path.empty()) {
    // The pass above is a one-replica grid; replay its rewards through the
    // race engine so the document has the racing mode's shape.
    RacingConfig grid = racing;
    grid.min_replicas = grid.max_replicas = 1;
    Race race(std::move(arms), grid);
    while (race.NextRoundSize() > 0) {
      for (int arm : race.survivors()) {
        race.Observe(arm, rewards[static_cast<size_t>(arm)]);
      }
      race.FinishRound();
    }
    const RacingOutcome outcome = race.Finish();
    if (Status s = WriteRacingJson(json_path, "table4_alpha_sweep",
                                   "fixed-replicas", grid, outcome, secs);
        !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("json written to %s\n", json_path.c_str());
  }
  return 0;
}

int RunRacing(const bench::BenchSetup& setup, const RacingConfig& racing,
              const std::string& json_path) {
  bench::PrintHeader(
      "Table IV — racing alpha sweep (per-arm budget " +
          std::to_string(racing.max_replicas) + ")",
      setup);

  const auto t0 = std::chrono::steady_clock::now();
  auto sweep_or =
      RunRacingAlphaSweep(setup.config, Alphas(), kReferenceAlpha, racing);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  if (!sweep_or.ok()) {
    std::fprintf(stderr, "%s\n", sweep_or.status().ToString().c_str());
    return 1;
  }
  const RacedAlphaSweep& sweep = *sweep_or;
  const RacingOutcome& outcome = sweep.outcome;

  Table table({"alpha", "replicas", "avg reward r (mean)", "eval fleet PE",
               "eval PF", "status"});
  for (size_t arm = 0; arm < outcome.cells.size(); ++arm) {
    const RacingCell& cell = outcome.cells[arm];
    char status[64];
    if (cell.survived()) {
      std::snprintf(status, sizeof(status), "survived");
    } else {
      std::snprintf(status, sizeof(status), "eliminated in round %d",
                    cell.eliminated_in_round);
    }
    table.Row()
        .Num(Alphas()[arm], 1)
        .Int(cell.replicas)
        .Num(cell.reward.mean(), 3)
        .Num(sweep.fleet_pe[arm].mean(), 1)
        .Num(sweep.fleet_pf[arm].mean(), 1)
        .Str(status)
        .Done();
  }
  std::printf("%s\n", table.ToAlignedText().c_str());
  std::printf("%s\n",
              outcome.ToTable(racing.bound, racing.delta)
                  .ToAlignedText()
                  .c_str());
  const double best_alpha =
      outcome.best_arm >= 0 ? Alphas()[static_cast<size_t>(outcome.best_arm)]
                            : -1.0;
  std::printf("best alpha (measured): %.1f | paper: 0.6-0.8\n", best_alpha);
  std::printf("threads %d | wall %.2fs | %.3f cells/s (%lld cells)\n",
              GlobalPool().num_threads(), secs,
              static_cast<double>(outcome.replicas_spent) / secs,
              static_cast<long long>(outcome.replicas_spent));
  std::printf("racing: %lld of %lld replica budget spent (%.2fx saving) | "
              "%d rounds | bound %s delta %g\n",
              static_cast<long long>(outcome.replicas_spent),
              static_cast<long long>(outcome.fixed_budget),
              outcome.SavingsFactor(), outcome.rounds,
              CiBoundName(racing.bound), racing.delta);
  std::printf("note: rewards are in normalised Eq-5 units, not the paper's "
              "(undocumented) scale; compare the peak location only.\n");
  EmitRacingTelemetry("table4_alpha_sweep", racing, outcome);
  if (!json_path.empty()) {
    if (Status s = WriteRacingJson(json_path, "table4_alpha_sweep", "racing",
                                   racing, outcome, secs);
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
  // α cells train a policy each; keep the racing budget modest.
  const bench::RacingArgs args = bench::ParseRacingArgs(argc, argv, 6);
  bench::BenchSetup setup = bench::MakeSetup(0.06, 8, 1);
  return args.racing ? RunRacing(setup, args.config, args.json_path)
                     : RunFixed(setup, args.config, args.json_path);
}
