// Racing evaluation suite (core/racing.h): the successive-elimination
// engine on synthetic rewards, the parallel RunRace driver's ordering and
// error contracts, and the system-level guarantees of RunRacingComparison —
// fixed-mode byte-identity (against hardcoded pre-racing golden bytes),
// thread-count invariance, and the >= 2x replica-budget cut on a separated
// method field. Carries the `racing` (and secondary `parallel`) ctest
// labels; run under TSan via the recipe in .claude/skills/verify/SKILL.md
// before touching core/racing.cc.

#include "fairmove/core/racing.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "fairmove/common/parallel.h"
#include "fairmove/core/experiment.h"
#include "fairmove/core/fairmove.h"
#include "fairmove/obs/jsonl.h"
#include "fairmove/obs/telemetry.h"

namespace fairmove {
namespace {

// ------------------------------------------------------------ Race engine --

RacingConfig SmallConfig() {
  RacingConfig config;
  config.min_replicas = 2;
  config.batch = 1;
  config.max_replicas = 10;
  return config;
}

TEST(RacingConfigTest, ValidateRejectsBadKnobs) {
  EXPECT_TRUE(RacingConfig{}.Validate().ok());
  RacingConfig config;
  config.delta = 0.0;
  EXPECT_FALSE(config.Validate().ok());
  config = RacingConfig{};
  config.delta = 1.0;
  EXPECT_FALSE(config.Validate().ok());
  config = RacingConfig{};
  config.min_replicas = 1;  // CIs are undefined below 2 samples
  EXPECT_FALSE(config.Validate().ok());
  config.max_replicas = 2;
  EXPECT_FALSE(config.Validate().ok());
  config.max_replicas = 1;  // ...but a one-replica grid eliminates nothing
  EXPECT_TRUE(config.Validate().ok());
  config = RacingConfig{};
  config.batch = 0;
  EXPECT_FALSE(config.Validate().ok());
  config = RacingConfig{};
  config.max_replicas = config.min_replicas - 1;
  EXPECT_FALSE(config.Validate().ok());
}

// Deterministic synthetic arms: arm a's replica r reward is base[a] plus a
// small fixed wobble, so means are well separated and variances tiny.
double SyntheticReward(double base, int replica) {
  return base + 0.01 * ((replica % 3) - 1);
}

TEST(RaceEngineTest, ClearlyDominatedArmsAreEliminatedInRoundZero) {
  RacingConfig config = SmallConfig();
  config.reuse_freed_budget = false;  // the saving is visible in spent
  Race race({"best", "mid", "worst"}, config);
  int replica = 0;
  // "best" and "mid" sit 0.005 apart — inside the ~0.01 round-0 interval
  // half-width the ±0.01 wobble produces — while "worst" is 5 below.
  const double bases[] = {10.0, 9.995, 5.0};
  // Round 0: everyone runs min_replicas.
  ASSERT_EQ(race.NextRoundSize(), 2);
  for (int r = 0; r < 2; ++r) {
    for (int arm : race.survivors()) {
      race.Observe(arm, SyntheticReward(bases[arm], replica + r));
    }
  }
  replica += 2;
  race.FinishRound();
  // "worst" is separated from both others by ~5 with tiny variance.
  ASSERT_EQ(race.survivors().size(), 2u);
  EXPECT_EQ(race.survivors()[0], 0);
  EXPECT_EQ(race.survivors()[1], 1);

  // Drive to completion; "best" and "mid" stay overlapped but the per-arm
  // cap is hard, so the race terminates with budget left unspent.
  while (int n = race.NextRoundSize()) {
    for (int r = 0; r < n; ++r) {
      for (int arm : race.survivors()) {
        race.Observe(arm, SyntheticReward(bases[arm], replica + r));
      }
    }
    replica += n;
    race.FinishRound();
  }
  RacingOutcome outcome = race.Finish();
  EXPECT_EQ(outcome.cells[2].eliminated_in_round, 0);
  EXPECT_EQ(outcome.cells[2].replicas, 2);
  EXPECT_EQ(outcome.cells[2].elimination_slot, 6);  // 3 arms x 2 replicas
  EXPECT_LE(outcome.replicas_spent, outcome.fixed_budget);
  EXPECT_EQ(outcome.best_arm, 0);
  EXPECT_EQ(outcome.order[0], 0);
  EXPECT_EQ(outcome.order[2], 2);
  // The saving from eliminating one of three arms after 2 of 10 replicas.
  EXPECT_GT(outcome.SavingsFactor(), 1.0);
}

TEST(RaceEngineTest, OneSurvivorEndsTheRaceEarly) {
  // One arm clearly best, three clearly worse: round 0 eliminates the
  // three, and the race stops instead of burning the survivor's budget.
  Race race({"a", "b", "c", "d"}, SmallConfig());
  const double bases[] = {10.0, 1.0, 2.0, 3.0};
  ASSERT_EQ(race.NextRoundSize(), 2);
  for (int r = 0; r < 2; ++r) {
    for (int arm : race.survivors()) {
      race.Observe(arm, SyntheticReward(bases[arm], r));
    }
  }
  race.FinishRound();
  ASSERT_EQ(race.survivors().size(), 1u);
  EXPECT_EQ(race.NextRoundSize(), 0);
  RacingOutcome outcome = race.Finish();
  EXPECT_EQ(outcome.replicas_spent, 8);
  EXPECT_EQ(outcome.fixed_budget, 40);
  EXPECT_GE(outcome.SavingsFactor(), 2.0);  // 5x here
  EXPECT_EQ(outcome.best_arm, 0);
}

TEST(RaceEngineTest, EliminationDisabledSpendsExactlyTheFixedBudget) {
  RacingConfig config = SmallConfig();
  config.min_replicas = config.max_replicas = 4;
  Race race({"x", "y"}, config);
  ASSERT_EQ(race.NextRoundSize(), 4);
  for (int r = 0; r < 4; ++r) {
    for (int arm : race.survivors()) {
      race.Observe(arm, SyntheticReward(arm == 0 ? 2.0 : 1.0, r));
    }
  }
  race.FinishRound();
  EXPECT_EQ(race.NextRoundSize(), 0);  // budget exhausted in one round
  RacingOutcome outcome = race.Finish();
  EXPECT_EQ(outcome.replicas_spent, outcome.fixed_budget);
  EXPECT_EQ(outcome.cells[0].replicas, 4);
  EXPECT_EQ(outcome.cells[1].replicas, 4);
}

TEST(RaceEngineTest, FreedBudgetIsReinvestedOnlyWhenEnabled) {
  // Arms: two overlapping survivors + two early eliminations. With reuse
  // the survivors run past max_replicas on the freed budget; without it
  // they stop exactly at the cap.
  const double bases[] = {10.0, 10.005, 1.0, 1.5};
  for (bool reuse : {true, false}) {
    RacingConfig config = SmallConfig();
    config.max_replicas = 6;
    config.reuse_freed_budget = reuse;
    Race race({"a", "b", "c", "d"}, config);
    int replica = 0;
    while (int n = race.NextRoundSize()) {
      for (int r = 0; r < n; ++r) {
        for (int arm : race.survivors()) {
          // Identical wobble keeps a/b statistically inseparable.
          race.Observe(arm, SyntheticReward(bases[arm], replica + r));
        }
      }
      replica += n;
      race.FinishRound();
    }
    RacingOutcome outcome = race.Finish();
    EXPECT_EQ(outcome.cells[2].eliminated_in_round, 0) << "reuse=" << reuse;
    EXPECT_EQ(outcome.cells[3].eliminated_in_round, 0) << "reuse=" << reuse;
    if (reuse) {
      EXPECT_GT(outcome.cells[0].replicas, config.max_replicas);
      EXPECT_EQ(outcome.replicas_spent, outcome.fixed_budget);
    } else {
      EXPECT_EQ(outcome.cells[0].replicas, config.max_replicas);
      EXPECT_EQ(outcome.cells[1].replicas, config.max_replicas);
      EXPECT_LT(outcome.replicas_spent, outcome.fixed_budget);
    }
  }
}

TEST(RaceEngineTest, IdenticalArmsNeverEliminateEachOther) {
  // All-identical samples give zero-width intervals at identical means:
  // elimination requires a *strictly* higher lower bound, so ties survive.
  RacingConfig config = SmallConfig();
  config.max_replicas = 4;
  Race race({"t1", "t2", "t3"}, config);
  while (int n = race.NextRoundSize()) {
    for (int r = 0; r < n; ++r) {
      for (int arm : race.survivors()) race.Observe(arm, 7.5);
    }
    race.FinishRound();
  }
  RacingOutcome outcome = race.Finish();
  for (const RacingCell& cell : outcome.cells) {
    EXPECT_TRUE(cell.survived()) << cell.name;
    EXPECT_EQ(cell.half_width, 0.0);
  }
  EXPECT_EQ(outcome.best_arm, 0);  // exact tie resolves to lowest index
}

// --------------------------------------------------------------- RunRace --

TEST(RunRaceTest, PreparesEachReplicaOnceAndRacesLockstep) {
  RacingConfig config = SmallConfig();
  config.max_replicas = 5;
  std::atomic<int> prepares{0};
  std::vector<std::atomic<int>> cell_runs(3 * 15);  // arm * budget grid
  for (auto& c : cell_runs) c.store(0);
  RacingGridHooks hooks;
  hooks.prepare = [&](int) {
    prepares.fetch_add(1);
    return Status::OK();
  };
  hooks.run_cell = [&](int arm, int replica) -> StatusOr<double> {
    cell_runs[static_cast<size_t>(arm * 15 + replica)].fetch_add(1);
    return SyntheticReward(arm == 1 ? 10.0 : 2.0 + arm, replica);
  };
  auto outcome_or = RunRace({"a", "b", "c"}, config, hooks);
  ASSERT_TRUE(outcome_or.ok()) << outcome_or.status();
  const RacingOutcome& outcome = *outcome_or;
  // Lockstep: every replica index any arm raced was prepared exactly once,
  // and no cell ran twice.
  int max_replicas_run = 0;
  for (const RacingCell& cell : outcome.cells) {
    max_replicas_run = std::max(max_replicas_run, cell.replicas);
  }
  EXPECT_EQ(prepares.load(), max_replicas_run);
  for (size_t arm = 0; arm < 3; ++arm) {
    for (int r = 0; r < 15; ++r) {
      const int runs = cell_runs[arm * 15 + static_cast<size_t>(r)].load();
      EXPECT_EQ(runs, r < outcome.cells[arm].replicas ? 1 : 0)
          << "arm " << arm << " replica " << r;
    }
  }
  EXPECT_EQ(outcome.best_arm, 1);
}

TEST(RunRaceTest, CellErrorsSurfaceInAscendingArmOrder) {
  RacingGridHooks hooks;
  hooks.run_cell = [](int arm, int replica) -> StatusOr<double> {
    if (arm >= 1 && replica == 0) {
      return Status::Internal("cell failed arm=" + std::to_string(arm));
    }
    return 1.0;
  };
  auto outcome_or = RunRace({"a", "b", "c"}, SmallConfig(), hooks);
  ASSERT_FALSE(outcome_or.ok());
  // Both arm 1 and arm 2 fail at replica 0; the lowest arm wins regardless
  // of scheduling.
  EXPECT_EQ(outcome_or.status().message(), "cell failed arm=1");
}

TEST(RunRaceTest, PrepareErrorsSurfaceInAscendingReplicaOrder) {
  RacingGridHooks hooks;
  hooks.prepare = [](int replica) {
    if (replica >= 1) {
      return Status::Internal("prepare failed r=" + std::to_string(replica));
    }
    return Status::OK();
  };
  hooks.run_cell = [](int, int) -> StatusOr<double> { return 1.0; };
  auto outcome_or = RunRace({"a", "b"}, SmallConfig(), hooks);
  ASSERT_FALSE(outcome_or.ok());
  EXPECT_EQ(outcome_or.status().message(), "prepare failed r=1");
}

// ------------------------------------------------- system-level contracts --

FairMoveConfig TestConfig() {
  FairMoveConfig cfg = FairMoveConfig::FullShenzhen().Scaled(0.03);
  cfg.trainer.episodes = 1;
  cfg.eval.days = 1;
  return cfg;
}

// The comparison-table bytes RunRepeatedComparison produced BEFORE the
// racing layer existed, captured at commit cc6dbe7 with this exact config
// (scale 0.03, 1 episode, 1 eval day, {GT, SD2, FairMove}, 2 repeats).
// Fixed mode must keep producing these bytes — the racing PR must not
// perturb the fixed path.
constexpr char kPreRacingGoldenCsv[] =
    "method,PIPE,PIPF,PRCT,PRIT,mean PE,PF\n"
    "GT,+0.0% \xC2\xB1 0.0,+0.0% \xC2\xB1 0.0,+0.0% \xC2\xB1 0.0,"
    "+0.0% \xC2\xB1 0.0,39.5 \xC2\xB1 0.1,49.7 \xC2\xB1 3.7\n"
    "SD2,-5.3% \xC2\xB1 3.0,-129.4% \xC2\xB1 2.7,-15.4% \xC2\xB1 4.3,"
    "-19.7% \xC2\xB1 33.0,37.4 \xC2\xB1 1.1,113.9 \xC2\xB1 7.1\n"
    "FairMove,-6.0% \xC2\xB1 0.3,-5.1% \xC2\xB1 15.1,+0.8% \xC2\xB1 0.2,"
    "+19.3% \xC2\xB1 20.0,37.1 \xC2\xB1 0.0,51.7 \xC2\xB1 3.6\n";

TEST(RacingComparisonTest, FixedModeReproducesPreRacingGoldenBytes) {
  const std::vector<PolicyKind> kinds = {
      PolicyKind::kGroundTruth, PolicyKind::kSd2, PolicyKind::kFairMove};
  auto fixed_or = RunRepeatedComparison(TestConfig(), kinds, 2);
  ASSERT_TRUE(fixed_or.ok()) << fixed_or.status();
  EXPECT_EQ(fixed_or->ToTable().ToCsv(), kPreRacingGoldenCsv);
}

TEST(RacingComparisonTest, EliminationDisabledMatchesFixedModeBytes) {
  // min_replicas == max_replicas turns the race into the fixed grid: one
  // round, no early stopping. Its aggregate must reproduce
  // RunRepeatedComparison byte for byte — which proves every racing cell
  // is bit-identical to its fixed-mode counterpart (same RepeatConfig
  // seeds, same replica evaluation, same fold order).
  const std::vector<PolicyKind> kinds = {
      PolicyKind::kGroundTruth, PolicyKind::kSd2, PolicyKind::kFairMove};
  RacingConfig racing;
  racing.min_replicas = racing.max_replicas = 2;
  auto raced_or = RunRacingComparison(TestConfig(), kinds, racing);
  ASSERT_TRUE(raced_or.ok()) << raced_or.status();
  EXPECT_EQ(raced_or->aggregate.ToTable().ToCsv(), kPreRacingGoldenCsv);
  EXPECT_EQ(raced_or->outcome.replicas_spent,
            raced_or->outcome.fixed_budget);
  for (const RacingCell& cell : raced_or->outcome.cells) {
    EXPECT_EQ(cell.replicas, 2);
  }
}

TEST(RacingComparisonTest, ByteIdenticalAcrossThreadCounts) {
  // The cells' cities are below the pool's cost rule; a lowered threshold
  // keeps their phases forking inside the grid's tasks.
  ScopedForkThresholdForTesting fork_every_phase(0);
  const std::vector<PolicyKind> kinds = {
      PolicyKind::kGroundTruth, PolicyKind::kSd2, PolicyKind::kFairMove};
  RacingConfig racing;
  racing.max_replicas = 4;

  SetGlobalThreads(1);
  auto serial_or = RunRacingComparison(TestConfig(), kinds, racing);
  ASSERT_TRUE(serial_or.ok()) << serial_or.status();

  SetGlobalThreads(4);
  auto threaded_or = RunRacingComparison(TestConfig(), kinds, racing);
  SetGlobalThreads(1);
  ASSERT_TRUE(threaded_or.ok()) << threaded_or.status();

  // Same surviving-cell set, same elimination history, and byte-identical
  // aggregated metrics at 1 vs 4 threads.
  EXPECT_EQ(serial_or->aggregate.ToTable().ToCsv(),
            threaded_or->aggregate.ToTable().ToCsv());
  EXPECT_EQ(serial_or->outcome.replicas_spent,
            threaded_or->outcome.replicas_spent);
  EXPECT_EQ(serial_or->outcome.rounds, threaded_or->outcome.rounds);
  EXPECT_EQ(serial_or->outcome.best_arm, threaded_or->outcome.best_arm);
  EXPECT_EQ(serial_or->outcome.order, threaded_or->outcome.order);
  ASSERT_EQ(serial_or->outcome.cells.size(),
            threaded_or->outcome.cells.size());
  for (size_t i = 0; i < serial_or->outcome.cells.size(); ++i) {
    const RacingCell& a = serial_or->outcome.cells[i];
    const RacingCell& b = threaded_or->outcome.cells[i];
    EXPECT_EQ(a.replicas, b.replicas) << a.name;
    EXPECT_EQ(a.eliminated_in_round, b.eliminated_in_round) << a.name;
    EXPECT_EQ(a.elimination_slot, b.elimination_slot) << a.name;
    EXPECT_EQ(a.reward.count(), b.reward.count()) << a.name;
    EXPECT_EQ(a.reward.mean(), b.reward.mean()) << a.name;
    EXPECT_EQ(a.reward.sum(), b.reward.sum()) << a.name;
  }
}

TEST(RacingComparisonTest, CutsReplicaBudgetTwofoldAndAgreesWithFixed) {
  // The acceptance bar: on the full six-method field, racing must reach
  // the fixed grid's conclusion for at most half its replica budget.
  const std::vector<PolicyKind> kinds = FairMoveSystem::AllMethods();
  RacingConfig racing;
  racing.max_replicas = 10;  // the paper's repeat protocol
  racing.reuse_freed_budget = false;
  auto raced_or = RunRacingComparison(TestConfig(), kinds, racing);
  ASSERT_TRUE(raced_or.ok()) << raced_or.status();
  const RacingOutcome& outcome = raced_or->outcome;
  EXPECT_GE(outcome.SavingsFactor(), 2.0)
      << outcome.replicas_spent << " of " << outcome.fixed_budget;

  auto fixed_or = RunRepeatedComparison(TestConfig(), kinds, 10);
  ASSERT_TRUE(fixed_or.ok()) << fixed_or.status();
  // Fixed-mode ranking by mean raced objective (Eq-5 eval reward).
  std::vector<size_t> fixed_order(kinds.size());
  for (size_t i = 0; i < kinds.size(); ++i) fixed_order[i] = i;
  std::stable_sort(fixed_order.begin(), fixed_order.end(),
                   [&](size_t a, size_t b) {
                     return fixed_or->methods[a].reward.mean() >
                            fixed_or->methods[b].reward.mean();
                   });
  // Same best arm...
  ASSERT_GE(outcome.best_arm, 0);
  EXPECT_EQ(static_cast<size_t>(outcome.best_arm), fixed_order[0]);
  // ...and the same relative ordering among the racing survivors.
  std::vector<int> survivors_racing_order;
  for (int arm : outcome.order) {
    if (outcome.cells[static_cast<size_t>(arm)].survived()) {
      survivors_racing_order.push_back(arm);
    }
  }
  std::vector<int> survivors_fixed_order;
  for (size_t arm : fixed_order) {
    if (outcome.cells[arm].survived()) {
      survivors_fixed_order.push_back(static_cast<int>(arm));
    }
  }
  EXPECT_EQ(survivors_racing_order, survivors_fixed_order);
  // Every eliminated arm really is worse than the winner under the full
  // fixed budget — elimination never discarded the true best.
  const double best_fixed_mean =
      fixed_or->methods[fixed_order[0]].reward.mean();
  for (size_t arm = 0; arm < kinds.size(); ++arm) {
    if (!outcome.cells[arm].survived()) {
      EXPECT_LT(fixed_or->methods[arm].reward.mean(), best_fixed_mean)
          << outcome.cells[arm].name;
    }
  }
}

// --------------------------------------------------- telemetry and JSON --

RacingOutcome SyntheticOutcome() {
  RacingConfig config;
  Race race({"fast", "slow"}, config);
  for (int r = 0; r < 2; ++r) {
    for (int arm : race.survivors()) {
      race.Observe(arm, SyntheticReward(arm == 0 ? 9.0 : 3.0, r));
    }
  }
  race.FinishRound();
  return race.Finish();
}

TEST(RacingTelemetryTest, EmitsRacingCellRowsIntoTrainingStream) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "fairmove_racing_obs")
          .string();
  std::filesystem::remove_all(dir);
  Telemetry& telemetry = Telemetry::Get();
  ASSERT_TRUE(telemetry.EnableForTesting(dir).ok());
  const int64_t before = telemetry.training_stream().rows_written();
  EmitRacingTelemetry("unit", RacingConfig{}, SyntheticOutcome());
  EXPECT_EQ(telemetry.training_stream().rows_written(), before + 2);
  telemetry.DisableForTesting();

  // Rows must be valid JSONL with the training-stream identity keys plus
  // the racing payload tools/obs_check validates.
  auto rows_or = ValidateJsonlFile(
      dir + "/training.jsonl",
      {"kind", "phase", "method", "race", "arm", "replicas", "survived",
       "eliminated_in_round", "mean_reward"});
  ASSERT_TRUE(rows_or.ok()) << rows_or.status();
  EXPECT_EQ(*rows_or, 2);
  std::ifstream in(dir + "/training.jsonl");
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_NE(line.find("\"racing_cell\""), std::string::npos);
  EXPECT_NE(line.find("\"fast\""), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(RacingTelemetryTest, DisabledTelemetryIsANoOp) {
  ASSERT_FALSE(Telemetry::Get().enabled());
  EmitRacingTelemetry("unit", RacingConfig{}, SyntheticOutcome());  // no crash
}

TEST(RacingJsonTest, WritesWellFormedV1Document) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "racing_v1.json").string();
  const RacingOutcome outcome = SyntheticOutcome();
  ASSERT_TRUE(WriteRacingJson(path, "unit", "racing", RacingConfig{},
                              outcome, 1.25)
                  .ok());
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  auto keys_or = JsonObjectKeys(text);
  ASSERT_TRUE(keys_or.ok()) << keys_or.status().ToString();
  const std::set<std::string> keys(keys_or->begin(), keys_or->end());
  for (const char* key :
       {"schema", "race", "mode", "bound", "delta", "rounds",
        "replicas_spent", "fixed_budget", "savings_factor", "best_arm",
        "wall_seconds", "cells_per_second", "order", "cells"}) {
    EXPECT_TRUE(keys.count(key)) << key;
  }
  EXPECT_NE(text.find("\"fairmove.racing.v1\""), std::string::npos);
  std::filesystem::remove(path);
}

TEST(RacingOutcomeTest, TableRendersEliminationAndSurvival) {
  const RacingOutcome outcome = SyntheticOutcome();
  const Table table = outcome.ToTable(CiBound::kGaussian, 0.05);
  ASSERT_EQ(table.num_rows(), 2u);
  EXPECT_EQ(table.Cell(0, "arm"), "fast");
  EXPECT_EQ(table.Cell(0, "status"), "survived");
  EXPECT_NE(table.Cell(1, "status").find("eliminated in round 0"),
            std::string::npos);
}

// ---------------------------------------------------------- alpha sweep --

TEST(RacingAlphaSweepTest, RacesAlphaArmsWithPairedSeeds) {
  // Smallest meaningful sweep: two alphas, elimination disabled so the
  // shape contract (cells, PE/PF stats per arm) is exercised cheaply and
  // deterministically regardless of how the arms compare.
  FairMoveConfig cfg = FairMoveConfig::FullShenzhen().Scaled(0.02);
  cfg.trainer.episodes = 1;
  cfg.eval.days = 1;
  RacingConfig racing;
  racing.min_replicas = racing.max_replicas = 2;
  auto sweep_or = RunRacingAlphaSweep(cfg, {0.0, 0.6}, 0.6, racing);
  ASSERT_TRUE(sweep_or.ok()) << sweep_or.status();
  const RacedAlphaSweep& sweep = *sweep_or;
  ASSERT_EQ(sweep.outcome.cells.size(), 2u);
  EXPECT_EQ(sweep.outcome.cells[0].name, "alpha=0");
  EXPECT_EQ(sweep.outcome.cells[1].name, "alpha=0.6");
  for (size_t arm = 0; arm < 2; ++arm) {
    EXPECT_EQ(sweep.outcome.cells[arm].replicas, 2);
    EXPECT_EQ(sweep.fleet_pe[arm].count(), 2);
    EXPECT_EQ(sweep.fleet_pf[arm].count(), 2);
    EXPECT_GT(sweep.fleet_pe[arm].mean(), 0.0);
  }
  EXPECT_GE(sweep.outcome.best_arm, 0);
}

}  // namespace
}  // namespace fairmove
