#ifndef FAIRMOVE_CORE_RACING_H_
#define FAIRMOVE_CORE_RACING_H_

// Racing evaluation: best-arm identification with early-stopping confidence
// bounds over Monte-Carlo replica grids (DESIGN.md §12).
//
// A fixed replica grid spends an identical budget on every (method, α) cell
// no matter how separated the cells already are. The racing procedure here
// streams each replica's scalar objective into per-arm confidence intervals
// and applies successive elimination: once an arm's upper bound falls below
// some other arm's lower bound, it is dominated at confidence 1 - δ and stops
// consuming replicas. The budget it frees flows to the still-ambiguous arms,
// so a race either resolves early (multiplicative wall-clock win) or ends
// with tighter intervals exactly where the ordering was hardest.
//
// RunRace is the only replica-grid engine: a fixed grid (RunRepeatedComparison)
// is the race with min_replicas == max_replicas, whose one round spends the
// whole budget.
//
// Determinism contract (DESIGN.md §12): replica r of arm a is a pure
// function of (a, r) — seeds come from DeriveSeed / RepeatConfig keyed on
// the replica index, never on the surviving-arm set or the thread count.
// Rounds execute as slot-indexed grids on the global ThreadPool and every
// reduction (Observe, elimination, aggregation) happens on the calling
// thread in ascending (arm, replica) order, so a race's outcome — survivors,
// elimination rounds, every accumulated byte — is identical at any
// FAIRMOVE_THREADS.

#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "fairmove/common/csv.h"
#include "fairmove/common/stats.h"
#include "fairmove/common/status.h"
#include "fairmove/core/experiment.h"

namespace fairmove {

/// Knobs of one race.
struct RacingConfig {
  /// Per-comparison confidence: each interval is built at confidence
  /// 1 - delta and an arm is eliminated when its upper bound drops below a
  /// rival's lower bound. No union-bound correction is applied across arms
  /// or rounds — at experiment-grid arm counts (≤ ~10) the slack a Bonferroni
  /// correction would add costs more replicas than the error it prevents.
  double delta = 0.05;
  CiBound bound = CiBound::kGaussian;
  /// Replicas every arm runs before the first elimination check (intervals
  /// are undefined below 2 samples; see RunningStats::CiHalfWidth). 1 is
  /// valid only with max_replicas == 1: a one-replica grid that makes no
  /// elimination decision.
  int min_replicas = 2;
  /// New replicas per surviving arm per subsequent round.
  int batch = 1;
  /// Per-arm budget of the fixed-replica grid the race replaces; the race's
  /// total budget is num_arms * max_replicas.
  int max_replicas = 10;
  /// When true (default), budget freed by eliminated arms flows to the
  /// still-ambiguous survivors, which may then run past max_replicas —
  /// tightening the final intervals at no extra total cost. When false the
  /// per-arm cap is hard: the race can only save budget, never reinvest it.
  bool reuse_freed_budget = true;

  Status Validate() const;
};

/// Per-arm outcome of a race — the source of one racing_cell telemetry row.
struct RacingCell {
  std::string name;
  /// Replicas this arm consumed.
  int replicas = 0;
  /// Round in which the arm was eliminated; -1 = survived to the end.
  int eliminated_in_round = -1;
  /// Total replicas the race had spent (across all arms) when this arm was
  /// eliminated — its "elimination slot" on the race's timeline; -1 =
  /// survived.
  int64_t elimination_slot = -1;
  /// The raced objective over this arm's replicas.
  RunningStats reward;
  /// Final CI half-width at the arm's terminal replica count (+inf if the
  /// arm never reached 2 replicas).
  double half_width = std::numeric_limits<double>::infinity();

  bool survived() const { return eliminated_in_round < 0; }
};

struct RacingOutcome {
  std::vector<RacingCell> cells;  // input arm order
  int rounds = 0;
  /// Replicas consumed by raced cells (GT-baseline evals a driver runs
  /// outside the race are the driver's to report).
  int64_t replicas_spent = 0;
  /// num_arms * max_replicas — what the fixed grid would have spent.
  int64_t fixed_budget = 0;
  /// Surviving arm with the highest mean (lowest index on exact ties).
  int best_arm = -1;
  /// Every arm, best first: descending mean of the raced objective, ties by
  /// ascending index. Eliminated arms rank by their means at elimination-
  /// time replica counts — coarser estimates, but each was separated from
  /// the survivors at confidence 1 - δ when it left the race.
  std::vector<int> order;

  /// fixed_budget / replicas_spent — the multiplicative budget saving.
  double SavingsFactor() const;
  /// Per-arm racing table: replicas, mean ± CI, elimination round/slot.
  Table ToTable(CiBound bound, double delta) const;
};

/// The streaming successive-elimination engine, decoupled from how cells
/// execute so it can be unit-tested on synthetic rewards. Drive it as:
///
///   Race race(names, config);
///   while (int n = race.NextRoundSize()) {
///     for (int arm : race.survivors())        // run n replicas of `arm`
///       for (double r : rewards) race.Observe(arm, r);
///     race.FinishRound();
///   }
///   RacingOutcome outcome = race.Finish();
///
/// Single-threaded by design: Observe() must be called in ascending replica
/// order per arm on one thread (the parallel driver RunRace reduces its
/// slot-indexed grid into exactly this call sequence). Survivors advance in
/// lockstep — every surviving arm always has the same replica count — so
/// interval comparisons are always at equal sample sizes.
class Race {
 public:
  /// `config` must Validate(); at least one arm.
  Race(std::vector<std::string> arm_names, const RacingConfig& config);

  /// Replicas each surviving arm must run this round: min_replicas in round
  /// 0, then batch, clamped to the remaining budget (and to max_replicas
  /// when reuse_freed_budget is off). 0 = the race is over.
  int NextRoundSize() const;
  /// Surviving arm indices, ascending.
  const std::vector<int>& survivors() const { return survivors_; }

  /// Feeds one replica's objective for a surviving arm.
  void Observe(int arm, double reward);
  /// Ends the round: eliminates every survivor whose CI upper bound lies
  /// strictly below the best CI lower bound among the survivors.
  void FinishRound();

  /// Finalises half-widths, best arm and ordering. The engine may be
  /// inspected but not driven further afterwards.
  RacingOutcome Finish();

 private:
  RacingConfig config_;
  std::vector<RacingCell> cells_;
  std::vector<int> survivors_;
  int round_ = 0;
  int64_t spent_ = 0;
  int64_t budget_ = 0;
};

/// Callbacks of one racing grid. All three must be safe to invoke from pool
/// workers; run_cell must additionally be a pure function of (arm, replica)
/// sharing no mutable state across concurrent calls, since a round runs its
/// cells concurrently and the outcome must not depend on their timing.
struct RacingGridHooks {
  /// Builds the shared state of replica `replica` (e.g. the repeat's system
  /// stack and its GT baseline). Called exactly once per replica index, in
  /// parallel across a round's new replicas. May be null.
  std::function<Status(int replica)> prepare;
  /// Runs cell (arm, replica) and returns the raced objective.
  std::function<StatusOr<double>(int arm, int replica)> run_cell;
  /// Releases replica shared state after a round (called on the calling
  /// thread, ascending replica order). May be null.
  std::function<void(int replica)> release;
};

/// Runs a race over the (arm × replica) grid on the global pool: per round,
/// phase A prepares the round's new replica indices, phase B runs every
/// (surviving arm, new replica) cell into a slot-indexed array, and the
/// calling thread reduces slots in ascending (arm, replica) order before the
/// elimination step. Errors surface in a fixed order — prepare failures in
/// ascending replica order, then cell failures in ascending (arm, replica)
/// order — independent of timing. Byte-identical at any FAIRMOVE_THREADS.
StatusOr<RacingOutcome> RunRace(std::vector<std::string> arm_names,
                                const RacingConfig& config,
                                const RacingGridHooks& hooks);

/// The method comparison as a race: methods are arms, repeats are replicas,
/// the raced objective is the evaluation avg_reward (Eq 5). Replica r of
/// every arm runs on RepeatConfig(base, r). With min_replicas ==
/// max_replicas the race is the fixed grid — one round, every arm runs every
/// replica — which is how RunRepeatedComparison runs; racing_test pins its
/// aggregate to the pre-racing golden bytes.
struct RacedComparison {
  RacingOutcome outcome;
  /// mean ± std over the replicas each arm actually ran: one-sample
  /// partials Merged in ascending replica order per arm.
  RepeatedComparison aggregate;
  /// Replica-0 row per method — every arm runs replica 0, so this is a
  /// complete report-shaped result set (bench_full_report --racing renders
  /// its figures from these rows).
  std::vector<MethodResult> first_replica;
};
StatusOr<RacedComparison> RunRacingComparison(
    const FairMoveConfig& base_config, const std::vector<PolicyKind>& kinds,
    const RacingConfig& racing);

/// Racing Table-IV α-sweep: arms are α values; each cell trains a CMA2C
/// policy under its arm's α on replica r's independently seeded stack
/// (RepeatConfig) and scores it under the fixed reference objective
/// (reference_alpha, the paper's operating point) — the raced objective is
/// that reference-scored avg reward.
struct RacedAlphaSweep {
  RacingOutcome outcome;
  /// Per-arm evaluation-episode PE / PF means over the replicas it ran
  /// (parallel to outcome.cells).
  std::vector<RunningStats> fleet_pe;
  std::vector<RunningStats> fleet_pf;
};
StatusOr<RacedAlphaSweep> RunRacingAlphaSweep(
    const FairMoveConfig& base_config, const std::vector<double>& alphas,
    double reference_alpha, const RacingConfig& racing);

/// Emits one kind="racing_cell" row per arm into the training telemetry
/// stream (no-op when FAIRMOVE_TELEMETRY is unset). `race` labels the race
/// so multiple races in one run stay distinguishable; tools/obs_check
/// validates the rows.
void EmitRacingTelemetry(const std::string& race,
                         const RacingConfig& config,
                         const RacingOutcome& outcome);

/// Writes a fairmove.racing.v1 JSON document: wall-clock, cells/s, budget
/// and the per-cell racing telemetry. `mode` is "racing" or
/// "fixed-replicas" (a race with min_replicas == max_replicas: uniform
/// replica counts, and an arm separated after the single round reads as
/// eliminated in round 0).
Status WriteRacingJson(const std::string& path, const std::string& race,
                       const std::string& mode, const RacingConfig& config,
                       const RacingOutcome& outcome, double wall_seconds);

}  // namespace fairmove

#endif  // FAIRMOVE_CORE_RACING_H_
