#include "fairmove/core/racing.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <numeric>
#include <utility>

#include "fairmove/common/macros.h"
#include "fairmove/common/parallel.h"
#include "fairmove/common/rng.h"
#include "fairmove/obs/jsonl.h"
#include "fairmove/obs/telemetry.h"
#include "fairmove/rl/cma2c_policy.h"

namespace fairmove {

namespace {

/// Policy-seed base of the α-sweep cells; the single-shot bench
/// (bench_table4_alpha_sweep) uses the same base for its one replica.
constexpr uint64_t kAlphaSweepPolicySeed = 7055;

std::string FormatAlphaArm(double alpha) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "alpha=%g", alpha);
  return buf;
}

}  // namespace

Status RacingConfig::Validate() const {
  if (!(delta > 0.0 && delta < 1.0)) {
    return Status::InvalidArgument("racing delta must be in (0, 1)");
  }
  // A one-replica grid is allowed: with no interval to compare, its single
  // round eliminates nothing (CiHalfWidth is +inf below two samples).
  if (min_replicas < 2 && !(min_replicas == 1 && max_replicas == 1)) {
    return Status::InvalidArgument(
        "racing min_replicas must be >= 2 (confidence intervals are "
        "undefined below two samples) unless min_replicas == max_replicas "
        "== 1");
  }
  if (batch < 1) {
    return Status::InvalidArgument("racing batch must be >= 1");
  }
  if (max_replicas < min_replicas) {
    return Status::InvalidArgument(
        "racing max_replicas must be >= min_replicas");
  }
  return Status::OK();
}

double RacingOutcome::SavingsFactor() const {
  if (replicas_spent <= 0) return 1.0;
  return static_cast<double>(fixed_budget) /
         static_cast<double>(replicas_spent);
}

Table RacingOutcome::ToTable(CiBound bound, double delta) const {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "mean ± ci%02d",
                static_cast<int>((1.0 - delta) * 100.0 + 0.5));
  Table table({"arm", "replicas", buf, "status"});
  for (const RacingCell& cell : cells) {
    std::string interval;
    if (cell.reward.count() < 2) {
      std::snprintf(buf, sizeof(buf), "%.3f ± inf", cell.reward.mean());
    } else {
      std::snprintf(buf, sizeof(buf), "%.3f ± %.3f", cell.reward.mean(),
                    cell.reward.CiHalfWidth(bound, delta));
    }
    interval = buf;
    std::string status = "survived";
    if (!cell.survived()) {
      std::snprintf(buf, sizeof(buf), "eliminated in round %d (slot %lld)",
                    cell.eliminated_in_round,
                    static_cast<long long>(cell.elimination_slot));
      status = buf;
    }
    table.Row()
        .Str(cell.name)
        .Int(cell.replicas)
        .Str(interval)
        .Str(status)
        .Done();
  }
  return table;
}

Race::Race(std::vector<std::string> arm_names, const RacingConfig& config)
    : config_(config) {
  FM_CHECK(!arm_names.empty()) << "Race: no arms";
  FM_CHECK(config.Validate().ok())
      << "Race: " << config.Validate().ToString();
  cells_.resize(arm_names.size());
  survivors_.resize(arm_names.size());
  for (size_t i = 0; i < arm_names.size(); ++i) {
    cells_[i].name = std::move(arm_names[i]);
    survivors_[i] = static_cast<int>(i);
  }
  budget_ = static_cast<int64_t>(cells_.size()) * config_.max_replicas;
}

int Race::NextRoundSize() const {
  if (survivors_.empty()) return 0;
  // One survivor left = the best arm is identified; stop even if budget
  // remains (that unspent budget IS the saving).
  if (round_ > 0 && survivors_.size() == 1) return 0;
  const int64_t remaining = budget_ - spent_;
  if (remaining <= 0) return 0;
  int64_t desired = round_ == 0 ? config_.min_replicas : config_.batch;
  if (!config_.reuse_freed_budget) {
    // Hard per-arm cap: never run a survivor past max_replicas.
    const int current = cells_[static_cast<size_t>(survivors_.front())]
                            .replicas;  // lockstep: all survivors equal
    desired = std::min<int64_t>(desired, config_.max_replicas - current);
  }
  // Lockstep budget clamp: a round costs desired replicas per survivor.
  desired =
      std::min(desired, remaining / static_cast<int64_t>(survivors_.size()));
  return static_cast<int>(std::max<int64_t>(0, desired));
}

void Race::Observe(int arm, double reward) {
  FM_CHECK(arm >= 0 && arm < static_cast<int>(cells_.size()))
      << "Observe: arm " << arm;
  RacingCell& cell = cells_[static_cast<size_t>(arm)];
  FM_CHECK(cell.survived()) << "Observe on eliminated arm " << cell.name;
  cell.reward.Add(reward);
  ++cell.replicas;
  ++spent_;
}

void Race::FinishRound() {
  // Highest CI lower bound among the survivors; ascending scan so exact
  // ties resolve to the lowest-index arm, independent of anything else.
  double best_lb = -std::numeric_limits<double>::infinity();
  for (int arm : survivors_) {
    best_lb = std::max(
        best_lb, cells_[static_cast<size_t>(arm)].reward.CiLower(
                     config_.bound, config_.delta));
  }
  std::vector<int> next;
  next.reserve(survivors_.size());
  for (int arm : survivors_) {
    RacingCell& cell = cells_[static_cast<size_t>(arm)];
    // Strictly below: an arm whose upper bound *equals* the best lower
    // bound is not yet separated (and the best-lb arm can never eliminate
    // itself, since its own upper bound is >= its lower bound).
    if (cell.reward.CiUpper(config_.bound, config_.delta) < best_lb) {
      cell.eliminated_in_round = round_;
      cell.elimination_slot = spent_;
    } else {
      next.push_back(arm);
    }
  }
  survivors_ = std::move(next);
  ++round_;
}

RacingOutcome Race::Finish() {
  RacingOutcome outcome;
  for (RacingCell& cell : cells_) {
    cell.half_width = cell.reward.CiHalfWidth(config_.bound, config_.delta);
  }
  outcome.cells = cells_;
  outcome.rounds = round_;
  outcome.replicas_spent = spent_;
  outcome.fixed_budget = budget_;
  for (int arm : survivors_) {
    if (outcome.best_arm < 0 ||
        cells_[static_cast<size_t>(arm)].reward.mean() >
            cells_[static_cast<size_t>(outcome.best_arm)].reward.mean()) {
      outcome.best_arm = arm;
    }
  }
  outcome.order.resize(cells_.size());
  std::iota(outcome.order.begin(), outcome.order.end(), 0);
  std::stable_sort(outcome.order.begin(), outcome.order.end(),
                   [this](int a, int b) {
                     return cells_[static_cast<size_t>(a)].reward.mean() >
                            cells_[static_cast<size_t>(b)].reward.mean();
                   });
  return outcome;
}

StatusOr<RacingOutcome> RunRace(std::vector<std::string> arm_names,
                                const RacingConfig& config,
                                const RacingGridHooks& hooks) {
  if (arm_names.empty()) {
    return Status::InvalidArgument("RunRace: no arms");
  }
  Status valid = config.Validate();
  if (!valid.ok()) return valid;
  FM_CHECK(hooks.run_cell != nullptr) << "RunRace: run_cell hook missing";

  Race race(std::move(arm_names), config);
  ThreadPool& pool = GlobalPool();
  int64_t prepared = 0;  // replicas [0, prepared) have been prepared
  while (true) {
    const int n = race.NextRoundSize();
    if (n == 0) break;
    const int64_t first = prepared;

    // Phase A: prepare the round's new replica indices [first, first + n).
    // Lockstep means every survivor races exactly these indices, so each
    // index is prepared exactly once across the whole race.
    if (hooks.prepare) {
      std::vector<Status> prep(static_cast<size_t>(n));
      pool.ParallelFor(n, [&](int64_t i) {
        prep[static_cast<size_t>(i)] =
            hooks.prepare(static_cast<int>(first + i));
      });
      for (const Status& s : prep) {  // lowest failing replica wins
        if (!s.ok()) return s;
      }
    }
    prepared += n;

    // Phase B: the (survivor × new replica) grid into slot-indexed arrays.
    const std::vector<int> survivors = race.survivors();
    const int64_t num_cells = static_cast<int64_t>(survivors.size()) * n;
    std::vector<double> values(static_cast<size_t>(num_cells), 0.0);
    std::vector<Status> statuses(static_cast<size_t>(num_cells));
    pool.ParallelFor(num_cells, [&](int64_t i) {
      const int arm = survivors[static_cast<size_t>(i / n)];
      const int replica = static_cast<int>(first + i % n);
      StatusOr<double> cell = hooks.run_cell(arm, replica);
      if (cell.ok()) {
        values[static_cast<size_t>(i)] = *cell;
      } else {
        statuses[static_cast<size_t>(i)] = cell.status();
      }
    });

    // Ordered reduction on the calling thread: ascending (arm, replica) —
    // fixed fold order is what makes the accumulators byte-identical at
    // any thread count.
    for (int64_t i = 0; i < num_cells; ++i) {
      const Status& s = statuses[static_cast<size_t>(i)];
      if (!s.ok()) return s;
      race.Observe(survivors[static_cast<size_t>(i / n)],
                   values[static_cast<size_t>(i)]);
    }
    if (hooks.release) {
      for (int64_t r = first; r < first + n; ++r) {
        hooks.release(static_cast<int>(r));
      }
    }
    race.FinishRound();
  }
  return race.Finish();
}

StatusOr<RacedComparison> RunRacingComparison(
    const FairMoveConfig& base_config, const std::vector<PolicyKind>& kinds,
    const RacingConfig& racing) {
  if (kinds.empty()) {
    return Status::InvalidArgument("RunRacingComparison: no methods");
  }
  std::vector<std::string> names;
  names.reserve(kinds.size());
  for (PolicyKind kind : kinds) names.push_back(PolicyKindName(kind));

  // No arm can run more replicas than the total budget, so slot arrays
  // sized to the budget cover every reachable replica index.
  const size_t max_index =
      kinds.size() * static_cast<size_t>(std::max(1, racing.max_replicas));
  struct ReplicaState {
    std::unique_ptr<FairMoveSystem> system;
    MethodResult gt;
  };
  std::vector<ReplicaState> replicas(max_index);
  std::vector<std::vector<MethodResult>> results(
      kinds.size(), std::vector<MethodResult>(max_index));

  RacingGridHooks hooks;
  // Replica r's stack comes from RepeatConfig(base, r), and its GT baseline
  // is evaluated here no matter whether the GT *arm* is still racing: every
  // method's vs_gt columns need it. (GT is eval-only, far cheaper than a
  // trained cell.)
  hooks.prepare = [&](int r) -> Status {
    ReplicaState& rep = replicas[static_cast<size_t>(r)];
    auto system_or =
        FairMoveSystem::Create(RepeatConfig(base_config, r));
    if (!system_or.ok()) return system_or.status();
    rep.system = std::move(*system_or);
    rep.gt = rep.system->MakeEvaluator().RunGroundTruth();
    return Status::OK();
  };
  hooks.run_cell = [&](int arm, int r) -> StatusOr<double> {
    ReplicaState& rep = replicas[static_cast<size_t>(r)];
    MethodResult& slot = results[static_cast<size_t>(arm)][static_cast<size_t>(r)];
    if (kinds[static_cast<size_t>(arm)] == PolicyKind::kGroundTruth) {
      slot = rep.gt;  // already evaluated while preparing the replica
    } else {
      slot = rep.system->MakeEvaluator().RunKind(
          kinds[static_cast<size_t>(arm)], rep.gt.metrics);
    }
    return slot.eval_stats.avg_reward;
  };
  hooks.release = [&](int r) {
    replicas[static_cast<size_t>(r)].system.reset();
  };

  auto outcome_or = RunRace(std::move(names), racing, hooks);
  if (!outcome_or.ok()) return outcome_or.status();

  RacedComparison out;
  out.outcome = std::move(*outcome_or);

  // Per arm, over the replicas it actually ran: one-sample partials Merged
  // in ascending replica order on this thread.
  out.aggregate.methods.resize(kinds.size());
  for (size_t arm = 0; arm < kinds.size(); ++arm) {
    RepeatedMethodResult& agg = out.aggregate.methods[arm];
    agg.kind = kinds[arm];
    agg.name = out.outcome.cells[arm].name;
    const int ran = out.outcome.cells[arm].replicas;
    out.aggregate.repeats = std::max(out.aggregate.repeats, ran);
    for (int r = 0; r < ran; ++r) {
      RepeatedMethodResult partial;
      partial.Accumulate(results[arm][static_cast<size_t>(r)]);
      agg.Merge(partial);
    }
  }
  // Every arm raced replica 0 (round 0 runs min_replicas >= 1 for all
  // arms), so the replica-0 rows form a complete report-shaped result set.
  out.first_replica.reserve(kinds.size());
  for (size_t arm = 0; arm < kinds.size(); ++arm) {
    out.first_replica.push_back(results[arm][0]);
  }
  return out;
}

StatusOr<RacedAlphaSweep> RunRacingAlphaSweep(
    const FairMoveConfig& base_config, const std::vector<double>& alphas,
    double reference_alpha, const RacingConfig& racing) {
  if (alphas.empty()) {
    return Status::InvalidArgument("RunRacingAlphaSweep: no alphas");
  }
  std::vector<std::string> names;
  names.reserve(alphas.size());
  for (double alpha : alphas) names.push_back(FormatAlphaArm(alpha));

  const size_t max_index =
      alphas.size() * static_cast<size_t>(std::max(1, racing.max_replicas));
  struct CellEval {
    double pe = 0.0;
    double pf = 0.0;
  };
  std::vector<std::vector<CellEval>> evals(
      alphas.size(), std::vector<CellEval>(max_index));

  RacingGridHooks hooks;
  // Each cell is fully self-contained: it builds replica r's stack, trains
  // a CMA2C policy under its arm's α, then scores it under the fixed
  // reference objective — the protocol of bench_table4_alpha_sweep, with
  // the replica's independently derived seeds (policy seed included, and
  // shared across arms so every arm's replica r starts from the same
  // initialisation — a paired comparison).
  hooks.run_cell = [&](int arm, int r) -> StatusOr<double> {
    FairMoveConfig cfg = RepeatConfig(base_config, r);
    cfg.trainer.reward.alpha = alphas[static_cast<size_t>(arm)];
    auto system_or = FairMoveSystem::Create(cfg);
    if (!system_or.ok()) return system_or.status();
    FairMoveSystem& system = **system_or;
    Cma2cPolicy::Options options;
    options.seed = DeriveSeed(kAlphaSweepPolicySeed, kSeedNsTrainer,
                              static_cast<uint64_t>(r));
    Cma2cPolicy policy(system.sim(), options);
    Trainer trainer = system.MakeTrainer();
    trainer.Train(&policy);
    FairMoveConfig ref_cfg = cfg;
    ref_cfg.trainer.reward.alpha = reference_alpha;
    Trainer reference(&system.sim(), ref_cfg.trainer);
    const Trainer::EpisodeStats eval = reference.RunEvaluationEpisode(
        &policy, cfg.eval.seed,
        static_cast<int64_t>(cfg.eval.days) * kSlotsPerDay);
    CellEval& slot = evals[static_cast<size_t>(arm)][static_cast<size_t>(r)];
    slot.pe = eval.fleet_pe_mean;
    slot.pf = eval.fleet_pf;
    return eval.avg_reward;
  };

  auto outcome_or = RunRace(std::move(names), racing, hooks);
  if (!outcome_or.ok()) return outcome_or.status();

  RacedAlphaSweep out;
  out.outcome = std::move(*outcome_or);
  out.fleet_pe.resize(alphas.size());
  out.fleet_pf.resize(alphas.size());
  for (size_t arm = 0; arm < alphas.size(); ++arm) {
    const int ran = out.outcome.cells[arm].replicas;
    for (int r = 0; r < ran; ++r) {
      out.fleet_pe[arm].Add(evals[arm][static_cast<size_t>(r)].pe);
      out.fleet_pf[arm].Add(evals[arm][static_cast<size_t>(r)].pf);
    }
  }
  return out;
}

void EmitRacingTelemetry(const std::string& race, const RacingConfig& config,
                         const RacingOutcome& outcome) {
  Telemetry& telemetry = Telemetry::Get();
  if (!telemetry.enabled()) return;
  for (size_t arm = 0; arm < outcome.cells.size(); ++arm) {
    const RacingCell& cell = outcome.cells[arm];
    JsonObject row;
    row.Set("kind", "racing_cell")
        .Set("phase", "racing")
        .Set("method", cell.name)
        .Set("race", race)
        .Set("arm", static_cast<int64_t>(arm))
        .Set("replicas", cell.replicas)
        .Set("survived", cell.survived())
        .Set("eliminated_in_round", cell.eliminated_in_round)
        .Set("elimination_slot", cell.elimination_slot)
        .Set("mean_reward", cell.reward.mean())
        .Set("half_width", cell.half_width)  // +inf renders as JSON null
        .Set("bound", CiBoundName(config.bound))
        .Set("delta", config.delta)
        .Set("replicas_spent", outcome.replicas_spent)
        .Set("fixed_budget", outcome.fixed_budget);
    telemetry.training_stream().Write(row);
  }
}

Status WriteRacingJson(const std::string& path, const std::string& race,
                       const std::string& mode, const RacingConfig& config,
                       const RacingOutcome& outcome, double wall_seconds) {
  JsonArray cells;
  for (size_t arm = 0; arm < outcome.cells.size(); ++arm) {
    const RacingCell& cell = outcome.cells[arm];
    JsonObject row;
    row.Set("arm", static_cast<int64_t>(arm))
        .Set("name", cell.name)
        .Set("replicas", cell.replicas)
        .Set("survived", cell.survived())
        .Set("eliminated_in_round", cell.eliminated_in_round)
        .Set("elimination_slot", cell.elimination_slot)
        .Set("mean_reward", cell.reward.mean())
        .Set("half_width", cell.half_width);
    cells.PushRaw(row.Str());
  }
  JsonArray order;
  for (int arm : outcome.order) {
    order.Push(outcome.cells[static_cast<size_t>(arm)].name);
  }

  JsonObject doc;
  doc.Set("schema", "fairmove.racing.v1")
      .Set("race", race)
      .Set("mode", mode)
      .Set("bound", CiBoundName(config.bound))
      .Set("delta", config.delta)
      .Set("min_replicas", config.min_replicas)
      .Set("batch", config.batch)
      .Set("max_replicas", config.max_replicas)
      .Set("reuse_freed_budget", config.reuse_freed_budget)
      .Set("rounds", outcome.rounds)
      .Set("replicas_spent", outcome.replicas_spent)
      .Set("fixed_budget", outcome.fixed_budget)
      .Set("savings_factor", outcome.SavingsFactor())
      .Set("best_arm", outcome.best_arm >= 0
                           ? outcome.cells[static_cast<size_t>(
                                               outcome.best_arm)]
                                 .name
                           : std::string())
      .Set("wall_seconds", wall_seconds)
      .Set("cells_per_second",
           wall_seconds > 0.0
               ? static_cast<double>(outcome.replicas_spent) / wall_seconds
               : 0.0)
      .SetRaw("order", order.Str())
      .SetRaw("cells", cells.Str());

  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open " + path);
  out << doc.Str() << "\n";
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

}  // namespace fairmove
