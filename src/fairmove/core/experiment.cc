#include "fairmove/core/experiment.h"

#include <cstdio>

#include "fairmove/common/rng.h"
#include "fairmove/core/racing.h"

namespace fairmove {

namespace {

std::string MeanStd(const RunningStats& stats, bool percent) {
  char buf[64];
  if (percent) {
    std::snprintf(buf, sizeof(buf), "%+.1f%% ± %.1f", stats.mean() * 100.0,
                  stats.stddev() * 100.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f ± %.1f", stats.mean(),
                  stats.stddev());
  }
  return buf;
}

}  // namespace

Table RepeatedComparison::ToTable() const {
  Table table({"method", "PIPE", "PIPF", "PRCT", "PRIT", "mean PE", "PF"});
  for (const RepeatedMethodResult& m : methods) {
    table.Row()
        .Str(m.name)
        .Str(MeanStd(m.pipe, true))
        .Str(MeanStd(m.pipf, true))
        .Str(MeanStd(m.prct, true))
        .Str(MeanStd(m.prit, true))
        .Str(MeanStd(m.pe_mean, false))
        .Str(MeanStd(m.pf, false))
        .Done();
  }
  return table;
}

void RepeatedMethodResult::Accumulate(const MethodResult& r) {
  pipe.Add(r.vs_gt.pipe);
  pipf.Add(r.vs_gt.pipf);
  prct.Add(r.vs_gt.prct);
  prit.Add(r.vs_gt.prit);
  pe_mean.Add(r.metrics.pe.Mean());
  pf.Add(r.metrics.pf);
  service_rate.Add(r.metrics.ServiceRate());
  reward.Add(r.eval_stats.avg_reward);
}

void RepeatedMethodResult::Merge(const RepeatedMethodResult& other) {
  pipe.Merge(other.pipe);
  pipf.Merge(other.pipf);
  prct.Merge(other.prct);
  prit.Merge(other.prit);
  pe_mean.Merge(other.pe_mean);
  pf.Merge(other.pf);
  service_rate.Merge(other.service_rate);
  reward.Merge(other.reward);
}

FairMoveConfig RepeatConfig(const FairMoveConfig& base, int repeat) {
  FairMoveConfig config = base;
  const uint64_t r = static_cast<uint64_t>(repeat);
  config.sim.seed = DeriveSeed(base.sim.seed, kSeedNsSim, r);
  config.city.seed = DeriveSeed(base.city.seed, kSeedNsCity, r);
  if (base.trainer.seed_base != 0) {  // 0 = "reuse sim seed", keep it
    config.trainer.seed_base =
        DeriveSeed(base.trainer.seed_base, kSeedNsTrainer, r);
  }
  config.eval.seed = DeriveSeed(base.eval.seed, kSeedNsEval, r);
  return config;
}

StatusOr<RepeatedComparison> RunRepeatedComparison(
    const FairMoveConfig& base_config, const std::vector<PolicyKind>& kinds,
    int repeats) {
  if (repeats <= 0) return Status::InvalidArgument("repeats must be > 0");
  std::vector<PolicyKind> arms = {PolicyKind::kGroundTruth};
  for (PolicyKind kind : kinds) {
    if (kind != PolicyKind::kGroundTruth) arms.push_back(kind);
  }
  // The fixed grid is the race whose first round spends the whole budget:
  // every arm runs every repeat before any elimination check.
  RacingConfig grid;
  grid.min_replicas = grid.max_replicas = repeats;
  auto raced_or = RunRacingComparison(base_config, arms, grid);
  if (!raced_or.ok()) return raced_or.status();
  return std::move(raced_or->aggregate);
}

}  // namespace fairmove
