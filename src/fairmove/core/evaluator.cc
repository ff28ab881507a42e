#include "fairmove/core/evaluator.h"

#include <algorithm>

#include "fairmove/common/parallel.h"
#include "fairmove/obs/span.h"
#include "fairmove/rl/cma2c_policy.h"
#include "fairmove/rl/dqn_policy.h"
#include "fairmove/rl/faircharge_policy.h"
#include "fairmove/rl/gt_policy.h"
#include "fairmove/rl/sd2_policy.h"
#include "fairmove/rl/tba_policy.h"
#include "fairmove/rl/tql_policy.h"

namespace fairmove {

const char* PolicyKindName(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kGroundTruth:
      return "GT";
    case PolicyKind::kSd2:
      return "SD2";
    case PolicyKind::kTql:
      return "TQL";
    case PolicyKind::kDqn:
      return "DQN";
    case PolicyKind::kTba:
      return "TBA";
    case PolicyKind::kFairMove:
      return "FairMove";
    case PolicyKind::kFairCharge:
      return "FairCharge";
  }
  return "unknown";
}

std::unique_ptr<DisplacementPolicy> MakePolicy(PolicyKind kind,
                                               const Simulator& sim,
                                               uint64_t seed) {
  switch (kind) {
    case PolicyKind::kGroundTruth: {
      GtPolicy::Options options;
      options.seed = seed + 11;
      return std::make_unique<GtPolicy>(options);
    }
    case PolicyKind::kSd2:
      return std::make_unique<Sd2Policy>();
    case PolicyKind::kTql: {
      TqlPolicy::Options options;
      options.seed = seed + 22;
      return std::make_unique<TqlPolicy>(sim, options);
    }
    case PolicyKind::kDqn: {
      DqnPolicy::Options options;
      options.seed = seed + 33;
      return std::make_unique<DqnPolicy>(sim, options);
    }
    case PolicyKind::kTba: {
      TbaPolicy::Options options;
      options.seed = seed + 44;
      return std::make_unique<TbaPolicy>(sim, options);
    }
    case PolicyKind::kFairMove: {
      Cma2cPolicy::Options options;
      options.seed = seed + 55;
      return std::make_unique<Cma2cPolicy>(sim, options);
    }
    case PolicyKind::kFairCharge: {
      FairChargePolicy::Options options;
      options.seed = seed + 66;
      return std::make_unique<FairChargePolicy>(options);
    }
  }
  FM_CHECK(false) << "unknown policy kind";
  return nullptr;
}

Status EvalConfig::Validate() const {
  if (days <= 0) return Status::InvalidArgument("days must be > 0");
  return Status::OK();
}

Evaluator::Evaluator(Simulator* sim, TrainerConfig trainer_config,
                     EvalConfig eval_config)
    : sim_(sim),
      trainer_config_(trainer_config),
      eval_config_(eval_config) {
  FM_CHECK(sim != nullptr);
  FM_CHECK(trainer_config.Validate().ok()) << trainer_config.Validate();
  FM_CHECK(eval_config.Validate().ok()) << eval_config.Validate();
}

MethodResult Evaluator::RunGroundTruth() {
  FM_SPAN("evaluator/ground_truth");
  auto policy = MakePolicy(PolicyKind::kGroundTruth, *sim_, 7000);
  MethodResult result = RunOne(policy.get(), FleetMetrics{});
  result.kind = PolicyKind::kGroundTruth;
  // GT is its own baseline.
  result.vs_gt = CompareToGroundTruth(result.metrics, result.metrics);
  return result;
}

MethodResult Evaluator::RunKind(PolicyKind kind, const FleetMetrics& gt) const {
  FM_SPAN("evaluator/method");
  auto sim_or = Simulator::Create(&sim_->city(), &sim_->demand(),
                                  sim_->tariff(), sim_->config());
  FM_CHECK(sim_or.ok()) << sim_or.status();
  std::unique_ptr<Simulator> sim = std::move(*sim_or);
  auto policy = MakePolicy(kind, *sim, 7000);
  Evaluator replica(sim.get(), trainer_config_, eval_config_);
  MethodResult result = replica.RunOne(policy.get(), gt);
  result.kind = kind;
  return result;
}

MethodResult Evaluator::RunOne(DisplacementPolicy* policy,
                               const FleetMetrics& gt) {
  FM_CHECK(policy != nullptr);
  MethodResult result;
  result.name = policy->name();
  Trainer trainer(sim_, trainer_config_);
  if (policy->WantsTransitions()) {
    result.training_stats = trainer.Train(policy);
  }
  result.eval_stats = trainer.RunEvaluationEpisode(
      policy, eval_config_.seed,
      static_cast<int64_t>(eval_config_.days) * kSlotsPerDay);
  result.metrics = ComputeFleetMetrics(*sim_);
  result.vs_gt = CompareToGroundTruth(gt, result.metrics);
  return result;
}

std::vector<MethodResult> Evaluator::Run(
    const std::vector<PolicyKind>& kinds) {
  FM_SPAN("evaluator/run");
  std::vector<PolicyKind> rest;
  for (PolicyKind kind : kinds) {
    if (kind != PolicyKind::kGroundTruth) rest.push_back(kind);
  }
  std::vector<MethodResult> results(1 + rest.size());
  results[0] = RunGroundTruth();
  const FleetMetrics& gt_metrics = results[0].metrics;
  // One independent cell per method, each on a private replica simulator;
  // slot-indexed writes keep the output identical for any pool size.
  GlobalPool().ParallelFor(static_cast<int64_t>(rest.size()), [&](int64_t i) {
    results[static_cast<size_t>(i) + 1] =
        RunKind(rest[static_cast<size_t>(i)], gt_metrics);
  });
  return results;
}

}  // namespace fairmove
