#ifndef FAIRMOVE_CORE_EVALUATOR_H_
#define FAIRMOVE_CORE_EVALUATOR_H_

#include <memory>
#include <string>
#include <vector>

#include "fairmove/core/metrics.h"
#include "fairmove/core/trainer.h"
#include "fairmove/sim/simulator.h"

namespace fairmove {

/// The six displacement strategies of the paper's evaluation (§IV-A).
enum class PolicyKind {
  kGroundTruth = 0,
  kSd2 = 1,
  kTql = 2,
  kDqn = 3,
  kTba = 4,
  kFairMove = 5,    // CMA2C
  kFairCharge = 6,  // charging-only recommender (related work [16])
};

const char* PolicyKindName(PolicyKind kind);

/// Instantiates a policy of the given kind bound to `sim` (which must
/// outlive it). `seed` perturbs the policy's internal RNG/initialisation.
std::unique_ptr<DisplacementPolicy> MakePolicy(PolicyKind kind,
                                               const Simulator& sim,
                                               uint64_t seed);

struct EvalConfig {
  /// Evaluation horizon.
  int days = 2;
  /// Seed of the evaluation episode (shared by all methods so they face
  /// the same demand realisation).
  uint64_t seed = 424242;

  Status Validate() const;
};

/// Result of evaluating one method.
struct MethodResult {
  PolicyKind kind = PolicyKind::kGroundTruth;
  std::string name;
  FleetMetrics metrics;
  ComparisonMetrics vs_gt;
  Trainer::EpisodeStats eval_stats;
  std::vector<Trainer::EpisodeStats> training_stats;
};

/// Trains (where applicable) and evaluates a set of methods under identical
/// demand realisations, with GT as the comparison baseline — the harness
/// behind Tables II/III and Figs 10-16.
class Evaluator {
 public:
  /// `sim` must outlive the evaluator.
  Evaluator(Simulator* sim, TrainerConfig trainer_config,
            EvalConfig eval_config);

  /// Runs the listed methods in order. kGroundTruth is always evaluated
  /// first (prepended if absent), on the bound simulator, because every
  /// other method is compared against it. The other methods then run
  /// concurrently on the global pool, one RunKind replica each, into slots
  /// indexed by position, so the results are byte-identical at any thread
  /// count. The bound simulator ends a Run() holding the GT episode.
  std::vector<MethodResult> Run(const std::vector<PolicyKind>& kinds);

  /// RunOne on a private replica of the bound simulator: same city, demand,
  /// tariff and SimConfig (seed included). Because Simulator::Reset makes a
  /// method run a pure function of its seeds, the result is bit-identical
  /// to RunOne on the bound simulator. Thread-safe: const, shares nothing
  /// mutable with other RunKind calls (the replica, trainer and policy are
  /// all function-local).
  MethodResult RunKind(PolicyKind kind, const FleetMetrics& gt) const;

  /// Trains (if the policy learns) + evaluates a single externally
  /// constructed policy on the bound simulator and compares it against
  /// `gt`.
  MethodResult RunOne(DisplacementPolicy* policy, const FleetMetrics& gt);

  /// Evaluates the GT baseline only.
  MethodResult RunGroundTruth();

 private:
  Simulator* sim_;
  TrainerConfig trainer_config_;
  EvalConfig eval_config_;
};

}  // namespace fairmove

#endif  // FAIRMOVE_CORE_EVALUATOR_H_
