#ifndef FAIRMOVE_CORE_FAIRMOVE_H_
#define FAIRMOVE_CORE_FAIRMOVE_H_

#include <memory>

#include "fairmove/core/evaluator.h"
#include "fairmove/demand/demand_model.h"
#include "fairmove/geo/city_builder.h"
#include "fairmove/pricing/tou_tariff.h"
#include "fairmove/sim/simulator.h"

namespace fairmove {

/// Top-level configuration of a FairMove experiment: the synthetic city,
/// the demand surface, the fleet simulator, training and evaluation.
struct FairMoveConfig {
  CityConfig city;
  DemandConfig demand;
  SimConfig sim;
  TrainerConfig trainer;
  EvalConfig eval;

  /// The paper's full setting: 491 regions, 123 stations, 20,130 e-taxis.
  static FairMoveConfig FullShenzhen();

  /// A reduced instance sized so the complete table/figure suite runs on a
  /// single core; honours DESIGN.md's scale-substitution note.
  static FairMoveConfig BenchDefault();

  /// Returns a copy with the city and fleet shrunk by `scale` in (0, 1]
  /// (region/station/taxi counts scale together; per-taxi demand volume is
  /// preserved). An out-of-range or non-finite scale is recorded in
  /// sim.scale and rejected with a structured Status when the config is
  /// used to Create a system — never a process abort.
  FairMoveConfig Scaled(double scale) const;
};

/// Owns the whole experiment stack (city -> demand -> simulator) with
/// stable addresses, plus factory helpers. The one-stop entry point used by
/// the examples and every bench binary.
class FairMoveSystem {
 public:
  static StatusOr<std::unique_ptr<FairMoveSystem>> Create(
      const FairMoveConfig& config);

  FairMoveSystem(const FairMoveSystem&) = delete;
  FairMoveSystem& operator=(const FairMoveSystem&) = delete;

  const FairMoveConfig& config() const { return config_; }
  const City& city() const { return *city_; }
  const DemandModel& demand() const { return *demand_; }
  Simulator& sim() { return *sim_; }
  const Simulator& sim() const { return *sim_; }

  Trainer MakeTrainer() { return Trainer(sim_.get(), config_.trainer); }
  Evaluator MakeEvaluator() {
    return Evaluator(sim_.get(), config_.trainer, config_.eval);
  }

  /// Trains and evaluates the listed methods against GT — the workhorse of
  /// the comparison benches (Evaluator::Run). Non-GT methods run
  /// concurrently on the global pool (each in a private replica simulator);
  /// the result table is byte-identical at any FAIRMOVE_THREADS setting.
  /// Side effect: after this returns, sim() holds the GT episode's state.
  std::vector<MethodResult> RunComparison(
      const std::vector<PolicyKind>& kinds) {
    return MakeEvaluator().Run(kinds);
  }

  /// All six methods of the paper.
  static std::vector<PolicyKind> AllMethods() {
    return {PolicyKind::kGroundTruth, PolicyKind::kSd2, PolicyKind::kTql,
            PolicyKind::kDqn,         PolicyKind::kTba, PolicyKind::kFairMove};
  }

 private:
  FairMoveSystem(FairMoveConfig config, std::unique_ptr<City> city,
                 std::unique_ptr<DemandModel> demand,
                 std::unique_ptr<Simulator> sim)
      : config_(std::move(config)),
        city_(std::move(city)),
        demand_(std::move(demand)),
        sim_(std::move(sim)) {}

  FairMoveConfig config_;
  std::unique_ptr<City> city_;
  std::unique_ptr<DemandModel> demand_;
  std::unique_ptr<Simulator> sim_;
};

}  // namespace fairmove

#endif  // FAIRMOVE_CORE_FAIRMOVE_H_
