#ifndef FAIRMOVE_RL_TQL_POLICY_H_
#define FAIRMOVE_RL_TQL_POLICY_H_

#include <vector>

#include "fairmove/common/rng.h"
#include "fairmove/sim/policy.h"

namespace fairmove {

/// TQL — standard Tabular Q-Learning baseline (paper §IV-A, [22]).
/// Discrete state: (hour of day, region, SoC bucket {forced, low, high});
/// epsilon-greedy behaviour over the masked action set; one shared table
/// for all agents.
class TqlPolicy : public DisplacementPolicy {
 public:
  struct Options {
    double learning_rate = 0.1;
    double epsilon_start = 0.5;
    double epsilon_end = 0.05;
    /// Learn() calls over which epsilon anneals linearly.
    int epsilon_decay_batches = 400;
    /// Residual exploration at evaluation (softens deterministic argmax
    /// herding when many same-state agents decide simultaneously).
    double epsilon_eval = 0.05;
    uint64_t seed = 202;
  };

  /// Needs the city geometry to size the table; `sim` provides it.
  explicit TqlPolicy(const Simulator& sim);
  TqlPolicy(const Simulator& sim, Options options);

  std::string name() const override { return "TQL"; }

  void DecideActions(const Simulator& sim, const std::vector<TaxiObs>& vacant,
                     std::vector<Action>* actions) override;

  void SetTraining(bool training) override { training_ = training; }
  bool WantsTransitions() const override { return true; }
  void Learn(const std::vector<Transition>& transitions) override;

  double CurrentEpsilon() const;
  /// Q value accessor (tests).
  float Q(int hour, RegionId region, int soc_bucket, int action) const;

  /// Persists / restores the Q table as FMTQ1: magic "FMTQ1", i32 regions,
  /// i32 actions, then the table as f32. Dimensions are checked on load, a
  /// failed load leaves the table unchanged, and the save is atomic.
  Status SaveModel(const std::string& path) const;
  Status LoadModel(const std::string& path);

  /// Full training state: the Q table, the RNG stream, and the epsilon-
  /// anneal counter. See DisplacementPolicy::SaveState for the contract.
  Status SaveState(BinaryWriter* out) const override;
  Status RestoreState(BinaryReader* in) override;

 private:
  static int SocBucket(bool must_charge, bool may_charge) {
    return must_charge ? 0 : (may_charge ? 1 : 2);
  }
  size_t StateOffset(int hour, RegionId region, int soc_bucket) const;

  Options options_;
  const ActionSpace* space_;  // owned by the simulator; must outlive us
  int num_regions_;
  int num_actions_;
  std::vector<float> table_;
  Rng rng_;
  bool training_ = true;
  int learn_batches_ = 0;
  std::vector<bool> mask_scratch_;
};

}  // namespace fairmove

#endif  // FAIRMOVE_RL_TQL_POLICY_H_
