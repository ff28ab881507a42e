#ifndef FAIRMOVE_RL_TBA_POLICY_H_
#define FAIRMOVE_RL_TBA_POLICY_H_

#include <memory>
#include <vector>

#include "fairmove/common/rng.h"
#include "fairmove/nn/adam.h"
#include "fairmove/nn/mlp.h"
#include "fairmove/rl/replay_buffer.h"
#include "fairmove/sim/policy.h"

namespace fairmove {

/// TBA — Trip Bandit Approach (paper §IV-A, [6], SIGSPATIAL Cup 2019):
/// a purely competitive REINFORCE learner. Each agent sees only its *own*
/// local state (time, location, SoC — no fleet/global view, no
/// communication), optimises only its *own* profit (the alpha = 1 reward
/// component), and updates a shared softmax policy with the classic
/// REINFORCE rule against a moving-average baseline (the per-decision
/// "bandit" view of the original).
class TbaPolicy : public DisplacementPolicy {
 public:
  struct Options {
    std::vector<int> hidden = {32};
    double learning_rate = 1e-3;
    /// EWMA factor of the reward baseline.
    double baseline_decay = 0.99;
    double entropy_bonus = 0.02;
    /// Buffered batch size (paper §IV-A).
    size_t batch_size = 3500;
    /// Initial logit bias of the charging actions (see Cma2cPolicy).
    double charge_logit_bias = -2.0;
    uint64_t seed = 303;
  };

  explicit TbaPolicy(const Simulator& sim);
  TbaPolicy(const Simulator& sim, Options options);

  std::string name() const override { return "TBA"; }

  void DecideActions(const Simulator& sim, const std::vector<TaxiObs>& vacant,
                     std::vector<Action>* actions) override;

  void SetTraining(bool training) override { training_ = training; }
  bool WantsTransitions() const override { return true; }
  void Learn(const std::vector<Transition>& transitions) override;
  /// One REINFORCE update over every row of `batch`, a store of this
  /// policy's width and action count (exposed for tests).
  void Update(const TransitionStore& batch);
  const std::vector<std::vector<float>>* LastFeatures() const override {
    return &last_features_;
  }

  int feature_dim() const { return feature_dim_; }
  double baseline() const { return baseline_; }

  /// Full training state: policy network, Adam moments, RNG stream, the
  /// cross-episode transition buffer, and the REINFORCE baseline. See
  /// DisplacementPolicy::SaveState for the exactness contract.
  Status SaveState(BinaryWriter* out) const override;
  Status RestoreState(BinaryReader* in) override;

  /// Own-state-only featurisation: writes feature_dim() features at `out`.
  void LocalFeatures(const Simulator& sim, const TaxiObs& obs,
                     float* out) const;

 private:

  Options options_;
  const ActionSpace* space_;  // owned by the simulator; must outlive us
  int feature_dim_;
  int num_actions_;
  std::unique_ptr<Mlp> net_;
  std::unique_ptr<Adam> optimizer_;
  Rng rng_;
  bool training_ = true;
  TransitionStore batch_;  // fills across Learn calls up to batch_size
  double baseline_ = 0.0;
  bool baseline_init_ = false;
  std::vector<std::vector<float>> last_features_;
  std::vector<bool> mask_scratch_;
  // Batched decision-path scratch (reused every slot; allocation-free in
  // the steady state).
  Matrix batch_x_;
  Matrix batch_logits_;
  Mlp::ShardedWorkspace forward_ws_;
  // Training scratch reused across Update() calls: once the batch size is
  // stable, an update allocates nothing (pinned by sim_alloc_test).
  Matrix grad_;
  std::vector<float> probs_;
  Mlp::Gradients grads_;
  Mlp::Tape tape_;
  Mlp::Workspace backward_ws_;
};

}  // namespace fairmove

#endif  // FAIRMOVE_RL_TBA_POLICY_H_
