#ifndef FAIRMOVE_RL_DQN_POLICY_H_
#define FAIRMOVE_RL_DQN_POLICY_H_

#include <memory>
#include <vector>

#include "fairmove/common/rng.h"
#include "fairmove/nn/adam.h"
#include "fairmove/nn/mlp.h"
#include "fairmove/rl/features.h"
#include "fairmove/rl/replay_buffer.h"
#include "fairmove/sim/policy.h"

namespace fairmove {

/// DQN baseline (paper §IV-A, [23]): one shared Q-network over the full
/// local+global feature vector, epsilon-greedy *deterministic* argmax
/// behaviour, uniform experience replay, and a periodically synced target
/// network. The greedy argmax is the structural difference to CMA2C:
/// identical states produce identical actions, so nearby agents herd into
/// the same region/station — which is why DQN trails FairMove on idle time
/// in Table III.
class DqnPolicy : public DisplacementPolicy {
 public:
  struct Options {
    std::vector<int> hidden = {64, 64};
    double learning_rate = 1e-3;
    double epsilon_start = 0.30;
    double epsilon_end = 0.02;
    int epsilon_decay_batches = 600;
    /// Residual exploration at evaluation time (standard epsilon-eval;
    /// also softens intra-slot argmax herding).
    double epsilon_eval = 0.05;
    size_t replay_capacity = 200000;
    size_t min_replay = 1000;
    int minibatch = 64;
    /// Gradient steps per Learn() call.
    int updates_per_learn = 4;
    /// Hard target sync every this many gradient steps.
    int target_sync_steps = 250;
    /// Initial Q bias of charging actions (pessimistic prior against
    /// needless voluntary charging before any learning has happened).
    double charge_q_bias = -0.5;
    /// Double DQN: select the next action with the online network, score it
    /// with the target network (van Hasselt et al.) — reduces the
    /// overestimation bias of vanilla DQN.
    bool double_dqn = false;
    uint64_t seed = 404;
  };

  /// `sim` must outlive the policy (feature extractor keeps a pointer).
  explicit DqnPolicy(const Simulator& sim);
  DqnPolicy(const Simulator& sim, Options options);

  std::string name() const override { return "DQN"; }

  void DecideActions(const Simulator& sim, const std::vector<TaxiObs>& vacant,
                     std::vector<Action>* actions) override;

  void SetTraining(bool training) override { training_ = training; }
  bool WantsTransitions() const override { return true; }
  void Learn(const std::vector<Transition>& transitions) override;
  const std::vector<std::vector<float>>* LastFeatures() const override {
    return &last_features_;
  }

  double CurrentEpsilon() const;
  size_t replay_size() const { return replay_.size(); }

  /// Persists / restores the trained Q-network as one bare FMLP1 blob (the
  /// target net is re-synced on load). The save is atomic (tmp + fsync +
  /// rename); a failed load changes nothing.
  Status SaveModel(const std::string& path) const;
  Status LoadModel(const std::string& path);

  /// Full training state: online/target networks, Adam moments, the entire
  /// replay ring (contents and cursors), the RNG stream, and the
  /// exploration/target-sync counters. See DisplacementPolicy::SaveState
  /// for the exactness contract.
  Status SaveState(BinaryWriter* out) const override;
  Status RestoreState(BinaryReader* in) override;

 private:
  void GradientStep();

  Options options_;
  const ActionSpace* space_;
  FeatureExtractor features_;
  int num_actions_;
  std::unique_ptr<Mlp> q_net_;
  std::unique_ptr<Mlp> target_net_;
  std::unique_ptr<Adam> optimizer_;
  ReplayBuffer replay_;
  Rng rng_;
  bool training_ = true;
  int learn_batches_ = 0;
  int64_t grad_steps_ = 0;
  std::vector<std::vector<float>> last_features_;
  std::vector<bool> mask_scratch_;
  // Batched decision-path scratch (reused every slot; allocation-free in
  // the steady state).
  Matrix batch_x_;
  Matrix batch_q_;
  Mlp::ShardedWorkspace forward_ws_;
  // Training scratch reused across GradientStep() calls: once the
  // minibatch size is stable, a gradient step allocates nothing (pinned by
  // sim_alloc_test). One workspace serves the target pass and backprop.
  std::vector<int> sample_;
  Matrix x_;
  Matrix next_x_;
  Matrix next_q_;
  Matrix next_q_online_;
  std::vector<float> targets_;
  Matrix grad_;
  Mlp::Gradients grads_;
  Mlp::Tape tape_;
  Mlp::Workspace train_ws_;
};

}  // namespace fairmove

#endif  // FAIRMOVE_RL_DQN_POLICY_H_
