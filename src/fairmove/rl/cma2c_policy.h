#ifndef FAIRMOVE_RL_CMA2C_POLICY_H_
#define FAIRMOVE_RL_CMA2C_POLICY_H_

#include <memory>
#include <vector>

#include "fairmove/common/rng.h"
#include "fairmove/nn/adam.h"
#include "fairmove/nn/mlp.h"
#include "fairmove/resilience/divergence_guard.h"
#include "fairmove/rl/features.h"
#include "fairmove/rl/replay_buffer.h"
#include "fairmove/sim/policy.h"

namespace fairmove {

/// CMA2C — Centralized Multi-Agent Actor-Critic, the paper's contribution
/// (§III-D, Algorithm 1). One *shared* stochastic actor and one *shared*
/// critic serve every agent ("centralized training, decentralized
/// execution"): the actor maps the local+global state to a masked softmax
/// over displacement actions and is sampled (not argmax'd) — the sampling
/// is what spreads simultaneous decisions across regions and stations; the
/// critic V(s) is trained on TD targets from a target network (Eq 6–7) and
/// provides the TD-error advantage (Eq 9–11) for the policy gradient
/// (Eq 8). The reward the Trainer feeds in is the fairness-weighted Eq 5.
class Cma2cPolicy : public DisplacementPolicy {
 public:
  struct Options {
    std::vector<int> actor_hidden = {64, 64};
    std::vector<int> critic_hidden = {64, 64};
    /// lambda_1 of the paper; Adam as §IV-A.
    double actor_learning_rate = 5e-4;
    double critic_learning_rate = 1e-3;
    /// Weight of the actor's entropy regulariser (Eq 8).
    double entropy_bonus = 0.02;
    /// Polyak factor of the per-batch soft target-critic update.
    double target_tau = 0.05;
    /// Updates before the actor starts (the critic needs a usable value
    /// estimate before policy gradients mean anything).
    int actor_warmup_batches = 20;
    /// Transitions are buffered until this many have accumulated, then one
    /// actor/critic update runs on the whole batch (paper §IV-A: batch
    /// size 3500).
    size_t batch_size = 3500;
    /// Gradient passes over each filled buffer (mild data reuse).
    int passes_per_batch = 2;
    /// Softmax temperature at evaluation: < 1 sharpens the learned policy
    /// while keeping enough stochasticity to load-balance simultaneous
    /// decisions (the coordination mechanism).
    double eval_temperature = 1.0;
    /// Initial logit bias of the charging actions. Negative so a cold
    /// policy rarely charges voluntarily (drivers' prior); learning can
    /// raise it where charging pays off.
    double charge_logit_bias = -2.0;
    uint64_t seed = 505;
  };

  /// `sim` must outlive the policy.
  explicit Cma2cPolicy(const Simulator& sim);
  Cma2cPolicy(const Simulator& sim, Options options);

  std::string name() const override { return "FairMove"; }

  void DecideActions(const Simulator& sim, const std::vector<TaxiObs>& vacant,
                     std::vector<Action>* actions) override;

  void SetTraining(bool training) override { training_ = training; }
  bool WantsTransitions() const override { return true; }
  void Learn(const std::vector<Transition>& transitions) override;

  /// Arms checkpoint-rollback divergence protection: a NaN/Inf TD target,
  /// loss, logit, or parameter during an update restores the last-good
  /// actor/critic, rebuilds the optimizers at a decayed learning rate, and
  /// continues; Health() turns non-OK once the rollback budget is spent and
  /// Learn() becomes a no-op. Call before training starts.
  void EnableDivergenceGuard(
      DivergenceGuard::Options options = DivergenceGuard::Options());
  Status Health() const override;
  /// The armed guard, or nullptr (diagnostics for tests/benches).
  const DivergenceGuard* divergence_guard() const { return guard_.get(); }

  /// One gradient update over every row of `batch`, a store of this
  /// policy's width and action count (Learn's, once full; for tests).
  void Update(const TransitionStore& batch);
  const std::vector<std::vector<float>>* LastFeatures() const override {
    return &last_features_;
  }

  /// Persists the trained actor and critic as two FMLP1 blobs in one file,
  /// written atomically. Weights only: the sampling RNG is not saved.
  /// LoadModel restores them into an identically configured policy and
  /// changes nothing unless both load (NotFound for a missing file).
  Status SaveModel(const std::string& path) const;
  Status LoadModel(const std::string& path);

  /// Full training state: actor/critic/target networks, both Adam moment
  /// sets, the RNG stream, the cross-episode transition buffer, update
  /// counters, and (when armed) the divergence-guard budget. See
  /// DisplacementPolicy::SaveState for the exactness contract.
  Status SaveState(BinaryWriter* out) const override;
  Status RestoreState(BinaryReader* in) override;

  /// Critic value of a raw feature vector (tests/diagnostics).
  double Value(const std::vector<float>& state) const;
  /// Mean critic TD loss of the last Learn() batch.
  double last_critic_loss() const { return last_critic_loss_; }
  /// Mean entropy of the behaviour distribution in the last Learn() batch.
  double last_entropy() const { return last_entropy_; }

  void AppendTelemetry(JsonObject* row) const override;

 private:
  /// Restores the last-good checkpoint after a detected divergence and
  /// rebuilds both optimizers at the guard's decayed learning rate.
  void RollBack(const std::string& why);

  Options options_;
  const ActionSpace* space_;
  FeatureExtractor features_;
  int num_actions_;
  std::unique_ptr<Mlp> actor_;
  std::unique_ptr<Mlp> critic_;
  std::unique_ptr<Mlp> critic_target_;
  std::unique_ptr<Adam> actor_opt_;
  std::unique_ptr<Adam> critic_opt_;
  std::unique_ptr<DivergenceGuard> guard_;
  Rng rng_;
  bool training_ = true;
  int learn_batches_ = 0;
  TransitionStore batch_;  // fills across Learn calls up to batch_size
  double last_critic_loss_ = 0.0;
  double last_entropy_ = 0.0;
  double last_actor_loss_ = 0.0;
  std::vector<std::vector<float>> last_features_;
  std::vector<bool> mask_scratch_;
  // Batched decision-path scratch: one feature row per vacant taxi, one
  // actor pass per slot. Reused every slot, so the steady state allocates
  // nothing (see DESIGN.md on the batched inference path).
  Matrix batch_x_;
  Matrix batch_logits_;
  Mlp::ShardedWorkspace forward_ws_;
  // Training scratch reused across Update() calls: once the batch size is
  // stable, an update allocates nothing (pinned by sim_alloc_test).
  Matrix next_v_;
  Matrix critic_grad_;
  Matrix actor_grad_;
  std::vector<double> targets_;
  std::vector<double> advantages_;
  std::vector<float> probs_;
  Mlp::Gradients critic_grads_;
  Mlp::Gradients actor_grads_;
  Mlp::ShardedWorkspace target_ws_;
  Mlp::Tape critic_tape_;
  Mlp::Tape actor_tape_;
  Mlp::Workspace backward_ws_;
};

}  // namespace fairmove

#endif  // FAIRMOVE_RL_CMA2C_POLICY_H_
