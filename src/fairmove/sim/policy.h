#ifndef FAIRMOVE_SIM_POLICY_H_
#define FAIRMOVE_SIM_POLICY_H_

#include <string>
#include <vector>

#include "fairmove/common/status.h"
#include "fairmove/sim/action.h"
#include "fairmove/sim/taxi.h"

namespace fairmove {

class Simulator;
class JsonObject;
class BinaryReader;
class BinaryWriter;

/// What a policy sees about each vacant taxi asking for a decision.
struct TaxiObs {
  TaxiId taxi = -1;
  RegionId region = kInvalidRegion;
  double soc = 1.0;
  /// SoC at/below the forced-charging threshold: only charge actions valid.
  bool must_charge = false;
  /// SoC low enough that charging is permitted.
  bool may_charge = false;
  /// This taxi's cumulative hourly PE minus the fleet mean, in CNY/h
  /// (a fairness signal; 0 early in an episode).
  double pe_gap = 0.0;
};

/// A displacement strategy: given the simulator's observable state and the
/// set of vacant taxis this slot, choose one Action per taxi. Implemented
/// by GT, SD2, TQL, DQN, TBA and CMA2C (FairMove).
///
/// Contract: `actions->size() == vacant.size()` on return, and each action
/// must be valid for its taxi's region/charging constraints (the simulator
/// CHECK-fails otherwise — an invalid action is a policy bug, not an
/// environment condition).
class DisplacementPolicy {
 public:
  virtual ~DisplacementPolicy() = default;

  virtual std::string name() const = 0;

  /// Called when an evaluation/training episode starts.
  virtual void BeginEpisode(const Simulator& sim) { (void)sim; }

  /// Chooses an action for every vacant taxi.
  virtual void DecideActions(const Simulator& sim,
                             const std::vector<TaxiObs>& vacant,
                             std::vector<Action>* actions) = 0;

  /// Training-mode switch: exploring policies should only explore/learn
  /// while training.
  virtual void SetTraining(bool training) { (void)training; }

  /// The scalar fields of one closed semi-MDP transition: all of it but
  /// the two feature vectors. Learning policies keep these beside the
  /// feature rows of their TransitionStore (rl/replay_buffer.h).
  struct TransitionScalars {
    /// Discounted accumulated reward (Eq 5: alpha-weighted PE + fairness)
    /// between this decision and the next.
    double reward = 0.0;
    /// Same accumulation but of the agent's own profit only (alpha = 1);
    /// used by the purely competitive TBA baseline.
    double reward_own = 0.0;
    /// gamma^k where k is the number of slots until the next decision.
    double discount = 1.0;
    int action_index = 0;
    // Discrete context (used by the tabular baseline).
    RegionId region = kInvalidRegion;       // region at decision time
    RegionId next_region = kInvalidRegion;  // region at next decision
    int slot_of_day = 0;
    int next_slot_of_day = 0;
    /// True when the episode ended before the agent decided again.
    bool terminal = false;
    bool must_charge = false;
    bool may_charge = false;
    bool next_must_charge = false;
    bool next_may_charge = false;
  };

  /// One closed semi-MDP transition of one agent (emitted by the Trainer).
  struct Transition : TransitionScalars {
    std::vector<float> state;
    /// Empty when terminal.
    std::vector<float> next_state;
  };

  /// Feeds a batch of closed transitions; learning policies update here.
  virtual void Learn(const std::vector<Transition>& transitions) {
    (void)transitions;
  }

  /// Whether the policy consumes Transition batches (saves the Trainer the
  /// bookkeeping when not).
  virtual bool WantsTransitions() const { return false; }

  /// Training health. Policies with divergence protection report a non-OK
  /// Status once recovery (checkpoint rollback + learning-rate decay) has
  /// been exhausted; the Trainer then stops cleanly instead of burning
  /// episodes on a dead network. Heuristic policies are always healthy.
  virtual Status Health() const { return Status::OK(); }

  /// Telemetry hook: learning policies append their internals (losses,
  /// entropy, guard state) to the per-episode training row. Purely
  /// observational — must not mutate policy state. Default: nothing.
  virtual void AppendTelemetry(JsonObject* row) const { (void)row; }

  /// Serializes the policy's full training state — parameters, optimizer
  /// moments, exploration counters, RNG stream positions, buffered
  /// transitions, divergence-guard budget — into `out`. The contract is
  /// episode-boundary exactness: restoring the blob into a freshly
  /// constructed, identically configured policy and continuing training
  /// must be bit-identical to never having stopped. Policies whose
  /// behaviour is a pure function of their seed and the episode (the
  /// heuristics — GT, SD2, FairCharge — all re-seed in BeginEpisode and
  /// derive their per-driver tables from the seed) carry no inter-episode
  /// state, so the default writes nothing.
  virtual Status SaveState(BinaryWriter* out) const {
    (void)out;
    return Status::OK();
  }

  /// Mirror of SaveState: consumes exactly what SaveState wrote, validating
  /// magic/version/dimensions against this policy's configuration before
  /// committing. On a non-OK return the policy may have been partially
  /// overwritten; callers must either retry with a valid blob (a successful
  /// RestoreState rewrites every serialized field) or discard the policy.
  virtual Status RestoreState(BinaryReader* in) {
    (void)in;
    return Status::OK();
  }

  /// Feature vectors the policy computed during its last DecideActions
  /// call, aligned with that call's `vacant` list. Policies that learn from
  /// feature-based states must provide this so the Trainer can assemble
  /// transitions; nullptr for feature-free (heuristic/tabular) policies.
  virtual const std::vector<std::vector<float>>* LastFeatures() const {
    return nullptr;
  }
};

}  // namespace fairmove

#endif  // FAIRMOVE_SIM_POLICY_H_
