#ifndef FAIRMOVE_CORE_TRAINER_H_
#define FAIRMOVE_CORE_TRAINER_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fairmove/core/group_fairness.h"
#include "fairmove/core/reward.h"
#include "fairmove/sim/simulator.h"

namespace fairmove {

class CheckpointStore;

/// Durable-checkpoint knobs of a guarded training run.
struct CheckpointConfig {
  /// Checkpoint directory; empty disables checkpointing entirely.
  std::string dir;
  /// Write a checkpoint every `every` completed episodes (the final episode
  /// is always captured regardless of alignment).
  int every = 1;
  /// Retained checkpoint depth (older frames are pruned).
  int retain = 3;

  bool enabled() const { return !dir.empty(); }
  Status Validate() const;

  /// Builds the config from FAIRMOVE_CHECKPOINT_DIR / _EVERY / _RETAIN
  /// (via EnvOverrides, so malformed values fail loudly). Unset DIR yields
  /// a disabled config.
  static StatusOr<CheckpointConfig> FromEnv();
};

struct TrainerConfig {
  /// Training episodes (Algorithm 1's outer loop).
  int episodes = 4;
  /// Slots per episode (default one simulated day).
  int64_t slots_per_episode = kSlotsPerDay;
  /// Episode e resets the simulator with seed_base + e (0 keeps the sim's
  /// own seed for every episode).
  uint64_t seed_base = 9000;
  RewardConfig reward;

  Status Validate() const;
};

/// Runs Algorithm 1: repeatedly rolls the simulator forward under the
/// policy, converts the per-slot profit/fairness signals into Eq-5 rewards,
/// assembles semi-MDP transitions (one per displacement decision, rewards
/// accumulated and discounted until the agent's next decision), and feeds
/// them to the policy's Learn(). Heuristic policies (GT/SD2) train as a
/// no-op but still produce episode statistics.
class Trainer {
 public:
  struct EpisodeStats {
    /// Mean Eq-5 reward per closed transition (the quantity of Table IV).
    double avg_reward = 0.0;
    /// Mean own-profit-only reward per transition.
    double avg_reward_own = 0.0;
    int64_t transitions = 0;
    double fleet_pe_mean = 0.0;
    double fleet_pf = 0.0;
  };

  /// `sim` must outlive the trainer; it is Reset() per episode.
  Trainer(Simulator* sim, TrainerConfig config);

  /// Trains `policy` in place; returns one stats entry per episode.
  std::vector<EpisodeStats> Train(DisplacementPolicy* policy);

  /// Train() with divergence supervision: after every episode the policy's
  /// Health() and the episode statistics (reward, fleet PE/PF) are checked
  /// for NaN/Inf. Training stops early — returning a descriptive non-OK
  /// Status with the episodes completed so far in `*stats` — when the
  /// policy reports itself unhealthy (e.g. CMA2C's DivergenceGuard budget
  /// is spent) or an episode produced non-finite statistics. A finished
  /// healthy run returns OK. `stats` may be nullptr.
  ///
  /// With durable checkpointing, when `ckpt.enabled()`:
  ///   - before training, the newest valid checkpoint in `ckpt.dir` whose
  ///     config CRC and policy name match this run is restored (stats
  ///     history, episode cursor, full policy state) and training resumes
  ///     at the captured episode; corrupt or foreign frames are recorded
  ///     as faults and skipped, degrading to older retained frames;
  ///   - after every `ckpt.every` completed episodes (and after the final
  ///     one) the full run state is written durably.
  /// Because episodes are seeded as seed_base + episode and every
  /// cross-episode state lives in the checkpoint, a killed-and-resumed run
  /// finishes bit-identical to an uninterrupted one (same model bytes,
  /// same EpisodeStats, same telemetry digests).
  Status TrainGuarded(DisplacementPolicy* policy,
                      std::vector<EpisodeStats>* stats,
                      const CheckpointConfig& ckpt = CheckpointConfig());

  /// CRC32 over every training-affecting knob (TrainerConfig + reward
  /// shape). Stamped into checkpoint frames; resume refuses a frame whose
  /// config CRC differs from the running config's.
  uint32_t ConfigCrc() const;

  /// Serializes the guarded-run state (episodes completed, stats history,
  /// policy state) as one checkpoint payload. Exposed for tools/tests.
  StatusOr<std::string> SerializeRunState(
      const DisplacementPolicy& policy,
      const std::vector<EpisodeStats>& stats, int episodes_done) const;

  /// Inverse of SerializeRunState: validates and restores into `policy` /
  /// `stats`, returning the episode cursor to resume from. On failure the
  /// policy may be partially overwritten (callers retry with another frame
  /// or discard the policy).
  StatusOr<int> RestoreRunState(std::string_view payload,
                                DisplacementPolicy* policy,
                                std::vector<EpisodeStats>* stats) const;

  /// Switches the per-agent fairness term of the reward to compare each
  /// driver against the mean of its *rating group* instead of the whole
  /// fleet (the §V extension). `groups` must outlive the trainer; nullptr
  /// restores fleet-level fairness.
  void SetDriverGroups(const DriverGroups* groups) { groups_ = groups; }

  /// Rolls one episode without learning (policy in evaluation mode) and
  /// returns its stats; the simulator retains the episode's full state so
  /// callers can read metrics/trace afterwards.
  EpisodeStats RunEvaluationEpisode(DisplacementPolicy* policy,
                                    uint64_t seed, int64_t slots);

  const TrainerConfig& config() const { return config_; }

 private:
  /// An agent's open decision: its transition with the decision side
  /// filled in and the reward accumulating, until the agent decides again
  /// or the episode ends.
  struct Pending {
    DisplacementPolicy::Transition open;
    int64_t elapsed_slots = 0;
  };

  /// One simulator step plus transition bookkeeping. Appends closed
  /// transitions to `closed`; updates `stats`.
  void StepAndCollect(DisplacementPolicy* policy, bool learning,
                      std::vector<DisplacementPolicy::Transition>* closed,
                      EpisodeStats* stats);

  /// Closes every open pending as terminal (episode end).
  void FlushPendings(std::vector<DisplacementPolicy::Transition>* closed,
                     EpisodeStats* stats);

  /// Takes `pending`'s transition, discounted over its window, and counts
  /// it in `stats`; the caller fills in the next decision's side.
  DisplacementPolicy::Transition Close(Pending* pending, bool terminal,
                                       EpisodeStats* stats) const;

  /// Averages `stats` over its transitions, adds the fleet's PE mean and
  /// variance and emits the episode's telemetry row.
  void FinishEpisode(const char* phase, DisplacementPolicy* policy,
                     int episode, uint64_t seed, EpisodeStats* stats) const;

  /// Runs training episode `episode` (seeding, rollout, learning, stats).
  EpisodeStats RunTrainingEpisode(DisplacementPolicy* policy, int episode);

  Simulator* sim_;
  TrainerConfig config_;
  RewardComputer reward_;
  const DriverGroups* groups_ = nullptr;
  std::vector<std::optional<Pending>> pendings_;  // per taxi
  std::vector<double> group_means_;               // scratch
};

}  // namespace fairmove

#endif  // FAIRMOVE_CORE_TRAINER_H_
