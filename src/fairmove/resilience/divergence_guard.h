#ifndef FAIRMOVE_RESILIENCE_DIVERGENCE_GUARD_H_
#define FAIRMOVE_RESILIENCE_DIVERGENCE_GUARD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fairmove/common/status.h"

namespace fairmove {

class BinaryReader;
class BinaryWriter;
class Mlp;

/// Watches a set of networks during training and rolls them back to the last
/// known-good checkpoint when an update diverges (NaN/Inf loss, logits, or
/// parameters). Recovery semantics:
///   - Checkpoint() snapshots every registered network into memory.
///   - OnDivergence() restores the snapshot, multiplies the learning-rate
///     scale by `lr_decay`, and counts a consecutive rollback.
///   - NoteHealthyUpdate() resets the consecutive counter and re-checkpoints
///     (the current weights become the new last-good state).
///   - After `max_consecutive_rollbacks` rollbacks with no healthy update in
///     between, status() turns non-OK and the trainer should stop cleanly.
/// The guard never aborts; divergence is reported through Status.
class DivergenceGuard {
 public:
  struct Options {
    /// Consecutive rollbacks (no healthy update in between) before the
    /// guard gives up and status() becomes non-OK.
    int max_consecutive_rollbacks = 3;
    /// Learning-rate multiplier applied on every rollback.
    double lr_decay = 0.5;
  };

  DivergenceGuard();
  explicit DivergenceGuard(Options options);

  /// Registers a network to snapshot/restore. The pointer must stay valid
  /// for the guard's lifetime. Call Checkpoint() after registering all nets.
  void Register(Mlp* net);

  /// Snapshots all registered networks as the last-good state.
  Status Checkpoint();

  /// True if every parameter of every registered network is finite.
  bool ParametersFinite() const;

  /// Restores the last-good snapshot and decays the learning-rate scale.
  /// `why` lands in status() when the rollback budget runs out.
  Status OnDivergence(const std::string& why);

  /// Marks the current weights healthy: resets the consecutive-rollback
  /// counter and re-checkpoints.
  Status NoteHealthyUpdate();

  /// OK while recoverable; Internal once max_consecutive_rollbacks
  /// consecutive rollbacks have fired.
  Status status() const { return status_; }
  bool exhausted() const { return !status_.ok(); }

  /// Product of lr_decay over all rollbacks so far; multiply the base
  /// learning rate by this after every rollback.
  double lr_scale() const { return lr_scale_; }

  int consecutive_rollbacks() const { return consecutive_rollbacks_; }
  int64_t total_rollbacks() const { return total_rollbacks_; }
  bool has_checkpoint() const { return !snapshots_.empty(); }

  /// Serializes the guard's recovery budget — rollback counters, learning-
  /// rate scale, exhaustion status, and the in-memory last-good snapshots.
  /// Options and the registered-net set are the owner's configuration and
  /// are reconstructed, not written.
  Status SaveState(BinaryWriter* out) const;
  /// Mirror of SaveState. The same networks must already be Register()ed
  /// (snapshot count is validated against them); on success the restored
  /// snapshots become the last-good state for future rollbacks.
  Status RestoreState(BinaryReader* in);

 private:
  Options options_;
  std::vector<Mlp*> nets_;
  std::vector<std::string> snapshots_;  // FMLP1 blob per net
  int consecutive_rollbacks_ = 0;
  int64_t total_rollbacks_ = 0;
  double lr_scale_ = 1.0;
  Status status_ = Status::OK();
};

}  // namespace fairmove

#endif  // FAIRMOVE_RESILIENCE_DIVERGENCE_GUARD_H_
