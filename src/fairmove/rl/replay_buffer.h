#ifndef FAIRMOVE_RL_REPLAY_BUFFER_H_
#define FAIRMOVE_RL_REPLAY_BUFFER_H_

#include <cstddef>
#include <vector>

#include "fairmove/common/rng.h"
#include "fairmove/io/binary.h"
#include "fairmove/nn/matrix.h"
#include "fairmove/sim/policy.h"

namespace fairmove {

/// Serializes one semi-MDP transition field for field: the encoding of each
/// buffered transition in the CA21, DQN1 and TBA1 records.
void WriteTransition(const DisplacementPolicy::Transition& t,
                     BinaryWriter* out);

/// Experience as fixed-width rows, the one place a learning policy keeps
/// transitions: row i holds a transition's `state` in states().Row(i), its
/// `next_state` in next_states().Row(i) (zeros when terminal) and the rest
/// in scalars(i), so an update reads the matrices as they stand. Every row
/// fits: `dim` features on both sides, no next_state when terminal, and an
/// action index in [0, num_actions). Put dies on a misfit (an in-process
/// caller's bug); Read refuses one with InvalidArgument (a checkpoint's).
class TransitionStore {
 public:
  TransitionStore(int dim, int num_actions);

  int dim() const { return states_.cols(); }
  int size() const { return states_.rows(); }
  const Matrix& states() const { return states_; }
  const Matrix& next_states() const { return next_states_; }
  const DisplacementPolicy::TransitionScalars& scalars(int row) const {
    return scalars_[static_cast<size_t>(row)];
  }

  /// Room for `rows` rows: filling up to them moves no row.
  void Reserve(int rows);
  /// Writes `t` into row `row`: an existing row, or size() to append one.
  void Put(int row, const DisplacementPolicy::Transition& t);
  void Append(const DisplacementPolicy::Transition& t) { Put(size(), t); }
  /// Drops every row and keeps the capacity.
  void Clear() { Resize(0); }

  /// Every row as WriteTransition encodes it, a terminal one with an empty
  /// next_state. The count belongs to the enclosing record.
  void Write(BinaryWriter* out) const;
  /// Reads `count` WriteTransition records and appends them. On any error,
  /// a misfit record included (InvalidArgument), nothing is appended; a
  /// corrupt count fails at the end of the data, not in an allocation.
  Status Read(BinaryReader* in, uint64_t count);

 private:
  void Resize(int rows);

  int num_actions_;
  Matrix states_;
  Matrix next_states_;
  std::vector<DisplacementPolicy::TransitionScalars> scalars_;
};

/// Fixed-capacity uniform-sampling experience replay (for DQN): a ring over
/// a TransitionStore reserved up front, so filling it copies no row. New
/// transitions overwrite the oldest once the ring is full.
class ReplayBuffer {
 public:
  ReplayBuffer(size_t capacity, int dim, int num_actions);

  void Add(const DisplacementPolicy::Transition& transition);

  size_t size() const { return static_cast<size_t>(rows_.size()); }
  size_t capacity() const { return capacity_; }
  bool empty() const { return size() == 0; }
  const TransitionStore& rows() const { return rows_; }

  /// Samples `n` row indices of rows() uniformly with replacement into
  /// `out`.
  void Sample(size_t n, Rng& rng, std::vector<int>* out) const;

  void Clear();

  /// Serializes the full ring — contents, logical size, and write cursor —
  /// so a resumed run replays and overwrites in exactly the original order.
  Status SaveState(BinaryWriter* out) const;
  /// Mirror of SaveState. The blob's capacity must match this buffer's
  /// (differently-sized rings would shift every later overwrite), and every
  /// transition must fit the store (TransitionStore::Read). A refused blob
  /// may leave the ring empty.
  Status RestoreState(BinaryReader* in);

 private:
  size_t capacity_;
  size_t next_ = 0;
  TransitionStore rows_;
};

}  // namespace fairmove

#endif  // FAIRMOVE_RL_REPLAY_BUFFER_H_
