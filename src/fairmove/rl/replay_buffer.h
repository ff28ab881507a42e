#ifndef FAIRMOVE_RL_REPLAY_BUFFER_H_
#define FAIRMOVE_RL_REPLAY_BUFFER_H_

#include <cstddef>
#include <vector>

#include "fairmove/common/rng.h"
#include "fairmove/io/binary.h"
#include "fairmove/sim/policy.h"

namespace fairmove {

/// Serializes one semi-MDP transition field for field; the exact mirror of
/// ReadTransition. Shared by every buffered-experience policy (DQN replay,
/// CMA2C/TBA batch buffers) so checkpoints of all of them use one encoding.
void WriteTransition(const DisplacementPolicy::Transition& t,
                     BinaryWriter* out);
Status ReadTransition(BinaryReader* in, DisplacementPolicy::Transition* t);
/// Each transition of `ts` in turn, as WriteTransition. The count belongs to
/// the enclosing record: a u64 prefix in the CMA2C/TBA batch buffers, the
/// size field of the replay ring.
void WriteTransitions(const std::vector<DisplacementPolicy::Transition>& ts,
                      BinaryWriter* out);
/// Reads `count` transitions and appends them to `out`. Each must fit the
/// policy that restores it, because its vectors are later copied into
/// fixed-width batch rows unchecked: a `state_dim`-wide state, a
/// `state_dim`-wide next_state unless terminal (terminal ones are empty),
/// and an action index in [0, num_actions). Anything else is
/// InvalidArgument, and on any error nothing is appended. A corrupt count
/// fails at the end of the data instead of allocating up front.
Status ReadTransitions(BinaryReader* in, uint64_t count, int state_dim,
                       int num_actions,
                       std::vector<DisplacementPolicy::Transition>* out);

/// Fixed-capacity uniform-sampling experience replay (for DQN). New
/// transitions overwrite the oldest once the ring is full.
class ReplayBuffer {
 public:
  explicit ReplayBuffer(size_t capacity);

  void Add(DisplacementPolicy::Transition transition);

  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }
  bool empty() const { return size_ == 0; }

  /// Samples `n` transitions uniformly with replacement into `out`
  /// (pointers remain valid until the next Add).
  void Sample(size_t n, Rng& rng,
              std::vector<const DisplacementPolicy::Transition*>* out) const;

  void Clear();

  /// Serializes the full ring — contents, logical size, and write cursor —
  /// so a resumed run replays and overwrites in exactly the original order.
  Status SaveState(BinaryWriter* out) const;
  /// Mirror of SaveState. The blob's capacity must match this buffer's
  /// (differently-sized rings would shift every later overwrite), and every
  /// transition must fit `state_dim` and `num_actions` (ReadTransitions).
  Status RestoreState(BinaryReader* in, int state_dim, int num_actions);

 private:
  size_t capacity_;
  size_t size_ = 0;
  size_t next_ = 0;
  std::vector<DisplacementPolicy::Transition> data_;
};

}  // namespace fairmove

#endif  // FAIRMOVE_RL_REPLAY_BUFFER_H_
