#include "fairmove/rl/replay_buffer.h"

#include <algorithm>
#include <climits>
#include <span>
#include <string>

namespace fairmove {

namespace {

using Scalars = DisplacementPolicy::TransitionScalars;

void WriteRecord(std::span<const float> state, const Scalars& s,
                 std::span<const float> next_state, BinaryWriter* out) {
  out->WriteFloats(state.data(), state.size());
  out->WriteI32(s.action_index);
  out->WriteF64(s.reward);
  out->WriteF64(s.reward_own);
  out->WriteFloats(next_state.data(), next_state.size());
  out->WriteF64(s.discount);
  out->WriteBool(s.terminal);
  out->WriteI32(s.region);
  out->WriteI32(s.next_region);
  out->WriteI32(s.slot_of_day);
  out->WriteI32(s.next_slot_of_day);
  out->WriteBool(s.must_charge);
  out->WriteBool(s.may_charge);
  out->WriteBool(s.next_must_charge);
  out->WriteBool(s.next_may_charge);
}

Status ReadTransition(BinaryReader* in, DisplacementPolicy::Transition* t) {
  FM_RETURN_IF_ERROR(in->ReadFloatVec(&t->state));
  FM_RETURN_IF_ERROR(in->ReadI32(&t->action_index));
  FM_RETURN_IF_ERROR(in->ReadF64(&t->reward));
  FM_RETURN_IF_ERROR(in->ReadF64(&t->reward_own));
  FM_RETURN_IF_ERROR(in->ReadFloatVec(&t->next_state));
  FM_RETURN_IF_ERROR(in->ReadF64(&t->discount));
  FM_RETURN_IF_ERROR(in->ReadBool(&t->terminal));
  FM_RETURN_IF_ERROR(in->ReadI32(&t->region));
  FM_RETURN_IF_ERROR(in->ReadI32(&t->next_region));
  FM_RETURN_IF_ERROR(in->ReadI32(&t->slot_of_day));
  FM_RETURN_IF_ERROR(in->ReadI32(&t->next_slot_of_day));
  FM_RETURN_IF_ERROR(in->ReadBool(&t->must_charge));
  FM_RETURN_IF_ERROR(in->ReadBool(&t->may_charge));
  FM_RETURN_IF_ERROR(in->ReadBool(&t->next_must_charge));
  FM_RETURN_IF_ERROR(in->ReadBool(&t->next_may_charge));
  return Status::OK();
}

Status CheckTransitionFits(const DisplacementPolicy::Transition& t,
                           uint64_t index, int state_dim, int num_actions) {
  const auto refuse = [index](const std::string& what) {
    return Status::InvalidArgument("transition " + std::to_string(index) +
                                   " does not fit this policy: " + what);
  };
  if (t.state.size() != static_cast<size_t>(state_dim)) {
    return refuse("state has " + std::to_string(t.state.size()) +
                  " features, expected " + std::to_string(state_dim));
  }
  const size_t next_dim = t.terminal ? 0 : static_cast<size_t>(state_dim);
  if (t.next_state.size() != next_dim) {
    return refuse("next_state has " + std::to_string(t.next_state.size()) +
                  " features, expected " + std::to_string(next_dim) +
                  (t.terminal ? " (terminal)" : ""));
  }
  if (t.action_index < 0 || t.action_index >= num_actions) {
    return refuse("action index " + std::to_string(t.action_index) +
                  " outside [0, " + std::to_string(num_actions) + ")");
  }
  return Status::OK();
}

}  // namespace

void WriteTransition(const DisplacementPolicy::Transition& t,
                     BinaryWriter* out) {
  WriteRecord(t.state, t, t.next_state, out);
}

TransitionStore::TransitionStore(int dim, int num_actions)
    : num_actions_(num_actions) {
  FM_CHECK(dim > 0 && num_actions > 0);
  states_.ResizeForOverwrite(0, dim);
  next_states_.ResizeForOverwrite(0, dim);
}

void TransitionStore::Reserve(int rows) {
  states_.ReserveRows(rows);
  next_states_.ReserveRows(rows);
  scalars_.reserve(static_cast<size_t>(rows));
}

void TransitionStore::Resize(int rows) {
  states_.ResizeForOverwrite(rows, dim());
  next_states_.ResizeForOverwrite(rows, dim());
  scalars_.resize(static_cast<size_t>(rows));
}

void TransitionStore::Put(int row, const DisplacementPolicy::Transition& t) {
  FM_CHECK(row >= 0 && row <= size());
  const Status fits = CheckTransitionFits(t, static_cast<uint64_t>(row),
                                          dim(), num_actions_);
  FM_CHECK(fits.ok()) << fits;
  if (row == size()) Resize(row + 1);
  std::copy(t.state.begin(), t.state.end(), states_.Row(row));
  float* next = next_states_.Row(row);
  if (t.terminal) {
    std::fill(next, next + dim(), 0.0f);
  } else {
    std::copy(t.next_state.begin(), t.next_state.end(), next);
  }
  scalars_[static_cast<size_t>(row)] = t;
}

void TransitionStore::Write(BinaryWriter* out) const {
  const size_t width = static_cast<size_t>(dim());
  for (int row = 0; row < size(); ++row) {
    const Scalars& s = scalars(row);
    WriteRecord({states_.Row(row), width}, s,
                {next_states_.Row(row), s.terminal ? 0 : width}, out);
  }
}

Status TransitionStore::Read(BinaryReader* in, uint64_t count) {
  const int base = size();
  DisplacementPolicy::Transition t;
  for (uint64_t i = 0; i < count; ++i) {
    Status st = ReadTransition(in, &t);
    if (st.ok()) st = CheckTransitionFits(t, i, dim(), num_actions_);
    if (!st.ok()) {
      Resize(base);
      return st;
    }
    Append(t);
  }
  return Status::OK();
}

ReplayBuffer::ReplayBuffer(size_t capacity, int dim, int num_actions)
    : capacity_(capacity), rows_(dim, num_actions) {
  FM_CHECK(capacity > 0 && capacity <= static_cast<size_t>(INT_MAX));
  rows_.Reserve(static_cast<int>(capacity));
}

void ReplayBuffer::Add(const DisplacementPolicy::Transition& transition) {
  // The cursor equals size() until the ring is full, then wraps.
  rows_.Put(static_cast<int>(next_), transition);
  next_ = (next_ + 1) % capacity_;
}

void ReplayBuffer::Sample(size_t n, Rng& rng, std::vector<int>* out) const {
  FM_CHECK(!empty()) << "sampling from an empty replay buffer";
  out->clear();
  out->reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out->push_back(static_cast<int>(rng.NextBounded(size())));
  }
}

void ReplayBuffer::Clear() {
  rows_.Clear();
  next_ = 0;
}

Status ReplayBuffer::SaveState(BinaryWriter* out) const {
  out->WriteU64(capacity_);
  out->WriteU64(size());
  out->WriteU64(next_);
  rows_.Write(out);
  return Status::OK();
}

Status ReplayBuffer::RestoreState(BinaryReader* in) {
  uint64_t capacity = 0, size = 0, next = 0;
  FM_RETURN_IF_ERROR(in->ReadU64(&capacity));
  FM_RETURN_IF_ERROR(in->ReadU64(&size));
  FM_RETURN_IF_ERROR(in->ReadU64(&next));
  if (capacity != capacity_) {
    return Status::InvalidArgument(
        "replay-buffer capacity mismatch: blob has " +
        std::to_string(capacity) + ", buffer has " +
        std::to_string(capacity_));
  }
  if (size > capacity || next >= capacity ||
      (size < capacity && next != size)) {
    return Status::InvalidArgument(
        "corrupt replay-buffer cursors (size " + std::to_string(size) +
        ", next " + std::to_string(next) + ", capacity " +
        std::to_string(capacity) + ")");
  }
  rows_.Clear();
  FM_RETURN_IF_ERROR(rows_.Read(in, size));
  next_ = static_cast<size_t>(next);
  return Status::OK();
}

}  // namespace fairmove
