#include "fairmove/rl/replay_buffer.h"

#include <string>
#include <utility>

namespace fairmove {

ReplayBuffer::ReplayBuffer(size_t capacity) : capacity_(capacity) {
  FM_CHECK(capacity > 0);
  data_.reserve(capacity);
}

void ReplayBuffer::Add(DisplacementPolicy::Transition transition) {
  if (size_ < capacity_) {
    data_.push_back(std::move(transition));
    ++size_;
  } else {
    data_[next_] = std::move(transition);
  }
  next_ = (next_ + 1) % capacity_;
}

void ReplayBuffer::Sample(
    size_t n, Rng& rng,
    std::vector<const DisplacementPolicy::Transition*>* out) const {
  FM_CHECK(size_ > 0) << "sampling from an empty replay buffer";
  out->clear();
  out->reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out->push_back(&data_[rng.NextBounded(size_)]);
  }
}

void ReplayBuffer::Clear() {
  data_.clear();
  size_ = 0;
  next_ = 0;
}

void WriteTransition(const DisplacementPolicy::Transition& t,
                     BinaryWriter* out) {
  out->WriteFloatVec(t.state);
  out->WriteI32(t.action_index);
  out->WriteF64(t.reward);
  out->WriteF64(t.reward_own);
  out->WriteFloatVec(t.next_state);
  out->WriteF64(t.discount);
  out->WriteBool(t.terminal);
  out->WriteI32(t.region);
  out->WriteI32(t.next_region);
  out->WriteI32(t.slot_of_day);
  out->WriteI32(t.next_slot_of_day);
  out->WriteBool(t.must_charge);
  out->WriteBool(t.may_charge);
  out->WriteBool(t.next_must_charge);
  out->WriteBool(t.next_may_charge);
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

void WriteTransitions(const std::vector<DisplacementPolicy::Transition>& ts,
                      BinaryWriter* out) {
  for (const auto& t : ts) WriteTransition(t, out);
}

namespace {

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
  if (!t.terminal && t.next_state.size() != static_cast<size_t>(state_dim)) {
    return refuse("next_state has " + std::to_string(t.next_state.size()) +
                  " features, expected " + std::to_string(state_dim));
  }
  if (t.action_index < 0 || t.action_index >= num_actions) {
    return refuse("action index " + std::to_string(t.action_index) +
                  " outside [0, " + std::to_string(num_actions) + ")");
  }
  return Status::OK();
}

}  // namespace

Status ReadTransitions(BinaryReader* in, uint64_t count, int state_dim,
                       int num_actions,
                       std::vector<DisplacementPolicy::Transition>* out) {
  const size_t base = out->size();
  for (uint64_t i = 0; i < count; ++i) {
    DisplacementPolicy::Transition t;
    Status st = ReadTransition(in, &t);
    if (st.ok()) st = CheckTransitionFits(t, i, state_dim, num_actions);
    if (!st.ok()) {
      out->resize(base);
      return st;
    }
    out->push_back(std::move(t));
  }
  return Status::OK();
}

Status ReplayBuffer::SaveState(BinaryWriter* out) const {
  out->WriteU64(capacity_);
  out->WriteU64(size_);
  out->WriteU64(next_);
  WriteTransitions(data_, out);
  return Status::OK();
}

Status ReplayBuffer::RestoreState(BinaryReader* in, int state_dim,
                                  int num_actions) {
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
  if (size > capacity || next >= capacity) {
    return Status::InvalidArgument(
        "corrupt replay-buffer cursors (size " + std::to_string(size) +
        ", next " + std::to_string(next) + ", capacity " +
        std::to_string(capacity) + ")");
  }
  std::vector<DisplacementPolicy::Transition> data;
  data.reserve(capacity);
  FM_RETURN_IF_ERROR(ReadTransitions(in, size, state_dim, num_actions, &data));
  data_ = std::move(data);
  size_ = static_cast<size_t>(size);
  next_ = static_cast<size_t>(next);
  return Status::OK();
}

}  // namespace fairmove
