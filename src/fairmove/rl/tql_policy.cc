#include "fairmove/rl/tql_policy.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <utility>

#include "fairmove/io/atomic_file.h"
#include "fairmove/io/binary.h"
#include "fairmove/rl/epsilon_greedy.h"
#include "fairmove/sim/simulator.h"

namespace fairmove {

namespace {
constexpr char kTqlMagic[5] = {'F', 'M', 'T', 'Q', '1'};  // model file
constexpr uint32_t kTqlStateTag = 0x314C5154;  // "TQL1"
constexpr uint32_t kTqlStateVersion = 1;
}  // namespace

TqlPolicy::TqlPolicy(const Simulator& sim) : TqlPolicy(sim, Options()) {}

TqlPolicy::TqlPolicy(const Simulator& sim, Options options)
    : options_(options),
      space_(&sim.action_space()),
      num_regions_(sim.city().num_regions()),
      num_actions_(sim.action_space().size()),
      rng_(options.seed) {
  table_.assign(static_cast<size_t>(kHoursPerDay) * num_regions_ * 3 *
                    num_actions_,
                0.0f);
  // Pessimistic prior on voluntary charging: unexplored charge actions
  // must not look as good as unexplored relocations.
  const int first_charge = space_->first_charge_index();
  for (size_t s = 0; s < table_.size() / num_actions_; ++s) {
    for (int a = first_charge; a < num_actions_; ++a) {
      table_[s * num_actions_ + static_cast<size_t>(a)] = -0.5f;
    }
  }
}

size_t TqlPolicy::StateOffset(int hour, RegionId region,
                              int soc_bucket) const {
  FM_CHECK(hour >= 0 && hour < kHoursPerDay);
  FM_CHECK(region >= 0 && region < num_regions_);
  FM_CHECK(soc_bucket >= 0 && soc_bucket < 3);
  return ((static_cast<size_t>(hour) * num_regions_ +
           static_cast<size_t>(region)) *
              3 +
          static_cast<size_t>(soc_bucket)) *
         static_cast<size_t>(num_actions_);
}

float TqlPolicy::Q(int hour, RegionId region, int soc_bucket,
                   int action) const {
  return table_[StateOffset(hour, region, soc_bucket) +
                static_cast<size_t>(action)];
}

double TqlPolicy::CurrentEpsilon() const {
  return AnnealedEpsilon(options_.epsilon_start, options_.epsilon_end,
                         options_.epsilon_decay_batches, learn_batches_);
}

void TqlPolicy::DecideActions(const Simulator& sim,
                              const std::vector<TaxiObs>& vacant,
                              std::vector<Action>* actions) {
  const ActionSpace& space = sim.action_space();
  const int hour = sim.now().HourOfDay();
  const double epsilon = training_ ? CurrentEpsilon() : options_.epsilon_eval;
  actions->clear();
  actions->reserve(vacant.size());
  for (const TaxiObs& obs : vacant) {
    space.Mask(obs.region, obs.must_charge, obs.may_charge, &mask_scratch_);
    const size_t base = StateOffset(
        hour, obs.region, SocBucket(obs.must_charge, obs.may_charge));
    const int chosen =
        EpsilonGreedyPick(mask_scratch_, &table_[base], epsilon, rng_);
    FM_CHECK(chosen >= 0) << "no valid action in region " << obs.region;
    actions->push_back(space.Materialize(obs.region, chosen));
  }
}

Status TqlPolicy::SaveModel(const std::string& path) const {
  BinaryWriter out;
  out.WriteBytes(kTqlMagic, sizeof(kTqlMagic));
  out.WriteI32(num_regions_);
  out.WriteI32(num_actions_);
  for (float q : table_) out.WriteF32(q);
  return AtomicWriteFile(path, out.str());
}

Status TqlPolicy::LoadModel(const std::string& path) {
  FM_ASSIGN_OR_RETURN(const std::string bytes, ReadFileToString(path));
  BinaryReader in(bytes);
  char magic[sizeof(kTqlMagic)];
  if (!in.ReadBytes(magic, sizeof(magic)).ok() ||
      std::memcmp(magic, kTqlMagic, sizeof(magic)) != 0) {
    return Status::InvalidArgument("not an FMTQ1 Q-table blob");
  }
  int32_t regions = 0, actions = 0;
  if (!in.ReadI32(&regions).ok() || !in.ReadI32(&actions).ok() ||
      regions != num_regions_ || actions != num_actions_) {
    return Status::InvalidArgument(
        "saved Q-table does not match this policy's city/action space");
  }
  // Into a temporary first: a truncated file must leave the table as it was.
  std::vector<float> table(table_.size());
  for (float& q : table) FM_RETURN_IF_ERROR(in.ReadF32(&q));
  table_ = std::move(table);
  return Status::OK();
}

Status TqlPolicy::SaveState(BinaryWriter* out) const {
  out->WriteU32(kTqlStateTag);
  out->WriteU32(kTqlStateVersion);
  out->WriteI32(num_regions_);
  out->WriteI32(num_actions_);
  out->WriteFloatVec(table_);
  WriteRngState(rng_, out);
  out->WriteI64(learn_batches_);
  return Status::OK();
}

Status TqlPolicy::RestoreState(BinaryReader* in) {
  FM_RETURN_IF_ERROR(
      ReadRecordHeader(in, kTqlStateTag, kTqlStateVersion, "TQL state"));
  int32_t regions = 0, actions = 0;
  FM_RETURN_IF_ERROR(in->ReadI32(&regions));
  FM_RETURN_IF_ERROR(in->ReadI32(&actions));
  if (regions != num_regions_ || actions != num_actions_) {
    return Status::InvalidArgument(
        "checkpointed Q-table does not match this policy's city/action "
        "space (" + std::to_string(regions) + "x" + std::to_string(actions) +
        " vs " + std::to_string(num_regions_) + "x" +
        std::to_string(num_actions_) + ")");
  }
  std::vector<float> table;
  FM_RETURN_IF_ERROR(in->ReadFloatVec(&table));
  if (table.size() != table_.size()) {
    return Status::InvalidArgument("checkpointed Q-table has wrong size");
  }
  for (float q : table) {
    if (!std::isfinite(q)) {
      return Status::InvalidArgument("non-finite Q value in checkpoint");
    }
  }
  table_ = std::move(table);
  FM_RETURN_IF_ERROR(ReadRngState(in, &rng_));
  int64_t learn_batches = 0;
  FM_RETURN_IF_ERROR(in->ReadI64(&learn_batches));
  if (learn_batches < 0) {
    return Status::InvalidArgument("negative TQL update counter");
  }
  learn_batches_ = static_cast<int>(learn_batches);
  return Status::OK();
}

void TqlPolicy::Learn(const std::vector<Transition>& transitions) {
  if (!training_) return;
  for (const Transition& t : transitions) {
    const int hour = TimeSlot(t.slot_of_day).HourOfDay();
    const size_t base = StateOffset(
        hour, t.region, SocBucket(t.must_charge, t.may_charge));
    float& q = table_[base + static_cast<size_t>(t.action_index)];
    double target = t.reward;
    if (!t.terminal) {
      const int next_hour = TimeSlot(t.next_slot_of_day).HourOfDay();
      const size_t next_base =
          StateOffset(next_hour, t.next_region,
                      SocBucket(t.next_must_charge, t.next_may_charge));
      // The next-state maximum ranges over that state's *valid* actions
      // only (invalid, never-updated slots would leak optimistic zeros).
      space_->Mask(t.next_region, t.next_must_charge, t.next_may_charge,
                   &mask_scratch_);
      target += t.discount * MaskedMax(mask_scratch_, &table_[next_base]);
    }
    q += static_cast<float>(options_.learning_rate * (target - q));
  }
  ++learn_batches_;
}

}  // namespace fairmove
