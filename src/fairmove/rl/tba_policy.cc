#include "fairmove/rl/tba_policy.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <span>
#include <utility>

#include "fairmove/io/binary.h"
#include "fairmove/rl/replay_buffer.h"
#include "fairmove/sim/simulator.h"

namespace fairmove {

namespace {
constexpr int kTbaFeatureDim = 4 + kNumRegionClasses + 2 + 3;
constexpr uint32_t kTbaStateTag = 0x31414254;  // "TBA1"
constexpr uint32_t kTbaStateVersion = 1;
}  // namespace

TbaPolicy::TbaPolicy(const Simulator& sim) : TbaPolicy(sim, Options()) {}

TbaPolicy::TbaPolicy(const Simulator& sim, Options options)
    : options_(options),
      space_(&sim.action_space()),
      feature_dim_(kTbaFeatureDim),
      num_actions_(sim.action_space().size()),
      rng_(options.seed),
      batch_(feature_dim_, num_actions_) {
  std::vector<int> sizes;
  sizes.push_back(feature_dim_);
  for (int h : options_.hidden) sizes.push_back(h);
  sizes.push_back(num_actions_);
  net_ = std::make_unique<Mlp>(sizes, Activation::kTanh, options.seed);
  for (int a = space_->first_charge_index(); a < num_actions_; ++a) {
    net_->biases().back()[static_cast<size_t>(a)] =
        static_cast<float>(options_.charge_logit_bias);
  }
  optimizer_ = std::make_unique<Adam>(
      net_.get(), Adam::Options{.learning_rate = options.learning_rate});
  grads_ = net_->MakeGradients();
}

void TbaPolicy::LocalFeatures(const Simulator& sim, const TaxiObs& obs,
                              float* out) const {
  float* const begin = out;
  const auto push = [&out](float v) { *out++ = v; };
  const double phase =
      2.0 * std::numbers::pi * sim.now().SlotOfDay() / kSlotsPerDay;
  push(static_cast<float>(std::sin(phase)));
  push(static_cast<float>(std::cos(phase)));
  push(static_cast<float>(std::sin(2.0 * phase)));
  push(static_cast<float>(std::cos(2.0 * phase)));
  const Region& region = sim.city().region(obs.region);
  for (int c = 0; c < kNumRegionClasses; ++c) {
    push(region.cls == static_cast<RegionClass>(c) ? 1.0f : 0.0f);
  }
  push(static_cast<float>(region.grid_col) /
       static_cast<float>(std::max(1, sim.city().num_regions())));
  push(static_cast<float>(region.grid_row) /
       static_cast<float>(std::max(1, sim.city().num_regions())));
  push(static_cast<float>(obs.soc));
  push(obs.must_charge ? 1.0f : 0.0f);
  push(obs.may_charge ? 1.0f : 0.0f);
  FM_CHECK(static_cast<int>(out - begin) == feature_dim_);
}

void TbaPolicy::DecideActions(const Simulator& sim,
                              const std::vector<TaxiObs>& vacant,
                              std::vector<Action>* actions) {
  const ActionSpace& space = sim.action_space();
  actions->clear();
  actions->reserve(vacant.size());
  last_features_.resize(vacant.size());
  // Batched slot inference: all local-feature rows into one reused matrix,
  // one network pass, then per-row masked softmax + sampling in the same
  // per-taxi RNG order as the former Forward1 loop.
  batch_x_.Resize(static_cast<int>(vacant.size()), feature_dim_);
  for (size_t i = 0; i < vacant.size(); ++i) {
    LocalFeatures(sim, vacant[i], batch_x_.Row(static_cast<int>(i)));
  }
  net_->Forward(batch_x_, &batch_logits_, &GlobalPool(), &forward_ws_);
  for (size_t i = 0; i < vacant.size(); ++i) {
    const TaxiObs& obs = vacant[i];
    const float* row_x = batch_x_.Row(static_cast<int>(i));
    last_features_[i].assign(row_x, row_x + feature_dim_);
    float* logits = batch_logits_.Row(static_cast<int>(i));
    space.Mask(obs.region, obs.must_charge, obs.may_charge, &mask_scratch_);
    MaskedSoftmax(mask_scratch_, logits, static_cast<size_t>(num_actions_));
    const size_t pick = rng_.WeightedIndex(
        std::span<const float>(logits, static_cast<size_t>(num_actions_)));
    FM_CHECK(mask_scratch_[pick]) << "sampled a masked action";
    actions->push_back(space.Materialize(obs.region, static_cast<int>(pick)));
  }
}

Status TbaPolicy::SaveState(BinaryWriter* out) const {
  out->WriteU32(kTbaStateTag);
  out->WriteU32(kTbaStateVersion);
  WriteNet(*net_, out);
  FM_RETURN_IF_ERROR(optimizer_->SaveState(out));
  WriteRngState(rng_, out);
  out->WriteF64(baseline_);
  out->WriteBool(baseline_init_);
  out->WriteU64(static_cast<uint64_t>(batch_.size()));
  batch_.Write(out);
  return Status::OK();
}

Status TbaPolicy::RestoreState(BinaryReader* in) {
  // Parsed into copies first and committed last: a refused record leaves
  // the policy exactly as it was.
  FM_RETURN_IF_ERROR(
      ReadRecordHeader(in, kTbaStateTag, kTbaStateVersion, "TBA state"));
  FM_ASSIGN_OR_RETURN(Mlp net, ReadNetLike(in, *net_, "TBA network"));
  Adam optimizer = *optimizer_;
  FM_RETURN_IF_ERROR(optimizer.RestoreState(in));
  Rng rng = rng_;
  FM_RETURN_IF_ERROR(ReadRngState(in, &rng));
  double baseline = 0.0;
  bool baseline_init = false;
  FM_RETURN_IF_ERROR(in->ReadF64(&baseline));
  FM_RETURN_IF_ERROR(in->ReadBool(&baseline_init));
  if (!std::isfinite(baseline)) {
    return Status::InvalidArgument("non-finite TBA baseline in checkpoint");
  }
  uint64_t buffered = 0;
  FM_RETURN_IF_ERROR(in->ReadU64(&buffered));
  TransitionStore batch(feature_dim_, num_actions_);
  FM_RETURN_IF_ERROR(batch.Read(in, buffered));
  *net_ = std::move(net);
  *optimizer_ = std::move(optimizer);
  rng_ = rng;
  baseline_ = baseline;
  baseline_init_ = baseline_init;
  batch_ = std::move(batch);
  return Status::OK();
}

void TbaPolicy::Learn(const std::vector<Transition>& transitions) {
  if (!training_ || transitions.empty()) return;
  for (const Transition& t : transitions) batch_.Append(t);
  if (static_cast<size_t>(batch_.size()) < options_.batch_size) return;
  Update(batch_);
  batch_.Clear();
}

void TbaPolicy::Update(const TransitionStore& batch) {
  // REINFORCE with a moving-average baseline on the *own-profit* reward.
  const int n = batch.size();
  net_->ForwardTape(batch.states(), &tape_);
  const Matrix& logits = net_->Output(tape_);

  // Every entry of grad_ is written below, masked actions with 0.
  grad_.ResizeForOverwrite(n, num_actions_);
  for (int i = 0; i < n; ++i) {
    const TransitionScalars& t = batch.scalars(i);
    if (!baseline_init_) {
      baseline_ = t.reward_own;
      baseline_init_ = true;
    }
    const double advantage = t.reward_own - baseline_;
    baseline_ = options_.baseline_decay * baseline_ +
                (1.0 - options_.baseline_decay) * t.reward_own;

    // Rebuild the behaviour-time mask from the discrete context (masks are
    // deterministic functions of region + charge flags).
    space_->Mask(t.region, t.must_charge, t.may_charge, &mask_scratch_);
    probs_.assign(logits.Row(i), logits.Row(i) + num_actions_);
    MaskedSoftmax(mask_scratch_, &probs_);

    // dL/dlogit = A*(pi - onehot) + c*pi*(log pi + H)
    double entropy = 0.0;
    for (int a = 0; a < num_actions_; ++a) {
      if (probs_[static_cast<size_t>(a)] > 0.0f) {
        entropy -= probs_[static_cast<size_t>(a)] *
                   std::log(probs_[static_cast<size_t>(a)]);
      }
    }
    for (int a = 0; a < num_actions_; ++a) {
      const double p = probs_[static_cast<size_t>(a)];
      if (!mask_scratch_[static_cast<size_t>(a)]) {
        grad_.At(i, a) = 0.0f;
        continue;
      }
      double g = advantage * (p - (a == t.action_index ? 1.0 : 0.0));
      if (p > 0.0) {
        g += options_.entropy_bonus * p * (std::log(p) + entropy);
      }
      grad_.At(i, a) = static_cast<float>(g / n);
    }
  }

  grads_.Zero();
  net_->Backward(tape_, grad_, &grads_, &backward_ws_);
  optimizer_->Step(grads_);
}

}  // namespace fairmove
