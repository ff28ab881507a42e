#include "fairmove/rl/dqn_policy.h"

#include <algorithm>
#include <string>
#include <utility>

#include "fairmove/io/atomic_file.h"
#include "fairmove/io/binary.h"
#include "fairmove/rl/epsilon_greedy.h"
#include "fairmove/sim/simulator.h"

namespace fairmove {

namespace {
constexpr uint32_t kDqnStateTag = 0x314E5144;  // "DQN1"
constexpr uint32_t kDqnStateVersion = 1;
}  // namespace

DqnPolicy::DqnPolicy(const Simulator& sim) : DqnPolicy(sim, Options()) {}

DqnPolicy::DqnPolicy(const Simulator& sim, Options options)
    : options_(options),
      space_(&sim.action_space()),
      features_(&sim),
      num_actions_(sim.action_space().size()),
      replay_(options.replay_capacity, features_.dim(), num_actions_),
      rng_(options.seed) {
  std::vector<int> sizes;
  sizes.push_back(features_.dim());
  for (int h : options_.hidden) sizes.push_back(h);
  sizes.push_back(num_actions_);
  q_net_ = std::make_unique<Mlp>(sizes, Activation::kRelu, options.seed);
  for (int a = space_->first_charge_index(); a < num_actions_; ++a) {
    q_net_->biases().back()[static_cast<size_t>(a)] =
        static_cast<float>(options_.charge_q_bias);
  }
  target_net_ =
      std::make_unique<Mlp>(sizes, Activation::kRelu, options.seed + 1);
  target_net_->CopyParametersFrom(*q_net_);
  optimizer_ = std::make_unique<Adam>(
      q_net_.get(), Adam::Options{.learning_rate = options.learning_rate});
  grads_ = q_net_->MakeGradients();
}

double DqnPolicy::CurrentEpsilon() const {
  return AnnealedEpsilon(options_.epsilon_start, options_.epsilon_end,
                         options_.epsilon_decay_batches, learn_batches_);
}

void DqnPolicy::DecideActions(const Simulator& sim,
                              const std::vector<TaxiObs>& vacant,
                              std::vector<Action>* actions) {
  (void)sim;  // state is read through the cached pointers
  actions->clear();
  actions->reserve(vacant.size());
  last_features_.resize(vacant.size());
  const double epsilon = training_ ? CurrentEpsilon() : options_.epsilon_eval;
  // One batched Q pass for the whole slot (Q values are computed for
  // explorers too — the network consumes no randomness, so the RNG stream
  // and the chosen actions match the scalar per-taxi loop exactly).
  features_.ExtractAll(vacant, &batch_x_);
  q_net_->Forward(batch_x_, &batch_q_, &GlobalPool(), &forward_ws_);
  const int dim = features_.dim();
  for (size_t i = 0; i < vacant.size(); ++i) {
    const TaxiObs& obs = vacant[i];
    const float* row_x = batch_x_.Row(static_cast<int>(i));
    last_features_[i].assign(row_x, row_x + dim);
    space_->Mask(obs.region, obs.must_charge, obs.may_charge, &mask_scratch_);
    const int chosen = EpsilonGreedyPick(
        mask_scratch_, batch_q_.Row(static_cast<int>(i)), epsilon, rng_);
    FM_CHECK(chosen >= 0);
    actions->push_back(space_->Materialize(obs.region, chosen));
  }
}

Status DqnPolicy::SaveModel(const std::string& path) const {
  BinaryWriter out;
  q_net_->Save(&out);
  return AtomicWriteFile(path, out.str());
}

Status DqnPolicy::LoadModel(const std::string& path) {
  FM_ASSIGN_OR_RETURN(const std::string bytes, ReadFileToString(path));
  BinaryReader in(bytes);
  FM_ASSIGN_OR_RETURN(Mlp net, LoadNetLike(&in, *q_net_, "saved Q-network"));
  *q_net_ = std::move(net);
  target_net_->CopyParametersFrom(*q_net_);
  return Status::OK();
}

Status DqnPolicy::SaveState(BinaryWriter* out) const {
  out->WriteU32(kDqnStateTag);
  out->WriteU32(kDqnStateVersion);
  WriteNet(*q_net_, out);
  WriteNet(*target_net_, out);
  FM_RETURN_IF_ERROR(optimizer_->SaveState(out));
  FM_RETURN_IF_ERROR(replay_.SaveState(out));
  WriteRngState(rng_, out);
  out->WriteI64(learn_batches_);
  out->WriteI64(grad_steps_);
  return Status::OK();
}

Status DqnPolicy::RestoreState(BinaryReader* in) {
  // Parsed into copies first and committed last: a refused record leaves
  // the policy exactly as it was.
  FM_RETURN_IF_ERROR(
      ReadRecordHeader(in, kDqnStateTag, kDqnStateVersion, "DQN state"));
  FM_ASSIGN_OR_RETURN(Mlp q_net, ReadNetLike(in, *q_net_, "Q-network"));
  FM_ASSIGN_OR_RETURN(Mlp target,
                      ReadNetLike(in, *target_net_, "target network"));
  Adam optimizer = *optimizer_;
  FM_RETURN_IF_ERROR(optimizer.RestoreState(in));
  ReplayBuffer replay(replay_.capacity(), features_.dim(), num_actions_);
  FM_RETURN_IF_ERROR(replay.RestoreState(in));
  Rng rng = rng_;
  FM_RETURN_IF_ERROR(ReadRngState(in, &rng));
  int64_t learn_batches = 0, grad_steps = 0;
  FM_RETURN_IF_ERROR(in->ReadI64(&learn_batches));
  FM_RETURN_IF_ERROR(in->ReadI64(&grad_steps));
  if (learn_batches < 0 || grad_steps < 0) {
    return Status::InvalidArgument("negative DQN update counters");
  }
  *q_net_ = std::move(q_net);
  *target_net_ = std::move(target);
  *optimizer_ = std::move(optimizer);
  replay_ = std::move(replay);
  rng_ = rng;
  learn_batches_ = static_cast<int>(learn_batches);
  grad_steps_ = grad_steps;
  return Status::OK();
}

void DqnPolicy::Learn(const std::vector<Transition>& transitions) {
  if (!training_) return;
  for (const Transition& t : transitions) replay_.Add(t);
  ++learn_batches_;
  if (replay_.size() < options_.min_replay) return;
  for (int u = 0; u < options_.updates_per_learn; ++u) GradientStep();
}

void DqnPolicy::GradientStep() {
  replay_.Sample(static_cast<size_t>(options_.minibatch), rng_, &sample_);
  const TransitionStore& rows = replay_.rows();
  const int n = static_cast<int>(sample_.size());
  const int dim = features_.dim();

  // Gather the sampled rows; a terminal row's next state is zeros.
  x_.ResizeForOverwrite(n, dim);
  next_x_.ResizeForOverwrite(n, dim);
  for (int i = 0; i < n; ++i) {
    const int row = sample_[static_cast<size_t>(i)];
    std::copy_n(rows.states().Row(row), dim, x_.Row(i));
    std::copy_n(rows.next_states().Row(row), dim, next_x_.Row(i));
  }

  // Targets: y = r + gamma^k * max_{a' valid} Q_target(s', a'); Double DQN
  // selects a' with the online network and scores it with the target.
  target_net_->Forward(next_x_, &next_q_, &train_ws_);
  if (options_.double_dqn) {
    q_net_->Forward(next_x_, &next_q_online_, &train_ws_);
  }
  targets_.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const TransitionScalars& t = rows.scalars(sample_[static_cast<size_t>(i)]);
    double y = t.reward;
    if (!t.terminal) {
      space_->Mask(t.next_region, t.next_must_charge, t.next_may_charge,
                   &mask_scratch_);
      const float best =
          options_.double_dqn
              ? next_q_.At(i, MaskedArgmax(mask_scratch_,
                                           next_q_online_.Row(i)))
              : MaskedMax(mask_scratch_, next_q_.Row(i));
      y += t.discount * best;
    }
    targets_[static_cast<size_t>(i)] = static_cast<float>(y);
  }

  // MSE on the taken action's Q value only; every other gradient entry
  // stays at Resize's zero.
  q_net_->ForwardTape(x_, &tape_);
  const Matrix& q = q_net_->Output(tape_);
  grad_.Resize(n, num_actions_);
  for (int i = 0; i < n; ++i) {
    const TransitionScalars& t = rows.scalars(sample_[static_cast<size_t>(i)]);
    const float diff =
        q.At(i, t.action_index) - targets_[static_cast<size_t>(i)];
    grad_.At(i, t.action_index) = 2.0f * diff / static_cast<float>(n);
  }
  grads_.Zero();
  q_net_->Backward(tape_, grad_, &grads_, &train_ws_);
  optimizer_->Step(grads_);

  if (++grad_steps_ % options_.target_sync_steps == 0) {
    target_net_->CopyParametersFrom(*q_net_);
  }
}

}  // namespace fairmove
