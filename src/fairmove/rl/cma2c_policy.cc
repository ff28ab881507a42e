#include "fairmove/rl/cma2c_policy.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <utility>

#include "fairmove/io/atomic_file.h"
#include "fairmove/io/binary.h"
#include "fairmove/obs/jsonl.h"
#include "fairmove/obs/span.h"
#include "fairmove/rl/replay_buffer.h"
#include "fairmove/sim/simulator.h"

namespace fairmove {

namespace {
constexpr uint32_t kCma2cStateTag = 0x31324143;  // "CA21"
constexpr uint32_t kCma2cStateVersion = 1;
}  // namespace

Cma2cPolicy::Cma2cPolicy(const Simulator& sim)
    : Cma2cPolicy(sim, Options()) {}

Cma2cPolicy::Cma2cPolicy(const Simulator& sim, Options options)
    : options_(options),
      space_(&sim.action_space()),
      features_(&sim),
      num_actions_(sim.action_space().size()),
      rng_(options.seed),
      batch_(features_.dim(), num_actions_) {
  std::vector<int> actor_sizes{features_.dim()};
  for (int h : options_.actor_hidden) actor_sizes.push_back(h);
  actor_sizes.push_back(num_actions_);
  actor_ = std::make_unique<Mlp>(actor_sizes, Activation::kTanh,
                                 options.seed);
  for (int a = space_->first_charge_index(); a < num_actions_; ++a) {
    actor_->biases().back()[static_cast<size_t>(a)] =
        static_cast<float>(options_.charge_logit_bias);
  }

  std::vector<int> critic_sizes{features_.dim()};
  for (int h : options_.critic_hidden) critic_sizes.push_back(h);
  critic_sizes.push_back(1);
  critic_ = std::make_unique<Mlp>(critic_sizes, Activation::kRelu,
                                  options.seed + 1);
  critic_target_ = std::make_unique<Mlp>(critic_sizes, Activation::kRelu,
                                         options.seed + 2);
  critic_target_->CopyParametersFrom(*critic_);

  actor_opt_ = std::make_unique<Adam>(
      actor_.get(),
      Adam::Options{.learning_rate = options.actor_learning_rate});
  critic_opt_ = std::make_unique<Adam>(
      critic_.get(),
      Adam::Options{.learning_rate = options.critic_learning_rate});
  actor_grads_ = actor_->MakeGradients();
  critic_grads_ = critic_->MakeGradients();
}

void Cma2cPolicy::DecideActions(const Simulator& sim,
                                const std::vector<TaxiObs>& vacant,
                                std::vector<Action>* actions) {
  FM_SPAN("rl.decide_actions");
  (void)sim;  // state is read through the cached pointers
  actions->clear();
  actions->reserve(vacant.size());
  last_features_.resize(vacant.size());
  // One batched pass for the whole slot: features land row-per-taxi in a
  // reused matrix and the actor runs once. Each output row is bit-identical
  // to the former per-taxi Forward1 call, and the RNG is consumed in the
  // same per-taxi order, so decisions match the scalar path exactly.
  features_.ExtractAll(vacant, &batch_x_);
  actor_->Forward(batch_x_, &batch_logits_, &GlobalPool(), &forward_ws_);
  const int dim = features_.dim();
  const bool sharpen = !training_ && options_.eval_temperature != 1.0;
  const float inv_t = static_cast<float>(1.0 / options_.eval_temperature);
  for (size_t i = 0; i < vacant.size(); ++i) {
    const TaxiObs& obs = vacant[i];
    const float* row_x = batch_x_.Row(static_cast<int>(i));
    last_features_[i].assign(row_x, row_x + dim);
    float* logits = batch_logits_.Row(static_cast<int>(i));
    if (sharpen) {
      for (int a = 0; a < num_actions_; ++a) logits[a] *= inv_t;
    }
    space_->Mask(obs.region, obs.must_charge, obs.may_charge, &mask_scratch_);
    MaskedSoftmax(mask_scratch_, logits, static_cast<size_t>(num_actions_));
    // Sampled both in training and evaluation: the stochastic policy is the
    // coordination mechanism (it load-balances simultaneous decisions).
    const size_t pick = rng_.WeightedIndex(
        std::span<const float>(logits, static_cast<size_t>(num_actions_)));
    FM_CHECK(mask_scratch_[pick]) << "sampled a masked action";
    actions->push_back(space_->Materialize(obs.region, static_cast<int>(pick)));
  }
}

Status Cma2cPolicy::SaveModel(const std::string& path) const {
  // Atomic replacement: an interrupted save can never clobber a good model
  // file with a truncated actor/critic pair.
  BinaryWriter out;
  actor_->Save(&out);
  critic_->Save(&out);
  return AtomicWriteFile(path, out.str());
}

Status Cma2cPolicy::LoadModel(const std::string& path) {
  FM_ASSIGN_OR_RETURN(const std::string bytes, ReadFileToString(path));
  BinaryReader in(bytes);
  FM_ASSIGN_OR_RETURN(Mlp actor, LoadNetLike(&in, *actor_, "saved actor"));
  FM_ASSIGN_OR_RETURN(Mlp critic,
                      LoadNetLike(&in, *critic_, "saved critic"));
  *actor_ = std::move(actor);
  *critic_ = std::move(critic);
  critic_target_->CopyParametersFrom(*critic_);
  return Status::OK();
}

Status Cma2cPolicy::SaveState(BinaryWriter* out) const {
  out->WriteU32(kCma2cStateTag);
  out->WriteU32(kCma2cStateVersion);
  WriteNet(*actor_, out);
  WriteNet(*critic_, out);
  WriteNet(*critic_target_, out);
  FM_RETURN_IF_ERROR(actor_opt_->SaveState(out));
  FM_RETURN_IF_ERROR(critic_opt_->SaveState(out));
  WriteRngState(rng_, out);
  out->WriteI64(learn_batches_);
  out->WriteF64(last_critic_loss_);
  out->WriteF64(last_entropy_);
  out->WriteF64(last_actor_loss_);
  // The transition buffer accumulates across episode boundaries (it drains
  // only when batch_size fills), so it is part of the resumable state.
  out->WriteU64(static_cast<uint64_t>(batch_.size()));
  batch_.Write(out);
  out->WriteBool(guard_ != nullptr);
  if (guard_ != nullptr) FM_RETURN_IF_ERROR(guard_->SaveState(out));
  return Status::OK();
}

Status Cma2cPolicy::RestoreState(BinaryReader* in) {
  // The whole record is parsed into copies first and committed last, so a
  // refused record (a misfit transition, a guard mismatch, truncation)
  // leaves the policy exactly as it was.
  FM_RETURN_IF_ERROR(
      ReadRecordHeader(in, kCma2cStateTag, kCma2cStateVersion, "CMA2C state"));
  FM_ASSIGN_OR_RETURN(Mlp actor, ReadNetLike(in, *actor_, "actor"));
  FM_ASSIGN_OR_RETURN(Mlp critic, ReadNetLike(in, *critic_, "critic"));
  FM_ASSIGN_OR_RETURN(Mlp target,
                      ReadNetLike(in, *critic_target_, "target critic"));
  Adam actor_opt = *actor_opt_;
  FM_RETURN_IF_ERROR(actor_opt.RestoreState(in));
  Adam critic_opt = *critic_opt_;
  FM_RETURN_IF_ERROR(critic_opt.RestoreState(in));
  Rng rng = rng_;
  FM_RETURN_IF_ERROR(ReadRngState(in, &rng));
  int64_t learn_batches = 0;
  FM_RETURN_IF_ERROR(in->ReadI64(&learn_batches));
  if (learn_batches < 0) {
    return Status::InvalidArgument("negative CMA2C update counter");
  }
  double critic_loss = 0.0, entropy = 0.0, actor_loss = 0.0;
  FM_RETURN_IF_ERROR(in->ReadF64(&critic_loss));
  FM_RETURN_IF_ERROR(in->ReadF64(&entropy));
  FM_RETURN_IF_ERROR(in->ReadF64(&actor_loss));
  uint64_t buffered = 0;
  FM_RETURN_IF_ERROR(in->ReadU64(&buffered));
  TransitionStore batch(features_.dim(), num_actions_);
  FM_RETURN_IF_ERROR(batch.Read(in, buffered));
  bool has_guard = false;
  FM_RETURN_IF_ERROR(in->ReadBool(&has_guard));
  if (has_guard != (guard_ != nullptr)) {
    return Status::InvalidArgument(
        has_guard ? "checkpoint carries a DivergenceGuard but this policy "
                    "has none armed (call EnableDivergenceGuard first)"
                  : "this policy has a DivergenceGuard armed but the "
                    "checkpoint carries none");
  }
  std::optional<DivergenceGuard> guard;
  if (guard_ != nullptr) {
    // The serialized Adam learning rates already include lr_scale decay,
    // but the moments belong with the restored parameters either way; no
    // optimizer rebuild here — the restored state IS the post-rollback one.
    guard.emplace(*guard_);
    FM_RETURN_IF_ERROR(guard->RestoreState(in));
  }
  *actor_ = std::move(actor);
  *critic_ = std::move(critic);
  *critic_target_ = std::move(target);
  *actor_opt_ = std::move(actor_opt);
  *critic_opt_ = std::move(critic_opt);
  rng_ = rng;
  learn_batches_ = static_cast<int>(learn_batches);
  last_critic_loss_ = critic_loss;
  last_entropy_ = entropy;
  last_actor_loss_ = actor_loss;
  batch_ = std::move(batch);
  if (guard.has_value()) *guard_ = std::move(*guard);
  return Status::OK();
}

double Cma2cPolicy::Value(const std::vector<float>& state) const {
  return critic_->Forward1(state)[0];
}

void Cma2cPolicy::EnableDivergenceGuard(DivergenceGuard::Options options) {
  guard_ = std::make_unique<DivergenceGuard>(options);
  guard_->Register(actor_.get());
  guard_->Register(critic_.get());
  const Status st = guard_->Checkpoint();
  FM_CHECK(st.ok()) << st;
}

Status Cma2cPolicy::Health() const {
  return guard_ != nullptr ? guard_->status() : Status::OK();
}

void Cma2cPolicy::RollBack(const std::string& why) {
  const Status st = guard_->OnDivergence(why);
  FM_CHECK(st.ok()) << st;
  // The Adam moments were estimated for the discarded weights; restart both
  // optimizers on the restored parameters at the decayed learning rate.
  actor_opt_ = std::make_unique<Adam>(
      actor_.get(),
      Adam::Options{.learning_rate =
                        options_.actor_learning_rate * guard_->lr_scale()});
  critic_opt_ = std::make_unique<Adam>(
      critic_.get(),
      Adam::Options{.learning_rate =
                        options_.critic_learning_rate * guard_->lr_scale()});
  critic_target_->CopyParametersFrom(*critic_);
}

void Cma2cPolicy::Learn(const std::vector<Transition>& transitions) {
  if (!training_ || transitions.empty()) return;
  if (guard_ != nullptr && guard_->exhausted()) return;
  for (const Transition& t : transitions) batch_.Append(t);
  if (static_cast<size_t>(batch_.size()) < options_.batch_size) return;
  for (int pass = 0; pass < options_.passes_per_batch; ++pass) {
    if (guard_ != nullptr && guard_->exhausted()) break;
    Update(batch_);
  }
  batch_.Clear();
}

void Cma2cPolicy::Update(const TransitionStore& batch) {
  const int n = batch.size();
  // The update's passes shard their batch rows over the pool; every
  // gradient is bit-identical at any lane count (see Mlp::Backward).
  ThreadPool* pool = &GlobalPool();

  // --- Critic: minimise (V(s) - y)^2 with y from the target net (Eq 6-7).
  // A terminal row's next state is zeros; its target ignores the value.
  critic_target_->Forward(batch.next_states(), &next_v_, pool, &target_ws_);
  targets_.resize(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    const TransitionScalars& t = batch.scalars(i);
    targets_[static_cast<size_t>(i)] =
        t.reward + (t.terminal ? 0.0 : t.discount * next_v_.At(i, 0));
  }

  if (guard_ != nullptr) {
    for (double y : targets_) {
      if (!std::isfinite(y)) {
        RollBack("non-finite TD target (reward or target-critic output)");
        return;
      }
    }
  }

  critic_->ForwardTape(batch.states(), &critic_tape_, pool);
  const Matrix& v = critic_->Output(critic_tape_);
  critic_grad_.ResizeForOverwrite(n, 1);
  advantages_.resize(static_cast<size_t>(n));
  double critic_loss = 0.0;
  for (int i = 0; i < n; ++i) {
    const double diff = v.At(i, 0) - targets_[static_cast<size_t>(i)];
    critic_loss += diff * diff;
    critic_grad_.At(i, 0) = static_cast<float>(2.0 * diff / n);
    // Advantage = TD error (Eq 11).
    advantages_[static_cast<size_t>(i)] = -diff;
  }
  last_critic_loss_ = critic_loss / n;
  if (guard_ != nullptr && !std::isfinite(last_critic_loss_)) {
    // Rollback fires before any optimizer step, so the parameters still
    // equal the last-good checkpoint exactly.
    RollBack("non-finite critic loss");
    return;
  }
  critic_grads_.Zero();
  critic_->Backward(critic_tape_, critic_grad_, &critic_grads_, &backward_ws_,
                    pool);
  critic_opt_->Step(critic_grads_);

  // Advantages are normalised within the batch (variance reduction on top
  // of the TD baseline).
  if (n > 1) {
    double mean = 0.0;
    for (double a : advantages_) mean += a;
    mean /= n;
    double var = 0.0;
    for (double a : advantages_) var += (a - mean) * (a - mean);
    var /= n;
    const double stddev = std::sqrt(var) + 1e-6;
    for (double& a : advantages_) a = (a - mean) / stddev;
  }

  if (learn_batches_ < options_.actor_warmup_batches) {
    // Critic warm-up: skip the policy update until values are usable.
    critic_target_->SoftUpdateFrom(*critic_, options_.target_tau);
    ++learn_batches_;
    if (guard_ != nullptr) {
      if (!guard_->ParametersFinite()) {
        RollBack("non-finite parameters after critic warm-up update");
        return;
      }
      const Status st = guard_->NoteHealthyUpdate();
      FM_CHECK(st.ok()) << st;
    }
    return;
  }

  // --- Actor: policy gradient with entropy regularisation (Eq 8).
  actor_->ForwardTape(batch.states(), &actor_tape_, pool);
  const Matrix& logits = actor_->Output(actor_tape_);
  actor_grad_.ResizeForOverwrite(n, num_actions_);
  double total_entropy = 0.0;
  double total_actor_loss = 0.0;
  for (int i = 0; i < n; ++i) {
    const TransitionScalars& t = batch.scalars(i);
    space_->Mask(t.region, t.must_charge, t.may_charge, &mask_scratch_);
    probs_.assign(logits.Row(i), logits.Row(i) + num_actions_);
    MaskedSoftmax(mask_scratch_, &probs_);
    double entropy = 0.0;
    for (int a = 0; a < num_actions_; ++a) {
      const double p = probs_[static_cast<size_t>(a)];
      if (p > 0.0) entropy -= p * std::log(p);
    }
    total_entropy += entropy;
    const double adv = advantages_[static_cast<size_t>(i)];
    const double p_taken = probs_[static_cast<size_t>(t.action_index)];
    if (p_taken > 0.0) total_actor_loss += -adv * std::log(p_taken);
    for (int a = 0; a < num_actions_; ++a) {
      if (!mask_scratch_[static_cast<size_t>(a)]) {
        actor_grad_.At(i, a) = 0.0f;
        continue;
      }
      const double p = probs_[static_cast<size_t>(a)];
      // dL/dlogit = adv*(pi - onehot) + c*pi*(log pi + H)
      double g = adv * (p - (a == t.action_index ? 1.0 : 0.0));
      if (p > 0.0) {
        g += options_.entropy_bonus * p * (std::log(p) + entropy);
      }
      actor_grad_.At(i, a) = static_cast<float>(g / n);
    }
  }
  last_entropy_ = total_entropy / n;
  last_actor_loss_ = total_actor_loss / n;
  if (guard_ != nullptr && !std::isfinite(last_entropy_)) {
    RollBack("non-finite actor logits/entropy");
    return;
  }
  actor_grads_.Zero();
  actor_->Backward(actor_tape_, actor_grad_, &actor_grads_, &backward_ws_,
                   pool);
  actor_opt_->Step(actor_grads_);

  critic_target_->SoftUpdateFrom(*critic_, options_.target_tau);
  ++learn_batches_;
  if (guard_ != nullptr) {
    if (!guard_->ParametersFinite()) {
      RollBack("non-finite parameters after update");
      return;
    }
    const Status st = guard_->NoteHealthyUpdate();
    FM_CHECK(st.ok()) << st;
  }
}

void Cma2cPolicy::AppendTelemetry(JsonObject* row) const {
  row->Set("critic_loss", last_critic_loss_)
      .Set("actor_loss", last_actor_loss_)
      .Set("entropy", last_entropy_)
      .Set("learn_batches", learn_batches_);
  if (guard_ != nullptr) {
    row->Set("guard_rollbacks", guard_->total_rollbacks())
        .Set("guard_lr_scale", guard_->lr_scale())
        .Set("guard_healthy", guard_->status().ok());
  }
}

}  // namespace fairmove
