#include "fairmove/core/trainer.h"

#include <cmath>
#include <string>
#include <utility>

#include "fairmove/common/config.h"
#include "fairmove/io/binary.h"
#include "fairmove/obs/flight_recorder.h"
#include "fairmove/obs/jsonl.h"
#include "fairmove/obs/span.h"
#include "fairmove/obs/telemetry.h"
#include "fairmove/resilience/checkpoint.h"

namespace fairmove {

namespace {

constexpr uint32_t kTrainerStateTag = 0x314E5254;  // "TRN1"
constexpr uint32_t kTrainerStateVersion = 1;

/// One row of training.jsonl. `phase` distinguishes training episodes from
/// evaluation rollouts; rows identify themselves because parallel method
/// fan-outs interleave in file order.
void EmitEpisodeRow(const char* phase, const DisplacementPolicy* policy,
                    int episode, uint64_t seed,
                    const Trainer::EpisodeStats& stats) {
  Telemetry& telemetry = Telemetry::Get();
  if (!telemetry.enabled()) return;
  JsonObject row;
  row.Set("kind", "episode")
      .Set("phase", phase)
      .Set("method", policy != nullptr ? policy->name() : "none")
      .Set("episode", episode)
      .Set("seed", seed)
      .Set("transitions", stats.transitions)
      .Set("avg_reward", stats.avg_reward)
      .Set("avg_reward_own", stats.avg_reward_own)
      .Set("fleet_pe_mean", stats.fleet_pe_mean)
      .Set("fleet_pf", stats.fleet_pf);
  if (policy != nullptr) policy->AppendTelemetry(&row);
  telemetry.training_stream().Write(row);
}

}  // namespace

Status CheckpointConfig::Validate() const {
  if (every < 1) {
    return Status::InvalidArgument("checkpoint every must be >= 1");
  }
  if (retain < 1) {
    return Status::InvalidArgument("checkpoint retain must be >= 1");
  }
  return Status::OK();
}

StatusOr<CheckpointConfig> CheckpointConfig::FromEnv() {
  EnvOverrides env;
  FM_RETURN_IF_ERROR(env.LoadFromEnv());
  CheckpointConfig ckpt;
  ckpt.dir = env.checkpoint_dir;
  ckpt.every = env.checkpoint_every;
  ckpt.retain = env.checkpoint_retain;
  FM_RETURN_IF_ERROR(ckpt.Validate());
  return ckpt;
}

Status TrainerConfig::Validate() const {
  if (episodes < 0) return Status::InvalidArgument("episodes must be >= 0");
  if (slots_per_episode <= 0) {
    return Status::InvalidArgument("slots_per_episode must be > 0");
  }
  return reward.Validate();
}

Trainer::Trainer(Simulator* sim, TrainerConfig config)
    : sim_(sim), config_(config), reward_(config.reward) {
  FM_CHECK(sim != nullptr);
  FM_CHECK(config.Validate().ok()) << config.Validate();
}

void Trainer::StepAndCollect(
    DisplacementPolicy* policy, bool learning,
    std::vector<DisplacementPolicy::Transition>* closed,
    EpisodeStats* stats) {
  const int slot_of_day = sim_->now().SlotOfDay();
  sim_->Step(policy);

  // Per-slot reward components (Eq 5). The fairness penalty is a shared
  // fleet-level term evaluated once per slot.
  const double fairness_penalty = reward_.FairnessPenalty(
      sim_->FleetMeanPe(), sim_->FleetPeVariance());
  const double gamma = config_.reward.gamma;

  // (a) Accumulate this slot's reward into every open window. The slot's
  // profit events (fares credited, charging cost incurred) belong to the
  // decision that caused them, i.e. the still-open previous window.
  const auto& profits = sim_->slot_profits();
  const double fleet_mean_pe = sim_->FleetMeanPe();
  if (groups_ != nullptr) groups_->GroupMeans(*sim_, &group_means_);
  for (TaxiId k = 0; k < sim_->num_taxis(); ++k) {
    auto& pending = pendings_[static_cast<size_t>(k)];
    if (!pending.has_value()) continue;
    const double pe_term = reward_.PeTerm(profits[static_cast<size_t>(k)]);
    // Fairness baseline: the fleet mean, or the driver's rating-group mean
    // when group-aware fairness is enabled (paper SV).
    const double baseline_pe =
        groups_ != nullptr
            ? group_means_[static_cast<size_t>(groups_->group(k))]
            : fleet_mean_pe;
    const double pe_gap = sim_->fleet().hourly_pe(k) - baseline_pe;
    const double r =
        reward_.Combined(pe_term, fairness_penalty) +
        (1.0 - config_.reward.alpha) *
            reward_.FairnessGradient(pe_gap, pe_term);
    const double w = std::pow(gamma, static_cast<double>(
                                          pending->elapsed_slots));
    pending->open.reward += w * r;
    pending->open.reward_own += w * pe_term;
    pending->elapsed_slots += 1;
  }

  // (b) Close windows of taxis that decided again this slot and open the
  // new ones. Features (if the policy computes any) align with the
  // decision order.
  const std::vector<Decision>& decisions = sim_->last_decisions();
  const std::vector<std::vector<float>>* features =
      policy != nullptr ? policy->LastFeatures() : nullptr;
  if (features != nullptr && features->size() != decisions.size()) {
    features = nullptr;  // policy does not cache per-decision features
  }
  for (size_t i = 0; i < decisions.size(); ++i) {
    const Decision& d = decisions[i];
    auto& pending = pendings_[static_cast<size_t>(d.taxi)];
    if (pending.has_value()) {
      DisplacementPolicy::Transition t = Close(&*pending, false, stats);
      t.next_region = d.region;
      t.next_slot_of_day = slot_of_day;
      t.next_must_charge = d.must_charge;
      t.next_may_charge = d.may_charge;
      if (features != nullptr) t.next_state = (*features)[i];
      if (learning) closed->push_back(std::move(t));
    }
    pending.emplace();
    DisplacementPolicy::Transition& open = pending->open;
    if (features != nullptr) open.state = (*features)[i];
    open.action_index = d.action_index;
    open.region = d.region;
    open.slot_of_day = slot_of_day;
    open.must_charge = d.must_charge;
    open.may_charge = d.may_charge;
  }
}

void Trainer::FlushPendings(
    std::vector<DisplacementPolicy::Transition>* closed,
    EpisodeStats* stats) {
  for (auto& pending : pendings_) {
    if (!pending.has_value()) continue;
    DisplacementPolicy::Transition t = Close(&*pending, true, stats);
    if (closed != nullptr) closed->push_back(std::move(t));
    pending.reset();
  }
}

DisplacementPolicy::Transition Trainer::Close(Pending* pending, bool terminal,
                                              EpisodeStats* stats) const {
  DisplacementPolicy::Transition t = std::move(pending->open);
  t.discount = std::pow(config_.reward.gamma,
                        static_cast<double>(pending->elapsed_slots));
  t.terminal = terminal;
  stats->avg_reward += t.reward;
  stats->avg_reward_own += t.reward_own;
  stats->transitions += 1;
  return t;
}

Trainer::EpisodeStats Trainer::RunTrainingEpisode(DisplacementPolicy* policy,
                                                  int episode) {
  FM_SPAN("train/episode");
  FM_FLIGHT_EVENT("train.episode", episode, config_.slots_per_episode);
  const bool learns = policy->WantsTransitions();
  const uint64_t seed =
      config_.seed_base != 0
          ? config_.seed_base + static_cast<uint64_t>(episode)
          : 0;
  sim_->Reset(seed);
  pendings_.assign(static_cast<size_t>(sim_->num_taxis()), std::nullopt);
  policy->SetTraining(true);
  policy->BeginEpisode(*sim_);
  EpisodeStats stats;
  std::vector<DisplacementPolicy::Transition> closed;
  const auto learn = [&] {
    if (learns && !closed.empty()) {
      FM_SPAN("train/learn");
      policy->Learn(closed);
    }
    closed.clear();
  };
  for (int64_t slot = 0; slot < config_.slots_per_episode; ++slot) {
    StepAndCollect(policy, learns, &closed, &stats);
    learn();
  }
  FlushPendings(learns ? &closed : nullptr, &stats);
  learn();
  FinishEpisode("train", policy, episode, seed, &stats);
  return stats;
}

void Trainer::FinishEpisode(const char* phase, DisplacementPolicy* policy,
                            int episode, uint64_t seed,
                            EpisodeStats* stats) const {
  if (stats->transitions > 0) {
    stats->avg_reward /= static_cast<double>(stats->transitions);
    stats->avg_reward_own /= static_cast<double>(stats->transitions);
  }
  stats->fleet_pe_mean = sim_->FleetMeanPe();
  stats->fleet_pf = sim_->FleetPeVariance();
  EmitEpisodeRow(phase, policy, episode, seed, *stats);
}

std::vector<Trainer::EpisodeStats> Trainer::Train(
    DisplacementPolicy* policy) {
  FM_CHECK(policy != nullptr);
  std::vector<EpisodeStats> all_stats;
  all_stats.reserve(static_cast<size_t>(config_.episodes));
  for (int episode = 0; episode < config_.episodes; ++episode) {
    all_stats.push_back(RunTrainingEpisode(policy, episode));
  }
  return all_stats;
}

uint32_t Trainer::ConfigCrc() const {
  BinaryWriter knobs;
  knobs.WriteI32(config_.episodes);
  knobs.WriteI64(config_.slots_per_episode);
  knobs.WriteU64(config_.seed_base);
  knobs.WriteF64(config_.reward.alpha);
  knobs.WriteF64(config_.reward.gamma);
  knobs.WriteF64(config_.reward.pe_scale_cny_per_hour);
  knobs.WriteF64(config_.reward.fairness_clip);
  knobs.WriteF64(config_.reward.fairness_cv2_scale);
  knobs.WriteF64(config_.reward.fairness_gradient_weight);
  return Crc32(knobs.str());
}

StatusOr<std::string> Trainer::SerializeRunState(
    const DisplacementPolicy& policy, const std::vector<EpisodeStats>& stats,
    int episodes_done) const {
  BinaryWriter payload;
  payload.WriteU32(kTrainerStateTag);
  payload.WriteU32(kTrainerStateVersion);
  payload.WriteI64(episodes_done);
  payload.WriteU64(stats.size());
  for (const EpisodeStats& s : stats) {
    payload.WriteF64(s.avg_reward);
    payload.WriteF64(s.avg_reward_own);
    payload.WriteI64(s.transitions);
    payload.WriteF64(s.fleet_pe_mean);
    payload.WriteF64(s.fleet_pf);
  }
  BinaryWriter policy_state;
  FM_RETURN_IF_ERROR(policy.SaveState(&policy_state));
  payload.WriteString(policy_state.str());
  return payload.Release();
}

StatusOr<int> Trainer::RestoreRunState(std::string_view payload,
                                       DisplacementPolicy* policy,
                                       std::vector<EpisodeStats>* stats) const {
  FM_CHECK(policy != nullptr);
  FM_CHECK(stats != nullptr);
  BinaryReader in(payload);
  FM_RETURN_IF_ERROR(ReadRecordHeader(&in, kTrainerStateTag,
                                      kTrainerStateVersion, "trainer state"));
  int64_t episodes_done = 0;
  FM_RETURN_IF_ERROR(in.ReadI64(&episodes_done));
  if (episodes_done < 0 || episodes_done > config_.episodes) {
    return Status::InvalidArgument(
        "checkpoint episode cursor " + std::to_string(episodes_done) +
        " outside this run's range [0, " + std::to_string(config_.episodes) +
        "]");
  }
  uint64_t stat_count = 0;
  FM_RETURN_IF_ERROR(in.ReadU64(&stat_count));
  if (stat_count != static_cast<uint64_t>(episodes_done)) {
    return Status::InvalidArgument(
        "checkpoint stats history carries " + std::to_string(stat_count) +
        " episode(s) but the cursor says " + std::to_string(episodes_done));
  }
  std::vector<EpisodeStats> history;
  history.reserve(stat_count);
  for (uint64_t i = 0; i < stat_count; ++i) {
    EpisodeStats s;
    FM_RETURN_IF_ERROR(in.ReadF64(&s.avg_reward));
    FM_RETURN_IF_ERROR(in.ReadF64(&s.avg_reward_own));
    FM_RETURN_IF_ERROR(in.ReadI64(&s.transitions));
    FM_RETURN_IF_ERROR(in.ReadF64(&s.fleet_pe_mean));
    FM_RETURN_IF_ERROR(in.ReadF64(&s.fleet_pf));
    if (!std::isfinite(s.avg_reward) || !std::isfinite(s.avg_reward_own) ||
        !std::isfinite(s.fleet_pe_mean) || !std::isfinite(s.fleet_pf) ||
        s.transitions < 0) {
      return Status::InvalidArgument(
          "checkpoint stats history carries non-finite or negative values "
          "(episode " + std::to_string(i) + ")");
    }
    history.push_back(s);
  }
  std::string policy_blob;
  FM_RETURN_IF_ERROR(in.ReadString(&policy_blob));
  if (!in.AtEnd()) {
    return Status::InvalidArgument("trainer state carries trailing bytes");
  }
  BinaryReader policy_in(policy_blob);
  FM_RETURN_IF_ERROR(policy->RestoreState(&policy_in));
  if (!policy_in.AtEnd()) {
    return Status::InvalidArgument("policy state carries trailing bytes");
  }
  *stats = std::move(history);
  return static_cast<int>(episodes_done);
}

Status Trainer::TrainGuarded(DisplacementPolicy* policy,
                             std::vector<EpisodeStats>* stats,
                             const CheckpointConfig& ckpt) {
  FM_CHECK(policy != nullptr);
  FM_RETURN_IF_ERROR(ckpt.Validate());
  if (stats != nullptr) stats->clear();

  std::optional<CheckpointStore> store;
  std::vector<EpisodeStats> history;
  int start_episode = 0;
  if (ckpt.enabled()) {
    store.emplace(ckpt.dir, CheckpointStore::Options{ckpt.retain});
    FM_RETURN_IF_ERROR(store->Init());
    // Resume: newest valid frame whose config CRC + policy name match this
    // run. Frames failing any check — frame CRCs, foreign config, policy
    // refusing the payload — are recorded and skipped, degrading to older
    // retained frames.
    const uint32_t config_crc = ConfigCrc();
    for (const CheckpointStore::Candidate& cand : store->ListCandidates()) {
      StatusOr<CheckpointStore::Loaded> loaded = store->Load(cand.file);
      if (!loaded.ok()) {
        store->NoteRejected(cand.file, loaded.status());
        continue;
      }
      if (loaded->meta.config_crc != config_crc) {
        store->NoteRejected(
            cand.file,
            Status::InvalidArgument(
                "checkpoint was written by a differently configured run "
                "(config CRC mismatch)"));
        continue;
      }
      if (loaded->meta.policy_name != policy->name()) {
        store->NoteRejected(
            cand.file, Status::InvalidArgument(
                           "checkpoint belongs to policy '" +
                           loaded->meta.policy_name + "', this run trains '" +
                           policy->name() + "'"));
        continue;
      }
      StatusOr<int> cursor = RestoreRunState(loaded->payload, policy,
                                             &history);
      if (!cursor.ok()) {
        store->NoteRejected(cand.file, cursor.status());
        history.clear();
        continue;
      }
      if (*cursor != loaded->meta.episode) {
        store->NoteRejected(
            cand.file,
            Status::InvalidArgument(
                "payload episode cursor disagrees with the frame header"));
        history.clear();
        continue;
      }
      start_episode = *cursor;
      store->NoteResumed(*loaded);
      break;
    }
  }

  if (stats != nullptr) *stats = history;
  for (int episode = start_episode; episode < config_.episodes; ++episode) {
    const EpisodeStats s = RunTrainingEpisode(policy, episode);
    history.push_back(s);
    if (stats != nullptr) stats->push_back(s);
    const Status health = policy->Health();
    if (!health.ok()) {
      return Status::Internal("training stopped after episode " +
                              std::to_string(episode + 1) + "/" +
                              std::to_string(config_.episodes) + ": " +
                              health.message());
    }
    if (!std::isfinite(s.avg_reward) || !std::isfinite(s.fleet_pe_mean) ||
        !std::isfinite(s.fleet_pf)) {
      return Status::Internal(
          "episode " + std::to_string(episode + 1) +
          " produced non-finite statistics (reward/PE/PF) under policy " +
          policy->name());
    }
    if (store.has_value()) {
      const int done = episode + 1;
      if (done % ckpt.every == 0 || done == config_.episodes) {
        FM_ASSIGN_OR_RETURN(const std::string payload,
                            SerializeRunState(*policy, history, done));
        CheckpointMeta meta;
        meta.episode = done;
        meta.policy_name = policy->name();
        meta.config_crc = ConfigCrc();
        FM_RETURN_IF_ERROR(store->Write(meta, payload));
      }
    }
  }
  return Status::OK();
}

Trainer::EpisodeStats Trainer::RunEvaluationEpisode(
    DisplacementPolicy* policy, uint64_t seed, int64_t slots) {
  FM_SPAN("eval/episode");
  sim_->Reset(seed);
  pendings_.assign(static_cast<size_t>(sim_->num_taxis()), std::nullopt);
  EpisodeStats stats;
  if (policy != nullptr) {
    policy->SetTraining(false);
    policy->BeginEpisode(*sim_);
  }
  for (int64_t slot = 0; slot < slots; ++slot) {
    StepAndCollect(policy, /*learning=*/false, nullptr, &stats);
  }
  FlushPendings(nullptr, &stats);
  FinishEpisode("eval", policy, /*episode=*/0, seed, &stats);
  return stats;
}

}  // namespace fairmove
