// Model persistence workflow: train FairMove (CMA2C), save the actor/critic
// to disk, restore them into fresh policies, and verify what SaveModel
// promises — how a deployment would ship a trained displacement model.
//
// SaveModel carries the weights only. CMA2C samples its actions from its
// own RNG stream, and training has moved the trained policy's stream on, so
// the trained policy evaluates on a different sample than a restored one.
// The round trip therefore passes when re-saving a restored policy
// reproduces the model file byte for byte and two policies restored from
// that file evaluate bit-identically.
//
//   ./build/examples/train_and_save [--model=/tmp/fairmove_model.bin]
//                                   [--scale=0.06] [--episodes=6]

#include <cstdio>
#include <string>

#include "fairmove/common/flags.h"
#include "fairmove/core/fairmove.h"
#include "fairmove/io/atomic_file.h"
#include "fairmove/rl/cma2c_policy.h"

int main(int argc, char** argv) {
  using namespace fairmove;

  auto flags_or = Flags::Parse(argc, argv, {"model", "scale", "episodes"});
  if (!flags_or.ok()) {
    std::fprintf(stderr, "%s\n", flags_or.status().ToString().c_str());
    return 1;
  }
  const Flags& flags = flags_or.value();
  const std::string model_path =
      flags.GetString("model", "/tmp/fairmove_model.bin");
  const StatusOr<double> scale = flags.GetDouble("scale", 0.06);
  if (!scale.ok()) {
    std::fprintf(stderr, "bad --scale: %s\n",
                 scale.status().ToString().c_str());
    return 1;
  }
  const StatusOr<int64_t> episodes = flags.GetInt("episodes", 6);
  if (!episodes.ok() || *episodes < 1 || *episodes > 1000000) {
    std::fprintf(stderr, "bad --episodes: %s\n",
                 episodes.ok() ? "must be in [1, 1000000]"
                               : episodes.status().ToString().c_str());
    return 1;
  }

  FairMoveConfig config = FairMoveConfig::FullShenzhen().Scaled(*scale);
  config.trainer.episodes = static_cast<int>(*episodes);
  config.eval.days = 1;
  auto system_or = FairMoveSystem::Create(config);
  if (!system_or.ok()) {
    std::fprintf(stderr, "setup failed: %s\n",
                 system_or.status().ToString().c_str());
    return 1;
  }
  auto system = std::move(system_or).value();

  // --- train + save -------------------------------------------------------
  Cma2cPolicy::Options options;
  options.seed = 7055;
  Cma2cPolicy trained(system->sim(), options);
  Trainer trainer = system->MakeTrainer();
  std::printf("training CMA2C for %d episode(s)...\n",
              config.trainer.episodes);
  trainer.Train(&trained);
  if (Status s = trained.SaveModel(model_path); !s.ok()) {
    std::fprintf(stderr, "save failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("model saved to %s\n", model_path.c_str());

  // --- restore into two fresh policies ------------------------------------
  Cma2cPolicy restored(system->sim(), options);
  Cma2cPolicy restored_again(system->sim(), options);
  for (Cma2cPolicy* policy : {&restored, &restored_again}) {
    if (Status s = policy->LoadModel(model_path); !s.ok()) {
      std::fprintf(stderr, "load failed: %s\n", s.ToString().c_str());
      return 1;
    }
  }
  const std::string resave_path = model_path + ".resaved";
  if (Status s = restored.SaveModel(resave_path); !s.ok()) {
    std::fprintf(stderr, "re-save failed: %s\n", s.ToString().c_str());
    return 1;
  }
  const StatusOr<std::string> saved = ReadFileToString(model_path);
  const StatusOr<std::string> resaved = ReadFileToString(resave_path);
  std::remove(resave_path.c_str());
  const bool same_bytes = saved.ok() && resaved.ok() && *saved == *resaved;

  const uint64_t seed = config.eval.seed;
  const Trainer::EpisodeStats evals[] = {
      trainer.RunEvaluationEpisode(&trained, seed, kSlotsPerDay),
      trainer.RunEvaluationEpisode(&restored, seed, kSlotsPerDay),
      trainer.RunEvaluationEpisode(&restored_again, seed, kSlotsPerDay)};
  const char* labels[] = {"trained (other RNG sample)", "restored",
                          "restored again"};

  std::printf("\n%-28s %16s %14s %10s\n", "policy", "eval avg reward",
              "fleet mean PE", "fleet PF");
  for (int i = 0; i < 3; ++i) {
    std::printf("%-28s %16.6f %14.2f %10.2f\n", labels[i],
                evals[i].avg_reward, evals[i].fleet_pe_mean,
                evals[i].fleet_pf);
  }

  const bool same_eval = evals[1].avg_reward == evals[2].avg_reward &&
                         evals[1].fleet_pe_mean == evals[2].fleet_pe_mean &&
                         evals[1].fleet_pf == evals[2].fleet_pf;
  std::printf("\nre-saved model: %zu bytes, %s the model file\n",
              resaved.ok() ? resaved->size() : size_t{0},
              same_bytes ? "identical to" : "DIFFERENT FROM");
  std::printf("restored copies evaluate %s\n",
              same_eval ? "bit-identically — persistence round trip OK"
                        : "DIFFERENTLY — persistence bug!");
  return same_bytes && same_eval ? 0 : 1;
}
