// Crash-injection harness for durable checkpointing: proves that a training
// run SIGKILLed at a random point and resumed from its checkpoint directory
// finishes bit-identical to an uninterrupted run.
//
// The parent re-execs itself (`/proc/self/exe --child ...`) to get real
// process deaths — no in-process simulation of a crash. It first times an
// uninterrupted reference run, then for each trial starts a fresh child,
// kills it after a deterministic pseudo-random fraction of the reference
// wall time, reruns the child over the surviving checkpoint directory, and
// byte-compares the result digests (final policy-state CRC, episode-stats
// CRC, final-evaluation FleetMetrics CRC) against the reference. Any
// mismatch exits non-zero.
//
// Usage: crash_harness <scratch-dir> [trials]
//   FAIRMOVE_THREADS sizes the children's pool as in any binary (the CI
//   matrix runs 1 and 4).

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "fairmove/common/rng.h"
#include "fairmove/core/fairmove.h"
#include "fairmove/core/metrics.h"
#include "fairmove/io/atomic_file.h"
#include "fairmove/io/binary.h"
#include "fairmove/rl/cma2c_policy.h"

namespace fairmove {
namespace {

/// The child's workload: a small guarded CMA2C training run with durable
/// checkpointing, then a fixed-seed evaluation episode; digests of every
/// acceptance quantity are written atomically to `result_path`.
int RunChild(const std::string& ckpt_dir, const std::string& result_path) {
  FairMoveConfig cfg = FairMoveConfig::FullShenzhen().Scaled(0.04);
  cfg.trainer.episodes = 6;
  cfg.trainer.slots_per_episode = 24;
  auto system_or = FairMoveSystem::Create(cfg);
  if (!system_or.ok()) {
    std::fprintf(stderr, "child: setup failed: %s\n",
                 system_or.status().ToString().c_str());
    return 1;
  }
  auto system = std::move(system_or).value();

  Cma2cPolicy::Options opt;
  opt.actor_hidden = {8};
  opt.critic_hidden = {8};
  opt.batch_size = 64;
  opt.actor_warmup_batches = 0;
  Cma2cPolicy policy(system->sim(), opt);
  policy.EnableDivergenceGuard();

  Trainer trainer = system->MakeTrainer();
  CheckpointConfig ckpt;
  ckpt.dir = ckpt_dir;
  ckpt.every = 1;
  ckpt.retain = 3;
  std::vector<Trainer::EpisodeStats> stats;
  if (Status s = trainer.TrainGuarded(&policy, &stats, ckpt); !s.ok()) {
    std::fprintf(stderr, "child: training failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }

  // Digest 1: final policy state, bit for bit.
  BinaryWriter model;
  if (Status s = policy.SaveState(&model); !s.ok()) {
    std::fprintf(stderr, "child: SaveState failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  // Digest 2: the full EpisodeStats history.
  BinaryWriter stats_blob;
  for (const Trainer::EpisodeStats& s : stats) {
    stats_blob.WriteF64(s.avg_reward);
    stats_blob.WriteF64(s.avg_reward_own);
    stats_blob.WriteI64(s.transitions);
    stats_blob.WriteF64(s.fleet_pe_mean);
    stats_blob.WriteF64(s.fleet_pf);
  }
  // Digest 3: FleetMetrics of a fixed-seed evaluation episode under the
  // final policy (the run's externally visible outcome).
  trainer.RunEvaluationEpisode(&policy, cfg.trainer.seed_base + 1000,
                               cfg.trainer.slots_per_episode);
  const FleetMetrics m = ComputeFleetMetrics(system->sim());
  BinaryWriter metrics;
  metrics.WriteF64(m.pe_sum);
  metrics.WriteF64(m.pf);
  metrics.WriteF64(m.pe_gini);
  metrics.WriteF64(m.cruise_min);
  metrics.WriteF64(m.serve_min);
  metrics.WriteF64(m.idle_min);
  metrics.WriteF64(m.charge_min);
  metrics.WriteF64(m.revenue_cny);
  metrics.WriteF64(m.charge_cost_cny);
  metrics.WriteI64(m.trips);
  metrics.WriteI64(m.charge_events);
  metrics.WriteI64(m.expired_requests);
  metrics.WriteI64(m.total_requests);

  char result[256];
  std::snprintf(result, sizeof(result),
                "model_crc=%08x\nstats_crc=%08x\nmetrics_crc=%08x\n"
                "episodes=%zu\n",
                Crc32(model.str()), Crc32(stats_blob.str()),
                Crc32(metrics.str()), stats.size());
  if (Status s = AtomicWriteFile(result_path, result); !s.ok()) {
    std::fprintf(stderr, "child: result write failed: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  return 0;
}

struct ChildRun {
  int exit_code = -1;     // -1 when killed by signal
  int term_signal = 0;
  double wall_ms = 0.0;
};

/// Forks + re-execs this binary in child mode; optionally SIGKILLs it after
/// `kill_after_ms` (< 0 = never). Returns how the child ended.
ChildRun SpawnChild(const char* self, const std::string& ckpt_dir,
                    const std::string& result_path, double kill_after_ms) {
  const auto start = std::chrono::steady_clock::now();
  const pid_t pid = fork();
  if (pid == 0) {
    execl(self, self, "--child", ckpt_dir.c_str(), result_path.c_str(),
          static_cast<char*>(nullptr));
    _exit(127);  // exec failed
  }
  ChildRun run;
  if (pid < 0) {
    std::perror("fork");
    return run;
  }
  if (kill_after_ms >= 0.0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(static_cast<int64_t>(kill_after_ms * 1e3)));
    kill(pid, SIGKILL);
  }
  int status = 0;
  waitpid(pid, &status, 0);
  run.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  if (WIFEXITED(status)) run.exit_code = WEXITSTATUS(status);
  if (WIFSIGNALED(status)) run.term_signal = WTERMSIG(status);
  return run;
}

int RunParent(const char* self, const std::string& scratch, int trials) {
  std::error_code ec;
  std::filesystem::create_directories(scratch, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create scratch dir '%s': %s\n",
                 scratch.c_str(), ec.message().c_str());
    return 1;
  }

  // Every run starts from an empty checkpoint directory: frames left by an
  // earlier invocation would turn each run below into a no-op resume.
  std::filesystem::remove_all(scratch + "/ckpt-ref", ec);
  // Uninterrupted reference run (also calibrates the kill times).
  const std::string ref_result = scratch + "/result-ref.txt";
  const ChildRun ref = SpawnChild(self, scratch + "/ckpt-ref", ref_result,
                                  /*kill_after_ms=*/-1.0);
  if (ref.exit_code != 0) {
    std::fprintf(stderr, "reference run failed (exit %d, signal %d)\n",
                 ref.exit_code, ref.term_signal);
    return 1;
  }
  const StatusOr<std::string> want = ReadFileToString(ref_result);
  if (!want.ok()) {
    std::fprintf(stderr, "no reference result: %s\n",
                 want.status().ToString().c_str());
    return 1;
  }
  std::printf("reference: %.0f ms\n%s", ref.wall_ms, want->c_str());

  // Fixed seed: the kill points are randomized but reproducible.
  Rng rng(0xC8A54ULL);
  int failures = 0;
  for (int trial = 0; trial < trials; ++trial) {
    const std::string dir = scratch + "/ckpt-" + std::to_string(trial);
    std::filesystem::remove_all(dir, ec);
    const std::string result =
        scratch + "/result-" + std::to_string(trial) + ".txt";
    // Kill somewhere in the meat of the run (20%..90% of reference time).
    const double frac = 0.2 + 0.7 * rng.NextDouble();
    const ChildRun killed = SpawnChild(self, dir, result, frac * ref.wall_ms);
    const char* fate =
        killed.term_signal == SIGKILL
            ? "killed"
            : (killed.exit_code == 0 ? "finished before the kill" : "FAILED");
    std::printf("trial %d: kill at %.0f%% of reference -> child %s\n", trial,
                100.0 * frac, fate);
    if (killed.term_signal != SIGKILL && killed.exit_code != 0) {
      ++failures;
      continue;
    }
    // Resume over the surviving checkpoint directory.
    const ChildRun resumed = SpawnChild(self, dir, result, -1.0);
    if (resumed.exit_code != 0) {
      std::fprintf(stderr, "trial %d: resume failed (exit %d)\n", trial,
                   resumed.exit_code);
      ++failures;
      continue;
    }
    const StatusOr<std::string> got = ReadFileToString(result);
    if (!got.ok() || *got != *want) {
      std::fprintf(stderr,
                   "trial %d: MISMATCH after resume\n--- want ---\n%s"
                   "--- got ---\n%s",
                   trial, want->c_str(),
                   got.ok() ? got->c_str() : got.status().ToString().c_str());
      ++failures;
      continue;
    }
    std::printf("trial %d: resume bit-identical to reference\n", trial);
  }

  if (failures > 0) {
    std::fprintf(stderr, "%d/%d trial(s) failed\n", failures, trials);
    return 1;
  }
  std::printf("all %d kill-resume trial(s) bit-identical\n", trials);
  return 0;
}

}  // namespace
}  // namespace fairmove

int main(int argc, char** argv) {
  if (argc == 4 && std::strcmp(argv[1], "--child") == 0) {
    return fairmove::RunChild(argv[2], argv[3]);
  }
  if (argc < 2 || argc > 3) {
    std::fprintf(stderr, "usage: %s <scratch-dir> [trials]\n", argv[0]);
    return 2;
  }
  const int trials = argc == 3 ? std::atoi(argv[2]) : 3;
  if (trials < 1) {
    std::fprintf(stderr, "trials must be >= 1\n");
    return 2;
  }
  return fairmove::RunParent("/proc/self/exe", argv[1], trials);
}
