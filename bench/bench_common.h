#ifndef FAIRMOVE_BENCH_BENCH_COMMON_H_
#define FAIRMOVE_BENCH_BENCH_COMMON_H_

#include <memory>
#include <string>
#include <vector>

#include "fairmove/common/config.h"
#include "fairmove/core/fairmove.h"
#include "fairmove/core/racing.h"

namespace fairmove::bench {

/// Shared setup of every experiment binary. Defaults are sized so the full
/// suite (`for b in build/bench/*; do $b; done`) completes on one core; the
/// FAIRMOVE_SCALE / FAIRMOVE_EPISODES / FAIRMOVE_SEED / FAIRMOVE_DAYS env
/// variables rescale any experiment up to the paper's full setting.
struct BenchSetup {
  EnvOverrides env;
  FairMoveConfig config;
};

/// Parses the environment and builds the experiment config. Exits the
/// process with a message on malformed env (a typo must not silently run
/// the wrong experiment).
BenchSetup MakeSetup(double default_scale, int default_episodes,
                     int default_days);

/// FAIRMOVE_REPEATS (replicas per method of a repeated grid), or `fallback`
/// when unset. Exits the process with a message unless it is a positive
/// integer.
int RepeatsFromEnv(int fallback);

/// Builds the system stack or exits with the error.
std::unique_ptr<FairMoveSystem> BuildSystem(const FairMoveConfig& config);

/// Runs GT only and leaves the trace in the simulator (fast benches for the
/// §II data-driven figures).
void RunGroundTruthTrace(FairMoveSystem& system, int days);

/// Trains + evaluates all six methods (the shared harness behind
/// Tables II/III and Figs 10-16). Prints a one-line banner.
std::vector<MethodResult> RunSixMethodComparison(FairMoveSystem& system);

/// Prints the experiment header: what paper artefact this reproduces and
/// at which configuration.
void PrintHeader(const std::string& artefact, const BenchSetup& setup);

/// Command line of the comparison, α-sweep and report benches:
///   --racing              race with `config` instead of the bench's
///                         default fixed grid or single pass
///   --delta / --bound / --min-replicas / --batch / --max-replicas /
///   --reuse-freed-budget  RacingConfig knobs (see core/racing.h)
///   --json=<path>         machine-readable output (empty = none)
struct RacingArgs {
  RacingConfig config;
  bool racing = false;
  std::string json_path;
};

/// Parses the command line onto a RacingConfig whose per-arm budget
/// defaults to `default_max_replicas`. Any bad flag — unknown, an invalid
/// knob, or --json without a path — prints the error and exits the process
/// with status 1 before the bench does any work.
RacingArgs ParseRacingArgs(int argc, char** argv, int default_max_replicas);

}  // namespace fairmove::bench

#endif  // FAIRMOVE_BENCH_BENCH_COMMON_H_
