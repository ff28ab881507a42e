#ifndef FAIRMOVE_BENCH_BENCH_COMMON_H_
#define FAIRMOVE_BENCH_BENCH_COMMON_H_

#include <memory>
#include <string>
#include <vector>

#include "fairmove/common/config.h"
#include "fairmove/common/flags.h"
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

/// Flag names of the racing evaluation mode, shared by the comparison and
/// α-sweep benches — append to a binary's known-flags list:
///   --racing              switch from the fixed-replica grid to racing
///   --delta / --bound / --min-replicas / --batch / --max-replicas /
///   --reuse-freed-budget  RacingConfig knobs (see core/racing.h)
std::vector<std::string> RacingFlagNames();

/// Applies the racing knob flags onto `config` (leaving unset knobs at
/// their incoming values) and validates the result.
Status ApplyRacingFlags(const Flags& flags, RacingConfig* config);

/// Describes a completed fixed-replica grid in racing vocabulary: uniform
/// replica counts, no eliminations, order by mean raced reward (half-widths
/// at `config`'s bound/delta). Lets fixed mode emit the same
/// fairmove.racing.v1 JSON document racing mode does.
RacingOutcome FixedGridOutcome(const RepeatedComparison& result,
                               const RacingConfig& config);

}  // namespace fairmove::bench

#endif  // FAIRMOVE_BENCH_BENCH_COMMON_H_
