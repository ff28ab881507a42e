#ifndef FAIRMOVE_E2EBENCH_WORKLOADS_H_
#define FAIRMOVE_E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

namespace fairmove::e2e {

/// One benchmark process: a closed loop of identical ops of one workload.
///   gt_full     op = one GT day on the full Shenzhen fleet, stepped with
///               Simulator::Step
///   train_full  op = one full-scale CMA2C training episode (Trainer::Train)
///   report      op = the six-method comparison at the bench scale 0.08,
///               5 training episodes per method (bench_full_report trains
///               20; 5 keeps ten runs within a few minutes)
/// Every op of a run has the same input, so each op's output digest must
/// equal the first op's; a mismatch or a failed output check fails the op.
struct RunOptions {
  std::string workload;
  /// Mapped onto sim.seed / trainer.seed_base / eval.seed exactly like
  /// FAIRMOVE_SEED in bench::MakeSetup (0 keeps the defaults).
  uint64_t seed = 0;
  /// Ops run until this much wall time has passed (at least one op).
  double seconds = 10.0;
  /// Upper bound on ops; 0 = no bound.
  int max_ops = 0;
  /// FairMoveSystem::Create repetitions (rounded up to whole rounds over the
  /// allowed CPUs); setup_s is their median.
  int setups = 8;
  /// Traced run: benchmark-side spans, per-method counters, the library's
  /// span profiler, pool timing, and the lane/allocation/NN probes.
  bool traced = false;
  /// Workload defaults when 0 (the smoke test shrinks them).
  double scale = 0.0;
  int episodes = 0;
  int days = 0;
  /// report only: also run FairMoveSystem::RunComparison and require its
  /// ReportWriter::ToJson() bytes to equal the rebuilt fan-out's.
  bool reference = false;
  /// Traced runs: spans are written here (JSON lines) at the end.
  std::string spans_out;
};

/// Runs the workload, prints human-readable lines and, as the last stdout
/// line, one JSON document with the counts, digest, machine block and
/// metrics. Returns the process exit code (0 unless the run could not be
/// set up; failed ops are reported in the document, not by the exit code).
int RunWorkload(const RunOptions& options);

}  // namespace fairmove::e2e

#endif  // FAIRMOVE_E2EBENCH_WORKLOADS_H_
