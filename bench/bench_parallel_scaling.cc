// Thread-scaling bench for the deterministic execution layer: runs the
// same repeated-comparison grid at 1 / 2 / 4 / 8 threads, reports cells/s
// and speedup vs the serial baseline, and byte-compares every table
// against the single-thread one (the determinism contract is part of what
// is being benchmarked — a fast wrong table is a failure, not a result).
//
// FAIRMOVE_SCALE / FAIRMOVE_EPISODES / FAIRMOVE_DAYS / FAIRMOVE_REPEATS
// shape the workload. The sweep ignores FAIRMOVE_THREADS (it *is* the
// thread sweep) but prints the hardware ceiling: speedups flatten at
// hardware_concurrency, so on a 1-core builder every row ~1.0x is the
// expected outcome, not a regression.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "fairmove/common/parallel.h"
#include "fairmove/core/experiment.h"

int main() {
  using namespace fairmove;
  bench::BenchSetup setup = bench::MakeSetup(0.04, 2, 1);
  const int repeats = bench::RepeatsFromEnv(2);
  const std::vector<PolicyKind> kinds = FairMoveSystem::AllMethods();
  const double cells =
      static_cast<double>(repeats) * static_cast<double>(kinds.size());

  bench::PrintHeader(
      "parallel scaling of the repeated-comparison grid (" +
          std::to_string(repeats) + " repeats x " +
          std::to_string(kinds.size()) + " methods)",
      setup);
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("hardware ceiling: %u core(s) — speedup saturates there\n\n",
              hw);

  std::string baseline_csv;
  double baseline_secs = 0.0;
  std::printf("%8s %10s %10s %9s  %s\n", "threads", "wall (s)", "cells/s",
              "speedup", "table vs 1-thread");
  for (int threads : {1, 2, 4, 8}) {
    SetGlobalThreads(threads);
    const auto t0 = std::chrono::steady_clock::now();
    auto result_or = RunRepeatedComparison(setup.config, kinds, repeats);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (!result_or.ok()) {
      std::fprintf(stderr, "%s\n", result_or.status().ToString().c_str());
      return 1;
    }
    const std::string csv = result_or->ToTable().ToCsv();
    bool identical = true;
    if (threads == 1) {
      baseline_csv = csv;
      baseline_secs = secs;
    } else {
      identical = csv == baseline_csv;
    }
    std::printf("%8d %10.2f %10.3f %8.2fx  %s\n", threads, secs,
                cells / secs, baseline_secs / secs,
                identical ? "byte-identical" : "MISMATCH");
    if (!identical) {
      std::fprintf(stderr,
                   "determinism violation at %d threads:\n--- 1 thread\n%s\n"
                   "--- %d threads\n%s\n",
                   threads, baseline_csv.c_str(), threads, csv.c_str());
      return 1;
    }
  }
  SetGlobalThreads(1);
  std::printf(
      "\ncell = one (repeat, method) unit of the grid, GT included.\n");
  return 0;
}
