// Section IV: trains the six methods once and renders every artefact of
// that run (Tables II/III, Figs 10-16, with the paper's values and
// expected shapes) into a single markdown report. Writes fairmove_report.md
// next to the terminal output; `--json=<path>` additionally emits the
// comparison as machine-readable JSON (schema "fairmove.report.v1").
//
// `--racing` replaces the single comparison run with a racing comparison
// (core/racing.h, per-arm budget --max-replicas, default 4): the report's
// figures render from the replica-0 rows (every arm races replica 0), and
// the racing table — replicas spent per method, eliminations, budget
// saving — is printed before the report.

#include <cstdio>
#include <cstdlib>

#include "bench_common.h"
#include "fairmove/core/report.h"

int main(int argc, char** argv) {
  using namespace fairmove;
  // A modest racing budget: the report trains 20 episodes/method per cell.
  const bench::RacingArgs args = bench::ParseRacingArgs(argc, argv, 4);
  const RacingConfig& racing = args.config;
  bench::BenchSetup setup = bench::MakeSetup(0.08, 20, 2);

  std::vector<MethodResult> results;
  if (args.racing) {
    bench::PrintHeader(
        "consolidated Section-IV report (racing comparison, per-arm "
        "budget " + std::to_string(racing.max_replicas) + ")",
        setup);
    auto raced_or = RunRacingComparison(
        setup.config, FairMoveSystem::AllMethods(), racing);
    if (!raced_or.ok()) {
      std::fprintf(stderr, "%s\n", raced_or.status().ToString().c_str());
      return 1;
    }
    results = raced_or->first_replica;
    std::printf("%s\n",
                raced_or->outcome.ToTable(racing.bound, racing.delta)
                    .ToAlignedText()
                    .c_str());
    std::printf("racing: %lld of %lld replica budget spent (%.2fx saving)\n\n",
                static_cast<long long>(raced_or->outcome.replicas_spent),
                static_cast<long long>(raced_or->outcome.fixed_budget),
                raced_or->outcome.SavingsFactor());
    EmitRacingTelemetry("full_report", racing, raced_or->outcome);
  } else {
    bench::PrintHeader("consolidated Section-IV report (one training run)",
                       setup);
    auto system = bench::BuildSystem(setup.config);
    results = bench::RunSixMethodComparison(*system);
  }

  ReportWriter report(results);
  std::printf("%s", report.ToMarkdown().c_str());

  const char* out = std::getenv("FAIRMOVE_REPORT_PATH");
  const std::string path = out != nullptr ? out : "fairmove_report.md";
  if (Status s = report.WriteFile(path); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("\nreport written to %s\n", path.c_str());

  if (!args.json_path.empty()) {
    if (Status s = report.WriteJsonFile(args.json_path); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("json report written to %s\n", args.json_path.c_str());
  }
  return 0;
}
