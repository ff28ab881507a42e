// Workload binary of the end-to-end benchmark (see workloads.h). Built twice:
// fm_e2e (untraced) and fm_e2e_traced (adds the counting operator new).
//
//   fm_e2e --workload=gt_full|train_full|report [--seed=N] [--seconds=S]
//          [--max-ops=N] [--setups=N] [--trace] [--scale=X] [--episodes=N]
//          [--days=N] [--reference] [--spans-out=PATH]
//
// The last stdout line is the run's JSON document; e2ebench/run.py turns it
// into the benchmark's result line.

#include <cstdio>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "fairmove/common/flags.h"
#include "workloads.h"

int main(int argc, char** argv) {
  using fairmove::Flags;
  const std::vector<std::string> known = {
      "workload", "seed",     "seconds", "max-ops",   "setups",   "trace",
      "scale",    "episodes", "days",    "reference", "spans-out"};
  auto flags_or = Flags::Parse(argc, argv, known);
  if (!flags_or.ok()) {
    std::fprintf(stderr, "%s\n", flags_or.status().ToString().c_str());
    return 2;
  }
  const Flags flags = std::move(flags_or).value();
  fairmove::e2e::RunOptions options;
  options.workload = flags.GetString("workload");
  auto seed = flags.GetInt("seed", 0);
  auto seconds = flags.GetDouble("seconds", options.seconds);
  auto max_ops = flags.GetInt("max-ops", 0);
  auto setups = flags.GetInt("setups", options.setups);
  auto traced = flags.GetBool("trace", false);
  auto scale = flags.GetDouble("scale", 0.0);
  auto episodes = flags.GetInt("episodes", 0);
  auto days = flags.GetInt("days", 0);
  auto reference = flags.GetBool("reference", false);
  for (const fairmove::Status& s :
       {seed.status(), seconds.status(), max_ops.status(), setups.status(),
        traced.status(), scale.status(), episodes.status(), days.status(),
        reference.status()}) {
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 2;
    }
  }
  if (*seed < 0) {
    std::fprintf(stderr, "--seed must be >= 0\n");
    return 2;
  }
  options.seed = static_cast<uint64_t>(*seed);
  options.seconds = *seconds;
  options.max_ops = static_cast<int>(*max_ops);
  options.setups = static_cast<int>(*setups);
  options.traced = *traced;
  options.scale = *scale;
  options.episodes = static_cast<int>(*episodes);
  options.days = static_cast<int>(*days);
  options.reference = *reference;
  options.spans_out = flags.GetString("spans-out");
  if (options.traced && !fairmove::e2e::AllocCountingAvailable()) {
    std::fprintf(stderr, "--trace needs the fm_e2e_traced binary\n");
    return 2;
  }
  return fairmove::e2e::RunWorkload(options);
}
