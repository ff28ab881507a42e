// Component throughput microbenchmarks (google-benchmark): simulator step
// rate, policy-network forward/backward, feature extraction, city
// construction. These bound how far the experiments can scale on one core.
//
// Beyond the console table, `--json=PATH` writes a `fairmove.bench.v1`
// document (one entry per finished benchmark with real/cpu ns-per-iter and
// the user counters). Committing one of those as BENCH_perf.json at the
// repo root makes it the baseline that tools/bench_gate — the ctest
// `perfgate` label — compares every fresh run against.

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fairmove/common/parallel.h"
#include "fairmove/core/fairmove.h"
#include "fairmove/obs/flight_recorder.h"
#include "fairmove/obs/jsonl.h"
#include "fairmove/obs/latency.h"
#include "fairmove/nn/adam.h"
#include "fairmove/nn/mlp.h"
#include "fairmove/nn/simd.h"
#include "fairmove/rl/cma2c_policy.h"
#include "fairmove/rl/features.h"
#include "fairmove/rl/gt_policy.h"
#include "synthetic_transitions.h"

namespace fairmove {
namespace {

std::unique_ptr<FairMoveSystem> MakeSystem(double scale) {
  FairMoveConfig cfg = FairMoveConfig::FullShenzhen().Scaled(scale);
  cfg.sim.trace_level = TraceLevel::kAggregatesOnly;
  return std::move(FairMoveSystem::Create(cfg)).value();
}

// The pool's hand-off floor: one empty 4-index region on a private pool
// of range(0) lanes, shared from 2 lanes up (plain ParallelFor, not the
// cost rule): linking it, waking the workers, unlinking it. Real time,
// because no lane's cpu time shows the wait. The caller claims every index
// before a worker wakes, so the cost of a real phase's hand-off shows in
// the BM_SimulatorStepGt sweep instead (DESIGN.md §7). Like every
// benchmark with a `lanes` counter, its cpu time is the whole process's,
// so the workers' share counts at any lane count.
void BM_ParallelForEmpty(benchmark::State& state) {
  const int lanes = static_cast<int>(state.range(0));
  ThreadPool pool(lanes);
  for (auto _ : state) {
    pool.ParallelFor(4, [](int64_t i) { benchmark::DoNotOptimize(i); });
  }
  state.counters["lanes"] = lanes;
}
BENCHMARK(BM_ParallelForEmpty)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->MeasureProcessCPUTime()
    ->UseRealTime();

// Runs on the global pool: below the cost rule's threshold (about 7,500
// taxis) the sharded phases run inline at any lane count, above it they
// fork, so the /5../100 sweep at FAIRMOVE_THREADS=1 and 4 shows the
// crossover.
void BM_SimulatorStepGt(benchmark::State& state) {
  auto system = MakeSystem(static_cast<double>(state.range(0)) / 100.0);
  GtPolicy policy;
  for (auto _ : state) {
    system->sim().Step(&policy);
  }
  state.counters["lanes"] = GlobalPool().num_threads();
  state.counters["taxis"] =
      static_cast<double>(system->sim().num_taxis());
  state.counters["taxi_slots/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * system->sim().num_taxis(),
      benchmark::Counter::kIsRate);
}
// /100 is the paper's full Shenzhen setting (20,130 taxis, 491 regions,
// 123 stations) — the default experiment scale, benched directly so the
// perfgate pins the configuration the tables actually run at.
BENCHMARK(BM_SimulatorStepGt)
    ->Arg(5)
    ->Arg(10)
    ->Arg(25)
    ->Arg(50)
    ->Arg(100)
    ->MeasureProcessCPUTime();

// Raw SoA column-scan throughput over the full-scale fleet: the vacancy
// scan + SoC reduction every phase of the sharded Step leans on. Pins the
// structure-of-arrays layout win — a regression here means someone put a
// hot field back behind a pointer chase.
void BM_FleetStateScan(benchmark::State& state) {
  auto system = MakeSystem(1.0);
  const FleetState& fleet = system->sim().fleet();
  const int64_t now = 0;
  for (auto _ : state) {
    int vacant = 0;
    double soc_sum = 0.0;
    for (TaxiId i = 0; i < fleet.size(); ++i) {
      vacant += fleet.IsVacant(i, now) ? 1 : 0;
      soc_sum += fleet.soc[static_cast<size_t>(i)];
    }
    benchmark::DoNotOptimize(vacant);
    benchmark::DoNotOptimize(soc_sum);
  }
  state.counters["taxis"] = static_cast<double>(fleet.size());
  state.counters["taxi_scans/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * fleet.size(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FleetStateScan);

void BM_CityBuild(benchmark::State& state) {
  CityConfig cfg =
      CityConfig{}.Scaled(static_cast<double>(state.range(0)) / 100.0);
  for (auto _ : state) {
    auto city = CityBuilder(cfg).Build();
    benchmark::DoNotOptimize(city);
  }
  state.counters["regions"] = cfg.num_regions;
}
BENCHMARK(BM_CityBuild)->Arg(10)->Arg(100);

void BM_FeatureExtraction(benchmark::State& state) {
  auto system = MakeSystem(0.1);
  FeatureExtractor features(&system->sim());
  TaxiObs obs;
  obs.taxi = 0;
  obs.region = 0;
  obs.soc = 0.5;
  obs.may_charge = true;
  std::vector<float> out;
  for (auto _ : state) {
    features.Extract(obs, &out);
    benchmark::DoNotOptimize(out);
  }
  state.counters["dim"] = features.dim();
}
BENCHMARK(BM_FeatureExtraction);

// One full slot's worth of displacement decisions: every taxi vacant.
std::vector<TaxiObs> MakeVacantObs(const Simulator& sim) {
  std::vector<TaxiObs> obs(static_cast<size_t>(sim.num_taxis()));
  for (size_t i = 0; i < obs.size(); ++i) {
    obs[i].taxi = static_cast<TaxiId>(i);
    obs[i].region =
        static_cast<RegionId>(i % sim.city().num_regions());
    obs[i].soc = 0.3 + 0.5 * static_cast<double>(i % 7) / 7.0;
    obs[i].may_charge = i % 3 == 0;
  }
  return obs;
}

// The batched decision path: one ExtractAll + one Mlp::Forward per slot
// (this is what CMA2C, DQN and TBA now do inside DecideActions).
void BM_PolicyDecideBatch(benchmark::State& state) {
  auto system = MakeSystem(static_cast<double>(state.range(0)) / 100.0);
  Cma2cPolicy policy(system->sim());
  policy.SetTraining(false);
  const std::vector<TaxiObs> vacant = MakeVacantObs(system->sim());
  std::vector<Action> actions;
  for (auto _ : state) {
    policy.DecideActions(system->sim(), vacant, &actions);
    benchmark::DoNotOptimize(actions);
  }
  state.counters["lanes"] = GlobalPool().num_threads();
  state.counters["taxis"] = static_cast<double>(vacant.size());
  state.counters["decisions/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(vacant.size()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PolicyDecideBatch)->Arg(5)->Arg(25)->MeasureProcessCPUTime();

// The seed's Mlp::Forward for one row, frozen here as the fixed comparison
// baseline: naive j-loop MatMul with the (since removed) a == 0 skip, a
// fresh buffer allocation per layer, and one scalar std::tanh call per
// hidden unit, compiled at the seed's -O2. The library kernels have been
// rewritten since; linking them into the baseline would make "scalar" a
// moving target that inherits every kernel win, so the bench keeps the
// seed math byte-for-byte instead.
std::vector<float> SeedForward1(const std::vector<Matrix>& weights,
                                const std::vector<std::vector<float>>& biases,
                                const std::vector<float>& x) {
  std::vector<float> current = x;
  for (size_t layer = 0; layer < weights.size(); ++layer) {
    const Matrix& w = weights[layer];
    const size_t n = static_cast<size_t>(w.cols());
    std::vector<float> next(n, 0.0f);
    for (int p = 0; p < w.rows(); ++p) {
      const float av = current[static_cast<size_t>(p)];
      if (av == 0.0f) continue;
      const float* w_row = w.Row(p);
      for (size_t j = 0; j < n; ++j) next[j] += av * w_row[j];
    }
    for (size_t j = 0; j < n; ++j) next[j] += biases[layer][j];
    if (layer + 1 < weights.size()) {
      for (float& v : next) v = std::tanh(v);
    }
    current = std::move(next);
  }
  return current;
}

// The seed's per-taxi decision loop, reproduced verbatim as the baseline:
// one feature vector, one heap-allocating SeedForward1, one softmax vector
// and one sample per taxi. BM_PolicyDecideBatch vs this is the
// batch-vs-scalar policy throughput the README refers to.
void BM_PolicyDecideScalar(benchmark::State& state) {
  auto system = MakeSystem(static_cast<double>(state.range(0)) / 100.0);
  const Simulator& sim = system->sim();
  FeatureExtractor features(&sim);
  const ActionSpace& space = sim.action_space();
  const int num_actions = space.size();
  Cma2cPolicy::Options options;
  std::vector<int> sizes{features.dim()};
  for (int h : options.actor_hidden) sizes.push_back(h);
  sizes.push_back(num_actions);
  Mlp actor(sizes, Activation::kTanh, options.seed);
  for (int a = space.first_charge_index(); a < num_actions; ++a) {
    actor.biases().back()[static_cast<size_t>(a)] =
        static_cast<float>(options.charge_logit_bias);
  }
  Rng rng(options.seed);
  const std::vector<TaxiObs> vacant = MakeVacantObs(sim);
  std::vector<Action> actions;
  std::vector<std::vector<float>> last_features;
  std::vector<bool> mask;
  for (auto _ : state) {
    actions.clear();
    actions.reserve(vacant.size());
    last_features.assign(vacant.size(), {});
    for (size_t i = 0; i < vacant.size(); ++i) {
      const TaxiObs& obs = vacant[i];
      features.Extract(obs, &last_features[i]);
      std::vector<float> probs =
          SeedForward1(actor.weights(), actor.biases(), last_features[i]);
      space.Mask(obs.region, obs.must_charge, obs.may_charge, &mask);
      MaskedSoftmax(mask, &probs);
      const size_t pick = rng.WeightedIndex(probs);
      actions.push_back(space.Materialize(obs.region, static_cast<int>(pick)));
    }
    benchmark::DoNotOptimize(actions);
  }
  state.counters["taxis"] = static_cast<double>(vacant.size());
  state.counters["decisions/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(vacant.size()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PolicyDecideScalar)->Arg(5)->Arg(25);

// One comparison-grid cell: Evaluator::RunKind trains + evaluates one
// method inside a private replica simulator against a precomputed GT
// baseline — the unit of work every replica grid (core/racing.h; a fixed
// grid is a one-round race) spends per cell, and that Evaluator::Run fans
// out per method. The racing wall-clock win is (cells saved) × (this
// number), so the gate pins it: a regression here silently inflates every
// raced and fixed grid alike.
void BM_EvaluatorCell(benchmark::State& state) {
  FairMoveConfig cfg = FairMoveConfig::FullShenzhen().Scaled(
      static_cast<double>(state.range(0)) / 100.0);
  cfg.sim.trace_level = TraceLevel::kAggregatesOnly;
  cfg.trainer.episodes = 2;
  cfg.eval.days = 1;
  auto system = std::move(FairMoveSystem::Create(cfg)).value();
  Evaluator evaluator = system->MakeEvaluator();
  const MethodResult gt = evaluator.RunGroundTruth();
  for (auto _ : state) {
    MethodResult cell = evaluator.RunKind(PolicyKind::kFairMove, gt.metrics);
    benchmark::DoNotOptimize(cell);
  }
  state.counters["lanes"] = GlobalPool().num_threads();
  state.counters["taxis"] =
      static_cast<double>(system->sim().num_taxis());
  state.counters["cells/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EvaluatorCell)
    ->Arg(2)
    ->MeasureProcessCPUTime()
    ->Unit(benchmark::kMillisecond);

void BM_MlpForward1(benchmark::State& state) {
  Mlp net({40, 64, 64, 14}, Activation::kTanh, 1);
  std::vector<float> x(40, 0.3f);
  for (auto _ : state) {
    auto y = net.Forward1(x);
    benchmark::DoNotOptimize(y);
  }
}
BENCHMARK(BM_MlpForward1);

void BM_MlpTrainStep(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  Mlp net({40, 64, 64, 14}, Activation::kTanh, 1);
  Adam adam(&net, Adam::Options{});
  Rng rng(2);
  Matrix x(batch, 40), grad(batch, 14);
  x.RandomGaussian(rng, 1.0);
  grad.RandomGaussian(rng, 0.01);
  for (auto _ : state) {
    Mlp::Tape tape;
    net.ForwardTape(x, &tape);
    Mlp::Gradients grads = net.MakeGradients();
    net.Backward(tape, grad, &grads);
    adam.Step(grads);
  }
  state.counters["samples/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * batch,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_MlpTrainStep)->Arg(64)->Arg(512)->Arg(3500);

// One paper-size CMA2C update (§III-D, Algorithm 1): the default 64x64 actor
// and critic on 3,500 seeded synthetic transitions, actor path included,
// sharded on GlobalPool() as in training. This update is the critical path
// of the consolidated report. cpu time is the whole process's, so the pool
// lanes' work counts at any lane count.
void BM_Cma2cUpdate(benchmark::State& state) {
  auto system = MakeSystem(0.04);
  const TransitionStore batch =
      RowsOf(system->sim(), FeatureExtractor(&system->sim()).dim(),
             SyntheticTransitions(system->sim(), 3500, /*seed=*/41));
  Cma2cPolicy::Options opt;
  opt.actor_warmup_batches = 0;
  Cma2cPolicy policy(system->sim(), opt);
  policy.Update(batch);  // sizes the reused scratch
  for (auto _ : state) {
    policy.Update(batch);
    benchmark::DoNotOptimize(policy.last_critic_loss());
  }
  state.counters["lanes"] = GlobalPool().num_threads();
  state.counters["samples/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 3500,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Cma2cUpdate)
    ->MeasureProcessCPUTime()
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The flight-recorder hot path: one enabled check, one thread-local ring
// load, a 24-byte slot store and a release head bump. This is the cost the
// always-on recorder adds to every FM_SPAN and FM_FLIGHT_EVENT site, so the
// gate pins it — the budget is tens of nanoseconds, not hundreds.
void BM_FlightRecorderEvent(benchmark::State& state) {
  FlightRecorder::SetEnabled(true);
  static const uint16_t name_id = FlightRecorder::InternName("bench.event");
  int32_t arg = 0;
  for (auto _ : state) {
    FlightRecorder::Instant(name_id, arg++, 42);
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FlightRecorderEvent);

// What every FM_SPAN exit records on top of its two clock reads: one bucket
// index (count-leading-zeros), then relaxed loads and stores of a bucket,
// the count, the sum and the max of a histogram that only this thread
// writes (its span-table node, obs/span.h).
void BM_HistogramRecord(benchmark::State& state) {
  auto hist = std::make_unique<LogHistogram>();
  int64_t v = 1;
  for (auto _ : state) {
    hist->Record(v);
    v = (v * 2862933555777941757LL + 3037000493LL) & 0xFFFFFFF;  // vary buckets
  }
  state.counters["records/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_HistogramRecord);

// ------------------------------------------------- fairmove.bench.v1 out --

/// Renders the console table exactly as BENCHMARK_MAIN() would while
/// collecting every finished per-iteration run for the JSON document.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  struct Row {
    std::string name;
    int64_t iterations = 0;
    double real_ns_per_iter = 0.0;
    double cpu_ns_per_iter = 0.0;
    std::vector<std::pair<std::string, double>> counters;
  };

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      Row row;
      row.name = run.benchmark_name();
      row.iterations = run.iterations;
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      row.real_ns_per_iter = run.real_accumulated_time / iters * 1e9;
      row.cpu_ns_per_iter = run.cpu_accumulated_time / iters * 1e9;
      for (const auto& [name, counter] : run.counters) {
        row.counters.emplace_back(name, counter.value);
      }
      rows_.push_back(std::move(row));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<Row>& rows() const { return rows_; }

 private:
  std::vector<Row> rows_;
};

/// One benchmark entry per row, through the obs JSON builders so the
/// document obeys the same escaping/number rules as every telemetry file.
bool WriteBenchJson(const std::string& path,
                    const std::vector<CollectingReporter::Row>& rows) {
  JsonArray benchmarks;
  for (const CollectingReporter::Row& row : rows) {
    JsonObject entry;
    entry.Set("name", row.name)
        .Set("iterations", row.iterations)
        .Set("real_ns_per_iter", row.real_ns_per_iter)
        .Set("cpu_ns_per_iter", row.cpu_ns_per_iter);
    JsonObject counters;
    for (const auto& [name, value] : row.counters) counters.Set(name, value);
    entry.SetRaw("counters", counters.empty() ? "{}" : counters.Str());
    benchmarks.PushRaw(entry.Str());
  }
  // The machine the numbers belong to: bench_gate reports a baseline taken
  // under another kernel table (nn/simd.h) as not like for like.
  JsonObject machine;
  machine.Set("nproc", static_cast<int64_t>(sysconf(_SC_NPROCESSORS_ONLN)))
      .Set("pool_lanes", GlobalPool().num_threads())
      .Set("simd", simd::kIsaName);
  JsonObject doc;
  doc.Set("schema", "fairmove.bench.v1");
  doc.SetRaw("machine", machine.Str());
  // What bench_gate compares: cpu time excludes other-process noise that
  // wall time picks up on a shared CI box. A benchmark with a `lanes`
  // counter runs on the pool and measures the whole process's cpu time, so
  // the row counts the workers at any lane count; its real time, which
  // alone shows the hand-off waits, is gated too.
  doc.Set("gate_metric", "cpu_ns_per_iter");
  doc.SetRaw("benchmarks", benchmarks.empty() ? "[]" : benchmarks.Str());
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << doc.Str() << "\n";
  return static_cast<bool>(out.flush());
}

}  // namespace
}  // namespace fairmove

int main(int argc, char** argv) {
  // Peel off our own --json=PATH before google-benchmark sees the flags
  // (it rejects arguments it does not recognise).
  std::string json_path;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
      continue;
    }
    args.push_back(argv[i]);
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  fairmove::CollectingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (!json_path.empty()) {
    if (!fairmove::WriteBenchJson(json_path, reporter.rows())) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %zu benchmark entries to %s\n",
                 reporter.rows().size(), json_path.c_str());
  }
  return 0;
}
