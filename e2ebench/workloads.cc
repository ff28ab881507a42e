#include "workloads.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "alloc_counter.h"
#include "fairmove/common/parallel.h"
#include "fairmove/common/rng.h"
#include "fairmove/core/fairmove.h"
#include "fairmove/core/metrics.h"
#include "fairmove/core/report.h"
#include "fairmove/io/binary.h"
#include "fairmove/nn/adam.h"
#include "fairmove/nn/mlp.h"
#include "fairmove/nn/simd.h"
#include "fairmove/obs/json_parse.h"
#include "fairmove/obs/jsonl.h"
#include "fairmove/obs/latency.h"
#include "fairmove/obs/span.h"
#include "fairmove/rl/features.h"

namespace fairmove::e2e {

namespace {

// --- Clocks and summaries --------------------------------------------------

int64_t NowNs() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

/// Process user + system CPU, all threads.
double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// Median (mean of the middle two for an even count); 0 when empty.
double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --- Reference speed -------------------------------------------------------

/// Seconds one ReferencePass takes on the host every time metric is scaled
/// to (about what it takes on the 4-vCPU VM the benchmark was tuned on).
constexpr double kReferenceSeconds = 0.060;

/// A fixed pass of the benchmark's own code, timed next to every set-up and
/// op to read how fast the host runs at that moment. On a shared VM the same
/// GT day takes 0.33 s in one minute and 0.55 s in the next, in both wall
/// and CPU time, for every thread count; no statistic over a 30-60 s run
/// averages that out. So every time metric is reported as measured time x
/// kReferenceSeconds / (time of the passes around it): seconds on a host
/// where one pass takes kReferenceSeconds. The pass mixes the kinds of work
/// the workloads do, each a few milliseconds: a dependent float chain, a
/// random pointer chase and a streaming sum over 32 MiB (cache and memory
/// latency and bandwidth), an integer hash chain, a sort of 200k keys
/// (branchy, cache-resident) and small float matrix products. It runs on
/// the calling thread alone: run on every CPU at once, its threads crowd
/// each other and it follows the host's slow phases only half as strongly.
/// It calls no FairMove code, so no change to the library moves it.
class ReferencePass {
 public:
  ReferencePass()
      : next_(kSlots), keys_(kSortKeys), a_(64 * 64), b_(64 * 64),
        c_(64 * 64) {
    // Sattolo's shuffle: one cycle through every slot, so the chase never
    // settles into a short, cache-resident loop.
    for (uint32_t i = 0; i < kSlots; ++i) next_[i] = i;
    uint64_t s = 0x9e3779b97f4a7c15ull;
    for (uint32_t i = kSlots - 1; i > 0; --i) {
      s ^= s << 13;
      s ^= s >> 7;
      s ^= s << 17;
      std::swap(next_[i], next_[static_cast<uint32_t>(s % i)]);
    }
    for (size_t k = 0; k < a_.size(); ++k) {
      a_[k] = static_cast<float>(next_[k] & 1023) * 1e-3f;
      b_[k] = static_cast<float>(next_[k + a_.size()] & 1023) * 1e-3f;
    }
  }

  /// Runs the pass on the calling thread; returns its wall seconds.
  double Seconds() {
    const int64_t start = NowNs();
    double x = 1.0 + sink_ * 1e-30;
    for (int k = 0; k < 1'000'000; ++k) x = x * 0.9999999 + 1e-7;
    uint32_t at = 0;
    for (int k = 0; k < 100'000; ++k) at = next_[at];
    uint64_t sum = at;
    for (uint32_t k = 0; k < kSlots; k += 4) sum += next_[k];
    uint64_t h = sum;
    for (int k = 0; k < 3'000'000; ++k) {
      h = (h ^ (h >> 31)) * 0x9e3779b97f4a7c15ull + next_[k & 4095];
    }
    std::copy(next_.begin(), next_.begin() + kSortKeys, keys_.begin());
    std::sort(keys_.begin(), keys_.end());
    std::fill(c_.begin(), c_.end(), 0.0f);
    for (int rep = 0; rep < 60; ++rep) {
      for (int r = 0; r < 64; ++r) {
        for (int k = 0; k < 64; ++k) {
          const float s = a_[r * 64 + k];
          for (int col = 0; col < 64; ++col) {
            c_[r * 64 + col] += s * b_[k * 64 + col];
          }
        }
      }
    }
    sink_ = x + static_cast<double>(h + keys_[kSortKeys / 2]) + c_[77];
    return static_cast<double>(NowNs() - start) * 1e-9;
  }

  /// Bytes the pass keeps allocated (and resident) for the whole run.
  double bytes() const {
    return static_cast<double>(
        sizeof(uint32_t) * (next_.size() + keys_.size()) +
        sizeof(float) * (a_.size() + b_.size() + c_.size()));
  }

 private:
  static constexpr uint32_t kSlots = 8u << 20;  // 32 MiB of uint32
  static constexpr size_t kSortKeys = 200'000;
  std::vector<uint32_t> next_, keys_;
  std::vector<float> a_, b_, c_;
  static inline volatile double sink_ = 0.0;
};

/// Reference passes between two ops, repeated until they have taken
/// kGapShare of the previous op's wall time (a GT day gets one pass, a
/// 10 s report several); returns their median.
constexpr double kGapShare = 0.03;

double GapPass(ReferencePass* pass, double op_seconds) {
  std::vector<double> seconds;
  double spent = 0.0;
  do {
    seconds.push_back(pass->Seconds());
    spent += seconds.back();
  } while (spent < kGapShare * op_seconds);
  return Median(seconds);
}

// --- Benchmark-side spans --------------------------------------------------

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = -1;
  int parent = -1;
  int op = -1;

  double seconds() const {
    return end_ns >= start_ns ? static_cast<double>(end_ns - start_ns) * 1e-9
                              : 0.0;
  }
};

/// Spans of a traced run, kept in memory and written out at the end. Each
/// records its parent explicitly: spans opened on pool workers (the report's
/// method cells) would lose it under thread-local nesting. Disabled, every
/// call is a no-op returning -1.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool enabled() const { return enabled_; }

  int Begin(std::string name, int parent, int op) {
    if (!enabled_) return -1;
    Span span{std::move(name), NowNs(), -1, parent, op};
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
    return static_cast<int>(spans_.size()) - 1;
  }

  void End(int id) {
    if (id < 0) return;
    const int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end_ns = now;
  }

  /// Only once every span has ended (no Begin/End in flight).
  const std::vector<Span>& spans() const { return spans_; }

 private:
  const bool enabled_;
  std::mutex mu_;  // guards spans_
  std::vector<Span> spans_;
};

class SpanScope {
 public:
  SpanScope(SpanLog* log, std::string name, int parent, int op)
      : log_(log), id_(log->Begin(std::move(name), parent, op)) {}
  ~SpanScope() { log_->End(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

// --- Transparent policy wrapper --------------------------------------------

/// Per-method counters gathered at the policy boundary (traced runs).
struct MethodStats {
  int64_t decide_calls = 0;
  int64_t decide_rows = 0;
  int64_t decide_ns = 0;
  int64_t decide_train_ns = 0;  // the part spent in training episodes
  int64_t learn_calls = 0;
  int64_t learn_rows = 0;
  int64_t learn_ns = 0;
  int64_t learn_allocs = 0;
  int64_t train_ns = 0;  // Trainer::Train
  int64_t train_episodes = 0;
  int64_t train_transitions = 0;

  void Add(const MethodStats& o) {
    decide_calls += o.decide_calls;
    decide_rows += o.decide_rows;
    decide_ns += o.decide_ns;
    decide_train_ns += o.decide_train_ns;
    learn_calls += o.learn_calls;
    learn_rows += o.learn_rows;
    learn_ns += o.learn_ns;
    learn_allocs += o.learn_allocs;
    train_ns += o.train_ns;
    train_episodes += o.train_episodes;
    train_transitions += o.train_transitions;
  }
};

/// Forwards every DisplacementPolicy virtual to the wrapped policy, so a
/// wrapped run is byte-identical to an unwrapped one. In a traced run it also
/// records decide/learn spans, counters and the allocations made inside
/// Learn on the calling thread; untraced it only forwards.
class ProbedPolicy final : public DisplacementPolicy {
 public:
  ProbedPolicy(std::unique_ptr<DisplacementPolicy> inner, SpanLog* log,
               int op, MethodStats* stats)
      : inner_(std::move(inner)), log_(log), op_(op), stats_(stats) {}

  void set_parent_span(int id) { parent_ = id; }

  std::string name() const override { return inner_->name(); }

  void BeginEpisode(const Simulator& sim) override {
    inner_->BeginEpisode(sim);
  }

  void DecideActions(const Simulator& sim, const std::vector<TaxiObs>& vacant,
                     std::vector<Action>* actions) override {
    if (!log_->enabled()) {
      inner_->DecideActions(sim, vacant, actions);
      return;
    }
    SpanScope span(log_, "policy.decide", parent_, op_);
    const int64_t start = NowNs();
    inner_->DecideActions(sim, vacant, actions);
    const int64_t ns = NowNs() - start;
    stats_->decide_calls += 1;
    stats_->decide_rows += static_cast<int64_t>(vacant.size());
    stats_->decide_ns += ns;
    if (training_) stats_->decide_train_ns += ns;
  }

  void SetTraining(bool training) override {
    training_ = training;
    inner_->SetTraining(training);
  }

  void Learn(const std::vector<Transition>& transitions) override {
    if (!log_->enabled()) {
      inner_->Learn(transitions);
      return;
    }
    SpanScope span(log_, "policy.learn", parent_, op_);
    const int64_t start = NowNs();
    const int64_t allocs = ThreadAllocCount();
    SetThreadAllocCounting(true);
    inner_->Learn(transitions);
    SetThreadAllocCounting(false);
    stats_->learn_allocs += ThreadAllocCount() - allocs;
    stats_->learn_ns += NowNs() - start;
    stats_->learn_calls += 1;
    stats_->learn_rows += static_cast<int64_t>(transitions.size());
  }

  bool WantsTransitions() const override { return inner_->WantsTransitions(); }
  Status Health() const override { return inner_->Health(); }
  void AppendTelemetry(JsonObject* row) const override {
    inner_->AppendTelemetry(row);
  }
  Status SaveState(BinaryWriter* out) const override {
    return inner_->SaveState(out);
  }
  Status RestoreState(BinaryReader* in) override {
    return inner_->RestoreState(in);
  }
  const std::vector<std::vector<float>>* LastFeatures() const override {
    return inner_->LastFeatures();
  }

 private:
  std::unique_ptr<DisplacementPolicy> inner_;
  SpanLog* log_;
  int op_;
  MethodStats* stats_;
  int parent_ = -1;
  bool training_ = false;
};

// --- Slot latency ----------------------------------------------------------

/// Simulator::Step latencies recorded between two snapshots of the
/// library's always-on "sim.step" recorder (FM_LATENCY_SCOPE), on every
/// thread: the GT days, the training and evaluation episodes, the report's
/// replica cells. Log-bucketed, so quantiles carry up to ~6% bucket error.
LogHistogram::Snapshot StepLatencySince(const LogHistogram::Snapshot& base) {
  LogHistogram::Snapshot now =
      LatencyRegistry::Get("sim.step").Cumulative();
  if (base.buckets.size() == now.buckets.size()) {
    for (size_t i = 0; i < now.buckets.size(); ++i) {
      now.buckets[i] -= base.buckets[i];
    }
    now.count -= base.count;
    now.sum -= base.sum;
  }
  return now;  // max stays the process-wide maximum (quantile clamp only)
}

// --- Workloads --------------------------------------------------------------

struct WorkloadSpec {
  const char* name;
  double scale;
  int episodes;
  int days;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"gt_full", 1.0, 1, 1},
    {"train_full", 1.0, 1, 1},
    {"report", 0.08, 5, 2},
};

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

FairMoveConfig MakeConfig(const WorkloadSpec& spec, const RunOptions& o) {
  const double scale = o.scale > 0.0 ? o.scale : spec.scale;
  FairMoveConfig config = FairMoveConfig::FullShenzhen().Scaled(scale);
  config.trainer.episodes = o.episodes > 0 ? o.episodes : spec.episodes;
  config.eval.days = o.days > 0 ? o.days : spec.days;
  // The FAIRMOVE_SEED mapping of bench::MakeSetup.
  if (o.seed != 0) {
    config.sim.seed = o.seed;
    config.trainer.seed_base = 9000 + o.seed * 1000;
    config.eval.seed = 424242 + o.seed;
  }
  return config;
}

bool AllFinite(std::initializer_list<double> values) {
  for (double v : values) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

std::string CheckFleet(const FleetMetrics& m) {
  if (!AllFinite({m.pe_sum, m.pf, m.pe_gini, m.revenue_cny})) {
    return "non-finite fleet PE/PF";
  }
  const double rate = m.ServiceRate();
  if (!(rate > 0.0 && rate <= 1.0)) {
    return "service rate " + std::to_string(rate) + " outside (0, 1]";
  }
  return "";
}

std::string CheckEpisode(const Trainer::EpisodeStats& s) {
  if (!AllFinite({s.avg_reward, s.avg_reward_own, s.fleet_pe_mean,
                  s.fleet_pf})) {
    return "non-finite episode statistics";
  }
  return "";
}

uint32_t FleetDigest(const FleetMetrics& m) {
  JsonObject digest;
  AppendFleetMetricsJson(m, &digest);
  return Crc32(digest.Str());
}

/// Outcome of one op.
struct OpOutput {
  std::string error;  // empty = every output check passed
  uint32_t digest = 0;
  /// Quality readings of the op's output (deterministic per seed).
  std::vector<std::pair<std::string, double>> readings;
};

/// Runs the ops of one workload against one system.
class Runner {
 public:
  Runner(const WorkloadSpec& spec, FairMoveSystem* system, SpanLog* log)
      : spec_(spec), system_(system), log_(log) {}

  OpOutput RunOp(int op) {
    SpanScope span(log_, "op", -1, op);
    const std::string name = spec_.name;
    if (name == "gt_full") return GtDay(op, span.id());
    if (name == "train_full") return TrainEpisode(op, span.id());
    return Report(op, span.id());
  }

  /// Per-method counters merged over every op.
  std::map<std::string, MethodStats>& methods() { return methods_; }
  const std::string& last_report_json() const { return last_report_json_; }

 private:
  OpOutput GtDay(int op, int op_span) {
    Simulator& sim = system_->sim();
    MethodStats stats;
    ProbedPolicy policy(MakePolicy(PolicyKind::kGroundTruth, sim, 7000),
                        log_, op, &stats);
    {
      SpanScope reset(log_, "sim.reset", op_span, op);
      sim.Reset();
      policy.BeginEpisode(sim);
    }
    for (int slot = 0; slot < kSlotsPerDay; ++slot) {
      SpanScope step(log_, "sim.step", op_span, op);
      policy.set_parent_span(step.id());
      sim.Step(&policy);
    }
    OpOutput out;
    {
      SpanScope metrics(log_, "core.metrics", op_span, op);
      const FleetMetrics m = ComputeFleetMetrics(sim);
      out.error = CheckFleet(m);
      out.digest = FleetDigest(m);
      out.readings = {{"fleet_pe_mean", m.pe.Mean()},
                      {"fleet_pf", m.pf},
                      {"service_rate", m.ServiceRate()}};
    }
    methods_["GT"].Add(stats);
    return out;
  }

  OpOutput TrainEpisode(int op, int op_span) {
    Simulator& sim = system_->sim();
    MethodStats stats;
    ProbedPolicy policy(MakePolicy(PolicyKind::kFairMove, sim, 7000), log_,
                        op, &stats);
    Trainer trainer(&sim, system_->config().trainer);
    std::vector<Trainer::EpisodeStats> episodes;
    {
      SpanScope train(log_, "trainer.train", op_span, op);
      policy.set_parent_span(train.id());
      const int64_t start = NowNs();
      episodes = trainer.Train(&policy);
      stats.train_ns += NowNs() - start;
    }
    OpOutput out;
    SpanScope check(log_, "policy.save_state", op_span, op);
    stats.train_episodes += static_cast<int64_t>(episodes.size());
    for (const Trainer::EpisodeStats& e : episodes) {
      stats.train_transitions += e.transitions;
      if (out.error.empty()) out.error = CheckEpisode(e);
      if (out.error.empty() && e.transitions <= 0) {
        out.error = "episode closed no transitions";
      }
    }
    if (episodes.empty()) out.error = "no training episode ran";
    if (Status health = policy.Health(); out.error.empty() && !health.ok()) {
      out.error = "policy unhealthy: " + health.ToString();
    }
    BinaryWriter state;
    if (Status s = policy.SaveState(&state); out.error.empty() && !s.ok()) {
      out.error = "SaveState failed: " + s.ToString();
    }
    out.digest = Crc32(state.str());
    if (!episodes.empty()) {
      out.readings = {{"train_reward", episodes.back().avg_reward},
                      {"transitions",
                       static_cast<double>(episodes.back().transitions)}};
    }
    methods_["FairMove"].Add(stats);
    return out;
  }

  /// Evaluator::Run's replica fan-out rebuilt from public parts, so the
  /// wrapper sees every method: GT on the system's simulator, then one cell
  /// per method on a private replica simulator across the global pool.
  OpOutput Report(int op, int op_span) {
    const FairMoveConfig& config = system_->config();
    Simulator& sim = system_->sim();
    const int64_t eval_slots =
        static_cast<int64_t>(config.eval.days) * kSlotsPerDay;
    std::vector<MethodResult> results;
    MethodStats gt_stats;
    {
      SpanScope span(log_, "evaluator.gt", op_span, op);
      ProbedPolicy policy(MakePolicy(PolicyKind::kGroundTruth, sim, 7000),
                          log_, op, &gt_stats);
      policy.set_parent_span(span.id());
      MethodResult gt;
      gt.kind = PolicyKind::kGroundTruth;
      gt.name = policy.name();
      Trainer trainer(&sim, config.trainer);
      gt.eval_stats =
          trainer.RunEvaluationEpisode(&policy, config.eval.seed, eval_slots);
      gt.metrics = ComputeFleetMetrics(sim);
      gt.vs_gt = CompareToGroundTruth(gt.metrics, gt.metrics);
      results.push_back(std::move(gt));
    }
    const FleetMetrics gt_metrics = results.front().metrics;
    std::vector<PolicyKind> rest;
    for (PolicyKind kind : FairMoveSystem::AllMethods()) {
      if (kind != PolicyKind::kGroundTruth) rest.push_back(kind);
    }
    std::vector<MethodResult> cells(rest.size());
    std::vector<MethodStats> cell_stats(rest.size());
    {
      SpanScope fanout(log_, "evaluator.fanout", op_span, op);
      GlobalPool().ParallelFor(
          static_cast<int64_t>(rest.size()), [&](int64_t i) {
            const size_t k = static_cast<size_t>(i);
            const PolicyKind kind = rest[k];
            SpanScope cell(log_,
                           std::string("evaluator.cell.") +
                               PolicyKindName(kind),
                           fanout.id(), op);
            auto replica_or = Simulator::Create(
                &system_->city(), &system_->demand(), sim.tariff(),
                sim.config());
            FM_CHECK(replica_or.ok()) << replica_or.status();
            std::unique_ptr<Simulator> replica = std::move(*replica_or);
            ProbedPolicy policy(MakePolicy(kind, *replica, 7000), log_, op,
                                &cell_stats[k]);
            policy.set_parent_span(cell.id());
            MethodResult r;
            r.kind = kind;
            r.name = policy.name();
            Trainer trainer(replica.get(), config.trainer);
            if (policy.WantsTransitions()) {
              const int64_t start = NowNs();
              r.training_stats = trainer.Train(&policy);
              cell_stats[k].train_ns += NowNs() - start;
              cell_stats[k].train_episodes +=
                  static_cast<int64_t>(r.training_stats.size());
              for (const Trainer::EpisodeStats& e : r.training_stats) {
                cell_stats[k].train_transitions += e.transitions;
              }
            }
            r.eval_stats = trainer.RunEvaluationEpisode(
                &policy, config.eval.seed, eval_slots);
            r.metrics = ComputeFleetMetrics(*replica);
            r.vs_gt = CompareToGroundTruth(gt_metrics, r.metrics);
            cells[k] = std::move(r);
          });
    }
    for (MethodResult& cell : cells) results.push_back(std::move(cell));

    OpOutput out;
    SpanScope render(log_, "report.json", op_span, op);
    for (const MethodResult& r : results) {
      std::string why = CheckFleet(r.metrics);
      if (why.empty() && !AllFinite({r.vs_gt.prct, r.vs_gt.prit,
                                     r.vs_gt.pipe, r.vs_gt.pipf})) {
        why = "non-finite comparison vs GT";
      }
      if (why.empty()) why = CheckEpisode(r.eval_stats);
      if (!why.empty() && out.error.empty()) out.error = r.name + ": " + why;
      if (r.kind == PolicyKind::kFairMove) {
        out.readings = {{"fairmove_pipe_pct", 100.0 * r.vs_gt.pipe},
                        {"fairmove_pipf_pct", 100.0 * r.vs_gt.pipf}};
      }
    }
    last_report_json_ = ReportWriter(std::move(results)).ToJson();
    out.digest = Crc32(last_report_json_);
    methods_["GT"].Add(gt_stats);
    for (size_t k = 0; k < rest.size(); ++k) {
      methods_[PolicyKindName(rest[k])].Add(cell_stats[k]);
    }
    return out;
  }

  const WorkloadSpec& spec_;
  FairMoveSystem* system_;
  SpanLog* log_;
  std::map<std::string, MethodStats> methods_;
  std::string last_report_json_;
};

// --- Traced-run probes -----------------------------------------------------

/// One GT day on `sim` at `lanes` pool lanes after a warm-up day: per-step
/// wall time, heap allocations of the warm day (all threads), and the
/// FleetMetrics digest (which must not depend on the lane count).
struct LaneProbe {
  double step_ms_p50 = 0.0;
  double allocs_per_slot = 0.0;
  uint32_t digest = 0;
};

LaneProbe ProbeLanes(Simulator& sim, int lanes) {
  SetGlobalThreads(lanes);
  auto policy = MakePolicy(PolicyKind::kGroundTruth, sim, 7000);
  sim.Reset();
  policy->BeginEpisode(sim);
  sim.RunSlots(policy.get(), kSlotsPerDay);
  std::vector<double> step_ms;
  step_ms.reserve(kSlotsPerDay);
  const int64_t allocs = GlobalAllocCount();
  SetGlobalAllocCounting(true);
  for (int slot = 0; slot < kSlotsPerDay; ++slot) {
    const int64_t start = NowNs();
    sim.Step(policy.get());
    step_ms.push_back(static_cast<double>(NowNs() - start) * 1e-6);
  }
  SetGlobalAllocCounting(false);
  LaneProbe probe;
  probe.allocs_per_slot =
      static_cast<double>(GlobalAllocCount() - allocs) / kSlotsPerDay;
  probe.step_ms_p50 = Median(step_ms);
  probe.digest = FleetDigest(ComputeFleetMetrics(sim));
  return probe;
}

Matrix RandomMatrix(int rows, int cols, Rng* rng) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng->Uniform(-1.0, 1.0));
  }
  return m;
}

/// Median forward-tape / backward / Adam times (ms) of one update over
/// `nets` on `rows` input rows, the shape of a policy's Learn step.
struct NnTimes {
  double forward_tape_ms = 0.0;
  double backward_ms = 0.0;
  double adam_ms = 0.0;
};

NnTimes ProbeUpdate(std::vector<Mlp>* nets, int rows, int reps) {
  Rng rng(17);
  const Matrix x = RandomMatrix(rows, nets->front().input_dim(), &rng);
  std::vector<Matrix> grad_out;
  std::vector<Mlp::Tape> tapes(nets->size());
  std::vector<Mlp::Gradients> grads;
  std::vector<Adam> opts;
  for (Mlp& net : *nets) {
    grad_out.push_back(RandomMatrix(rows, net.output_dim(), &rng));
    grads.push_back(net.MakeGradients());
    opts.emplace_back(&net, Adam::Options{.learning_rate = 1e-4});
  }
  Mlp::Workspace ws;
  std::vector<double> fwd, bwd, adam;
  for (int r = 0; r < reps; ++r) {
    const int64_t t0 = NowNs();
    for (size_t n = 0; n < nets->size(); ++n) {
      (*nets)[n].ForwardTape(x, &tapes[n]);
    }
    const int64_t t1 = NowNs();
    for (size_t n = 0; n < nets->size(); ++n) {
      grads[n].Zero();
      (*nets)[n].Backward(tapes[n], grad_out[n], &grads[n], &ws);
    }
    const int64_t t2 = NowNs();
    for (size_t n = 0; n < nets->size(); ++n) opts[n].Step(grads[n]);
    const int64_t t3 = NowNs();
    fwd.push_back(static_cast<double>(t1 - t0) * 1e-6);
    bwd.push_back(static_cast<double>(t2 - t1) * 1e-6);
    adam.push_back(static_cast<double>(t3 - t2) * 1e-6);
  }
  return {Median(fwd), Median(bwd), Median(adam)};
}

/// Rows per second of the sharded actor forward over `rows` rows.
double ProbeForwardRows(const Mlp& actor, int rows, int reps) {
  Rng rng(23);
  const Matrix x = RandomMatrix(rows, actor.input_dim(), &rng);
  Matrix y;
  Mlp::ShardedWorkspace ws;
  actor.Forward(x, &y, &GlobalPool(), &ws);  // warm the workspace
  std::vector<double> seconds;
  for (int r = 0; r < reps; ++r) {
    const int64_t start = NowNs();
    actor.Forward(x, &y, &GlobalPool(), &ws);
    seconds.push_back(static_cast<double>(NowNs() - start) * 1e-9);
  }
  return Ratio(rows, Median(seconds));
}

// --- Span-tree readings ----------------------------------------------------

/// Total and self time (ns) plus call count per span name of the library's
/// profiler tree, summed over every position the name occurs at.
struct ProfileEntry {
  double total_ns = 0.0;
  double self_ns = 0.0;
  double count = 0.0;
};

void WalkProfile(const JsonValue& spans,
                 std::map<std::string, ProfileEntry>* out) {
  for (const JsonValue& node : spans.items) {
    ProfileEntry& e = (*out)[node.StringOr("name", "")];
    const double total = node.NumberOr("total_ns", 0.0);
    double children = 0.0;
    if (const JsonValue* kids = node.Find("children"); kids != nullptr) {
      for (const JsonValue& kid : kids->items) {
        children += kid.NumberOr("total_ns", 0.0);
      }
      WalkProfile(*kids, out);
    }
    e.total_ns += total;
    e.self_ns += std::max(0.0, total - children);
    e.count += node.NumberOr("count", 0.0);
  }
}

std::map<std::string, ProfileEntry> ReadProfile() {
  std::map<std::string, ProfileEntry> out;
  auto doc = ParseJson(Profiler::ReportJson());
  if (!doc.ok()) return out;
  if (const JsonValue* spans = doc->Find("spans"); spans != nullptr) {
    WalkProfile(*spans, &out);
  }
  return out;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        const size_t begin = line.find_first_not_of(' ', colon + 1);
        return begin == std::string::npos ? "" : line.substr(begin);
      }
    }
  }
  return "unknown";
}

std::string MachineJson() {
  JsonObject m;
  m.Set("nproc", static_cast<int64_t>(sysconf(_SC_NPROCESSORS_ONLN)))
      .Set("cpu_model", CpuModel())
      .Set("pool_lanes", GlobalPool().num_threads())
      .Set("simd", simd::kIsaName)
      .Set("build_type", FM_E2E_BUILD_TYPE)
      .Set("compiler", FM_E2E_COMPILER);
  return m.Str();
}

class MetricSink {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    JsonObject m;
    m.Set("value", value).Set("unit", unit);
    metrics_.SetRaw(name, m.Str());
  }
  std::string Str() const { return metrics_.Str(); }

 private:
  JsonObject metrics_;
};

std::string Hex(uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%08x", v);
  return buf;
}

/// The per-layer metrics of a traced run. Policy, trainer and evaluator times
/// are shares of wall time, so a layer the workload never enters (every
/// method but GT on gt_full) reads 0 % rather than a time of 0 s.
void AddLayerMetrics(const std::vector<Span>& spans, const PoolStats& pool0,
                     const PoolStats& pool1,
                     const std::map<std::string, ProfileEntry>& profile,
                     std::map<std::string, MethodStats>& methods, int ops,
                     MetricSink* sink) {
  // Simulator phases from the library's own span tree.
  auto entry = [&profile](const std::string& name) {
    auto it = profile.find(name);
    return it == profile.end() ? ProfileEntry{} : it->second;
  };
  const double steps = entry("sim.step").count;
  const double step_ns = entry("sim.step").total_ns;
  sink->Add("sim.slots", steps / ops, "count");
  sink->Add("sim.step_ms", Ratio(step_ns, steps) * 1e-6, "ms");
  const char* phases[] = {"arrivals",     "plugin",        "charge",
                          "spawn",        "match.lottery", "match.commit",
                          "decide.obs",   "decide.policy", "decide.apply",
                          "account"};
  for (const char* phase : phases) {
    std::string metric = std::string("sim.") + phase + "_ms";
    std::replace(metric.begin() + 4, metric.end() - 3, '.', '_');
    sink->Add(metric,
              Ratio(entry(std::string("sim.") + phase).self_ns, steps) * 1e-6,
              "ms");
  }
  sink->Add("sim.serial_share",
            Ratio(entry("sim.decide.policy").total_ns +
                      entry("sim.decide.apply").total_ns +
                      entry("sim.match.commit").total_ns,
                  step_ns),
            "ratio");

  // Pool dispatch over the op.
  const double regions = static_cast<double>(pool1.regions - pool0.regions);
  const double tasks = static_cast<double>(pool1.tasks - pool0.tasks);
  sink->Add("pool.regions_per_slot", Ratio(regions, steps), "count");
  sink->Add("pool.tasks_per_slot", Ratio(tasks, steps), "count");
  // Per task, not per slot: in the report one queued fan-out helper can
  // wait seconds, which a per-slot share would smear over every slot.
  sink->Add("pool.queue_wait_us",
            Ratio(static_cast<double>(pool1.queue_wait_ns_total -
                                      pool0.queue_wait_ns_total),
                  tasks) *
                1e-3,
            "us");
  sink->Add("pool.queue_wait_max_us",
            static_cast<double>(pool1.queue_wait_ns_max) * 1e-3, "us");

  // Wall time of the ops, of their evaluator parts, and of what the op's
  // direct children cover (the attribution check).
  double gt_s = 0.0, fanout_s = 0.0, op_s = 0.0, attributed_s = 0.0;
  std::map<std::string, double> cell_s;
  for (const Span& s : spans) {
    if (s.name == "op") op_s += s.seconds();
    if (s.parent >= 0 && spans[static_cast<size_t>(s.parent)].name == "op") {
      attributed_s += s.seconds();
    }
    if (s.name == "evaluator.gt") gt_s += s.seconds();
    if (s.name == "evaluator.fanout") fanout_s += s.seconds();
    if (s.name.rfind("evaluator.cell.", 0) == 0) {
      cell_s[s.name.substr(15)] += s.seconds();
    }
  }
  auto pct_of_ops = [op_s](int64_t ns) {
    return 100.0 * Ratio(static_cast<double>(ns) * 1e-9, op_s);
  };

  // Policies, per method. Report cells run concurrently, so the shares of
  // different methods can add up to more than 100 %.
  double learn_allocs = 0.0, learn_calls = 0.0;
  MethodStats all;
  for (const char* m : {"GT", "SD2", "TQL", "DQN", "TBA", "FairMove"}) {
    const MethodStats& s = methods[m];
    all.Add(s);
    sink->Add(std::string("rl.decide_pct.") + m, pct_of_ops(s.decide_ns), "%");
    sink->Add(std::string("rl.decide_rows.") + m,
              Ratio(static_cast<double>(s.decide_rows), s.decide_calls),
              "count");
    if (std::string(m) == "GT" || std::string(m) == "SD2") continue;
    sink->Add(std::string("rl.learn_pct.") + m, pct_of_ops(s.learn_ns), "%");
    sink->Add(std::string("rl.learn_calls.") + m,
              static_cast<double>(s.learn_calls) / ops, "count");
    sink->Add(std::string("rl.learn_rows.") + m,
              static_cast<double>(s.learn_rows) / ops, "count");
    learn_allocs += static_cast<double>(s.learn_allocs);
    learn_calls += static_cast<double>(s.learn_calls);
  }
  sink->Add("alloc.per_learn_call", Ratio(learn_allocs, learn_calls), "count");

  // Trainer: training episodes of every learning method; other = the part
  // of Trainer::Train outside DecideActions and Learn (mostly the simulator).
  sink->Add("trainer.episodes",
            static_cast<double>(all.train_episodes) / ops, "count");
  sink->Add("trainer.transitions",
            static_cast<double>(all.train_transitions) / ops, "count");
  sink->Add("trainer.other_pct",
            100.0 * Ratio(static_cast<double>(all.train_ns -
                                              all.decide_train_ns -
                                              all.learn_ns),
                          static_cast<double>(all.train_ns)),
            "%");

  // Evaluator: GT share of the op, each cell's share of the fan-out.
  sink->Add("evaluator.gt_pct", 100.0 * Ratio(gt_s, op_s), "%");
  double slowest = 0.0;
  for (const char* m : {"SD2", "TQL", "DQN", "TBA", "FairMove"}) {
    sink->Add(std::string("evaluator.cell_pct.") + m,
              100.0 * Ratio(cell_s[m], fanout_s), "%");
    slowest = std::max(slowest, cell_s[m]);
  }
  sink->Add("evaluator.straggler_share", Ratio(slowest, fanout_s), "ratio");
  sink->Add("trace.unattributed_pct",
            100.0 * Ratio(op_s - attributed_s, op_s), "%");
}

void WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write spans to %s\n", path.c_str());
    return;
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    JsonObject row;
    row.Set("id", static_cast<int64_t>(i))
        .Set("name", s.name)
        .Set("parent", s.parent)
        .Set("op", s.op)
        .Set("start_ns", s.start_ns)
        .Set("end_ns", s.end_ns);
    std::fprintf(f, "%s\n", row.Str().c_str());
  }
  std::fclose(f);
}

}  // namespace

int RunWorkload(const RunOptions& options) {
  const WorkloadSpec* spec = FindWorkload(options.workload);
  if (spec == nullptr) {
    std::fprintf(stderr,
                 "unknown workload '%s' (gt_full, train_full, report)\n",
                 options.workload.c_str());
    return 2;
  }
  const FairMoveConfig config = MakeConfig(*spec, options);
  const int lanes = GlobalPool().num_threads();
  if (options.traced) ThreadPool::SetTimingEnabled(true);

  // Set-up: the whole stack, at least `setups` times in whole rounds over the
  // allowed CPUs (up to 16 of them) and, for small cities, until a second has
  // passed; the last system is kept. Set-up k runs pinned to the k-th allowed
  // CPU in turn, right after a ReferencePass on that CPU that scales it: the
  // vCPUs of a shared host can differ in speed by 20 % or more, and an
  // unpinned single-threaded set-up reads the speed of whichever vCPU the
  // process landed on. The pool's workers already exist (above), so pinning
  // this thread does not reach them.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
  }
  const int round =
      std::max(1, static_cast<int>(std::min<size_t>(cpus.size(), 16)));
  const int min_setups = (std::max(1, options.setups) + round - 1) / round *
                         round;
  ReferencePass pass;
  std::vector<double> setup_s, setup_scaled;
  std::unique_ptr<FairMoveSystem> system;
  const int64_t setup_start = NowNs();
  for (int k = 0; k < min_setups ||
                  (k < 100 && NowNs() - setup_start < 1'000'000'000);
       ++k) {
    if (!cpus.empty()) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[static_cast<size_t>(k) % cpus.size()], &one);
      sched_setaffinity(0, sizeof(one), &one);
    }
    const double pass_s = pass.Seconds();
    system.reset();
    const int64_t start = NowNs();
    auto system_or = FairMoveSystem::Create(config);
    setup_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    setup_scaled.push_back(setup_s.back() * kReferenceSeconds / pass_s);
    if (!system_or.ok()) {
      std::fprintf(stderr, "setup failed: %s\n",
                   system_or.status().ToString().c_str());
      return 1;
    }
    system = std::move(system_or).value();
  }
  if (!cpus.empty()) sched_setaffinity(0, sizeof(allowed), &allowed);
  std::printf("workload %s: %d taxis, %d regions, %d stations, seed %llu, "
              "%d lanes, setup %.3f s (median of %zu)\n",
              spec->name, config.sim.num_taxis, config.city.num_regions,
              config.city.num_stations,
              static_cast<unsigned long long>(config.sim.seed), lanes,
              Median(setup_s), setup_s.size());

  SpanLog log(options.traced);
  Runner runner(*spec, system.get(), &log);
  const PoolStats pool0 = GlobalPool().stats();
  const LogHistogram::Snapshot steps0 =
      LatencyRegistry::Get("sim.step").Cumulative();
  if (options.traced) {
    Profiler::Reset();
    Profiler::SetEnabled(true);
  }
  // Per op: its wall and CPU time, and both scaled by the mean of the
  // reference passes just before and just after it (GapPass).
  std::vector<double> op_wall, op_cpu, wall_scaled, cpu_scaled;
  std::vector<double> pass_s = {GapPass(&pass, 0.0)};
  std::vector<std::string> errors;
  std::vector<std::pair<std::string, double>> readings;
  uint32_t first_digest = 0;
  // Peak RSS through set-up and the first op, less the reference pass's
  // buffers. Later ops repeat the same input, yet with several pool threads
  // the allocator's per-thread arenas keep growing across them, by an amount
  // that differs from run to run.
  double peak_rss_mb = 0.0;
  int ops = 0, failed = 0;
  const int64_t loop_start = NowNs();
  while (ops == 0 ||
         ((options.max_ops == 0 || ops < options.max_ops) &&
          static_cast<double>(NowNs() - loop_start) * 1e-9 <
              options.seconds)) {
    const double cpu0 = CpuSeconds();
    const int64_t wall0 = NowNs();
    OpOutput out = runner.RunOp(ops);
    op_wall.push_back(static_cast<double>(NowNs() - wall0) * 1e-9);
    op_cpu.push_back(CpuSeconds() - cpu0);
    pass_s.push_back(GapPass(&pass, op_wall.back()));
    const double scale = 2.0 * kReferenceSeconds /
                         (pass_s[static_cast<size_t>(ops)] + pass_s.back());
    wall_scaled.push_back(op_wall.back() * scale);
    cpu_scaled.push_back(op_cpu.back() * scale);
    if (ops == 0) {
      first_digest = out.digest;
      peak_rss_mb = PeakRssMb() - pass.bytes() / (1024.0 * 1024.0);
    }
    if (out.error.empty() && out.digest != first_digest) {
      out.error = "digest " + Hex(out.digest) + " differs from op 0's " +
                  Hex(first_digest);
    }
    if (!out.error.empty()) {
      ++failed;
      errors.push_back("op " + std::to_string(ops) + ": " + out.error);
    }
    std::printf("op %d: wall %.3f s, cpu %.3f s, reference pass %.4f s, "
                "digest %s%s%s\n",
                ops, op_wall.back(), op_cpu.back(), pass_s.back(),
                Hex(out.digest).c_str(), out.error.empty() ? "" : ", FAILED: ",
                out.error.c_str());
    readings = std::move(out.readings);
    ++ops;
  }
  Profiler::SetEnabled(false);
  const PoolStats pool1 = GlobalPool().stats();
  const LogHistogram::Snapshot steps = StepLatencySince(steps0);

  if (options.reference && std::string(spec->name) == "report") {
    ReportWriter reference(system->RunComparison(FairMoveSystem::AllMethods()));
    if (reference.ToJson() != runner.last_report_json()) {
      ++failed;
      errors.push_back(
          "rebuilt fan-out differs from FairMoveSystem::RunComparison");
    }
  }

  // Time metrics are scaled to the reference speed (see ReferencePass); the
  // slot quantiles, which pool every op, by the run's median pass. The
  // unscaled readings go into their own block.
  const double slot_p50_ms = static_cast<double>(steps.Quantile(0.50)) * 1e-6;
  const double slot_p95_ms = static_cast<double>(steps.Quantile(0.95)) * 1e-6;
  const double run_scale = kReferenceSeconds / Median(pass_s);
  MetricSink metrics;
  metrics.Add("setup_s", Median(setup_scaled), "s");
  metrics.Add("wall_s", Median(wall_scaled), "s");
  metrics.Add("cpu_s", Median(cpu_scaled), "s");
  metrics.Add("slot_ms_p50", slot_p50_ms * run_scale, "ms");
  metrics.Add("slot_ms_p95", slot_p95_ms * run_scale, "ms");
  MetricSink unscaled;
  unscaled.Add("reference_pass_s", Median(pass_s), "s");
  unscaled.Add("setup_s", Median(setup_s), "s");
  unscaled.Add("wall_s", Median(op_wall), "s");
  unscaled.Add("cpu_s", Median(op_cpu), "s");
  unscaled.Add("slot_ms_p50", slot_p50_ms, "ms");
  unscaled.Add("slot_ms_p95", slot_p95_ms, "ms");
  metrics.Add("slot_samples", static_cast<double>(steps.count), "count");

  if (options.traced) {
    AddLayerMetrics(log.spans(), pool0, pool1, ReadProfile(), runner.methods(),
                    ops, &metrics);
    // Probes on the workload's own city, after the op so its pool counters
    // and allocations stay out of the op's readings.
    const LaneProbe wide = ProbeLanes(system->sim(), lanes);
    const LaneProbe serial = ProbeLanes(system->sim(), 1);
    SetGlobalThreads(lanes);
    if (wide.digest != serial.digest) {
      ++failed;
      errors.push_back("GT day digest at " + std::to_string(lanes) +
                       " lanes differs from 1 lane");
    }
    metrics.Add("pool.speedup_vs_1t",
                Ratio(serial.step_ms_p50, wide.step_ms_p50), "x");
    metrics.Add("alloc.per_slot", wide.allocs_per_slot, "count");
    metrics.Add("alloc.per_slot_1t", serial.allocs_per_slot, "count");

    const Simulator& sim = system->sim();
    const int in = FeatureExtractor(&sim).dim();
    const int actions = sim.action_space().size();
    std::vector<Mlp> cma2c;
    cma2c.emplace_back(std::vector<int>{in, 64, 64, actions},
                       Activation::kTanh, 1);
    cma2c.emplace_back(std::vector<int>{in, 64, 64, 1}, Activation::kRelu, 2);
    const NnTimes big = ProbeUpdate(&cma2c, 3500, 9);
    std::vector<Mlp> dqn;
    dqn.emplace_back(std::vector<int>{in, 64, 64, actions}, Activation::kRelu,
                     3);
    const NnTimes small = ProbeUpdate(&dqn, 64, 201);
    metrics.Add("nn.forward_tape_ms", big.forward_tape_ms, "ms");
    metrics.Add("nn.backward_ms", big.backward_ms, "ms");
    metrics.Add("nn.adam_ms", big.adam_ms, "ms");
    metrics.Add("nn.forward_tape_ms.b64", small.forward_tape_ms, "ms");
    metrics.Add("nn.backward_ms.b64", small.backward_ms, "ms");
    metrics.Add("nn.adam_ms.b64", small.adam_ms, "ms");
    // One slot's worth of decide rows, as the op saw them.
    MethodStats all;
    for (const auto& [name, stats] : runner.methods()) all.Add(stats);
    const int rows = static_cast<int>(
        std::max<int64_t>(1, all.decide_rows / std::max<int64_t>(
                                                   1, all.decide_calls)));
    metrics.Add("nn.forward_rows_per_s",
                ProbeForwardRows(cma2c.front(), rows, 21), "1/s");
    if (!options.spans_out.empty()) WriteSpans(log.spans(), options.spans_out);
  }
  metrics.Add("peak_rss_mb", peak_rss_mb, "MiB");

  JsonObject readings_json;
  for (const auto& [name, value] : readings) readings_json.Set(name, value);
  JsonArray errors_json;
  for (const std::string& e : errors) errors_json.Push(e);
  JsonObject result;
  result.Set("workload", spec->name)
      .Set("seed", options.seed)
      .Set("traced", options.traced)
      .Set("ops", ops)
      .Set("failed", failed)
      .Set("digest", Hex(first_digest))
      .SetRaw("errors", errors_json.Str())
      .SetRaw("readings", readings_json.Str())
      .SetRaw("machine", MachineJson())
      .SetRaw("unscaled", unscaled.Str())
      .SetRaw("metrics", metrics.Str());
  std::printf("%s\n", result.Str().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace fairmove::e2e
