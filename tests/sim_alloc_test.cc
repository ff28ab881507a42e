// Pins the Simulator::Step zero-allocation contract: once the ring queues
// and reusable vectors are warm, a steady-state step must not touch the
// heap at all, at one pool lane or four. The proof is a binary-wide
// counting hook on the global operator new — anything that allocates
// inside the measured window on any thread (std::deque churn, a per-slot
// std::vector, a logging string, a pool task) fails the test with an exact
// count. The contract holds across Simulator::Reset, and the same hook pins
// the batched FeatureExtractor::ExtractAll path and warm CMA2C, DQN and TBA
// updates and Learn calls.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#ifdef FAIRMOVE_ALLOC_TEST_BACKTRACE
#include <execinfo.h>
#include <unistd.h>
#endif

#include "fairmove/common/parallel.h"
#include "fairmove/demand/demand_model.h"
#include "fairmove/geo/city_builder.h"
#include "fairmove/nn/matrix.h"
#include "fairmove/obs/span.h"
#include "fairmove/pricing/tou_tariff.h"
#include "fairmove/rl/cma2c_policy.h"
#include "fairmove/rl/dqn_policy.h"
#include "fairmove/rl/features.h"
#include "fairmove/rl/tba_policy.h"
#include "fairmove/sim/simulator.h"
#include "synthetic_transitions.h"

namespace {

std::atomic<int64_t> g_alloc_count{0};
std::atomic<bool> g_counting{false};

void CountAlloc() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
#ifdef FAIRMOVE_ALLOC_TEST_BACKTRACE
    void* frames[16];
    const int n = backtrace(frames, 16);
    backtrace_symbols_fd(frames, n, 2);
    write(2, "----\n", 5);
#endif
  }
}

}  // namespace

// Binary-wide replacement of the global allocation functions. All
// new-paths funnel through malloc so the matching deletes can always
// free(); the aligned forms over-align via std::aligned_alloc.
void* operator new(std::size_t size) {
  CountAlloc();
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) {
  CountAlloc();
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t size, std::align_val_t al) {
  CountAlloc();
  const std::size_t align = static_cast<std::size_t>(al);
  const std::size_t rounded = (size + align - 1) / align * align;
  void* p = std::aligned_alloc(align, rounded == 0 ? align : rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return operator new(size, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace fairmove {
namespace {

struct TestStack {
  std::unique_ptr<City> city;
  std::unique_ptr<DemandModel> demand;
  std::unique_ptr<Simulator> sim;
};

TestStack MakeStack(int num_taxis, uint64_t seed) {
  TestStack stack;
  CityConfig city_cfg = CityConfig{}.Scaled(0.05);
  city_cfg.seed = seed;
  auto city_or = CityBuilder(city_cfg).Build();
  EXPECT_TRUE(city_or.ok());
  stack.city = std::make_unique<City>(std::move(city_or).value());
  DemandConfig demand_cfg;
  demand_cfg.num_taxis = num_taxis;
  stack.demand = std::make_unique<DemandModel>(
      DemandModel::Create(stack.city.get(), demand_cfg).value());
  SimConfig sim_cfg;
  sim_cfg.num_taxis = num_taxis;
  sim_cfg.seed = seed;
  // Aggregate counters only: retaining every trip/charge record is
  // unbounded growth by design and out of scope for the hot-loop contract.
  sim_cfg.trace_level = TraceLevel::kAggregatesOnly;
  auto sim_or = Simulator::Create(stack.city.get(), stack.demand.get(),
                                  TouTariff::Shenzhen(), sim_cfg);
  EXPECT_TRUE(sim_or.ok());
  stack.sim = std::move(sim_or).value();
  return stack;
}

class ScopedAllocCounter {
 public:
  ScopedAllocCounter() {
    g_alloc_count.store(0);
    g_counting.store(true);
  }
  ~ScopedAllocCounter() { g_counting.store(false); }
  int64_t count() const { return g_alloc_count.load(); }
};

// Heap allocations per simulated day of a warm simulator at the global
// pool's lane count, counted on every thread (pool workers included). Stops
// after the first day with zero, or after 8 days.
std::vector<int64_t> WarmDayAllocationCounts() {
  TestStack stack = MakeStack(/*num_taxis=*/300, /*seed=*/77);
  // Warm-up: the first days take every container past its high-water mark
  // (morning demand peaks, charge queues, shard outboxes). Daily demand
  // draws differ, so a later day can still push a request ring past its
  // all-time high-water and trigger one doubling — that growth converges
  // geometrically, which is exactly what the test asserts: within a few
  // days, a full simulated day must execute with ZERO heap allocations.
  // A genuine per-step allocation (a std::deque node, a per-slot vector)
  // never converges and fails the test with its daily count. The run is
  // seed-deterministic, so the result is exact, not flaky.
  stack.sim->RunDays(/*policy=*/nullptr, 2);
  constexpr int kMaxWarmupDays = 8;
  std::vector<int64_t> counts;
  for (int day = 0; day < kMaxWarmupDays; ++day) {
    ScopedAllocCounter counter;
    stack.sim->RunSlots(/*policy=*/nullptr, kSlotsPerDay);
    g_counting.store(false);
    counts.push_back(counter.count());
    if (counts.back() == 0) break;
  }
  return counts;
}

// The sharded phases run on the global pool, so its dispatch is inside the
// counted window. The test sets the lane count itself instead of taking
// FAIRMOVE_THREADS or the core count, so a one-core box checks 4 lanes too.
// The 300-taxi city is below the pool's cost rule, so at 4 lanes its phases
// run inline unless the threshold is lowered; both paths are checked. The
// step's FM_SPANs record into the same span-table nodes whether or not the
// profiler is on, so the profiler-on case must not allocate either.
TEST(SimAllocTest, SteadyStateStepDoesZeroHeapAllocations) {
  const int before = GlobalPool().num_threads();
  const struct {
    int lanes;
    int64_t fork_threshold_ns;
    bool profile;
  } cases[] = {{1, kForkThresholdNs, false},
               {4, kForkThresholdNs, false},
               {4, 0, false},
               {4, 0, true}};
  for (const auto& c : cases) {
    SetGlobalThreads(c.lanes);
    ScopedForkThresholdForTesting threshold(c.fork_threshold_ns);
    Profiler::SetEnabled(c.profile);
    const std::vector<int64_t> counts = WarmDayAllocationCounts();
    Profiler::SetEnabled(false);
    std::string per_day;
    for (int64_t count : counts) per_day += " " + std::to_string(count);
    EXPECT_EQ(counts.back(), 0)
        << "Simulator::Step at " << c.lanes << " lanes (fork threshold "
        << c.fork_threshold_ns << " ns, profiler "
        << (c.profile ? "on" : "off") << ") still allocated after "
        << counts.size() << " warm days; per-day allocation counts:"
        << per_day;
  }
  SetGlobalThreads(before);
}

// Training resets the simulator every episode. Reset keeps every container
// a day grew, the station waiting lines included, so replaying the same day
// after a Reset allocates nothing, inline and with the phases on the pool.
TEST(SimAllocTest, SameDayAfterResetDoesZeroHeapAllocations) {
  const int before = GlobalPool().num_threads();
  const struct {
    int lanes;
    int64_t fork_threshold_ns;
  } cases[] = {{1, kForkThresholdNs}, {4, kForkThresholdNs}, {4, 0}};
  for (const auto& c : cases) {
    SetGlobalThreads(c.lanes);
    ScopedForkThresholdForTesting threshold(c.fork_threshold_ns);
    TestStack stack = MakeStack(/*num_taxis=*/300, /*seed=*/77);
    stack.sim->RunDays(/*policy=*/nullptr, 1);
    stack.sim->Reset();
    ScopedAllocCounter counter;
    stack.sim->RunDays(/*policy=*/nullptr, 1);
    g_counting.store(false);
    EXPECT_EQ(counter.count(), 0)
        << "the day after Reset allocated at " << c.lanes
        << " lanes (fork threshold " << c.fork_threshold_ns << " ns)";
  }
  SetGlobalThreads(before);
}

TEST(SimAllocTest, WarmFeatureExtractionDoesZeroHeapAllocations) {
  TestStack stack = MakeStack(/*num_taxis=*/300, /*seed=*/77);
  stack.sim->RunDays(/*policy=*/nullptr, 1);
  FeatureExtractor extractor(stack.sim.get());

  std::vector<TaxiObs> obs;
  const FleetState& fleet = stack.sim->fleet();
  for (TaxiId id = 0; id < fleet.size(); ++id) {
    TaxiObs o;
    o.taxi = id;
    o.region = fleet.region[static_cast<size_t>(id)];
    o.soc = fleet.soc[static_cast<size_t>(id)];
    obs.push_back(o);
  }
  Matrix features;
  extractor.ExtractAll(obs, &features);  // warm the template cache + matrix

  ScopedAllocCounter counter;
  extractor.ExtractAll(obs, &features);
  g_counting.store(false);
  EXPECT_EQ(counter.count(), 0)
      << "warm ExtractAll allocated on the batched path";
}

// The paper's 3,500-row batch through a default CMA2C update, actor path
// included. Every batch matrix, tape, gradient set and shard workspace is
// reused, so once one update at a lane count has sized them, the next
// allocates nothing, on the caller or on a pool lane.
TEST(SimAllocTest, WarmCma2cUpdateDoesZeroHeapAllocations) {
  TestStack stack = MakeStack(/*num_taxis=*/300, /*seed=*/77);
  const TransitionStore batch =
      RowsOf(*stack.sim, FeatureExtractor(stack.sim.get()).dim(),
             SyntheticTransitions(*stack.sim, 3500, /*seed=*/41));
  Cma2cPolicy::Options opt;
  opt.actor_warmup_batches = 0;
  Cma2cPolicy policy(*stack.sim, opt);
  const int before = GlobalPool().num_threads();
  for (int lanes : {1, 4}) {
    SetGlobalThreads(lanes);
    policy.Update(batch);  // sizes the scratch at this lane count
    ScopedAllocCounter counter;
    policy.Update(batch);
    g_counting.store(false);
    EXPECT_EQ(counter.count(), 0)
        << "a warm Cma2cPolicy::Update allocated at " << lanes << " lanes";
  }
  SetGlobalThreads(before);
}

// Learn appends the trainer's transitions as rows of the policy's store and,
// once batch_size are in, runs its update passes on that store: a warm
// Learn that fills the batch copies no vector and allocates nothing.
TEST(SimAllocTest, WarmCma2cLearnDoesZeroHeapAllocations) {
  TestStack stack = MakeStack(/*num_taxis=*/300, /*seed=*/77);
  const std::vector<DisplacementPolicy::Transition> batch =
      SyntheticTransitions(*stack.sim, 3500, /*seed=*/41);
  Cma2cPolicy::Options opt;
  opt.actor_warmup_batches = 0;
  Cma2cPolicy policy(*stack.sim, opt);
  const int before = GlobalPool().num_threads();
  for (int lanes : {1, 4}) {
    SetGlobalThreads(lanes);
    policy.Learn(batch);  // sizes the store and scratch at this lane count
    ScopedAllocCounter counter;
    policy.Learn(batch);
    g_counting.store(false);
    EXPECT_EQ(counter.count(), 0)
        << "a warm Cma2cPolicy::Learn allocated at " << lanes << " lanes";
  }
  SetGlobalThreads(before);
}

// DQN's gradient steps at the default minibatch: the sampled rows, batch
// matrices, targets, gradient set and forward workspace are reused. Learn
// with no new transitions runs the steps alone, without a replay insert.
TEST(SimAllocTest, WarmDqnGradientStepsDoZeroHeapAllocations) {
  TestStack stack = MakeStack(/*num_taxis=*/300, /*seed=*/77);
  DqnPolicy::Options opt;
  opt.replay_capacity = 512;
  opt.min_replay = 256;
  DqnPolicy policy(*stack.sim, opt);
  policy.Learn(SyntheticTransitions(*stack.sim, 256, /*seed=*/43));
  const std::vector<DisplacementPolicy::Transition> none;
  const int before = GlobalPool().num_threads();
  for (int lanes : {1, 4}) {
    SetGlobalThreads(lanes);
    policy.Learn(none);  // sizes the scratch at this lane count
    ScopedAllocCounter counter;
    policy.Learn(none);
    g_counting.store(false);
    EXPECT_EQ(counter.count(), 0)
        << "warm DqnPolicy gradient steps allocated at " << lanes << " lanes";
  }
  SetGlobalThreads(before);
}

// Once the replay ring is full, Learn overwrites its oldest rows in place
// and then takes its gradient steps: nothing is allocated.
TEST(SimAllocTest, WarmDqnLearnIntoAFullRingDoesZeroHeapAllocations) {
  TestStack stack = MakeStack(/*num_taxis=*/300, /*seed=*/77);
  DqnPolicy::Options opt;
  opt.replay_capacity = 512;
  opt.min_replay = 256;
  DqnPolicy policy(*stack.sim, opt);
  policy.Learn(SyntheticTransitions(*stack.sim, 600, /*seed=*/43));
  ASSERT_EQ(policy.replay_size(), opt.replay_capacity);
  const std::vector<DisplacementPolicy::Transition> batch =
      SyntheticTransitions(*stack.sim, 300, /*seed=*/44);
  const int before = GlobalPool().num_threads();
  for (int lanes : {1, 4}) {
    SetGlobalThreads(lanes);
    policy.Learn(batch);  // sizes the scratch at this lane count
    ScopedAllocCounter counter;
    policy.Learn(batch);
    g_counting.store(false);
    EXPECT_EQ(counter.count(), 0)
        << "a warm DqnPolicy::Learn into a full ring allocated at " << lanes
        << " lanes";
  }
  SetGlobalThreads(before);
}

// A default TBA update on the paper's 3,500-row batch of TBA's own width:
// the gradient matrix, softmax row and gradient set are reused.
TEST(SimAllocTest, WarmTbaUpdateDoesZeroHeapAllocations) {
  TestStack stack = MakeStack(/*num_taxis=*/300, /*seed=*/77);
  TbaPolicy policy(*stack.sim);
  const TransitionStore batch = RowsOf(
      *stack.sim, policy.feature_dim(),
      SyntheticTransitions(*stack.sim, 3500, /*seed=*/41,
                           policy.feature_dim()));
  const int before = GlobalPool().num_threads();
  for (int lanes : {1, 4}) {
    SetGlobalThreads(lanes);
    policy.Update(batch);  // sizes the scratch at this lane count
    ScopedAllocCounter counter;
    policy.Update(batch);
    g_counting.store(false);
    EXPECT_EQ(counter.count(), 0)
        << "a warm TbaPolicy::Update allocated at " << lanes << " lanes";
  }
  SetGlobalThreads(before);
}

TEST(SimAllocTest, WarmTbaLearnDoesZeroHeapAllocations) {
  TestStack stack = MakeStack(/*num_taxis=*/300, /*seed=*/77);
  TbaPolicy policy(*stack.sim);
  const std::vector<DisplacementPolicy::Transition> batch =
      SyntheticTransitions(*stack.sim, 3500, /*seed=*/41,
                           policy.feature_dim());
  const int before = GlobalPool().num_threads();
  for (int lanes : {1, 4}) {
    SetGlobalThreads(lanes);
    policy.Learn(batch);  // sizes the store and scratch at this lane count
    ScopedAllocCounter counter;
    policy.Learn(batch);
    g_counting.store(false);
    EXPECT_EQ(counter.count(), 0)
        << "a warm TbaPolicy::Learn allocated at " << lanes << " lanes";
  }
  SetGlobalThreads(before);
}

}  // namespace
}  // namespace fairmove
