// Tests for the deterministic task-parallel execution layer: the ThreadPool
// primitive itself, and the bit-identity contract of every layer wired on
// top of it (sharded Mlp::Forward, the evaluator's method fan-out, the
// repeated-comparison grid). Carries the `parallel` ctest label so the
// whole file can be run under TSan with `ctest -L parallel`.

#include "fairmove/common/parallel.h"

#include <atomic>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "fairmove/core/experiment.h"
#include "fairmove/core/fairmove.h"
#include "fairmove/nn/mlp.h"

namespace fairmove {
namespace {

// ------------------------------------------------------------ ThreadPool --

TEST(ThreadPoolTest, ParallelForRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr int64_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) h.store(0);
  pool.ParallelFor(kN, [&](int64_t i) { hits[i].fetch_add(1); });
  for (int64_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, SerialPoolRunsInlineOnCaller) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  int order_check = 0;
  pool.ParallelFor(8, [&](int64_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    // Inline execution implies ascending order too.
    EXPECT_EQ(order_check, i);
    ++order_check;
  });
  EXPECT_EQ(order_check, 8);
}

TEST(ThreadPoolTest, EmptyAndSingleRegionsAreNoOpsAndInline) {
  ThreadPool pool(4);
  int runs = 0;
  pool.ParallelFor(0, [&](int64_t) { ++runs; });
  EXPECT_EQ(runs, 0);
  const std::thread::id caller = std::this_thread::get_id();
  pool.ParallelFor(1, [&](int64_t i) {
    EXPECT_EQ(i, 0);
    EXPECT_EQ(std::this_thread::get_id(), caller);  // n==1 short-circuits
    ++runs;
  });
  EXPECT_EQ(runs, 1);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);  // fewer lanes than outer tasks forces nesting stress
  std::atomic<int> total{0};
  pool.ParallelFor(4, [&](int64_t) {
    pool.ParallelFor(8, [&](int64_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 32);
}

// The error contract holds at every lane count, for a top-level region and
// for regions nested inside a 2-task region (one per outer task).
constexpr int kPoolSizes[] = {1, 2, 4};

// A 16-index region whose indices 3 and 7 throw; returns what() of the
// exception it rethrew.
std::string LowestFailureOf(ThreadPool& pool) {
  try {
    pool.ParallelFor(16, [](int64_t i) {
      if (i == 3) throw std::runtime_error("boom-3");
      if (i == 7) throw std::runtime_error("boom-7");
    });
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "no exception";
}

TEST(ThreadPoolTest, RethrowsLowestIndexException) {
  for (int lanes : kPoolSizes) {
    ThreadPool pool(lanes);
    // Index 3's exception surfaces regardless of completion timing.
    for (int attempt = 0; attempt < 20; ++attempt) {
      EXPECT_EQ(LowestFailureOf(pool), "boom-3") << lanes << " lanes";
    }
    std::string nested[2];
    pool.ParallelFor(2, [&](int64_t k) { nested[k] = LowestFailureOf(pool); });
    EXPECT_EQ(nested[0], "boom-3") << lanes << " lanes, nested";
    EXPECT_EQ(nested[1], "boom-3") << lanes << " lanes, nested";
  }
}

// A 64-index region whose even indices throw std::logic_error; returns how
// many indices ran, or -1 if it did not rethrow.
int IndicesRunDespiteThrows(ThreadPool& pool) {
  std::atomic<int> ran{0};
  try {
    pool.ParallelFor(64, [&](int64_t i) {
      ran.fetch_add(1);
      if (i % 2 == 0) throw std::logic_error("x");
    });
  } catch (const std::logic_error&) {
    return ran.load();
  }
  return -1;
}

TEST(ThreadPoolTest, ExceptionRegionStillAccountsEveryIndex) {
  for (int lanes : kPoolSizes) {
    ThreadPool pool(lanes);
    // No index abandoned mid-region, whatever the lane count.
    EXPECT_EQ(IndicesRunDespiteThrows(pool), 64) << lanes << " lanes";
    int nested[2] = {0, 0};
    pool.ParallelFor(2, [&](int64_t k) {
      nested[k] = IndicesRunDespiteThrows(pool);
    });
    EXPECT_EQ(nested[0], 64) << lanes << " lanes, nested";
    EXPECT_EQ(nested[1], 64) << lanes << " lanes, nested";
  }
}

// Two threads outside the pool open top-level regions on it at once, so the
// open-region list holds both; each region must still run every index once.
TEST(ThreadPoolTest, ConcurrentCallersEachRunEveryIndex) {
  ThreadPool pool(4);
  constexpr int64_t kN = 1000;
  constexpr int kCalls = 50;
  auto call_repeatedly = [&pool](int64_t* miscounts) {
    std::vector<std::atomic<int>> hits(kN);
    for (int call = 0; call < kCalls; ++call) {
      for (auto& h : hits) h.store(0);
      pool.ParallelFor(kN, [&](int64_t i) { hits[i].fetch_add(1); });
      for (const auto& h : hits) *miscounts += h.load() != 1;
    }
  };
  int64_t miscounts_a = 0;
  int64_t miscounts_b = 0;
  std::thread a(call_repeatedly, &miscounts_a);
  std::thread b(call_repeatedly, &miscounts_b);
  a.join();
  b.join();
  EXPECT_EQ(miscounts_a, 0);
  EXPECT_EQ(miscounts_b, 0);
}

// The cost rule: below the threshold a region runs on its caller in
// ascending order and the pool's counters stay put; at it, or under a
// lowered test threshold, the region is shared.
TEST(ThreadPoolTest, RegionBelowTheForkThresholdRunsInline) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  int next = 0;
  pool.ParallelFor(8, kForkThresholdNs - 1, [&](int64_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(next, i);
    ++next;
  });
  EXPECT_EQ(next, 8);
  EXPECT_EQ(pool.stats().regions, 0);
  pool.ParallelFor(8, kForkThresholdNs, [](int64_t) {});
  EXPECT_EQ(pool.stats().regions, 1);
  {
    ScopedForkThresholdForTesting fork_everything(0);
    pool.ParallelFor(8, 0, [](int64_t) {});
  }
  EXPECT_EQ(pool.stats().regions, 2);
  pool.ParallelFor(8, 0, [](int64_t) {});  // the threshold is back
  EXPECT_EQ(pool.stats().regions, 2);
}

TEST(ThreadPoolTest, SetGlobalThreadsSwapsThePool) {
  const int before = GlobalPool().num_threads();
  SetGlobalThreads(3);
  EXPECT_EQ(GlobalPool().num_threads(), 3);
  std::atomic<int> n{0};
  GlobalPool().ParallelFor(100, [&](int64_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 100);
  SetGlobalThreads(before);
  EXPECT_EQ(GlobalPool().num_threads(), before);
}

// ------------------------------------------------- sharded Mlp::Forward --

// Byte-compares two matrices (bit-identity, not approximate equality).
void ExpectBitIdentical(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
}

TEST(ShardedForwardTest, BitIdenticalToSerialAcrossPoolSizes) {
  Mlp net({12, 32, 32, 7}, Activation::kTanh, /*seed=*/99);
  // 513 rows: large enough to shard, and deliberately not a multiple of
  // any pool size below (exercises the uneven remainder split).
  Matrix x(513, 12);
  Rng rng(1234);
  for (int i = 0; i < x.rows(); ++i) {
    for (int j = 0; j < x.cols(); ++j) {
      x.At(i, j) = static_cast<float>(rng.Gaussian(0.0, 2.0));
    }
  }
  Matrix serial;
  Mlp::Workspace ws;
  net.Forward(x, &serial, &ws);

  for (int threads : {1, 2, 3, 8}) {
    ThreadPool pool(threads);
    Mlp::ShardedWorkspace sws;
    Matrix sharded;
    net.Forward(x, &sharded, &pool, &sws);
    ExpectBitIdentical(serial, sharded);
    // Warm-workspace second pass must agree too (buffer reuse path).
    net.Forward(x, &sharded, &pool, &sws);
    ExpectBitIdentical(serial, sharded);
  }
}

TEST(ShardedForwardTest, SmallBatchFallsBackToOneShard) {
  Mlp net({6, 16, 3}, Activation::kRelu, /*seed=*/5);
  Matrix x(10, 6);  // below the per-shard row floor
  for (int i = 0; i < x.rows(); ++i) {
    for (int j = 0; j < x.cols(); ++j) x.At(i, j) = 0.1f * (i - j);
  }
  Matrix serial;
  net.Forward(x, &serial);
  ThreadPool pool(8);
  Mlp::ShardedWorkspace sws;
  Matrix sharded;
  net.Forward(x, &sharded, &pool, &sws);
  ExpectBitIdentical(serial, sharded);
}

// ----------------------------------------------- evaluator method fan-out --

// Run()'s replica fan-out must reproduce, bit for bit, the same methods
// trained and evaluated one after another on one shared simulator
// (MethodResult comparisons go through the derived comparison metrics,
// which are doubles — EQ, not NEAR, on purpose).
TEST(ParallelEvaluatorTest, ReplicaRunMatchesSharedSimulatorRun) {
  // The replicas' phases are below the cost rule; a lowered threshold keeps
  // them forking inside the fan-out's tasks.
  ScopedForkThresholdForTesting fork_every_phase(0);
  const FairMoveConfig cfg = FairMoveConfig::FullShenzhen().Scaled(0.03);
  const std::vector<PolicyKind> kinds = {PolicyKind::kGroundTruth,
                                         PolicyKind::kSd2,
                                         PolicyKind::kFairMove};

  auto system_a = std::move(FairMoveSystem::Create(cfg)).value();
  Evaluator serial = system_a->MakeEvaluator();
  std::vector<MethodResult> want = {serial.RunGroundTruth()};
  const FleetMetrics gt_metrics = want[0].metrics;
  for (size_t i = 1; i < kinds.size(); ++i) {  // kinds[0] is GT
    auto policy = MakePolicy(kinds[i], system_a->sim(), 7000);
    want.push_back(serial.RunOne(policy.get(), gt_metrics));  // shared sim
  }

  SetGlobalThreads(4);
  auto system_b = std::move(FairMoveSystem::Create(cfg)).value();
  const std::vector<MethodResult> got = system_b->RunComparison(kinds);
  SetGlobalThreads(1);

  ASSERT_EQ(want.size(), got.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].name, got[i].name);
    EXPECT_EQ(want[i].vs_gt.pipe, got[i].vs_gt.pipe) << want[i].name;
    EXPECT_EQ(want[i].vs_gt.pipf, got[i].vs_gt.pipf) << want[i].name;
    EXPECT_EQ(want[i].vs_gt.prct, got[i].vs_gt.prct) << want[i].name;
    EXPECT_EQ(want[i].vs_gt.prit, got[i].vs_gt.prit) << want[i].name;
    EXPECT_EQ(want[i].metrics.pf, got[i].metrics.pf) << want[i].name;
    EXPECT_EQ(want[i].metrics.pe.Mean(), got[i].metrics.pe.Mean())
        << want[i].name;
  }
}

// ------------------------------------------- repeated-comparison grid --

// The flagship determinism check of the issue: the full comparison table at
// FAIRMOVE_THREADS=1 vs 4 compares byte-identical.
TEST(ParallelExperimentTest, RepeatedComparisonTableIsThreadCountInvariant) {
  ScopedForkThresholdForTesting fork_every_phase(0);  // as above
  FairMoveConfig cfg = FairMoveConfig::FullShenzhen().Scaled(0.03);
  cfg.trainer.episodes = 1;
  cfg.eval.days = 1;
  const std::vector<PolicyKind> kinds = {
      PolicyKind::kGroundTruth, PolicyKind::kSd2, PolicyKind::kFairMove};

  SetGlobalThreads(1);
  auto serial_or = RunRepeatedComparison(cfg, kinds, /*repeats=*/2);
  ASSERT_TRUE(serial_or.ok()) << serial_or.status();

  SetGlobalThreads(4);
  auto parallel_or = RunRepeatedComparison(cfg, kinds, /*repeats=*/2);
  SetGlobalThreads(1);
  ASSERT_TRUE(parallel_or.ok()) << parallel_or.status();

  const RepeatedComparison& a = serial_or.value();
  const RepeatedComparison& b = parallel_or.value();
  EXPECT_EQ(a.ToTable().ToCsv(), b.ToTable().ToCsv());  // byte-identical
  ASSERT_EQ(a.methods.size(), b.methods.size());
  for (size_t i = 0; i < a.methods.size(); ++i) {
    // Beyond the rendered table: the raw accumulators agree exactly.
    EXPECT_EQ(a.methods[i].pipe.mean(), b.methods[i].pipe.mean());
    EXPECT_EQ(a.methods[i].pipe.variance(), b.methods[i].pipe.variance());
    EXPECT_EQ(a.methods[i].pe_mean.mean(), b.methods[i].pe_mean.mean());
    EXPECT_EQ(a.methods[i].service_rate.mean(),
              b.methods[i].service_rate.mean());
  }
}

}  // namespace
}  // namespace fairmove
