#ifndef FAIRMOVE_COMMON_PARALLEL_H_
#define FAIRMOVE_COMMON_PARALLEL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "fairmove/common/macros.h"
#include "fairmove/common/status.h"

namespace fairmove {

/// The cost rule of the library's sharded layers (DESIGN.md §7). Sharing a
/// region costs its caller a hand-off: linking it, waking sleeping workers,
/// waiting for the last of them, and the shards' data moving into other
/// cores' caches. An empty region shows only the first part (about 1 µs of
/// real time at 4 lanes, BM_ParallelForEmpty); the BM_SimulatorStepGt sweep
/// shows all of it: at 4 lanes a sharded phase breaks even at about 20 µs
/// of one-lane work (5,032 taxis) and wins at about 40 µs (10,065 taxis).
/// A region offered under the rule is shared only when its estimated
/// one-lane work reaches this many nanoseconds; below it the region runs
/// inline on its caller.
inline constexpr int64_t kForkThresholdNs = 30'000;

/// Health counters of one pool, polled by the observability layer. They
/// count shared regions only: a region is shared when the pool has more
/// than one lane, the region more than one index, and the cost rule (if the
/// caller applied it) passes, so a one-lane pool never moves them.
/// Queue-wait numbers are zero unless ThreadPool::SetTimingEnabled(true)
/// (flipped on by telemetry) because taking a timestamp per worker join is
/// not free.
struct PoolStats {
  int64_t regions = 0;             // shared regions executed
  int64_t tasks = 0;               // indices of those regions
  int64_t queue_wait_ns_total = 0; // region linked -> a worker joins it
  int64_t queue_wait_ns_max = 0;
};

/// Fixed-size worker pool behind every task-parallel layer of the library
/// (the simulator's region shards, the evaluator's method fan-out, the
/// replica grid, sharded batched NN inference).
///
/// The pool schedules regions, not queued closures. Each ParallelFor call
/// is one region on its caller's stack; a shared region is also linked
/// into the pool's list of open regions, and idle workers join any open
/// region that still has unclaimed indices. Nothing is heap-allocated per
/// region, so a warm Simulator::Step stays allocation-free at any lane
/// count (pinned by sim_alloc_test).
///
/// Determinism is a hard contract, achieved structurally rather than with
/// locks: a parallel region only runs tasks that write to disjoint,
/// task-index-addressed slots, and every reduction happens on the calling
/// thread in ascending task index order after the region completes. Under
/// that discipline any thread count produces byte-identical results.
class ThreadPool {
 public:
  /// A pool of total concurrency `num_threads >= 1`: `num_threads - 1`
  /// workers are spawned and the thread inside ParallelFor() acts as the
  /// n-th lane. `num_threads == 1` spawns nothing: every region runs on
  /// its caller, in ascending index order.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Runs fn(0) ... fn(n-1), each exactly once, returning when all have
  /// finished. `fn` is called through a const reference from several
  /// threads at once and is never copied. Every lane, the caller included,
  /// claims indices with the same loop at every lane count; claims are
  /// dynamic (the layers above submit coarse tasks, so claim order does
  /// not matter for balance). Because the caller claims whatever nobody
  /// else does, a nested ParallelFor from inside a task cannot deadlock
  /// even when every worker is busy, and workers that run out of work join
  /// nested and concurrent regions still open. If tasks throw, every index
  /// still runs and the exception of the lowest failing index is rethrown,
  /// so which error surfaces is as lane-count-independent as every other
  /// output.
  template <typename Fn>
  void ParallelFor(int64_t n, Fn&& fn) {
    Run(n, /*share=*/true, Erase<Fn>, &fn);
  }

  /// ParallelFor under the cost rule: `work_ns` is the caller's estimate of
  /// the whole region's one-lane cost. Below kForkThresholdNs the region
  /// runs inline on its caller in ascending index order, exactly as on a
  /// one-lane pool, and the pool's counters do not move. The two-argument
  /// form always offers the region: the evaluator and the replica grid use
  /// it for whole training runs, and Mlp for row shards its own
  /// 64-rows-per-shard rule already sized.
  template <typename Fn>
  void ParallelFor(int64_t n, int64_t work_ns, Fn&& fn) {
    Run(n, work_ns >= ForkThresholdNs(), Erase<Fn>, &fn);
  }

  /// Snapshot of this pool's health counters (observational only).
  PoolStats stats() const;

  /// Process-wide gate for queue-wait timestamping. Off by default; the
  /// telemetry layer turns it on so latency is only measured when someone
  /// will read it.
  static void SetTimingEnabled(bool on);
  static bool TimingEnabled();

  /// Optional per-sample tap on the queue-wait measurements (only fired
  /// while timing is enabled). The observability layer installs a callback
  /// that feeds its live latency histograms; common/ stays free of any
  /// dependency on obs/. The callback must be lock-free-cheap — it runs on
  /// worker threads as they join a region.
  using QueueWaitObserver = void (*)(int64_t wait_ns);
  static void SetQueueWaitObserver(QueueWaitObserver observer);

 private:
  struct Region;
  using Body = void (*)(const void* fn, int64_t i);

  template <typename F>
  static void Erase(const void* f, int64_t i) {
    (*static_cast<const std::remove_reference_t<F>*>(f))(i);
  }
  /// kForkThresholdNs, or a test's override of it.
  static int64_t ForkThresholdNs();

  void Run(int64_t n, bool share, Body body, const void* fn);
  void WorkerLoop();
  void RecordQueueWait(int64_t wait_ns);

  const int num_threads_;
  std::mutex mu_;
  /// Idle workers sleep here until a region opens or the pool shuts down.
  std::condition_variable work_cv_;
  Region* open_ = nullptr;  // open-region list head, guarded by mu_
  bool shutdown_ = false;   // guarded by mu_

  std::atomic<int64_t> regions_{0};
  std::atomic<int64_t> tasks_{0};
  std::atomic<int64_t> queue_wait_ns_total_{0};
  std::atomic<int64_t> queue_wait_ns_max_{0};

  std::vector<std::thread> workers_;
};

/// Test-only hook: makes `threshold_ns` the cost rule's threshold until
/// destruction, so a test can drive a small city through the concurrent
/// shard path (0 shares every region the rule is asked about). No region
/// may be open while one is created or destroyed.
class ScopedForkThresholdForTesting {
 public:
  explicit ScopedForkThresholdForTesting(int64_t threshold_ns);
  ~ScopedForkThresholdForTesting();
  ScopedForkThresholdForTesting(const ScopedForkThresholdForTesting&) =
      delete;
  ScopedForkThresholdForTesting& operator=(
      const ScopedForkThresholdForTesting&) = delete;

 private:
  int64_t previous_;
};

/// Parses a FAIRMOVE_THREADS value: an integer in [1, 4096], or 0 when
/// `value` is null (unset). Empty and malformed values are InvalidArgument.
StatusOr<int> ParseThreadCount(const char* value);

/// Thread count the process-wide pool is sized with: FAIRMOVE_THREADS when
/// set (a value ParseThreadCount refuses aborts — a typo must not silently
/// serialise an experiment), otherwise std::thread::hardware_concurrency().
int EffectiveThreadCount();

/// Process-wide pool, lazily constructed with EffectiveThreadCount() lanes.
ThreadPool& GlobalPool();

/// Replaces the global pool so subsequent GlobalPool() calls see `n` lanes
/// (1 runs every region serially on its caller). Joins the previous pool's
/// workers; must not be called while parallel work is in flight. Meant for
/// bench thread sweeps and test setup.
void SetGlobalThreads(int n);

}  // namespace fairmove

#endif  // FAIRMOVE_COMMON_PARALLEL_H_
