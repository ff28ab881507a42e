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

namespace fairmove {

/// Health counters of one pool, polled by the observability layer. They
/// count shared regions only: a region is shared when the pool has more
/// than one lane and the region more than one index, so a one-lane pool
/// never moves them. Queue-wait numbers are zero unless
/// ThreadPool::SetTimingEnabled(true) (flipped on by telemetry) because
/// taking a timestamp per worker join is not free.
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
    using F = std::remove_reference_t<Fn>;
    Run(n, [](const void* f, int64_t i) { (*static_cast<const F*>(f))(i); },
        &fn);
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

  void Run(int64_t n, Body body, const void* fn);
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

/// Thread count the process-wide pool is sized with: FAIRMOVE_THREADS when
/// set (>= 1; malformed values abort — a typo must not silently serialise
/// an experiment), otherwise std::thread::hardware_concurrency().
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
