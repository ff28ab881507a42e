#ifndef FAIRMOVE_COMMON_PARALLEL_H_
#define FAIRMOVE_COMMON_PARALLEL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "fairmove/common/macros.h"

namespace fairmove {

/// Health counters of one pool, polled by the observability layer. Counters
/// only move on the parallel branch of ParallelFor — the exact-serial
/// `num_threads == 1` path stays atomic-free per the determinism contract.
/// Queue-wait numbers are zero unless ThreadPool::SetTimingEnabled(true)
/// (flipped on by telemetry) because taking timestamps per helper task is
/// not free.
struct PoolStats {
  int64_t regions = 0;             // parallel regions executed
  int64_t tasks = 0;               // task indices dispatched to regions
  int64_t queue_wait_ns_total = 0; // enqueue -> helper start latency
  int64_t queue_wait_ns_max = 0;
};

/// Fixed-size worker pool behind every task-parallel layer of the library
/// (the repeated-experiment grid, the evaluator's method fan-out, sharded
/// batched NN inference).
///
/// Determinism is a hard contract, achieved structurally rather than with
/// locks: a parallel region only runs tasks that write to disjoint,
/// task-index-addressed slots, and every reduction happens on the calling
/// thread in ascending task index order after the region completes. Under
/// that discipline any thread count — including the exact-serial
/// `num_threads == 1` path, which never touches a worker or an atomic —
/// produces byte-identical results.
class ThreadPool {
 public:
  /// A pool of total concurrency `num_threads >= 1`: `num_threads - 1`
  /// workers are spawned and the thread inside ParallelFor() acts as the
  /// n-th lane. `num_threads == 1` spawns nothing and runs everything
  /// inline on the caller.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Runs fn(0) ... fn(n-1), each exactly once, returning when all have
  /// finished. Indices are claimed dynamically (the layers above submit
  /// coarse tasks, so claim order does not matter for balance) and the
  /// caller participates, which makes nested ParallelFor from inside a task
  /// deadlock-free even when every worker is busy: the inner caller simply
  /// runs its own indices. If tasks throw, the region still accounts every
  /// index and rethrows the exception of the lowest failing index, so which
  /// error surfaces is as thread-count-independent as every other output.
  void ParallelFor(int64_t n, const std::function<void(int64_t)>& fn);

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
  /// worker threads at task-start time.
  using QueueWaitObserver = void (*)(int64_t wait_ns);
  static void SetQueueWaitObserver(QueueWaitObserver observer);

 private:
  struct ForState;

  void WorkerLoop();
  void RecordQueueWait(int64_t wait_ns);

  const int num_threads_;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool shutdown_ = false;

  std::atomic<int64_t> regions_{0};
  std::atomic<int64_t> tasks_{0};
  std::atomic<int64_t> queue_wait_ns_total_{0};
  std::atomic<int64_t> queue_wait_ns_max_{0};
};

/// Thread count the process-wide pool is sized with: FAIRMOVE_THREADS when
/// set (>= 1; malformed values abort — a typo must not silently serialise
/// an experiment), otherwise std::thread::hardware_concurrency().
int EffectiveThreadCount();

/// Process-wide pool, lazily constructed with EffectiveThreadCount() lanes.
ThreadPool& GlobalPool();

/// Replaces the global pool so subsequent GlobalPool() calls see `n` lanes
/// (1 restores the exact serial path). Joins the previous pool's workers;
/// must not be called while parallel work is in flight. Meant for bench
/// thread sweeps and test setup.
void SetGlobalThreads(int n);

}  // namespace fairmove

#endif  // FAIRMOVE_COMMON_PARALLEL_H_
