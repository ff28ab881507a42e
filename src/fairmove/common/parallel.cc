#include "fairmove/common/parallel.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <limits>
#include <memory>

#include "fairmove/common/config.h"

namespace fairmove {

namespace {

std::atomic<bool> g_pool_timing{false};
std::atomic<ThreadPool::QueueWaitObserver> g_queue_wait_observer{nullptr};

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

void ThreadPool::SetTimingEnabled(bool on) {
  g_pool_timing.store(on, std::memory_order_relaxed);
}

bool ThreadPool::TimingEnabled() {
  return g_pool_timing.load(std::memory_order_relaxed);
}

void ThreadPool::SetQueueWaitObserver(QueueWaitObserver observer) {
  g_queue_wait_observer.store(observer, std::memory_order_release);
}

PoolStats ThreadPool::stats() const {
  PoolStats s;
  s.regions = regions_.load(std::memory_order_relaxed);
  s.tasks = tasks_.load(std::memory_order_relaxed);
  s.queue_wait_ns_total = queue_wait_ns_total_.load(std::memory_order_relaxed);
  s.queue_wait_ns_max = queue_wait_ns_max_.load(std::memory_order_relaxed);
  return s;
}

void ThreadPool::RecordQueueWait(int64_t wait_ns) {
  queue_wait_ns_total_.fetch_add(wait_ns, std::memory_order_relaxed);
  int64_t prev = queue_wait_ns_max_.load(std::memory_order_relaxed);
  while (wait_ns > prev && !queue_wait_ns_max_.compare_exchange_weak(
                               prev, wait_ns, std::memory_order_relaxed)) {
  }
  if (QueueWaitObserver observer =
          g_queue_wait_observer.load(std::memory_order_acquire)) {
    observer(wait_ns);
  }
}

/// Shared state of one ParallelFor region. Lives on the heap behind a
/// shared_ptr because helper tasks may be dequeued after the owning call
/// already returned (they then find the work exhausted and exit without
/// touching `fn`).
struct ThreadPool::ForState {
  ForState(int64_t total, const std::function<void(int64_t)>* f)
      : n(total), fn(f) {}

  const int64_t n;
  /// Owned by the caller's frame; dangles once ParallelFor returns. Only
  /// dereferenced after a successful index claim, which is impossible once
  /// all indices are claimed — and ParallelFor only returns after all
  /// claimed indices are done.
  const std::function<void(int64_t)>* const fn;
  std::atomic<int64_t> next{0};
  std::atomic<int64_t> done{0};
  std::mutex mu;
  std::condition_variable cv;
  int64_t error_index = std::numeric_limits<int64_t>::max();
  std::exception_ptr error;

  /// Claims and runs indices until none are left.
  void RunChunks() {
    for (;;) {
      const int64_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        (*fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
      }
      // acq_rel so the caller's acquire read of `done` publishes every
      // task's writes to its output slot.
      if (done.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
      }
    }
  }
};

ThreadPool::ThreadPool(int num_threads) : num_threads_(num_threads) {
  FM_CHECK(num_threads >= 1) << "ThreadPool needs >= 1 thread";
  workers_.reserve(static_cast<size_t>(num_threads - 1));
  for (int i = 0; i + 1 < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown requested and queue drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelFor(int64_t n,
                             const std::function<void(int64_t)>& fn) {
  if (n <= 0) return;
  if (num_threads_ == 1 || n == 1) {
    // Exact serial path: no shared state, no workers, no atomics.
    for (int64_t i = 0; i < n; ++i) fn(i);
    return;
  }
  regions_.fetch_add(1, std::memory_order_relaxed);
  tasks_.fetch_add(n, std::memory_order_relaxed);
  auto state = std::make_shared<ForState>(n, &fn);
  // At most n - 1 helpers; the caller is the remaining lane. Helpers that
  // run after the work is exhausted claim nothing and exit immediately.
  const int64_t helpers = std::min<int64_t>(num_threads_ - 1, n - 1);
  const bool timing = TimingEnabled();
  const int64_t enqueue_ns = timing ? NowNs() : 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (int64_t h = 0; h < helpers; ++h) {
      if (timing) {
        queue_.emplace_back([this, state, enqueue_ns] {
          RecordQueueWait(NowNs() - enqueue_ns);
          state->RunChunks();
        });
      } else {
        queue_.emplace_back([state] { state->RunChunks(); });
      }
    }
  }
  cv_.notify_all();
  state->RunChunks();
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] {
    return state->done.load(std::memory_order_acquire) == n;
  });
  if (state->error) std::rethrow_exception(state->error);
}

int EffectiveThreadCount() {
  static const int count = [] {
    if (const char* v = std::getenv("FAIRMOVE_THREADS")) {
      const StatusOr<int64_t> parsed = ParseInt(v);
      FM_CHECK(parsed.ok() && *parsed >= 1 && *parsed <= 4096)
          << "FAIRMOVE_THREADS must be an integer in [1, 4096], got '" << v
          << "'";
      return static_cast<int>(*parsed);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }();
  return count;
}

namespace {

/// The global pool is leaked on purpose: joining worker threads during
/// static destruction is undefined territory (objects the workers could
/// still observe may already be destroyed).
ThreadPool* g_pool = nullptr;
std::mutex g_pool_mu;

}  // namespace

ThreadPool& GlobalPool() {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (g_pool == nullptr) g_pool = new ThreadPool(EffectiveThreadCount());
  return *g_pool;
}

void SetGlobalThreads(int n) {
  FM_CHECK(n >= 1) << "SetGlobalThreads(" << n << ")";
  std::lock_guard<std::mutex> lock(g_pool_mu);
  delete g_pool;  // joins the previous pool's workers
  g_pool = new ThreadPool(n);
}

}  // namespace fairmove
