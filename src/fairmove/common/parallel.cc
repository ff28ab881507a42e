#include "fairmove/common/parallel.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <limits>
#include <string>

#include "fairmove/common/config.h"

namespace fairmove {

namespace {

std::atomic<bool> g_pool_timing{false};
int64_t g_fork_threshold_ns = kForkThresholdNs;
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

int64_t ThreadPool::ForkThresholdNs() { return g_fork_threshold_ns; }

ScopedForkThresholdForTesting::ScopedForkThresholdForTesting(
    int64_t threshold_ns)
    : previous_(g_fork_threshold_ns) {
  g_fork_threshold_ns = threshold_ns;
}

ScopedForkThresholdForTesting::~ScopedForkThresholdForTesting() {
  g_fork_threshold_ns = previous_;
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

/// One ParallelFor call, on its caller's stack. A shared region is linked
/// into the pool's open list; the caller unlinks it and waits until no
/// worker is inside before returning, so no worker touches it afterwards.
struct ThreadPool::Region {
  Region(Body b, const void* f, int64_t count) : body(b), fn(f), n(count) {}

  const Body body;
  const void* const fn;
  const int64_t n;
  std::atomic<int64_t> next{0};  // next unclaimed index
  // Guarded by the pool's mu_ (linked_ns is set before linking).
  Region* next_open = nullptr;
  int helpers = 0;               // workers inside the region
  int64_t linked_ns = 0;         // link time while timing is enabled, else 0
  std::condition_variable left;  // with mu_: the caller awaits helpers == 0
  std::mutex error_mu;
  int64_t error_index = std::numeric_limits<int64_t>::max();
  std::exception_ptr error;  // of error_index, guarded by error_mu

  /// Runs the claimed index `i`, then claims and runs indices until none
  /// are left; the one loop every lane runs. A throwing index does not stop
  /// the loop: every index runs, and the lowest failing index's exception
  /// is kept.
  void RunFrom(int64_t i) {
    for (; i < n; i = next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        body(fn, i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (i < error_index) {
          error_index = i;
          error = std::current_exception();
        }
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
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    // A worker joins a region only by claiming an index of it under mu_,
    // so a caller never waits for a worker that came after the last claim.
    Region* region = nullptr;
    int64_t first = 0;
    work_cv_.wait(lock, [&] {
      for (region = open_; region != nullptr; region = region->next_open) {
        first = region->next.fetch_add(1, std::memory_order_relaxed);
        if (first < region->n) return true;
      }
      return shutdown_;
    });
    if (region == nullptr) return;  // shut down, nothing left open
    ++region->helpers;
    lock.unlock();
    if (region->linked_ns != 0) RecordQueueWait(NowNs() - region->linked_ns);
    region->RunFrom(first);
    lock.lock();
    // Under mu_: once the caller sees zero helpers, `region` is gone.
    if (--region->helpers == 0) region->left.notify_one();
  }
}

void ThreadPool::Run(int64_t n, bool share, Body body, const void* fn) {
  if (n <= 0) return;
  Region region(body, fn, n);
  const bool shared = share && num_threads_ > 1 && n > 1;
  if (shared) {
    regions_.fetch_add(1, std::memory_order_relaxed);
    tasks_.fetch_add(n, std::memory_order_relaxed);
    region.linked_ns = TimingEnabled() ? NowNs() : 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      region.next_open = open_;
      open_ = &region;
    }
    work_cv_.notify_all();
  }
  region.RunFrom(region.next.fetch_add(1, std::memory_order_relaxed));
  if (shared) {
    std::unique_lock<std::mutex> lock(mu_);
    Region** link = &open_;
    while (*link != &region) link = &(*link)->next_open;
    *link = region.next_open;
    region.left.wait(lock, [&] { return region.helpers == 0; });
  }
  if (region.error) std::rethrow_exception(region.error);
}

StatusOr<int> ParseThreadCount(const char* value) {
  if (value == nullptr) return 0;
  const StatusOr<int64_t> parsed = ParseInt(value);
  if (!parsed.ok() || *parsed < 1 || *parsed > 4096) {
    return Status::InvalidArgument(
        std::string("FAIRMOVE_THREADS must be an integer in [1, 4096], got '") +
        value + "'");
  }
  return static_cast<int>(*parsed);
}

int EffectiveThreadCount() {
  static const int count = [] {
    const StatusOr<int> threads =
        ParseThreadCount(std::getenv("FAIRMOVE_THREADS"));
    FM_CHECK(threads.ok()) << threads.status().ToString();
    if (*threads != 0) return *threads;
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
