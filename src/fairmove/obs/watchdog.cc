#include "fairmove/obs/watchdog.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "fairmove/common/config.h"
#include "fairmove/common/macros.h"
#include "fairmove/obs/flight_recorder.h"
#include "fairmove/obs/jsonl.h"
#include "fairmove/obs/metrics.h"
#include "fairmove/obs/telemetry.h"

namespace fairmove {

namespace {

constexpr int64_t kMinBudgetMs = 100;
constexpr int64_t kMaxBudgetMs = 3600000;

std::atomic<uint64_t> g_heartbeats{0};
std::atomic<int64_t> g_stalls{0};

std::mutex g_watchdog_mu;
std::condition_variable g_watchdog_cv;
bool g_stop_requested = false;
bool g_running = false;
// Heap-allocated (joined and freed by Stop, which is wired to atexit): a
// static std::thread still joinable at static destruction terminates the
// process, and nothing forces a bench to call Stop before returning.
std::thread* g_monitor = nullptr;
int64_t g_budget_ms = 0;
std::string* g_dump_dir = nullptr;  // leaked; read only by the monitor

void EmitStall(uint64_t heartbeats, int64_t quiet_ms) {
  g_stalls.fetch_add(1, std::memory_order_acq_rel);
  Metrics().Count("obs/stall");
  FM_FLIGHT_EVENT("obs.stall", 0, quiet_ms);
  std::string dump_path;
  if (g_dump_dir != nullptr && !g_dump_dir->empty()) {
    dump_path = *g_dump_dir + "/flight_stall.fmfr";
    (void)FlightRecorder::DumpToFile(dump_path);
  }
  JsonObject row;
  row.Set("kind", "stall")
      .Set("budget_ms", g_budget_ms)
      .Set("quiet_ms", quiet_ms)
      .Set("heartbeats", static_cast<int64_t>(heartbeats))
      .Set("flight_dump", dump_path);
  const std::string line = row.Str();
  std::fprintf(stderr, "%s\n", line.c_str());
  std::fflush(stderr);
  Telemetry& telemetry = Telemetry::Get();
  if (telemetry.enabled()) telemetry.sim_stream().WriteLine(line);
}

void MonitorLoop() {
  using Clock = std::chrono::steady_clock;
  // Poll at a quarter of the budget so detection latency stays within
  // ~1.25x the budget without burning CPU on tight loops.
  const auto poll = std::chrono::milliseconds(std::max<int64_t>(
      g_budget_ms / 4, 10));
  uint64_t last_seen = g_heartbeats.load(std::memory_order_acquire);
  Clock::time_point last_progress = Clock::now();
  bool reported = false;
  std::unique_lock<std::mutex> lock(g_watchdog_mu);
  while (!g_stop_requested) {
    if (g_watchdog_cv.wait_for(lock, poll,
                               [] { return g_stop_requested; })) {
      break;
    }
    const uint64_t now_beats = g_heartbeats.load(std::memory_order_acquire);
    const Clock::time_point now = Clock::now();
    if (now_beats != last_seen) {
      last_seen = now_beats;
      last_progress = now;
      reported = false;  // progress resumed: re-arm
      continue;
    }
    const int64_t quiet_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            now - last_progress)
            .count();
    if (!reported && quiet_ms >= g_budget_ms) {
      reported = true;
      lock.unlock();
      EmitStall(now_beats, quiet_ms);
      lock.lock();
    }
  }
}

}  // namespace

StatusOr<int64_t> ParseStallBudget(const char* value) {
  if (value == nullptr) return 0;
  const StatusOr<int64_t> parsed = ParseInt(value);
  if (!parsed.ok() || *parsed < kMinBudgetMs || *parsed > kMaxBudgetMs) {
    return Status::InvalidArgument(
        "FAIRMOVE_STALL_MS must be an integer in [" +
        std::to_string(kMinBudgetMs) + ", " + std::to_string(kMaxBudgetMs) +
        "], got '" + value + "'");
  }
  return *parsed;
}

void StallWatchdog::StartFromEnv(const std::string& dump_dir) {
  const StatusOr<int64_t> budget =
      ParseStallBudget(std::getenv("FAIRMOVE_STALL_MS"));
  FM_CHECK(budget.ok()) << budget.status().ToString();
  if (*budget != 0) Start(*budget, dump_dir);
}

void StallWatchdog::Start(int64_t budget_ms, const std::string& dump_dir) {
  FM_CHECK(budget_ms >= kMinBudgetMs && budget_ms <= kMaxBudgetMs)
      << "stall budget " << budget_ms << "ms out of range";
  std::lock_guard<std::mutex> lock(g_watchdog_mu);
  if (g_running) return;
  g_budget_ms = budget_ms;
  if (g_dump_dir == nullptr) g_dump_dir = new std::string();
  *g_dump_dir = dump_dir;
  g_stop_requested = false;
  g_running = true;
  g_monitor = new std::thread(&MonitorLoop);
  static const bool atexit_armed = [] {
    std::atexit([] { StallWatchdog::Stop(); });
    return true;
  }();
  (void)atexit_armed;
}

void StallWatchdog::Stop() {
  std::thread* to_join = nullptr;
  {
    std::lock_guard<std::mutex> lock(g_watchdog_mu);
    if (!g_running) return;
    g_stop_requested = true;
    g_running = false;
    to_join = g_monitor;
    g_monitor = nullptr;
  }
  g_watchdog_cv.notify_all();
  if (to_join != nullptr) {
    if (to_join->joinable()) to_join->join();
    delete to_join;
  }
}

bool StallWatchdog::running() {
  std::lock_guard<std::mutex> lock(g_watchdog_mu);
  return g_running;
}

void StallWatchdog::Heartbeat() {
  g_heartbeats.fetch_add(1, std::memory_order_relaxed);
}

int64_t StallWatchdog::stall_count() {
  return g_stalls.load(std::memory_order_acquire);
}

}  // namespace fairmove
