#ifndef FAIRMOVE_OBS_LATENCY_H_
#define FAIRMOVE_OBS_LATENCY_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace fairmove {

/// HDR-style log-bucketed histogram over non-negative int64 values
/// (nanoseconds in practice). Values below 2^kSubBits land in exact unit
/// buckets; above that each power-of-two octave is split into 2^kSubBits
/// geometric sub-buckets, giving a worst-case relative quantile error of
/// 2^-kSubBits (~6%) across the full ns→days range with ~1 KiB of
/// counters. Record() is wait-free: one relaxed fetch_add per bucket plus
/// count/sum — writers never contend on a lock, and concurrent snapshots
/// are merely slightly stale.
class LogHistogram {
 public:
  static constexpr int kSubBits = 4;
  /// 16 exact unit buckets + 59 octaves (msb 4..62) x 16 sub-buckets.
  static constexpr int kNumBuckets = (1 << kSubBits) * 60;

  /// Bucket holding `v` (negative values clamp to bucket 0).
  static int BucketIndex(int64_t v);
  /// Smallest value mapping to `index`.
  static int64_t BucketLowerBound(int index);
  /// Smallest value mapping to `index + 1` (exclusive upper edge).
  static int64_t BucketUpperBound(int index);

  void Record(int64_t v);
  void Clear();

  /// Plain (non-atomic) copy of one histogram's state at a point in time.
  struct Snapshot {
    int64_t count = 0;
    int64_t sum = 0;
    int64_t max = 0;
    std::vector<int64_t> buckets;  // kNumBuckets entries

    void MergeFrom(const Snapshot& other);
    /// Linear interpolation inside the geometric bucket holding the q-th
    /// observation; 0 when empty. Deterministic for fixed bucket counts.
    int64_t Quantile(double q) const;
    double mean() const {
      return count > 0 ? static_cast<double>(sum) / count : 0.0;
    }
  };
  Snapshot TakeSnapshot() const;

 private:
  std::atomic<int64_t> buckets_[kNumBuckets] = {};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> max_{0};
};

/// One named latency stream: a cumulative histogram plus a ring of
/// kWindowSlots epoch histograms for sliding-window tail latency. Writers
/// record into the cumulative histogram and the current epoch slot; the
/// exporter rotates epochs by clearing the NEXT slot before advancing the
/// epoch index, so a concurrent writer can only ever land in the outgoing
/// or incoming slot — never in one being read as a completed window.
/// Created through LatencyRegistry::Get; instances live forever.
class LatencyRecorder {
 public:
  static constexpr int kWindowSlots = 8;

  explicit LatencyRecorder(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  void Record(int64_t ns);

  /// Closes the current epoch and opens the next (exporter tick). Returns
  /// the id of the newly current epoch. Single advancing caller assumed.
  uint64_t AdvanceEpoch();

  uint64_t current_epoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Snapshot of everything recorded since process start.
  LogHistogram::Snapshot Cumulative() const { return cumulative_.TakeSnapshot(); }

  /// Merged snapshot of the last `windows` COMPLETED epochs (capped at
  /// kWindowSlots - 1 so the slot being cleared next is never read).
  /// Empty-window epochs merge as zeros, which is what a rate wants.
  LogHistogram::Snapshot Window(int windows) const;

  /// Clears all data and rewinds to epoch 0 (tests; no concurrent writers).
  void ResetForTesting() {
    cumulative_.Clear();
    for (auto& e : epochs_) e.Clear();
    epoch_.store(0, std::memory_order_release);
  }

 private:
  const std::string name_;
  LogHistogram cumulative_;
  LogHistogram epochs_[kWindowSlots];
  std::atomic<uint64_t> epoch_{0};
};

/// Process-wide name → LatencyRecorder table. Get() interns on first use
/// (mutex) and is meant to be called once per site through a function-local
/// static — FM_SPAN (obs/span.h) does exactly that for every span name —
/// so the per-sample path is LatencyRecorder::Record alone.
class LatencyRegistry {
 public:
  static LatencyRecorder& Get(const std::string& name);
  /// All recorders in registration order (stable; recorders are leaked).
  static std::vector<LatencyRecorder*> All();
  /// Rotates every recorder's epoch (exporter tick).
  static void AdvanceAllEpochs();
  /// Clears every recorder's data (tests; not thread-safe vs writers).
  static void ResetForTesting();
};

}  // namespace fairmove

#endif  // FAIRMOVE_OBS_LATENCY_H_
