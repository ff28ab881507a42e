#ifndef FAIRMOVE_OBS_LATENCY_H_
#define FAIRMOVE_OBS_LATENCY_H_

#include <atomic>
#include <cstdint>
#include <vector>

namespace fairmove {

/// HDR-style log-bucketed histogram over non-negative int64 values
/// (nanoseconds in practice). Values below 2^kSubBits land in exact unit
/// buckets; above that each power-of-two octave is split into 2^kSubBits
/// geometric sub-buckets, giving a worst-case relative quantile error of
/// 2^-kSubBits (~6%) across the full ns→days range in kNumBuckets int64
/// counters (7.5 KiB).
///
/// One thread writes a histogram: Record() is relaxed loads and stores, no
/// read-modify-write. Any thread may TakeSnapshot() while it is written and
/// sees each counter at some recent value. Every node of the span table
/// (obs/span.h) holds one; its count, sum and max are the node's span
/// count, total and max.
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

  /// Owning thread only.
  void Record(int64_t v);

  /// Plain (non-atomic) copy of one histogram's state at a point in time.
  struct Snapshot {
    int64_t count = 0;
    int64_t sum = 0;
    int64_t max = 0;
    std::vector<int64_t> buckets;  // kNumBuckets entries

    void MergeFrom(const Snapshot& other);
    /// What was recorded after `base`, an earlier snapshot of the same
    /// series (empty = since the start). Counts, sums and buckets subtract;
    /// the max is the upper edge of the highest non-empty bucket left,
    /// capped at this snapshot's max.
    Snapshot Since(const Snapshot& base) const;
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

}  // namespace fairmove

#endif  // FAIRMOVE_OBS_LATENCY_H_
