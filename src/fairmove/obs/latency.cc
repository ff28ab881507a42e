#include "fairmove/obs/latency.h"

#include <algorithm>
#include <bit>

namespace fairmove {

int LogHistogram::BucketIndex(int64_t v) {
  if (v < 0) return 0;
  if (v < (1 << kSubBits)) return static_cast<int>(v);
  const int msb = 63 - std::countl_zero(static_cast<uint64_t>(v));
  const int sub =
      static_cast<int>((v >> (msb - kSubBits)) & ((1 << kSubBits) - 1));
  return ((msb - kSubBits + 1) << kSubBits) | sub;
}

int64_t LogHistogram::BucketLowerBound(int index) {
  if (index < (1 << kSubBits)) return index;
  const int octave = index >> kSubBits;
  const int msb = octave + kSubBits - 1;
  const int64_t sub = index & ((1 << kSubBits) - 1);
  return (int64_t{1} << msb) | (sub << (msb - kSubBits));
}

int64_t LogHistogram::BucketUpperBound(int index) {
  if (index + 1 >= kNumBuckets) return INT64_MAX;
  return BucketLowerBound(index + 1);
}

void LogHistogram::Record(int64_t v) {
  // Single writer: plain increments through relaxed atomics keep concurrent
  // snapshots race-free without a locked read-modify-write.
  std::atomic<int64_t>& bucket = buckets_[BucketIndex(v)];
  bucket.store(bucket.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
  count_.store(count_.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
  sum_.store(sum_.load(std::memory_order_relaxed) + v,
             std::memory_order_relaxed);
  if (v > max_.load(std::memory_order_relaxed)) {
    max_.store(v, std::memory_order_relaxed);
  }
}

LogHistogram::Snapshot LogHistogram::TakeSnapshot() const {
  Snapshot snap;
  snap.buckets.resize(kNumBuckets);
  for (int i = 0; i < kNumBuckets; ++i) {
    snap.buckets[static_cast<size_t>(i)] =
        buckets_[i].load(std::memory_order_relaxed);
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.max = max_.load(std::memory_order_relaxed);
  return snap;
}

void LogHistogram::Snapshot::MergeFrom(const Snapshot& other) {
  if (buckets.empty()) buckets.resize(kNumBuckets);
  for (size_t i = 0; i < buckets.size() && i < other.buckets.size(); ++i) {
    buckets[i] += other.buckets[i];
  }
  count += other.count;
  sum += other.sum;
  max = std::max(max, other.max);
}

LogHistogram::Snapshot LogHistogram::Snapshot::Since(
    const Snapshot& base) const {
  Snapshot delta = *this;
  if (base.buckets.size() == buckets.size()) {
    for (size_t i = 0; i < buckets.size(); ++i) {
      delta.buckets[i] -= base.buckets[i];
    }
    delta.count -= base.count;
    delta.sum -= base.sum;
  }
  delta.max = 0;
  for (size_t i = delta.buckets.size(); i-- > 0;) {
    if (delta.buckets[i] > 0) {
      delta.max =
          std::min(BucketUpperBound(static_cast<int>(i)) - 1, max);
      break;
    }
  }
  return delta;
}

int64_t LogHistogram::Snapshot::Quantile(double q) const {
  if (count <= 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count);
  int64_t seen = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    const int64_t in_bucket = buckets[i];
    if (in_bucket == 0) continue;
    if (static_cast<double>(seen + in_bucket) >= rank) {
      const int index = static_cast<int>(i);
      const double lo = static_cast<double>(BucketLowerBound(index));
      const double hi = static_cast<double>(BucketUpperBound(index));
      const double frac =
          (rank - static_cast<double>(seen)) / static_cast<double>(in_bucket);
      const double value = lo + frac * (hi - lo);
      return std::min(static_cast<int64_t>(value), max);
    }
    seen += in_bucket;
  }
  return max;
}

}  // namespace fairmove
