// Covers the RingQueue, the capacity-retaining FIFO behind the
// Simulator::Step zero-allocation contract.

#include "fairmove/common/ring_queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>

namespace fairmove {
namespace {

TEST(RingQueueTest, MatchesDequeThroughMixedChurn) {
  // Differential test against std::deque across a long push/pop sequence
  // that wraps the ring many times and crosses several growth boundaries.
  RingQueue<int> ring;
  std::deque<int> ref;
  uint64_t state = 12345;
  const auto next = [&state]() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<int>(state >> 33);
  };
  for (int step = 0; step < 5000; ++step) {
    const int op = next() % 3;
    if (op != 0 && !ref.empty()) {
      ASSERT_EQ(ring.front(), ref.front());
      ring.pop_front();
      ref.pop_front();
    } else {
      const int v = next();
      ring.push_back(v);
      ref.push_back(v);
    }
    ASSERT_EQ(ring.size(), ref.size());
    if (!ref.empty()) {
      ASSERT_EQ(ring.front(), ref.front());
      ASSERT_EQ(ring[ring.size() - 1], ref.back());
    }
  }
}

TEST(RingQueueTest, ClearRetainsCapacity) {
  RingQueue<int> ring;
  for (int i = 0; i < 100; ++i) ring.push_back(i);
  const size_t cap = ring.capacity();
  ring.clear();
  EXPECT_TRUE(ring.empty());
  EXPECT_EQ(ring.capacity(), cap);
  for (int i = 0; i < 100; ++i) ring.push_back(i);
  EXPECT_EQ(ring.capacity(), cap);  // no regrowth within the old footprint
}

}  // namespace
}  // namespace fairmove
