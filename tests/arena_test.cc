// Covers the two allocation primitives behind the Simulator::Step
// zero-allocation contract: the bump Arena and the RingQueue.

#include "fairmove/common/arena.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <deque>

#include "fairmove/common/ring_queue.h"

namespace fairmove {
namespace {

TEST(ArenaTest, AllocationsAreDisjointAndWritable) {
  Arena arena(/*block_bytes=*/256);
  int* a = arena.AllocArray<int>(10);
  int* b = arena.AllocArray<int>(10);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  for (int i = 0; i < 10; ++i) {
    a[i] = i;
    b[i] = 100 + i;
  }
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(a[i], i);
    EXPECT_EQ(b[i], 100 + i);
  }
}

TEST(ArenaTest, RespectsAlignment) {
  Arena arena(/*block_bytes=*/128);
  // Interleave odd-sized char allocations with stricter types; every
  // pointer must satisfy its type's alignment.
  for (int i = 0; i < 20; ++i) {
    char* c = arena.AllocArray<char>(3);
    ASSERT_NE(c, nullptr);
    double* d = arena.AllocArray<double>(2);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(d) % alignof(double), 0u);
    int64_t* q = arena.AllocArray<int64_t>(1);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(q) % alignof(int64_t), 0u);
  }
}

TEST(ArenaTest, ZeroedVariantZeroes) {
  Arena arena;
  int* p = arena.AllocArrayZeroed<int>(64);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(p[i], 0);
}

TEST(ArenaTest, OversizedAllocationGetsDedicatedBlock) {
  Arena arena(/*block_bytes=*/64);
  // 10x the block size: must still succeed, in one contiguous run.
  unsigned char* big = arena.AllocArray<unsigned char>(640);
  ASSERT_NE(big, nullptr);
  std::memset(big, 0xAB, 640);
  EXPECT_EQ(big[0], 0xAB);
  EXPECT_EQ(big[639], 0xAB);
  EXPECT_GE(arena.bytes_reserved(), 640u);
}

TEST(ArenaTest, ResetRetainsBlocksAndStopsGrowing) {
  Arena arena(/*block_bytes=*/256);
  // Warm-up pass establishes the footprint.
  arena.AllocArray<double>(40);
  arena.AllocArray<int>(100);
  const size_t warm_blocks = arena.num_blocks();
  const size_t warm_reserved = arena.bytes_reserved();
  EXPECT_GT(warm_blocks, 0u);
  // The same allocation pattern after Reset must reuse the retained blocks:
  // no new block, no new reserved byte — this is the property that makes a
  // Reset-per-slot caller allocation-free in steady state.
  for (int round = 0; round < 50; ++round) {
    arena.Reset();
    EXPECT_EQ(arena.bytes_used(), 0u);
    arena.AllocArray<double>(40);
    arena.AllocArray<int>(100);
    EXPECT_EQ(arena.num_blocks(), warm_blocks);
    EXPECT_EQ(arena.bytes_reserved(), warm_reserved);
  }
}

TEST(ArenaTest, BytesUsedTracksPayload) {
  Arena arena;
  EXPECT_EQ(arena.bytes_used(), 0u);
  arena.AllocArray<int>(10);
  EXPECT_EQ(arena.bytes_used(), 10 * sizeof(int));
  arena.AllocArray<double>(5);
  EXPECT_EQ(arena.bytes_used(), 10 * sizeof(int) + 5 * sizeof(double));
}

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
