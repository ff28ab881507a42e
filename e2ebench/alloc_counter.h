#ifndef FAIRMOVE_E2EBENCH_ALLOC_COUNTER_H_
#define FAIRMOVE_E2EBENCH_ALLOC_COUNTER_H_

#include <cstdint>

namespace fairmove::e2e {

/// Heap-allocation counting for the traced binary. alloc_counter.cc replaces
/// the global operator new (the sim_alloc_test technique); the untraced
/// binary links alloc_counter_off.cc instead, so its allocator is untouched
/// and every counter below reads 0.
bool AllocCountingAvailable();

/// Process-wide counting: every thread's allocations count while enabled
/// (the simulator's pool workers allocate too).
void SetGlobalAllocCounting(bool on);
int64_t GlobalAllocCount();

/// Per-thread counting: only the calling thread's allocations count while
/// enabled on it, so a Learn() call on one pool worker is not charged for
/// what concurrent method cells allocate.
void SetThreadAllocCounting(bool on);
int64_t ThreadAllocCount();

}  // namespace fairmove::e2e

#endif  // FAIRMOVE_E2EBENCH_ALLOC_COUNTER_H_
