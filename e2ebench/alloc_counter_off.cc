// The untraced binary's allocation counter: no operator new replacement,
// every count reads 0.

#include "alloc_counter.h"

namespace fairmove::e2e {

bool AllocCountingAvailable() { return false; }
void SetGlobalAllocCounting(bool) {}
int64_t GlobalAllocCount() { return 0; }
void SetThreadAllocCounting(bool) {}
int64_t ThreadAllocCount() { return 0; }

}  // namespace fairmove::e2e
