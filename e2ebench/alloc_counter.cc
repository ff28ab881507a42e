// Counting replacement of the global allocation functions, linked into the
// traced binary only. Every operator new form funnels through malloc so
// each matching delete can free with std::free.

#include <atomic>
#include <cstdlib>
#include <new>

#include "alloc_counter.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<int64_t> g_count{0};
thread_local bool t_counting = false;
thread_local int64_t t_count = 0;

void Count() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (t_counting) ++t_count;
}

void* Allocate(std::size_t size) {
  Count();
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* AllocateAligned(std::size_t size, std::align_val_t al) {
  Count();
  const std::size_t align = static_cast<std::size_t>(al);
  const std::size_t rounded = (size + align - 1) / align * align;
  void* p = std::aligned_alloc(align, rounded == 0 ? align : rounded);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

namespace fairmove::e2e {

bool AllocCountingAvailable() { return true; }
void SetGlobalAllocCounting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}
int64_t GlobalAllocCount() { return g_count.load(std::memory_order_relaxed); }
void SetThreadAllocCounting(bool on) { t_counting = on; }
int64_t ThreadAllocCount() { return t_count; }

}  // namespace fairmove::e2e

void* operator new(std::size_t size) { return Allocate(size); }
void* operator new[](std::size_t size) { return Allocate(size); }
void* operator new(std::size_t size, std::align_val_t al) {
  return AllocateAligned(size, al);
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return AllocateAligned(size, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
