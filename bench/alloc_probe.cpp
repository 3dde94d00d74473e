#include "alloc_probe.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

// Atomic, so worker-thread allocations are captured too.
std::atomic<std::size_t> g_allocated_bytes{0};

void* CountedAlloc(std::size_t size) {
  g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

}  // namespace

namespace dtucker {

std::size_t AllocatedBytes() {
  return g_allocated_bytes.load(std::memory_order_relaxed);
}

}  // namespace dtucker

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
