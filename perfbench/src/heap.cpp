// Heap accounting for peak_heap_mb: every global operator new in wfbench
// (the wfsort library's arenas and containers, and the benchmark's own
// arrays) adds its block's usable size to a live-byte count whose maximum
// is kept.  The blocks still come from malloc, as with the default
// operators.  Unlike peak RSS, the figure does not depend on when glibc's
// dynamic mmap/trim thresholds hand freed memory back to the kernel.
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "host.h"

namespace {

std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};

void* counted(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  const auto n = static_cast<std::int64_t>(malloc_usable_size(p));
  const std::int64_t now = g_live.fetch_add(n, std::memory_order_relaxed) + n;
  std::int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (now > peak &&
         !g_peak.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
  }
  return p;
}

void* counted_alloc(std::size_t n) { return counted(std::malloc(n == 0 ? 1 : n)); }

void* counted_alloc(std::size_t n, std::align_val_t al) {
  void* p = nullptr;
  const auto a = std::max(static_cast<std::size_t>(al), sizeof(void*));
  return counted(posix_memalign(&p, a, n == 0 ? 1 : n) == 0 ? p : nullptr);
}

void release(void* p) noexcept {
  if (p == nullptr) return;
  g_live.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                   std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

namespace perfbench {

double peak_heap_mb() {
  return static_cast<double>(g_peak.load(std::memory_order_relaxed)) / (1 << 20);
}

}  // namespace perfbench

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) { return counted_alloc(n, al); }
void* operator new[](std::size_t n, std::align_val_t al) { return counted_alloc(n, al); }
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { release(p); }
