// Live-byte accounting for bytes_per_session: every default-aligned
// operator new/delete in the process goes through a size header, so the
// counters are exact requested bytes (the same method bench/capacity
// uses). Over-aligned allocations fall through to the library operators
// uncounted.
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>

#include "measure.hpp"

namespace {

std::atomic<std::uint64_t> g_live{0};
std::atomic<std::uint64_t> g_peak{0};
constexpr std::size_t kHeader = alignof(std::max_align_t);

void* counted_alloc(std::size_t size) noexcept {
  void* base = std::malloc(kHeader + size);
  if (base == nullptr) return nullptr;
  std::memcpy(base, &size, sizeof(size));
  const std::uint64_t now =
      g_live.fetch_add(size, std::memory_order_relaxed) + size;
  if (now > g_peak.load(std::memory_order_relaxed)) {
    g_peak.store(now, std::memory_order_relaxed);
  }
  return static_cast<char*>(base) + kHeader;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  void* base = static_cast<char*>(p) - kHeader;
  std::size_t size = 0;
  std::memcpy(&size, base, sizeof(size));
  g_live.fetch_sub(size, std::memory_order_relaxed);
  std::free(base);
}

}  // namespace

namespace pb {

std::uint64_t live_bytes() noexcept {
  return g_live.load(std::memory_order_relaxed);
}
std::uint64_t peak_bytes() noexcept {
  return g_peak.load(std::memory_order_relaxed);
}
void reset_peak() noexcept {
  g_peak.store(g_live.load(std::memory_order_relaxed),
               std::memory_order_relaxed);
}

}  // namespace pb

void* operator new(std::size_t size) {
  void* p = counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t size) {
  void* p = counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
