#include "common/alloc_count.hpp"

#include <cstdlib>
#include <new>

// ASan provides its own operator new (poisoning, quarantine, alloc-dealloc
// mismatch checks); replacing it here would bypass those, so the counting
// operators exist only in plain builds.
#if defined(__SANITIZE_ADDRESS__)
#define MM_ALLOC_COUNT_DISABLED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MM_ALLOC_COUNT_DISABLED 1
#endif
#endif

namespace {

// Each thread bumps only its own counters, so concurrent trial workers never
// contend on a shared cache line. Constant-initialized and trivially
// destructible: no TLS init guard runs inside operator new.
thread_local mm::common::AllocCounts t_counts;

#if !defined(MM_ALLOC_COUNT_DISABLED)
inline void note_alloc(std::size_t size) noexcept {
  ++t_counts.allocs;
  t_counts.bytes += size;
}

inline void note_free() noexcept { ++t_counts.frees; }

void* counted_alloc(std::size_t size) {
  note_alloc(size);
  // malloc(0) may return null; operator new must not.
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  note_alloc(size);
  const auto al = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + al - 1) / al * al;
  void* p = std::aligned_alloc(al, rounded == 0 ? al : rounded);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}
#endif  // !MM_ALLOC_COUNT_DISABLED

}  // namespace

namespace mm::common {

AllocCounts alloc_counts() noexcept { return t_counts; }

bool alloc_counting_active() noexcept {
#if defined(MM_ALLOC_COUNT_DISABLED)
  return false;
#else
  return true;
#endif
}

}  // namespace mm::common

#if !defined(MM_ALLOC_COUNT_DISABLED)

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  note_alloc(size);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  note_alloc(size);
  return std::malloc(size == 0 ? 1 : size);
}

void operator delete(void* p) noexcept {
  if (p != nullptr) note_free();
  std::free(p);
}
void operator delete[](void* p) noexcept {
  if (p != nullptr) note_free();
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete[](p); }
void operator delete(void* p, std::align_val_t) noexcept {
  if (p != nullptr) note_free();
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  if (p != nullptr) note_free();
  std::free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  ::operator delete(p, std::align_val_t{1});
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  ::operator delete[](p, std::align_val_t{1});
}
void operator delete(void* p, const std::nothrow_t&) noexcept { ::operator delete(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { ::operator delete[](p); }

#endif  // !MM_ALLOC_COUNT_DISABLED
