#include "util/alloc_counter.h"

#include <cstdlib>
#include <new>

namespace {
thread_local std::size_t t_allocations = 0;

void* counted_malloc(std::size_t size) noexcept {
  ++t_allocations;
  return std::malloc(size == 0 ? 1 : size);
}

void* counted_new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
}  // namespace

namespace vpna::util {
std::size_t thread_allocations() noexcept { return t_allocations; }
}  // namespace vpna::util

// Every non-aligned form, new and delete alike, so sanitizer builds see
// matching malloc/free pairs. The aligned forms keep the standard library's
// own matching pair.
void* operator new(std::size_t size) { return counted_new(size); }
void* operator new[](std::size_t size) { return counted_new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
