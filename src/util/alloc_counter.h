// Heap-allocation counting for allocation budgets and benchmarks. Linking
// the vpna_alloc_counter library replaces the program's global operator
// new/delete with malloc/free-based versions that count, per thread, every
// allocation made through operator new. Only test and benchmark binaries
// link it; the library and the example programs keep the standard
// allocator.
#pragma once

#include <cstddef>

namespace vpna::util {

// Allocations the calling thread has made through operator new so far.
[[nodiscard]] std::size_t thread_allocations() noexcept;

}  // namespace vpna::util
