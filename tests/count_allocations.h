// Counts the calling thread's heap allocations while enabled, so a test
// can assert that a hot path allocates nothing.  Replaces the global
// operator new/delete, so include it from exactly one source file of a
// test binary.  Thread-local: other threads in the process (a server's
// reactor workers, say) are not counted.
#pragma once

#include <cstdlib>
#include <new>

namespace {
thread_local bool g_count_allocations = false;
thread_local long g_allocations = 0;
}  // namespace

// GCC pairs the inlined free() below with the caller's `new` expression
// and flags a mismatch; both ends are these replacements, so it is not one.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t n) {
  if (g_count_allocations) ++g_allocations;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
