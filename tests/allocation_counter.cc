// The global operator new/delete replacement behind allocation_counter.h.

#include "allocation_counter.h"

#include <cstdlib>
#include <new>

thread_local bool g_count_allocations = false;
thread_local size_t g_allocation_count = 0;

// noinline keeps the compiler from pairing the inlined malloc/free
// bodies at call sites and warning about a new/free mismatch (the
// replacement pair is malloc-based on both sides, so it is consistent).
#if defined(__GNUC__)
#define SPARDL_TEST_NOINLINE __attribute__((noinline))
#else
#define SPARDL_TEST_NOINLINE
#endif

SPARDL_TEST_NOINLINE void* operator new(size_t size) {
  if (g_count_allocations) ++g_allocation_count;
  if (void* ptr = std::malloc(size)) return ptr;
  throw std::bad_alloc();
}
SPARDL_TEST_NOINLINE void* operator new[](size_t size) {
  return ::operator new(size);
}
SPARDL_TEST_NOINLINE void operator delete(void* ptr) noexcept {
  std::free(ptr);
}
SPARDL_TEST_NOINLINE void operator delete(void* ptr, size_t) noexcept {
  std::free(ptr);
}
SPARDL_TEST_NOINLINE void operator delete[](void* ptr) noexcept {
  std::free(ptr);
}
SPARDL_TEST_NOINLINE void operator delete[](void* ptr, size_t) noexcept {
  std::free(ptr);
}
// The nothrow forms too (std::stable_sort's temporary buffer uses them):
// otherwise the runtime's nothrow new pairs with the free above, which
// ASan reports as an alloc-dealloc mismatch.
SPARDL_TEST_NOINLINE void* operator new(size_t size,
                                        const std::nothrow_t&) noexcept {
  if (g_count_allocations) ++g_allocation_count;
  return std::malloc(size);
}
SPARDL_TEST_NOINLINE void* operator new[](size_t size,
                                          const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
SPARDL_TEST_NOINLINE void operator delete(void* ptr,
                                          const std::nothrow_t&) noexcept {
  std::free(ptr);
}
SPARDL_TEST_NOINLINE void operator delete[](void* ptr,
                                            const std::nothrow_t&) noexcept {
  std::free(ptr);
}
