#ifndef SPARDL_TESTS_ALLOCATION_COUNTER_H_
#define SPARDL_TESTS_ALLOCATION_COUNTER_H_

#include <cstddef>

// Heap-allocation counter for the allocates-nothing tests. The suite must
// link allocation_counter.cc, which replaces the global operator new: it
// counts only while the calling thread opts in, so gtest's own
// bookkeeping outside the measured region stays invisible.
//
//   g_allocation_count = 0;
//   g_count_allocations = true;
//   ... the code under test ...
//   g_count_allocations = false;
//   EXPECT_EQ(g_allocation_count, 0u);
extern thread_local bool g_count_allocations;
extern thread_local size_t g_allocation_count;

#endif  // SPARDL_TESTS_ALLOCATION_COUNTER_H_
