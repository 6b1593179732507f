// Lock-order ("deadlock potential") detector tests.
//
// The inversion tests drive `OrderedMutex` through its explicit-`Graph`
// constructor — the test-only double whose tracking is unconditional — so
// they pin the detector's behaviour in every build type, including the
// NDEBUG tier-1 configuration where globally-registered mutexes compile
// to plain `std::mutex` passthrough. Provoked cycles abort (CHECK), so
// they run as death tests.

#include "common/lockcheck.h"

#include <condition_variable>
#include <mutex>
#include <thread>

#include <gtest/gtest.h>

namespace spardl {
namespace lockcheck {
namespace {

// Non-death tests keep their mutexes in static storage: glibc std::mutex
// has a trivial destructor (no pthread_mutex_destroy), so under TSan a
// destroyed stack mutex's address can be reused by the next test's mutex
// and the two get aliased into one lock-order graph node — manufacturing
// false cross-test cycles for TSan's own deadlock detector. Static
// storage gives every mutex a distinct, never-reused address. (The death
// tests are immune: the provoked inversion CHECK-aborts in OnAcquire
// *before* the closing pthread lock is attempted, so TSan never sees the
// cycle — and they run in forked children anyway.)

TEST(LockCheckTest, ConsistentOrderPasses) {
  static Graph graph;
  static OrderedMutex a(graph, "order.a");
  static OrderedMutex b(graph, "order.b");
  // a -> b, twice: the second acquisition re-walks an established edge.
  for (int i = 0; i < 2; ++i) {
    std::lock_guard<OrderedMutex> hold_a(a);
    std::lock_guard<OrderedMutex> hold_b(b);
  }
}

TEST(LockCheckTest, IndependentMutexesOfOneFamilyShareTheNode) {
  static Graph graph;
  // Two distinct mutexes registered under one name (the per-inbox
  // pattern: all P inbox mutexes are one lock-order family).
  static OrderedMutex box1(graph, "family.box");
  static OrderedMutex box2(graph, "family.box");
  static OrderedMutex engine(graph, "family.engine");
  {
    std::lock_guard<OrderedMutex> hold_engine(engine);
    std::lock_guard<OrderedMutex> hold_box(box1);
  }
  // engine -> box is established; box2 belongs to the same family as
  // box1, so taking engine under it must now be rejected — which the
  // death test below pins. Here: the same order through the other
  // instance stays legal.
  {
    std::lock_guard<OrderedMutex> hold_engine(engine);
    std::lock_guard<OrderedMutex> hold_box(box2);
  }
}

TEST(LockCheckDeathTest, InversionAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  ASSERT_DEATH(
      {
        Graph graph;
        OrderedMutex a(graph, "inv.a");
        OrderedMutex b(graph, "inv.b");
        {
          std::lock_guard<OrderedMutex> hold_a(a);
          std::lock_guard<OrderedMutex> hold_b(b);  // a -> b recorded
        }
        {
          std::lock_guard<OrderedMutex> hold_b(b);
          std::lock_guard<OrderedMutex> hold_a(a);  // closes the cycle
        }
      },
      "lock-order inversion.*'inv\\.b' -> 'inv\\.a'");
}

TEST(LockCheckDeathTest, InversionThroughSharedFamilyAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  // The family (not the instance) is the graph node: an inversion built
  // out of two different mutexes of one family must still abort.
  ASSERT_DEATH(
      {
        Graph graph;
        OrderedMutex box1(graph, "shared.box");
        OrderedMutex box2(graph, "shared.box");
        OrderedMutex engine(graph, "shared.engine");
        {
          std::lock_guard<OrderedMutex> hold_engine(engine);
          std::lock_guard<OrderedMutex> hold_box(box1);
        }
        {
          std::lock_guard<OrderedMutex> hold_box(box2);
          std::lock_guard<OrderedMutex> hold_engine(engine);
        }
      },
      "lock-order inversion");
}

TEST(LockCheckDeathTest, TransitiveCycleAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  // a -> b and b -> c are fine; c -> a closes a 3-cycle that no single
  // edge pair exhibits — the detector must chase reachability, not just
  // direct edges.
  ASSERT_DEATH(
      {
        Graph graph;
        OrderedMutex a(graph, "tri.a");
        OrderedMutex b(graph, "tri.b");
        OrderedMutex c(graph, "tri.c");
        {
          std::lock_guard<OrderedMutex> hold_a(a);
          std::lock_guard<OrderedMutex> hold_b(b);
        }
        {
          std::lock_guard<OrderedMutex> hold_b(b);
          std::lock_guard<OrderedMutex> hold_c(c);
        }
        {
          std::lock_guard<OrderedMutex> hold_c(c);
          std::lock_guard<OrderedMutex> hold_a(a);
        }
      },
      "lock-order inversion.*'tri\\.c' -> 'tri\\.a'");
}

TEST(LockCheckDeathTest, SameFamilyNestingAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  // Holding two mutexes of one family concurrently is a self-deadlock
  // under contention (another thread can take them in the other order).
  ASSERT_DEATH(
      {
        Graph graph;
        OrderedMutex box1(graph, "nest.box");
        OrderedMutex box2(graph, "nest.box");
        std::lock_guard<OrderedMutex> hold1(box1);
        std::lock_guard<OrderedMutex> hold2(box2);
      },
      "same family");
}

TEST(LockCheckTest, ConditionVariableWaitKeepsHeldStackExact) {
  // `condition_variable_any::wait` releases through `unlock()` and
  // re-acquires through `lock()`; if the held-stack did not follow, the
  // b-acquisition below would falsely look nested inside a.
  static Graph graph;
  static OrderedMutex a(graph, "cv.a");
  static OrderedMutex b(graph, "cv.b");
  std::condition_variable_any cv;
  bool ready = false;

  // Establish b -> a so that an a-acquisition while holding b would trip
  // the detector.
  {
    std::lock_guard<OrderedMutex> hold_b(b);
    std::lock_guard<OrderedMutex> hold_a(a);
  }

  std::thread waiter([&] {
    std::unique_lock<OrderedMutex> lock(a);
    cv.wait(lock, [&] { return ready; });
  });
  {
    // While the waiter sleeps inside its a-wait (a released), taking
    // b then a here is the established order and must pass — proof the
    // sleeping thread does not appear to hold a.
    std::lock_guard<OrderedMutex> hold_b(b);
    std::lock_guard<OrderedMutex> hold_a(a);
  }
  {
    std::lock_guard<OrderedMutex> hold_a(a);
    ready = true;
  }
  cv.notify_all();
  waiter.join();
}

TEST(LockCheckTest, TryLockRecordsOrderOnSuccessOnly) {
  static Graph graph;
  static OrderedMutex a(graph, "try.a");
  static OrderedMutex b(graph, "try.b");
  {
    std::lock_guard<OrderedMutex> hold_a(a);
    ASSERT_TRUE(b.try_lock());  // records a -> b
    b.unlock();
  }
  std::thread holder([&] {
    std::lock_guard<OrderedMutex> hold_b(b);
    // A failed try_lock must record nothing: holding b while *failing*
    // to get... (we cannot contend a here deterministically, so this
    // thread just exercises the success path in the reverse direction
    // being absent).
  });
  holder.join();
}

TEST(LockCheckTest, GlobalRegistrationIsIdempotentByName) {
  // Two globally-registered mutexes under one name must share a family
  // id (this is the only global-graph touch in the suite: registration
  // only, no edges, so it cannot interfere with the library's own
  // families).
  Graph& global = Graph::Global();
  const int first = global.RegisterFamily("test.idempotent");
  const int second = global.RegisterFamily("test.idempotent");
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace lockcheck
}  // namespace spardl
