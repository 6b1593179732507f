// Cooperative (fiber) execution backend: the scheduler must be a drop-in
// replacement for thread-per-worker — bit-identical simulated results at
// P >= 1024 on a contended event-engine fabric, exact equality with the
// thread backend on the same workload, protocol diagnosis intact, and a
// bounded deadlock diagnosis (the scheduler aborts with a waiter dump the
// moment no fiber can run and no event can be pumped, instead of hanging
// on parked threads). Wake-ups are targeted: a waiter's predicate is
// re-checked only after an event names it, so the scheduler's work per
// message is O(1) at any P, and a missed wake aborts loudly.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "common/logging.h"
#include "des/coop_scheduler.h"
#include "dl/grad_profile.h"
#include "simnet/cluster.h"
#include "sparse/sparse_vector.h"
#include "topo/topology_spec.h"

// TSan has no ucontext support, so the cluster compiles the fiber branch
// out and always runs threads there (mirrors SPARDL_TSAN in cluster.cc).
#if defined(__SANITIZE_THREAD__)
#define SPARDL_TEST_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SPARDL_TEST_TSAN 1
#endif
#endif

namespace spardl {
namespace {

bool FiberBackendAvailable() {
#ifdef SPARDL_TEST_TSAN
  return false;
#else
  return true;
#endif
}

uint64_t HashCombine(uint64_t h, uint64_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

uint64_t HashSparse(uint64_t h, const SparseVector& v) {
  for (size_t i = 0; i < v.size(); ++i) {
    h = HashCombine(h, v.index(i));
    uint32_t bits;
    const float value = v.value(i);
    std::memcpy(&bits, &value, sizeof(bits));
    h = HashCombine(h, bits);
  }
  return h;
}

struct RunOutcome {
  /// Worker 0's per-iteration reduced gradients (the synchronous methods
  /// replicate them, so one worker pins the math for all).
  std::vector<SparseVector> outputs;
  /// Every worker's final simulated clock (pins the timing model).
  std::vector<double> clocks;
  /// Hash over *all* workers' outputs — catches a replica diverging on a
  /// worker other than 0.
  uint64_t all_workers_hash = 0;
};

/// The repo's standard contended fabric: an oversubscribed fat-tree
/// (racks of 8, oversub 4.0, 2 ECMP cores).
TopologySpec ContendedFatTree(int p) {
  return TopologySpec::FatTree(p, /*rack_size=*/8, /*oversubscription=*/4.0,
                               CostModel::Ethernet(), /*num_cores=*/2);
}

/// One measured run of a log-round method on `spec` under the chosen
/// backend.
RunOutcome MeasuredRun(ExecBackend backend, const TopologySpec& spec,
                       const std::string& algo, size_t n, size_t k,
                       int iterations) {
  const int p = spec.num_workers;
  Cluster cluster(spec);
  cluster.set_exec_backend(backend);

  AlgorithmConfig config;
  config.n = n;
  config.k = k;
  config.num_workers = p;
  config.residual_mode = ResidualMode::kNone;
  std::vector<std::unique_ptr<SparseAllReduce>> algos(
      static_cast<size_t>(p));
  for (int r = 0; r < p; ++r) {
    algos[static_cast<size_t>(r)] = std::move(*CreateAlgorithm(algo, config));
  }

  const ProfileGradientGenerator generator(n, /*seed=*/11);
  RunOutcome outcome;
  std::vector<std::vector<SparseVector>> per_worker(
      static_cast<size_t>(p));
  for (int iter = 0; iter < iterations; ++iter) {
    const Status status = cluster.Run([&](Comm& comm) {
      const SparseVector candidates =
          generator.Generate(comm.rank(), iter, k + k / 2);
      per_worker[static_cast<size_t>(comm.rank())].push_back(
          algos[static_cast<size_t>(comm.rank())]->RunOnSparse(comm,
                                                               candidates));
      comm.BarrierSyncClocks();
    });
    SPARDL_CHECK_OK(status);
  }
  outcome.outputs = std::move(per_worker[0]);
  uint64_t h = 0;
  for (int r = 0; r < p; ++r) {
    outcome.clocks.push_back(cluster.comm(r).sim_now());
    for (const SparseVector& v : per_worker[static_cast<size_t>(r)]) {
      h = HashSparse(h, v);
    }
  }
  outcome.all_workers_hash = h;
  return outcome;
}

// The scale criterion: five fresh fiber-backend runs of a contended
// event-engine workload at P = 1024 must agree bit for bit (outputs and
// clocks). One OS thread is carrying 1024 workers here — any
// scheduler-order leak into the simulation would show up as a hash or
// clock mismatch.
TEST(CoopBackendTest, BitIdenticalAcrossRunsAtP1024) {
  if (!FiberBackendAvailable()) {
    GTEST_SKIP() << "fiber backend compiled out under TSan";
  }
  constexpr int kWorkers = 1024;
  constexpr size_t kN = 100'000;
  constexpr size_t kK = 100;
  RunOutcome first;
  for (int run = 0; run < 5; ++run) {
    RunOutcome outcome =
        MeasuredRun(ExecBackend::kFiber, ContendedFatTree(kWorkers), "gtopk",
                    kN, kK, /*iterations=*/1);
    ASSERT_EQ(outcome.outputs.size(), 1u);
    EXPECT_GT(outcome.outputs[0].size(), 0u);
    if (run == 0) {
      first = std::move(outcome);
      continue;
    }
    EXPECT_EQ(outcome.all_workers_hash, first.all_workers_hash)
        << "run " << run;
    ASSERT_EQ(outcome.clocks.size(), first.clocks.size());
    for (int r = 0; r < kWorkers; ++r) {
      ASSERT_EQ(outcome.clocks[static_cast<size_t>(r)],
                first.clocks[static_cast<size_t>(r)])
          << "worker " << r << " clock diverged on run " << run;
    }
  }
}

/// Thread-vs-fiber equivalence on the flat closed form and on the
/// contended event-engine fat-tree: same workload, same fabric, exact
/// equality of every worker's reduced gradients and final clock.
enum class Fabric { kFlat, kFatTree };

class BackendEquivalenceTest : public ::testing::TestWithParam<Fabric> {};

TEST_P(BackendEquivalenceTest, FiberMatchesThreadExactly) {
  constexpr int kWorkers = 16;
  constexpr size_t kN = 20'000;
  constexpr size_t kK = 200;
  const TopologySpec spec = GetParam() == Fabric::kFlat
                                ? TopologySpec::Flat(kWorkers)
                                : ContendedFatTree(kWorkers);
  const RunOutcome threads = MeasuredRun(ExecBackend::kThread, spec,
                                         "spardl", kN, kK, /*iterations=*/2);
  const RunOutcome fibers = MeasuredRun(ExecBackend::kFiber, spec, "spardl",
                                        kN, kK, /*iterations=*/2);
  EXPECT_EQ(fibers.all_workers_hash, threads.all_workers_hash);
  ASSERT_EQ(fibers.outputs.size(), threads.outputs.size());
  for (size_t i = 0; i < fibers.outputs.size(); ++i) {
    EXPECT_EQ(fibers.outputs[i], threads.outputs[i]) << "iteration " << i;
  }
  ASSERT_EQ(fibers.clocks.size(), threads.clocks.size());
  for (int r = 0; r < kWorkers; ++r) {
    EXPECT_EQ(fibers.clocks[static_cast<size_t>(r)],
              threads.clocks[static_cast<size_t>(r)])
        << "worker " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Fabrics, BackendEquivalenceTest,
                         ::testing::Values(Fabric::kFlat, Fabric::kFatTree),
                         [](const auto& param_info) {
                           return param_info.param == Fabric::kFlat
                                      ? "Flat"
                                      : "FatTree";
                         });

/// The protocol verifier's negative path must diagnose divergence on both
/// backends (the fiber path funnels the violation out of the scheduler
/// loop, not out of a dying thread).
class BackendProtocolTest : public ::testing::TestWithParam<ExecBackend> {};

TEST_P(BackendProtocolTest, TagMismatchIsDiagnosed) {
  Cluster cluster(TopologySpec::Flat(2, CostModel{1e-3, 1e-6}));
  cluster.set_exec_backend(GetParam());
  cluster.EnableProtocolCheck();
  cluster.network().set_recv_timeout_seconds(20.0);
  const Status status = cluster.Run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.Send(1, Payload(std::vector<float>{1.0f}), /*tag=*/7);
      (void)comm.Recv(1, /*tag=*/7);
    } else {
      comm.Send(0, Payload(std::vector<float>{1.0f}), /*tag=*/7);
      (void)comm.Recv(0, /*tag=*/9);  // bug under test: expects tag 9
    }
    comm.BarrierSyncClocks();
  });
  ASSERT_FALSE(status.ok());
  const std::string message = status.ToString();
  EXPECT_NE(message.find("tag"), std::string::npos) << message;
  EXPECT_NE(message.find("op trace"), std::string::npos) << message;
}

INSTANTIATE_TEST_SUITE_P(Backends, BackendProtocolTest,
                         ::testing::Values(ExecBackend::kThread,
                                           ExecBackend::kFiber),
                         [](const auto& param_info) {
                           return param_info.param == ExecBackend::kFiber
                                      ? "fiber"
                                      : "thread";
                         });

// Without the verifier, a collective deadlock on the fiber backend must
// die *immediately* with the scheduler's waiter dump — every fiber
// suspended, nothing pumpable — rather than waiting out a watchdog on
// parked threads.
TEST(CoopBackendDeathTest, DeadlockDiagnosedWithWaiterDump) {
  if (!FiberBackendAvailable()) {
    GTEST_SKIP() << "fiber backend compiled out under TSan";
  }
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  auto spec = TopologySpec::Parse("fattree:2x2", 2);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_DEATH(
      {
        Cluster cluster(*spec);
        cluster.set_exec_backend(ExecBackend::kFiber);
        (void)cluster.Run([](Comm& comm) {
          // Both workers receive, nobody sends.
          (void)comm.Recv(1 - comm.rank(), /*tag=*/0);
        });
      },
      "collective deadlock");
}

// On the flat fabric `Network::Wait` yields to the scheduler itself rather
// than through the event engine; it must reach the same diagnosis.
TEST(CoopBackendDeathTest, DeadlockDiagnosedOnFlatFabric) {
  if (!FiberBackendAvailable()) {
    GTEST_SKIP() << "fiber backend compiled out under TSan";
  }
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        Cluster cluster(TopologySpec::Flat(2, CostModel{1e-3, 1e-6}));
        cluster.set_exec_backend(ExecBackend::kFiber);
        (void)cluster.Run([](Comm& comm) {
          (void)comm.Recv(1 - comm.rank(), /*tag=*/0);
        });
      },
      "collective deadlock");
}

// Targeted wake-ups, pinned by work instead of wall clock: P fibers pass a
// token around a ring for a few laps, each holder waking only its
// successor. Every round then releases one fiber, so a scheduler that
// re-scanned all waiters per decision would evaluate ~P^2 * laps / 2
// predicates; the targeted one evaluates each waiter's a constant number
// of times per wait.
TEST(CoopSchedulerTest, RingTokenEvaluatesPredicatesLinearly) {
  if (!FiberBackendAvailable()) {
    GTEST_SKIP() << "fiber backend compiled out under TSan";
  }
  constexpr int kWorkers = 1024;
  constexpr int kLaps = 3;
  int token = 0;
  int64_t evaluations = 0;
  int passes = 0;
  CoopScheduler scheduler;
  scheduler.Run(kWorkers, /*engine=*/nullptr, [&](int rank) {
    for (int lap = 0; lap < kLaps; ++lap) {
      CoopScheduler::Current()->Wait(
          [&] {
            ++evaluations;
            return token == rank;
          },
          [] { return std::string("ring token"); });
      const int next = (rank + 1) % kWorkers;
      token = next;
      ++passes;
      CoopScheduler::Current()->Wake(next);
    }
  });
  EXPECT_EQ(passes, kWorkers * kLaps);
  // Per wait: the caller's own check, the scheduler's check after the
  // wake, and the caller's re-check on resume.
  EXPECT_LE(evaluations, int64_t{3} * kWorkers * kLaps);
}

// A predicate flipped behind the scheduler's back (no `Wake`) is a
// scheduler bug, and the stall must say so instead of blaming the SPMD
// program with a false "collective deadlock?".
TEST(CoopSchedulerDeathTest, MissedWakeIsReportedNotCalledDeadlock) {
  if (!FiberBackendAvailable()) {
    GTEST_SKIP() << "fiber backend compiled out under TSan";
  }
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        bool released = false;
        CoopScheduler scheduler;
        scheduler.Run(2, /*engine=*/nullptr, [&released](int rank) {
          if (rank == 0) {
            CoopScheduler::Current()->Wait(
                [&released] { return released; },
                [] { return std::string("side-channel flag"); });
          } else {
            released = true;  // the bug under test: no Wake(0)
          }
        });
      },
      "scheduler missed a wake-up for worker 0");
}

}  // namespace
}  // namespace spardl
