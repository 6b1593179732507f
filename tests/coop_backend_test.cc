// The fiber scheduler behind `Cluster::Run`: simulated results must be a
// pure function of the SPMD program — bit-identical at P >= 1024 on a
// contended event-engine fabric, and unchanged when each round's runnable
// fibers are resumed in a seeded random order instead of rank order —
// with protocol diagnosis intact and a bounded deadlock diagnosis (the
// scheduler aborts with a waiter dump the moment no fiber can run and no
// event can be pumped). Wake-ups are targeted: a waiter's predicate is
// re-checked only after an event names it, so the scheduler's work per
// message is O(1) at any P, and a missed wake aborts loudly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "baselines/registry.h"
#include "common/logging.h"
#include "des/coop_scheduler.h"
#include "dl/cases.h"
#include "dl/grad_profile.h"
#include "dl/trainer.h"
#include "simnet/cluster.h"
#include "sparse/sparse_vector.h"
#include "test_util.h"
#include "topo/topology_spec.h"

namespace spardl {
namespace {

struct RunOutcome {
  /// Every worker's per-iteration reduced gradients, by rank.
  std::vector<std::vector<SparseVector>> outputs;
  /// Every worker's final simulated clock (pins the timing model).
  std::vector<double> clocks;
};

/// The repo's standard contended fabric: an oversubscribed fat-tree
/// (racks of 8, oversub 4.0, 2 ECMP cores).
TopologySpec ContendedFatTree(int p) {
  return TopologySpec::FatTree(p, /*rack_size=*/8, /*oversubscription=*/4.0,
                               CostModel::Ethernet(), /*num_cores=*/2);
}

/// One measured run of `algo` on `spec` under the given fiber schedule.
RunOutcome MeasuredRun(uint64_t schedule_seed, const TopologySpec& spec,
                       const std::string& algo, size_t n, size_t k,
                       int iterations) {
  const int p = spec.num_workers;
  const testing::ScopedScheduleSeed seed(schedule_seed);
  Cluster cluster(spec);

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
  for (int r = 0; r < p; ++r) {
    outcome.clocks.push_back(cluster.comm(r).sim_now());
  }
  outcome.outputs = std::move(per_worker);
  return outcome;
}

// The scale criterion: five fresh runs of a contended event-engine
// workload at P = 1024 must agree bit for bit (outputs and clocks), each
// under a different fiber schedule. One OS thread is carrying 1024
// workers here — any scheduler-order leak into the simulation would show
// up as an output or clock mismatch.
TEST(CoopBackendTest, BitIdenticalAcrossRunsAtP1024) {
  constexpr int kWorkers = 1024;
  constexpr size_t kN = 100'000;
  constexpr size_t kK = 100;
  RunOutcome first;
  for (int run = 0; run < 5; ++run) {
    RunOutcome outcome =
        MeasuredRun(/*schedule_seed=*/static_cast<uint64_t>(run),
                    ContendedFatTree(kWorkers), "gtopk", kN, kK,
                    /*iterations=*/1);
    ASSERT_EQ(outcome.outputs[0].size(), 1u);
    EXPECT_GT(outcome.outputs[0][0].size(), 0u);
    if (run == 0) {
      first = std::move(outcome);
      continue;
    }
    EXPECT_TRUE(outcome.outputs == first.outputs)
        << "outputs diverged on run " << run;
    ASSERT_EQ(outcome.clocks.size(), first.clocks.size());
    for (int r = 0; r < kWorkers; ++r) {
      ASSERT_EQ(outcome.clocks[static_cast<size_t>(r)],
                first.clocks[static_cast<size_t>(r)])
          << "worker " << r << " clock diverged on run " << run;
    }
  }
}

/// Schedule-shuffle equivalence: every registry method on the flat closed
/// form and on the contended event-engine fat-tree, run under rank-order
/// scheduling (seed 0) and under three shuffled schedules, must agree
/// exactly on every worker's reduced gradients and final clock.
enum class Fabric { kFlat, kFatTree };

class ScheduleShuffleTest
    : public ::testing::TestWithParam<std::tuple<Fabric, std::string>> {};

TEST_P(ScheduleShuffleTest, ShuffledSchedulesMatchRankOrderExactly) {
  constexpr int kWorkers = 16;
  constexpr size_t kN = 20'000;
  constexpr size_t kK = 200;
  const auto& [fabric, algo] = GetParam();
  const TopologySpec spec = fabric == Fabric::kFlat
                                ? TopologySpec::Flat(kWorkers)
                                : ContendedFatTree(kWorkers);
  const RunOutcome ranked =
      MeasuredRun(/*schedule_seed=*/0, spec, algo, kN, kK, /*iterations=*/2);
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const RunOutcome shuffled =
        MeasuredRun(seed, spec, algo, kN, kK, /*iterations=*/2);
    ASSERT_EQ(shuffled.outputs.size(), ranked.outputs.size());
    for (int r = 0; r < kWorkers; ++r) {
      const auto& mine = shuffled.outputs[static_cast<size_t>(r)];
      const auto& theirs = ranked.outputs[static_cast<size_t>(r)];
      ASSERT_EQ(mine.size(), theirs.size());
      for (size_t i = 0; i < mine.size(); ++i) {
        EXPECT_EQ(mine[i], theirs[i])
            << "seed " << seed << " worker " << r << " iteration " << i;
      }
      EXPECT_EQ(shuffled.clocks[static_cast<size_t>(r)],
                ranked.clocks[static_cast<size_t>(r)])
          << "seed " << seed << " worker " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    MethodsAndFabrics, ScheduleShuffleTest,
    ::testing::Combine(::testing::Values(Fabric::kFlat, Fabric::kFatTree),
                       ::testing::ValuesIn(AlgorithmNames())),
    [](const auto& param_info) {
      return std::string(std::get<0>(param_info.param) == Fabric::kFlat
                             ? "Flat_"
                             : "FatTree_") +
             std::get<1>(param_info.param);
    });

/// One overlap-mode training run (bucketed priority scheduling, nonzero
/// compute) on the contended fat-tree: per-epoch scoreboard, final
/// parameters and every worker's clock and counters.
struct TrainOutcome {
  TrainResult result;
  std::vector<double> clocks;
  std::vector<uint64_t> words_received;
};

TrainOutcome OverlapTraining(uint64_t schedule_seed) {
  constexpr int kWorkers = 8;
  const TrainingCaseSpec spec = MakeTrainingCase("vgg16");
  auto dataset = spec.dataset_factory();
  TrainerConfig config = spec.default_config;
  config.epochs = 2;
  config.iterations_per_epoch = 6;
  config.compute_seconds_per_iteration = 1e-2;
  config.sync_mode = GradSyncMode::kBucketedPriority;
  const testing::ScopedScheduleSeed seed(schedule_seed);
  Cluster cluster(ContendedFatTree(kWorkers));
  TrainOutcome outcome;
  outcome.result = TrainDistributed(
      cluster, *dataset, spec.model_factory,
      [](size_t n) {
        AlgorithmConfig algo;
        algo.n = n;
        algo.k = std::max<size_t>(1, n / 20);
        algo.num_workers = kWorkers;
        return std::move(*CreateAlgorithm("spardl", algo));
      },
      config);
  for (int r = 0; r < kWorkers; ++r) {
    outcome.clocks.push_back(cluster.comm(r).sim_now());
    outcome.words_received.push_back(cluster.WorkerStats(r).words_received);
  }
  return outcome;
}

TEST(ScheduleShuffleTrainingTest, OverlapTrainingMatchesRankOrderExactly) {
  const TrainOutcome ranked = OverlapTraining(/*schedule_seed=*/0);
  ASSERT_TRUE(ranked.result.replicas_consistent);
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const TrainOutcome shuffled = OverlapTraining(seed);
    EXPECT_TRUE(shuffled.result.replicas_consistent) << "seed " << seed;
    EXPECT_EQ(shuffled.result.final_param_checksum,
              ranked.result.final_param_checksum)
        << "seed " << seed;
    ASSERT_EQ(shuffled.result.epochs.size(), ranked.result.epochs.size());
    for (size_t e = 0; e < ranked.result.epochs.size(); ++e) {
      const EpochRecord& mine = shuffled.result.epochs[e];
      const EpochRecord& theirs = ranked.result.epochs[e];
      EXPECT_EQ(mine.train_loss, theirs.train_loss) << "seed " << seed;
      EXPECT_EQ(mine.test_metric, theirs.test_metric) << "seed " << seed;
      EXPECT_EQ(mine.sim_seconds_cumulative, theirs.sim_seconds_cumulative)
          << "seed " << seed << " epoch " << e;
      EXPECT_EQ(mine.comm_seconds_epoch, theirs.comm_seconds_epoch)
          << "seed " << seed << " epoch " << e;
      EXPECT_EQ(mine.compute_seconds_epoch, theirs.compute_seconds_epoch)
          << "seed " << seed << " epoch " << e;
    }
    EXPECT_EQ(shuffled.clocks, ranked.clocks) << "seed " << seed;
    EXPECT_EQ(shuffled.words_received, ranked.words_received)
        << "seed " << seed;
  }
}

/// The protocol verifier's negative path must diagnose divergence from
/// inside the scheduler (the violation unwinds every fiber and funnels
/// out of the scheduler loop as a `Status`).
TEST(BackendProtocolTest, TagMismatchIsDiagnosed) {
  Cluster cluster(TopologySpec::Flat(2, CostModel{1e-3, 1e-6}));
  cluster.EnableProtocolCheck();
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

// Without the verifier, a collective deadlock must die *immediately* with
// the scheduler's waiter dump — every fiber suspended, nothing pumpable.
TEST(CoopBackendDeathTest, DeadlockDiagnosedWithWaiterDump) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  auto spec = TopologySpec::Parse("fattree:2x2", 2);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_DEATH(
      {
        Cluster cluster(*spec);
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
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        Cluster cluster(TopologySpec::Flat(2, CostModel{1e-3, 1e-6}));
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
