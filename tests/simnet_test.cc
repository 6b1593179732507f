#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "baselines/registry.h"
#include "simnet/cluster.h"
#include "simnet/comm.h"
#include "simnet/network.h"
#include "test_util.h"
#include "topo/topology_spec.h"

namespace spardl {
namespace {

using ::spardl::testing::HeapMiB;

TEST(PayloadWordsTest, CountsEveryVariant) {
  EXPECT_EQ(PayloadWords(Payload(SparseVector({1, 2}, {1.0f, 2.0f}))), 4u);
  EXPECT_EQ(PayloadWords(Payload(std::vector<float>{1, 2, 3})), 3u);
  EXPECT_EQ(PayloadWords(Payload(std::vector<uint32_t>{7})), 1u);
  EXPECT_EQ(PayloadWords(Payload(3.5)), 1u);
  EXPECT_EQ(PayloadWords(Payload(int64_t{9})), 1u);
  std::vector<SparseVector> parts;
  parts.push_back(SparseVector({1}, {1.0f}));
  parts.push_back(SparseVector({2, 3}, {1.0f, 2.0f}));
  EXPECT_EQ(PayloadWords(Payload(parts)), 6u);
}

// A part list is charged as the parts it lists, and a prefix only for its
// first `count` parts, even where it ends inside a join's tail list.
TEST(PayloadWordsTest, ChargesTheListedParts) {
  const PartList one(SparseVector({1}, {1.0f}));                  // 2 words
  const PartList two(SparseVector({2, 3}, {1.0f, 2.0f}));         // 4
  const PartList three(SparseVector({4, 5, 6}, {1.0f, 2.0f, 3.0f}));  // 6
  const PartList all(one, PartList(two, three));
  EXPECT_EQ(PayloadWords(Payload(all)), 12u);
  EXPECT_EQ(PayloadWords(Payload(all.Prefix(2))), 6u);
  EXPECT_EQ(PayloadWords(Payload(all.Prefix(1))), 2u);
  EXPECT_EQ(PayloadWords(Payload(PartList(all.Prefix(2), three))), 12u);
  EXPECT_EQ(PayloadWords(Payload(PartList())), 0u);
}

TEST(CommTest, SendRecvDeliversPayload) {
  Cluster cluster(2, CostModel::Free());
  cluster.Run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.Send(1, Payload(int64_t{42}));
    } else {
      EXPECT_EQ(comm.RecvAs<int64_t>(0), 42);
    }
  });
}

// Inputs of the inbox-matching tests: the two-worker case, and three
// workers on both charge paths, where ranks 0 and 2 share rank 1's inbox.
std::vector<TopologySpec> InboxFabrics() {
  return {TopologySpec::Flat(2, CostModel::Free()),
          TopologySpec::Flat(3, CostModel::Free()),
          TopologySpec::Star(3, CostModel::Free())};
}

TEST(CommTest, FifoOrderPerChannel) {
  constexpr int64_t kMessages = 6;
  for (const TopologySpec& spec : InboxFabrics()) {
    SCOPED_TRACE(spec.Describe());
    Cluster cluster(spec);
    cluster.Run([](Comm& comm) {
      if (comm.rank() != 1) {
        // Alternating tags: every sender interleaves two channels.
        for (int64_t i = 0; i < kMessages; ++i) {
          comm.Send(1, Payload(100 * comm.rank() + i),
                    /*tag=*/static_cast<int>(i % 2));
        }
      }
      // Every packet is queued before rank 1 takes the first one, so the
      // order below differs from the arrival order.
      comm.Barrier();
      if (comm.rank() != 1) return;
      for (int src = comm.size() - 1; src >= 0; --src) {
        if (src == 1) continue;
        for (const int tag : {1, 0}) {
          for (int64_t i = tag; i < kMessages; i += 2) {
            EXPECT_EQ(comm.RecvAs<int64_t>(src, tag), 100 * src + i);
          }
        }
      }
    });
    EXPECT_TRUE(cluster.network().AllMailboxesEmpty());
  }
}

TEST(CommTest, TagsMatchOutOfOrder) {
  for (const TopologySpec& spec : InboxFabrics()) {
    SCOPED_TRACE(spec.Describe());
    Cluster cluster(spec);
    cluster.Run([](Comm& comm) {
      if (comm.rank() != 1) {
        comm.Send(1, Payload(int64_t{100 * comm.rank() + 7}), /*tag=*/7);
        comm.Send(1, Payload(int64_t{100 * comm.rank() + 9}), /*tag=*/9);
      }
      comm.Barrier();
      if (comm.rank() != 1) return;
      // Tag 9 first, last sender first: the reverse of the send order.
      for (const int tag : {9, 7}) {
        for (int src = comm.size() - 1; src >= 0; --src) {
          if (src == 1) continue;
          EXPECT_EQ(comm.RecvAs<int64_t>(src, tag), 100 * src + tag);
        }
      }
    });
    EXPECT_TRUE(cluster.network().AllMailboxesEmpty());
  }
}

TEST(CommTest, RecvChargesAlphaPlusBetaPerWord) {
  const CostModel cm{1e-3, 1e-6};
  Cluster cluster(2, cm);
  cluster.Run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.Send(1, Payload(std::vector<float>(100, 1.0f)));
    } else {
      comm.RecvAs<std::vector<float>>(0);
      EXPECT_DOUBLE_EQ(comm.sim_now(), 1e-3 + 100 * 1e-6);
      EXPECT_EQ(comm.stats().messages_received, 1u);
      EXPECT_EQ(comm.stats().words_received, 100u);
    }
  });
}

TEST(CommTest, RecvWaitsForSenderClock) {
  const CostModel cm{1.0, 0.0};
  Cluster cluster(2, cm);
  cluster.Run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.Compute(10.0);  // sender is busy until t = 10
      comm.Send(1, Payload(int64_t{1}));
    } else {
      comm.RecvAs<int64_t>(0);
      // max(0, 10) + alpha = 11.
      EXPECT_DOUBLE_EQ(comm.sim_now(), 11.0);
    }
  });
}

TEST(CommTest, SerializedReceivesAccumulateLatency) {
  const CostModel cm{1.0, 0.0};
  Cluster cluster(4, cm);
  cluster.Run([&](Comm& comm) {
    if (comm.rank() == 0) {
      for (int src = 1; src < 4; ++src) comm.RecvAs<int64_t>(src);
      EXPECT_DOUBLE_EQ(comm.sim_now(), 3.0);  // three alphas, serialised
    } else {
      comm.Send(0, Payload(int64_t{comm.rank()}));
    }
  });
}

TEST(CommTest, SendIsFreeForSender) {
  Cluster cluster(2, CostModel::Ethernet());
  cluster.Run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.Send(1, Payload(std::vector<float>(1000, 1.0f)));
      EXPECT_DOUBLE_EQ(comm.sim_now(), 0.0);
    } else {
      comm.RecvAs<std::vector<float>>(0);
    }
  });
}

TEST(CommTest, WordsOverrideReplacesNaturalSize) {
  const CostModel cm{0.0, 1.0};
  Cluster cluster(2, cm);
  cluster.Run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.Send(1, Payload(SparseVector({1}, {1.0f})), /*tag=*/0,
                /*words_override=*/500);
    } else {
      comm.RecvAs<SparseVector>(0);
      EXPECT_EQ(comm.stats().words_received, 500u);
      EXPECT_DOUBLE_EQ(comm.sim_now(), 500.0);
    }
  });
}

TEST(CommTest, ComputeAdvancesClockAndStats) {
  Cluster cluster(1, CostModel::Free());
  cluster.Run([](Comm& comm) {
    comm.Compute(2.5);
    EXPECT_DOUBLE_EQ(comm.sim_now(), 2.5);
    EXPECT_DOUBLE_EQ(comm.stats().compute_seconds, 2.5);
  });
}

TEST(CommTest, BarrierSyncClocksAlignsToMax) {
  Cluster cluster(3, CostModel::Free());
  cluster.Run([](Comm& comm) {
    comm.Compute(static_cast<double>(comm.rank()));
    comm.BarrierSyncClocks();
    EXPECT_DOUBLE_EQ(comm.sim_now(), 2.0);
  });
}

TEST(ClusterTest, StatsAggregation) {
  Cluster cluster(2, CostModel::Free());
  cluster.Run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.Send(1, Payload(std::vector<float>(10, 0.0f)));
    } else {
      comm.RecvAs<std::vector<float>>(0);
    }
  });
  const CommStats total = cluster.TotalStats();
  EXPECT_EQ(total.messages_sent, 1u);
  EXPECT_EQ(total.messages_received, 1u);
  EXPECT_EQ(total.words_sent, 10u);
  EXPECT_EQ(total.words_received, 10u);
  EXPECT_EQ(cluster.MaxWordsReceived(), 10u);
  EXPECT_EQ(cluster.MaxMessagesReceived(), 1u);
}

TEST(ClusterTest, ResetClearsClocksAndStats) {
  Cluster cluster(2, CostModel::Ethernet());
  cluster.Run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.Send(1, Payload(int64_t{1}));
    } else {
      comm.RecvAs<int64_t>(0);
    }
  });
  EXPECT_GT(cluster.MaxSimSeconds(), 0.0);
  cluster.ResetClocksAndStats();
  EXPECT_DOUBLE_EQ(cluster.MaxSimSeconds(), 0.0);
  EXPECT_EQ(cluster.TotalStats().messages_sent, 0u);
}

TEST(ClusterTest, RunReusableAcrossPhases) {
  Cluster cluster(3, CostModel::Free());
  for (int phase = 0; phase < 3; ++phase) {
    cluster.Run([&](Comm& comm) {
      const int next = (comm.rank() + 1) % comm.size();
      const int prev = (comm.rank() + comm.size() - 1) % comm.size();
      comm.Send(next, Payload(int64_t{phase}));
      EXPECT_EQ(comm.RecvAs<int64_t>(prev), phase);
    });
  }
}

TEST(NetworkTest, MailboxesEmptyAfterBalancedTraffic) {
  Cluster cluster(2, CostModel::Free());
  cluster.Run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.Send(1, Payload(int64_t{1}));
    } else {
      comm.RecvAs<int64_t>(0);
    }
  });
  EXPECT_TRUE(cluster.network().AllMailboxesEmpty());
}

// No P^2 state: a fresh cluster grows with P, never with P^2 — not on flat
// (whose closed form needs no links), on any other fabric, or with the
// protocol checker on (which reads the network's inboxes). At P = 4096
// one pointer per worker pair alone would be 128 MiB.
TEST(ClusterHeapTest, FreshClusterAtP4096HoldsUnder10MiB) {
  constexpr int kWorkers = 4096;
  for (const char* fabric :
       {"flat", "star", "fattree:8x4x2", "ring", "torus:64x64"}) {
    for (const bool checked : {false, true}) {
      SCOPED_TRACE(std::string(fabric) + (checked ? " + protocol check" : ""));
      auto spec = TopologySpec::Parse(fabric, kWorkers);
      ASSERT_TRUE(spec.ok()) << spec.status().ToString();
      const double before = HeapMiB();
      Cluster cluster(*spec);
      if (checked) cluster.EnableProtocolCheck();
      EXPECT_LT(HeapMiB() - before, 10.0);
    }
  }
}

// Nor in the methods: the cluster keeps the one team layout SparDL runs
// on, so every per-worker instance holds O(1) state and a cluster's P
// instances hold O(P). Ok-Topk is exempt: its P + 1 region boundaries are
// the algorithm's own state. Without residuals no instance holds O(n).
TEST(AlgorithmHeapTest, InstanceAtP4096HoldsUnder4KiB) {
  constexpr int kWorkers = 4096;
  std::vector<std::pair<std::string, int>> cases = {{"spardl", 64}};
  for (const std::string& name : AlgorithmNames()) {
    if (name != "oktopk") cases.emplace_back(name, 1);
  }
  for (const auto& [name, num_teams] : cases) {
    SCOPED_TRACE(name + " d=" + std::to_string(num_teams));
    AlgorithmConfig config;
    config.n = 1 << 20;
    config.k = config.n / 100;
    config.num_workers = kWorkers;
    config.num_teams = num_teams;
    config.residual_mode = ResidualMode::kNone;
    std::vector<std::unique_ptr<SparseAllReduce>> algos;
    algos.reserve(kWorkers);
    const double before = HeapMiB();
    for (int r = 0; r < kWorkers; ++r) {
      auto created = CreateAlgorithm(name, config);
      ASSERT_TRUE(created.ok()) << created.status().ToString();
      algos.push_back(std::move(*created));
    }
    EXPECT_LT((HeapMiB() - before) * 1024 / kWorkers, 4.0);  // KiB
  }
}

TEST(NetworkDeathTest, UnconsumedMessageFailsTheRun) {
  EXPECT_DEATH(
      {
        Cluster cluster(2, CostModel::Free());
        (void)cluster.Run([](Comm& comm) {
          if (comm.rank() == 0) comm.Send(1, Payload(int64_t{1}));
        });
      },
      "left unconsumed messages");
}

// Outside any fiber (endpoints driven by hand) only pumping the event
// engine can satisfy a wait; with nothing left to pump it must fail
// naming the wait instead of hanging, on both charge paths.
TEST(NetworkDeathTest, WaitOutsideFiberWithNothingToPumpFails) {
  for (const char* fabric : {"flat", "star"}) {
    auto spec = TopologySpec::Parse(fabric, 2);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    EXPECT_DEATH(
        {
          Network network(*spec);
          Comm receiver(&network, 1);
          (void)receiver.Recv(0);
        },
        "Recv dst=1 src=0 tag=0 can never complete")
        << fabric;
  }
}

// A worker that returns while its peer still waits is a collective
// deadlock, and the scheduler must say so at once, naming the abandoned
// wait — on the flat fabric's waits as on the event engine's.
enum class PeerWait { kRecv, kBarrier, kBarrierSyncClocks };

class DeadlockDiagnosisDeathTest
    : public ::testing::TestWithParam<std::tuple<std::string, PeerWait>> {};

TEST_P(DeadlockDiagnosisDeathTest, AbandonedWaitIsNamed) {
  const auto [fabric, wait] = GetParam();
  auto spec = TopologySpec::Parse(fabric, 2);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  static constexpr const char* kWaitDescriptions[] = {
      "Recv dst=0 src=1 tag=0", "BarrierWait", "MaxClockSync"};
  EXPECT_DEATH(
      {
        Cluster cluster(*spec);
        (void)cluster.Run([wait = wait](Comm& comm) {
          if (comm.rank() == 1) return;
          switch (wait) {
            case PeerWait::kRecv:
              (void)comm.Recv(1);
              break;
            case PeerWait::kBarrier:
              comm.Barrier();
              break;
            case PeerWait::kBarrierSyncClocks:
              comm.BarrierSyncClocks();
              break;
          }
        });
      },
      std::string("collective deadlock\\?\n  worker 0: ") +
          kWaitDescriptions[static_cast<int>(wait)]);
}

std::string DeadlockCaseName(
    const ::testing::TestParamInfo<DeadlockDiagnosisDeathTest::ParamType>&
        info) {
  static constexpr const char* kWaitNames[] = {"Recv", "Barrier",
                                               "BarrierSyncClocks"};
  return std::get<0>(info.param) + "_" +
         kWaitNames[static_cast<int>(std::get<1>(info.param))];
}

INSTANTIATE_TEST_SUITE_P(
    Waits, DeadlockDiagnosisDeathTest,
    ::testing::Combine(::testing::Values(std::string("flat"),
                                         std::string("star")),
                       ::testing::Values(PeerWait::kRecv, PeerWait::kBarrier,
                                         PeerWait::kBarrierSyncClocks)),
    DeadlockCaseName);

}  // namespace
}  // namespace spardl
