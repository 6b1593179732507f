// SPMD protocol-verifier tests: deliberately divergent worker programs
// (mismatched tag, unequal round counts, wrong team size, mixed barrier
// kinds) must come back from `Cluster::Run` as a diagnostic `Status`
// naming both workers' op traces — within one barrier, never by the
// scheduler's deadlock abort, which is where a detector regression would
// end up (loudly and at once, so it cannot stall the suite).

#include "simnet/protocol_check.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "simnet/cluster.h"
#include "simnet/network.h"
#include "topo/topology.h"
#include "topo/topology_spec.h"

namespace spardl {
namespace {

/// The two ways a message is charged: the flat crossbar's closed form
/// and the event engine on every other fabric.
enum class Charge { kClosedForm, kEventOrdered };

/// Every divergence case runs on both: their waits are released
/// differently (a flat inbox wakes its owner directly; an event fabric
/// wakes it when the scheduler pumps the flow's arrival).
class ProtocolCheckTest : public ::testing::TestWithParam<Charge> {
 protected:
  static constexpr int kWorkers = 4;

  TopologySpec Fabric() const {
    if (GetParam() == Charge::kClosedForm) {
      return TopologySpec::Flat(kWorkers, CostModel{1e-3, 1e-6});
    }
    auto spec = TopologySpec::Parse("fattree:2x2x2", kWorkers);
    SPARDL_CHECK(spec.ok()) << spec.status().ToString();
    return *spec;
  }

  /// A cluster with checking on (a missed detection still aborts at once
  /// with the scheduler's deadlock dump).
  std::unique_ptr<Cluster> MakeCluster() {
    auto cluster = std::make_unique<Cluster>(Fabric());
    cluster->EnableProtocolCheck();
    return cluster;
  }
};

Payload OneWord() { return Payload(std::vector<float>{1.0f}); }

TEST_P(ProtocolCheckTest, MatchingProgramPasses) {
  auto cluster = MakeCluster();
  // Two iterations of a ring shift plus both barrier kinds: everything a
  // conforming SPMD program does, to pin zero false positives.
  const Status status = cluster->Run([](Comm& comm) {
    const int next = (comm.rank() + 1) % comm.size();
    const int prev = (comm.rank() + comm.size() - 1) % comm.size();
    for (int iter = 0; iter < 2; ++iter) {
      comm.Send(next, Payload(std::vector<float>{1.0f, 2.0f}), /*tag=*/iter);
      (void)comm.Recv(prev, /*tag=*/iter);
      comm.Barrier();
      comm.MarkIteration();
      comm.BarrierSyncClocks();
    }
  });
  EXPECT_TRUE(status.ok()) << status.ToString();
}

TEST_P(ProtocolCheckTest, MismatchedTagIsDiagnosed) {
  auto cluster = MakeCluster();
  const Status status = cluster->Run([](Comm& comm) {
    if (comm.rank() == 0) {
      // Bug under test: sender stamps tag 7, receiver expects tag 9.
      comm.Send(1, OneWord(), /*tag=*/7);
      (void)comm.Recv(1, /*tag=*/7);
    } else if (comm.rank() == 1) {
      comm.Send(0, OneWord(), /*tag=*/7);
      (void)comm.Recv(0, /*tag=*/9);
    }
    comm.BarrierSyncClocks();
  });
  ASSERT_FALSE(status.ok());
  const std::string message = status.ToString();
  // The diagnosis names the tag mismatch and prints both involved
  // workers' op traces.
  EXPECT_NE(message.find("tag"), std::string::npos) << message;
  EXPECT_NE(message.find("worker 0 op trace"), std::string::npos) << message;
  EXPECT_NE(message.find("worker 1 op trace"), std::string::npos) << message;
}

TEST_P(ProtocolCheckTest, UnequalRoundCountsAreDiagnosed) {
  auto cluster = MakeCluster();
  // Rank 0 believes the exchange runs 3 rounds; everyone else stops after
  // 2 — the "unequal SRS round count" divergence. Rank 0's third recv can
  // never be satisfied once its peer finished.
  const Status status = cluster->Run([](Comm& comm) {
    const int next = (comm.rank() + 1) % comm.size();
    const int prev = (comm.rank() + comm.size() - 1) % comm.size();
    const int rounds = comm.rank() == 0 ? 3 : 2;
    for (int r = 0; r < rounds; ++r) {
      comm.Send(next, OneWord(), /*tag=*/r);
      (void)comm.Recv(prev, /*tag=*/r);
    }
  });
  ASSERT_FALSE(status.ok());
  const std::string message = status.ToString();
  EXPECT_NE(message.find("op trace"), std::string::npos) << message;
}

TEST_P(ProtocolCheckTest, WrongTeamSizeIsDiagnosed) {
  auto cluster = MakeCluster();
  // Rank 0 plans teams of 4 (partner = rank 2); everyone else plans teams
  // of 2 (partner = neighbour) — the "wrong team size" divergence: rank 3
  // waits on a partner that is sending elsewhere.
  const Status status = cluster->Run([](Comm& comm) {
    const int team = comm.rank() == 0 ? 4 : 2;
    const int partner = comm.rank() ^ (team / 2);
    comm.Send(partner, OneWord());
    (void)comm.Recv(partner);
  });
  ASSERT_FALSE(status.ok());
  const std::string message = status.ToString();
  EXPECT_NE(message.find("op trace"), std::string::npos) << message;
}

TEST_P(ProtocolCheckTest, MixedBarrierKindsFailImmediately) {
  auto cluster = MakeCluster();
  const Status status = cluster->Run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.Barrier();
    } else {
      comm.BarrierSyncClocks();
    }
  });
  ASSERT_FALSE(status.ok());
  const std::string message = status.ToString();
  EXPECT_NE(message.find("barrier"), std::string::npos) << message;
  EXPECT_NE(message.find("op trace"), std::string::npos) << message;
}

TEST_P(ProtocolCheckTest, UnconsumedSendAtClockSyncIsDiagnosed) {
  auto cluster = MakeCluster();
  // A peer asymmetry that never blocks anyone: rank 0 sends a message
  // nobody receives, then all ranks reach the iteration boundary. Plain
  // FIFO matching would only surface this one iteration later (or as a
  // leaked-message CHECK at teardown); the checker flags it at the
  // completed clock-sync barrier.
  const Status status = cluster->Run([](Comm& comm) {
    if (comm.rank() == 0) comm.Send(1, OneWord(), /*tag=*/3);
    comm.BarrierSyncClocks();
  });
  ASSERT_FALSE(status.ok());
  const std::string message = status.ToString();
  EXPECT_NE(message.find("unmatched"), std::string::npos) << message;
}

TEST_P(ProtocolCheckTest, FailedRunPoisonsTheCluster) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  auto cluster = MakeCluster();
  const Status status = cluster->Run([](Comm& comm) {
    if (comm.rank() == 0) comm.Send(1, OneWord(), /*tag=*/3);
    comm.BarrierSyncClocks();
  });
  ASSERT_FALSE(status.ok());
  // The divergent run was unwound mid-collective; the cluster's simulated
  // state is garbage and reuse must refuse loudly.
  ASSERT_DEATH((void)cluster->Run([](Comm&) {}),
               "Run after a protocol violation");
}

INSTANTIATE_TEST_SUITE_P(Engines, ProtocolCheckTest,
                         ::testing::Values(Charge::kClosedForm,
                                           Charge::kEventOrdered),
                         [](const auto& suite_info) {
                           return suite_info.param == Charge::kClosedForm
                                      ? std::string("ClosedForm")
                                      : std::string("EventOrdered");
                         });

/// Divergences the suite above does not pin, on the same two fabrics.
using ProtocolDiagnosisTest = ProtocolCheckTest;

TEST_P(ProtocolDiagnosisTest, LowestPairIsReportedAmongUnmatchedSends) {
  auto cluster = MakeCluster();
  // Six unmatched sends reach one clock-sync barrier. The lowest
  // (src, dst) pair, 1->2, is neither the first posted (3->0), nor in the
  // first non-empty inbox (0), nor worker 1's first send (1->3), and its
  // inbox also holds a send from worker 3.
  const Status status = cluster->Run([](Comm& comm) {
    if (comm.rank() == 3) {
      comm.Send(0, OneWord(), /*tag=*/8);
      comm.Send(2, OneWord(), /*tag=*/9);
    }
    if (comm.rank() == 2) comm.Send(1, OneWord(), /*tag=*/5);
    comm.Barrier();
    if (comm.rank() == 1) {
      comm.Send(3, OneWord(), /*tag=*/4);
      comm.Send(2, OneWord(), /*tag=*/6);
      comm.Send(2, Payload(std::vector<float>{1.0f, 2.0f}), /*tag=*/7);
    }
    comm.BarrierSyncClocks();
  });
  ASSERT_FALSE(status.ok());
  const std::string message = status.ToString();
  EXPECT_NE(message.find("peer asymmetry: 2 unmatched send(s) from worker 1 "
                         "to worker 2 (first: tag=6, words=1)"),
            std::string::npos)
      << message;
  EXPECT_NE(message.find("worker 1 op trace"), std::string::npos) << message;
  EXPECT_NE(message.find("worker 2 op trace"), std::string::npos) << message;
}

TEST_P(ProtocolDiagnosisTest, WorkerReturningBeforeABarrierIsDiagnosed) {
  auto cluster = MakeCluster();
  const Status status = cluster->Run([](Comm& comm) {
    if (comm.rank() != 2) comm.Barrier();
  });
  ASSERT_FALSE(status.ok());
  const std::string message = status.ToString();
  EXPECT_NE(message.find("incomplete barrier: worker 0 waits at Barrier but "
                         "worker 2 can never arrive"),
            std::string::npos)
      << message;
}

TEST_P(ProtocolDiagnosisTest, StallOutsideTheCheckersViewStillAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  auto cluster = MakeCluster();
  Network& network = cluster->network();
  // Rank 0 waits at the network's barrier behind `Comm`'s back, so the
  // checker sees no blocked worker and leaves the stall to the
  // scheduler's deadlock abort.
  ASSERT_DEATH((void)cluster->Run([&network](Comm& comm) {
    if (comm.rank() == 0) network.BarrierWait();
  }),
               "cooperative scheduler stalled");
}

INSTANTIATE_TEST_SUITE_P(Engines, ProtocolDiagnosisTest,
                         ::testing::Values(Charge::kClosedForm,
                                           Charge::kEventOrdered),
                         [](const auto& suite_info) {
                           return suite_info.param == Charge::kClosedForm
                                      ? std::string("ClosedForm")
                                      : std::string("EventOrdered");
                         });

/// Non-cluster unit coverage of the checker's bookkeeping, over a bare
/// network: no scheduler runs, so each test calls `DiagnoseStall` by hand
/// where the scheduler would.
Packet OneWordPacket(int tag) {
  return Packet{OneWord(), /*words=*/1, /*sent_at=*/0.0, tag};
}

TEST(ProtocolCheckerUnitTest, StatusIsOkUntilDiagnosis) {
  Network network(2, CostModel::Ethernet());
  ProtocolChecker checker(network);
  checker.BeginRun();
  checker.OnSend(0, 1, /*tag=*/0, /*words=*/1);
  network.Post(0, 1, OneWordPacket(/*tag=*/0));
  checker.OnRecvPosted(1, 0, /*tag=*/0);
  (void)network.RecvPacket(0, 1, /*tag=*/0, /*receiver_now=*/0.0);
  checker.OnRecvMatched(1, /*words=*/1);
  checker.OnWorkerDone(0);
  checker.OnWorkerDone(1);
  EXPECT_FALSE(checker.failed());
  EXPECT_TRUE(checker.status().ok());
}

TEST(ProtocolCheckerUnitTest, FirstDiagnosisWins) {
  Network network(2, CostModel::Ethernet());
  ProtocolChecker checker(network);
  checker.BeginRun();
  // Worker 1 waits on tag 9 while tag 7 sits in its inbox; worker 0 is
  // done -> stuck, diagnosed as a tag mismatch.
  checker.OnSend(0, 1, /*tag=*/7, /*words=*/1);
  network.Post(0, 1, OneWordPacket(/*tag=*/7));
  checker.OnWorkerDone(0);
  checker.OnRecvPosted(1, 0, /*tag=*/9);
  checker.DiagnoseStall();
  ASSERT_TRUE(checker.failed());
  const std::string first = checker.status().ToString();
  EXPECT_NE(first.find("tag"), std::string::npos) << first;
  // Later events must not replace the latched diagnosis.
  checker.OnWorkerDone(1);
  checker.DiagnoseStall();
  EXPECT_EQ(checker.status().ToString(), first);
}

TEST(ProtocolCheckerUnitTest, BeginRunAfterFailureDies) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  Network network(2, CostModel::Ethernet());
  ProtocolChecker checker(network);
  checker.BeginRun();
  checker.OnWorkerDone(0);
  checker.OnRecvPosted(1, 0, /*tag=*/0);  // peer done, recv unsatisfiable
  checker.DiagnoseStall();
  ASSERT_TRUE(checker.failed());
  ASSERT_DEATH(checker.BeginRun(), "");
}

}  // namespace
}  // namespace spardl
