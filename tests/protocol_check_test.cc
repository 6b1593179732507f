// SPMD protocol-verifier tests: deliberately divergent worker programs
// (mismatched tag, unequal round counts, wrong team size, mixed barrier
// kinds) must come back from `Cluster::Run` as a diagnostic `Status`
// naming both workers' op traces — within one barrier, never by hanging
// until the 120 s wait watchdog. Each run keeps a short watchdog anyway,
// so a detector regression fails the test loudly instead of stalling the
// suite.

#include "simnet/protocol_check.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "simnet/cluster.h"
#include "topo/topology.h"
#include "topo/topology_spec.h"

namespace spardl {
namespace {

/// The two ways a message is charged: the flat crossbar's closed form
/// and the event engine on every other fabric.
enum class Charge { kClosedForm, kEventOrdered };

/// Every divergence case runs on both: they block differently (a
/// condition wait on the inbox or sync cv vs. engine BlockUntil).
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

  /// A cluster with checking on and a short wall-clock watchdog, so a
  /// missed detection aborts in seconds, not minutes.
  std::unique_ptr<Cluster> MakeCluster() {
    auto cluster = std::make_unique<Cluster>(Fabric());
    cluster->EnableProtocolCheck();
    cluster->network().set_recv_timeout_seconds(20.0);
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

/// Non-cluster unit coverage of the checker's bookkeeping.
TEST(ProtocolCheckerUnitTest, StatusIsOkUntilDiagnosis) {
  ProtocolChecker checker(2);
  checker.BeginRun();
  checker.OnSend(0, 1, /*tag=*/0, /*words=*/4);
  checker.OnRecvPosted(1, 0, /*tag=*/0);
  checker.OnRecvMatched(1, 0, /*tag=*/0, /*words=*/4);
  checker.OnWorkerDone(0);
  checker.OnWorkerDone(1);
  EXPECT_FALSE(checker.failed());
  EXPECT_TRUE(checker.status().ok());
}

TEST(ProtocolCheckerUnitTest, FirstDiagnosisWins) {
  ProtocolChecker checker(2);
  checker.BeginRun();
  // Worker 1 waits on tag 9 while tag 7 sits on the channel; worker 0 is
  // done -> stuck, diagnosed as a tag mismatch.
  checker.OnSend(0, 1, /*tag=*/7, /*words=*/1);
  checker.OnWorkerDone(0);
  checker.OnRecvPosted(1, 0, /*tag=*/9);
  ASSERT_TRUE(checker.failed());
  const std::string first = checker.status().ToString();
  EXPECT_NE(first.find("tag"), std::string::npos) << first;
  // Later events must not replace the latched diagnosis.
  checker.OnWorkerDone(1);
  EXPECT_EQ(checker.status().ToString(), first);
}

TEST(ProtocolCheckerUnitTest, BeginRunAfterFailureDies) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  ProtocolChecker checker(2);
  checker.BeginRun();
  checker.OnWorkerDone(0);
  checker.OnRecvPosted(1, 0, /*tag=*/0);  // peer done, recv unsatisfiable
  ASSERT_TRUE(checker.failed());
  ASSERT_DEATH(checker.BeginRun(), "");
}

}  // namespace
}  // namespace spardl
