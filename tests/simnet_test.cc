#include <gtest/gtest.h>

#include <vector>

#include "simnet/cluster.h"
#include "simnet/comm.h"
#include "simnet/network.h"

namespace spardl {
namespace {

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

TEST(CommTest, FifoOrderPerChannel) {
  Cluster cluster(2, CostModel::Free());
  cluster.Run([](Comm& comm) {
    if (comm.rank() == 0) {
      for (int64_t i = 0; i < 5; ++i) comm.Send(1, Payload(i));
    } else {
      for (int64_t i = 0; i < 5; ++i) EXPECT_EQ(comm.RecvAs<int64_t>(0), i);
    }
  });
}

TEST(CommTest, TagsMatchOutOfOrder) {
  Cluster cluster(2, CostModel::Free());
  cluster.Run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.Send(1, Payload(int64_t{1}), /*tag=*/7);
      comm.Send(1, Payload(int64_t{2}), /*tag=*/9);
    } else {
      EXPECT_EQ(comm.RecvAs<int64_t>(0, /*tag=*/9), 2);
      EXPECT_EQ(comm.RecvAs<int64_t>(0, /*tag=*/7), 1);
    }
  });
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

}  // namespace
}  // namespace spardl
