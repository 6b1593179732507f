#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "allocation_counter.h"
#include "collectives/dense_collectives.h"
#include "collectives/sparse_allgather.h"
#include "simnet/network.h"
#include "sparse/block_partition.h"
#include "test_util.h"
#include "topo/placement.h"
#include "topo/topology_spec.h"

namespace spardl {
namespace {

using ::spardl::testing::HeapMiB;
using ::spardl::testing::RunOnCluster;

SparseVector RankVector(int rank) {
  // Distinct, overlapping supports across ranks.
  SparseVector v;
  v.PushBack(static_cast<GradIndex>(rank), 1.0f + static_cast<float>(rank));
  v.PushBack(static_cast<GradIndex>(100 + 2 * rank), -1.0f);
  return v;
}

class AllGatherSweep : public ::testing::TestWithParam<int> {};

// Every worker lists every part by position, and all of them list the
// same copy of each part.
void ExpectAllPartsInOrder(const std::vector<GatheredParts>& results) {
  const int p = static_cast<int>(results.size());
  for (int rank = 0; rank < p; ++rank) {
    const GatheredParts& gathered = results[static_cast<size_t>(rank)];
    ASSERT_EQ(gathered.parts.size(), static_cast<size_t>(p));
    EXPECT_EQ(gathered.list.size(), static_cast<size_t>(p));
    for (int j = 0; j < p; ++j) {
      const SparseVector* part = gathered.parts[static_cast<size_t>(j)];
      EXPECT_EQ(*part, RankVector(j))
          << "P=" << p << " rank=" << rank << " part=" << j;
      EXPECT_EQ(part, results[0].parts[static_cast<size_t>(j)])
          << "P=" << p << " rank=" << rank << " part=" << j;
    }
  }
}

TEST_P(AllGatherSweep, BruckGathersAllPartsInOrder) {
  const int p = GetParam();
  ExpectAllPartsInOrder(RunOnCluster<GatheredParts>(p, [](Comm& comm) {
    return BruckAllGather(comm, CommGroup::World(comm),
                          RankVector(comm.rank()));
  }));
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, AllGatherSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 14,
                                           16));

class RecursiveDoublingSweep : public ::testing::TestWithParam<int> {};

TEST_P(RecursiveDoublingSweep, MatchesBruckSemantics) {
  const int p = GetParam();
  ExpectAllPartsInOrder(RunOnCluster<GatheredParts>(p, [](Comm& comm) {
    return RecursiveDoublingAllGather(comm, CommGroup::World(comm),
                                      RankVector(comm.rank()));
  }));
}

INSTANTIATE_TEST_SUITE_P(PowerOfTwo, RecursiveDoublingSweep,
                         ::testing::Values(1, 2, 4, 8, 16));

TEST(BruckAllGatherTest, LatencyIsCeilLog2Rounds) {
  for (int p : {2, 3, 5, 8, 14}) {
    Cluster cluster(p, CostModel::Ethernet());
    cluster.Run([](Comm& comm) {
      BruckAllGather(comm, CommGroup::World(comm), RankVector(comm.rank()));
    });
    const int expected_rounds = SrsBagLayout::NumSteps(p);
    EXPECT_EQ(cluster.MaxMessagesReceived(),
              static_cast<uint64_t>(expected_rounds))
        << "P=" << p;
  }
}

TEST(BruckAllGatherTest, BandwidthIsOtherPartsOnce) {
  // Equal 2-entry parts: every worker must receive exactly (P-1) parts
  // => (P-1) * 4 words, the all-gather bandwidth lower bound.
  for (int p : {2, 3, 5, 8, 14}) {
    Cluster cluster(p, CostModel::Ethernet());
    cluster.Run([](Comm& comm) {
      BruckAllGather(comm, CommGroup::World(comm), RankVector(comm.rank()));
    });
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(cluster.comm(r).stats().words_received,
                static_cast<uint64_t>(4 * (p - 1)))
          << "P=" << p << " rank=" << r;
    }
  }
}

// The wire-cost hook sees each forwarded part with its group position, in
// send order: at the step with distance D a worker at position r sends
// the parts of r, r + 1, ..., r + min(D, P - D) - 1 (mod P). Every worker
// then receives what the hook charged for the P - 1 other parts.
TEST(BruckAllGatherTest, WireCostHookSeesEveryForwardedPart) {
  const auto words_of = [](const SparseVector& part, int position) {
    return part.WireWords() + 3 * static_cast<size_t>(position);
  };
  for (int p : {3, 5, 6, 7, 12}) {
    std::vector<std::vector<int>> seen(static_cast<size_t>(p));
    Cluster cluster(p, CostModel::Ethernet());
    cluster.Run([&](Comm& comm) {
      std::vector<int>& positions = seen[static_cast<size_t>(comm.rank())];
      const PartWireWords hook = [&](const SparseVector& part,
                                     int position) {
        EXPECT_EQ(part, RankVector(position)) << "position " << position;
        positions.push_back(position);
        return words_of(part, position);
      };
      BruckAllGather(comm, CommGroup::World(comm), RankVector(comm.rank()),
                     &hook);
    });
    size_t all_words = 0;
    for (int q = 0; q < p; ++q) all_words += words_of(RankVector(q), q);
    for (int r = 0; r < p; ++r) {
      std::vector<int> expected;
      for (int distance = 1; distance < p; distance *= 2) {
        for (int j = 0; j < std::min(distance, p - distance); ++j) {
          expected.push_back((r + j) % p);
        }
      }
      EXPECT_EQ(seen[static_cast<size_t>(r)], expected)
          << "P=" << p << " rank=" << r;
      EXPECT_EQ(cluster.comm(r).stats().words_received,
                all_words - words_of(RankVector(r), r))
          << "P=" << p << " rank=" << r;
    }
  }
}

// After an all-gather every worker lists all P parts, but the group holds
// each part once: what stays is P parts, O(P log P) list nodes and each
// worker's P part pointers (8 MiB at P = 1024). A copy of every part on
// every worker, P^2 copies of a 4-entry part (a 48-byte header and two
// 16-byte arrays each), would hold about 110 MiB.
TEST(AllGatherHeapTest, GroupOfP1024HoldsEachPartOnce) {
  constexpr int kWorkers = 1024;
  const auto four_entries = [](int rank) {
    const GradIndex base = static_cast<GradIndex>(4 * rank);
    return SparseVector({base, base + 1, base + 2, base + 3},
                        {1.0f, 2.0f, 3.0f, 4.0f});
  };
  for (const bool bruck : {true, false}) {
    SCOPED_TRACE(bruck ? "Bruck" : "recursive doubling");
    Cluster cluster(kWorkers, CostModel::Free());
    std::vector<GatheredParts> held(kWorkers);
    const double before = HeapMiB();
    cluster.Run([&](Comm& comm) {
      const CommGroup world = CommGroup::World(comm);
      SparseVector mine = four_entries(comm.rank());
      held[static_cast<size_t>(comm.rank())] =
          bruck ? BruckAllGather(comm, world, std::move(mine))
                : RecursiveDoublingAllGather(comm, world, std::move(mine));
    });
    EXPECT_LT(HeapMiB() - before, 16.0);
    EXPECT_EQ(*held[kWorkers - 1].parts[0], four_entries(0));
  }
}

TEST(BruckAllGatherCountsTest, GathersScalars) {
  const int p = 6;
  auto results = RunOnCluster<std::vector<uint32_t>>(p, [](Comm& comm) {
    return BruckAllGatherCounts(comm, CommGroup::World(comm),
                                static_cast<uint32_t>(comm.rank() * 10));
  });
  for (int rank = 0; rank < p; ++rank) {
    for (int j = 0; j < p; ++j) {
      EXPECT_EQ(results[static_cast<size_t>(rank)][static_cast<size_t>(j)],
                static_cast<uint32_t>(j * 10));
    }
  }
}

class DenseAllReduceSweep
    : public ::testing::TestWithParam<std::tuple<int, size_t>> {};

TEST_P(DenseAllReduceSweep, RingMatchesReference) {
  const auto [p, n] = GetParam();
  std::vector<std::vector<float>> grads;
  for (int r = 0; r < p; ++r) {
    grads.push_back(testing::RandomGradient(n, 77 + static_cast<uint64_t>(r)));
  }
  const std::vector<float> expected = testing::ReferenceSum(grads);
  auto results = RunOnCluster<std::vector<float>>(p, [&](Comm& comm) {
    std::vector<float> data = grads[static_cast<size_t>(comm.rank())];
    RingAllReduce(comm, CommGroup::World(comm), data);
    return data;
  });
  for (int r = 0; r < p; ++r) {
    for (size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(results[static_cast<size_t>(r)][i], expected[i], 1e-4f)
          << "P=" << p << " n=" << n << " rank=" << r << " i=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DenseAllReduceSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 8),
                       ::testing::Values(size_t{1}, size_t{7}, size_t{64},
                                         size_t{1000})));

class RabenseifnerSweep
    : public ::testing::TestWithParam<std::tuple<int, size_t>> {};

TEST_P(RabenseifnerSweep, MatchesReference) {
  const auto [p, n] = GetParam();
  std::vector<std::vector<float>> grads;
  for (int r = 0; r < p; ++r) {
    grads.push_back(testing::RandomGradient(n, 31 + static_cast<uint64_t>(r)));
  }
  const std::vector<float> expected = testing::ReferenceSum(grads);
  auto results = RunOnCluster<std::vector<float>>(p, [&](Comm& comm) {
    std::vector<float> data = grads[static_cast<size_t>(comm.rank())];
    RabenseifnerAllReduce(comm, CommGroup::World(comm), data);
    return data;
  });
  for (int r = 0; r < p; ++r) {
    for (size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(results[static_cast<size_t>(r)][i], expected[i], 1e-4f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RabenseifnerSweep,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values(size_t{8}, size_t{37}, size_t{129},
                                         size_t{1000})));

TEST(RabenseifnerTest, RejectsNonPowerOfTwo) {
  Cluster cluster(3, CostModel::Free());
  EXPECT_DEATH(
      cluster.Run([](Comm& comm) {
        std::vector<float> data(16, 1.0f);
        RabenseifnerAllReduce(comm, CommGroup::World(comm), data);
      }),
      "power-of-two");
}

TEST(DenseCollectivesTest, RoundCounts) {
  // Ring: 2(P-1) receives; Rabenseifner: 2 log2 P receives.
  {
    Cluster cluster(5, CostModel::Ethernet());
    cluster.Run([](Comm& comm) {
      std::vector<float> data(100, 1.0f);
      RingAllReduce(comm, CommGroup::World(comm), data);
    });
    EXPECT_EQ(cluster.MaxMessagesReceived(), 8u);
  }
  {
    Cluster cluster(8, CostModel::Ethernet());
    cluster.Run([](Comm& comm) {
      std::vector<float> data(128, 1.0f);
      RabenseifnerAllReduce(comm, CommGroup::World(comm), data);
    });
    EXPECT_EQ(cluster.MaxMessagesReceived(), 6u);
  }
}

TEST(DenseCollectivesTest, AutoPicksByGroupSize) {
  // Just exercises both dispatch paths for correctness.
  for (int p : {4, 6}) {
    std::vector<std::vector<float>> grads;
    for (int r = 0; r < p; ++r) {
      grads.push_back(
          testing::RandomGradient(50, 900 + static_cast<uint64_t>(r)));
    }
    const std::vector<float> expected = testing::ReferenceSum(grads);
    auto results = RunOnCluster<std::vector<float>>(p, [&](Comm& comm) {
      std::vector<float> data = grads[static_cast<size_t>(comm.rank())];
      DenseAllReduceAuto(comm, CommGroup::World(comm), data);
      return data;
    });
    for (size_t i = 0; i < 50; ++i) {
      EXPECT_NEAR(results[0][i], expected[i], 1e-4f);
    }
  }
}

std::vector<int> Members(const CommGroup& group) {
  std::vector<int> members;
  for (int i = 0; i < group.size(); ++i) {
    members.push_back(group.GlobalRank(i));
  }
  return members;
}

TEST(CommGroupTest, ContiguousTeamsAndPositions) {
  // Two teams of three: team t holds ranks 3t, 3t+1, 3t+2.
  Cluster cluster(6, CostModel::Free());
  cluster.Run([&](Comm& comm) {
    const int team = comm.rank() / 3;
    const int pos = comm.rank() % 3;
    const CommGroup group =
        CommGroup::Team(comm, 2, PlacementPolicy::kContiguous);
    EXPECT_EQ(Members(group), (std::vector<int>{3 * team, 3 * team + 1,
                                                3 * team + 2}));
    EXPECT_EQ(group.my_pos(), pos);

    const CommGroup cross =
        CommGroup::CrossTeam(comm, 2, PlacementPolicy::kContiguous);
    EXPECT_EQ(Members(cross), (std::vector<int>{pos, 3 + pos}));
    EXPECT_EQ(cross.my_pos(), team);

    const CommGroup world = CommGroup::World(comm);
    EXPECT_EQ(Members(world), (std::vector<int>{0, 1, 2, 3, 4, 5}));
    EXPECT_EQ(world.my_pos(), comm.rank());
  });
}

// A group is a view into the layout its network planned: once planned,
// building the world, a team or a cross-team group allocates nothing.
TEST(CommGroupTest, ViewsAllocateNothingOncePlanned) {
  Network network(TopologySpec::FatTree(8, /*rack_size=*/2,
                                        /*oversubscription=*/4.0));
  Comm comm(&network, /*rank=*/5);
  const auto build_all = [&comm] {
    int rank_sum = CommGroup::World(comm).GlobalRank(7);
    for (PlacementPolicy policy : {PlacementPolicy::kContiguous,
                                   PlacementPolicy::kRackLocal,
                                   PlacementPolicy::kInterleaved}) {
      rank_sum += CommGroup::Team(comm, 4, policy).GlobalRank(1) +
                  CommGroup::CrossTeam(comm, 4, policy).GlobalRank(3);
    }
    return rank_sum;
  };
  const int planned = build_all();

  g_allocation_count = 0;
  g_count_allocations = true;
  const int viewed = build_all();
  g_count_allocations = false;
  EXPECT_EQ(g_allocation_count, 0u);
  EXPECT_EQ(viewed, planned);
}

}  // namespace
}  // namespace spardl
