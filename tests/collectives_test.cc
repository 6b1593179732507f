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
using ::spardl::testing::PartsOf;
using ::spardl::testing::RunOnCluster;

SparseVector RankVector(int rank) {
  // Distinct, overlapping supports across ranks.
  SparseVector v;
  v.PushBack(static_cast<GradIndex>(rank), 1.0f + static_cast<float>(rank));
  v.PushBack(static_cast<GradIndex>(100 + 2 * rank), -1.0f);
  return v;
}

// The sweeps' parts: every third rank contributes an empty one.
SparseVector SweepPart(int rank) {
  return rank % 3 == 2 ? SparseVector() : RankVector(rank);
}

class AllGatherSweep : public ::testing::TestWithParam<int> {};

// Every worker lists all P parts in position order, its figures add up
// over them, and all workers list the same copy of each part.
void ExpectAllPartsInOrder(const std::vector<PartList>& results) {
  const int p = static_cast<int>(results.size());
  std::vector<SparseVector> non_empty;
  size_t entries = 0;
  for (int j = 0; j < p; ++j) {
    if (!SweepPart(j).empty()) non_empty.push_back(SweepPart(j));
    entries += SweepPart(j).size();
  }
  const std::vector<const SparseVector*> first = PartsOf(results[0]);
  for (int rank = 0; rank < p; ++rank) {
    const PartList& gathered = results[static_cast<size_t>(rank)];
    EXPECT_EQ(gathered.size(), static_cast<size_t>(p));
    EXPECT_EQ(gathered.entries(), entries);
    EXPECT_EQ(gathered.wire_words(), 2 * entries);
    const std::vector<const SparseVector*> parts = PartsOf(gathered);
    ASSERT_EQ(parts.size(), non_empty.size()) << "P=" << p;
    for (size_t i = 0; i < parts.size(); ++i) {
      EXPECT_EQ(*parts[i], non_empty[i])
          << "P=" << p << " rank=" << rank << " part=" << i;
      EXPECT_EQ(parts[i], first[i])
          << "P=" << p << " rank=" << rank << " part=" << i;
    }
  }
}

TEST_P(AllGatherSweep, BruckGathersAllPartsInOrder) {
  const int p = GetParam();
  ExpectAllPartsInOrder(RunOnCluster<PartList>(p, [](Comm& comm) {
    return BruckAllGather(comm, CommGroup::World(comm),
                          PartList(SweepPart(comm.rank())));
  }));
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, AllGatherSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 14,
                                           16));

class RecursiveDoublingSweep : public ::testing::TestWithParam<int> {};

TEST_P(RecursiveDoublingSweep, MatchesBruckSemantics) {
  const int p = GetParam();
  ExpectAllPartsInOrder(RunOnCluster<PartList>(p, [](Comm& comm) {
    return RecursiveDoublingAllGather(comm, CommGroup::World(comm),
                                      PartList(SweepPart(comm.rank())));
  }));
}

INSTANTIATE_TEST_SUITE_P(PowerOfTwo, RecursiveDoublingSweep,
                         ::testing::Values(1, 2, 4, 8, 16));

TEST(BruckAllGatherTest, LatencyIsCeilLog2Rounds) {
  for (int p : {2, 3, 5, 8, 14}) {
    Cluster cluster(p, CostModel::Ethernet());
    cluster.Run([](Comm& comm) {
      BruckAllGather(comm, CommGroup::World(comm),
                     PartList(RankVector(comm.rank())));
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
      BruckAllGather(comm, CommGroup::World(comm),
                     PartList(RankVector(comm.rank())));
    });
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(cluster.comm(r).stats().words_received,
                static_cast<uint64_t>(4 * (p - 1)))
          << "P=" << p << " rank=" << r;
    }
  }
}

// A part is charged the words its owner declared wherever it is
// forwarded, so every worker receives the declared words of the P - 1
// other parts and lists each position's words in its place. Every third
// part is empty and declared at 1 word, as Ok-Topk's size exchange
// declares its parts.
TEST(BruckAllGatherTest, ChargesEachPartItsDeclaredWords) {
  const auto declared = [](int position) {
    return position % 3 == 2 ? size_t{1}
                             : 5 + 3 * static_cast<size_t>(position);
  };
  for (int p : {3, 5, 6, 7, 12}) {
    std::vector<PartList> results(static_cast<size_t>(p));
    Cluster cluster(p, CostModel::Ethernet());
    cluster.Run([&](Comm& comm) {
      const int rank = comm.rank();
      results[static_cast<size_t>(rank)] =
          BruckAllGather(comm, CommGroup::World(comm),
                         PartList(SweepPart(rank), declared(rank)));
    });
    size_t all_words = 0;
    for (int q = 0; q < p; ++q) all_words += declared(q);
    for (int r = 0; r < p; ++r) {
      const PartList& gathered = results[static_cast<size_t>(r)];
      EXPECT_EQ(gathered.wire_words(), all_words);
      for (int j = 0; j < p; ++j) {
        EXPECT_EQ(gathered.Slice(static_cast<size_t>(j), 1).wire_words(),
                  declared(j))
            << "P=" << p << " rank=" << r << " position=" << j;
      }
      EXPECT_EQ(cluster.comm(r).stats().words_received,
                all_words - declared(r))
          << "P=" << p << " rank=" << r;
    }
  }
}

// Ok-Topk's chunk sizes. Its size exchange gathers an empty part declared
// at 1 word from every worker, which costs what a gather of one scalar
// each would: ceil(log2 P) messages and P - 1 words per worker. The data
// all-gather that follows lists every position's entry count.
TEST(BruckAllGatherTest, GathersChunkSizes) {
  const auto chunk = [](int rank) {
    SparseVector v;
    for (int i = 0; i < rank % 4; ++i) {
      v.PushBack(static_cast<GradIndex>(4 * rank + i), 1.0f);
    }
    return v;
  };
  for (int p : {2, 3, 5, 6, 8, 14}) {
    std::vector<PartList> sizes(static_cast<size_t>(p));
    Cluster cluster(p, CostModel::Ethernet());
    cluster.Run([&](Comm& comm) {
      sizes[static_cast<size_t>(comm.rank())] = BruckAllGather(
          comm, CommGroup::World(comm), PartList(SparseVector(), 1));
    });
    const std::vector<PartList> chunks =
        RunOnCluster<PartList>(p, [&](Comm& comm) {
          return BruckAllGather(comm, CommGroup::World(comm),
                                PartList(chunk(comm.rank())));
        });
    for (int r = 0; r < p; ++r) {
      const PartList& exchanged = sizes[static_cast<size_t>(r)];
      EXPECT_EQ(exchanged.size(), static_cast<size_t>(p)) << "P=" << p;
      EXPECT_EQ(exchanged.entries(), 0u) << "P=" << p;
      EXPECT_EQ(exchanged.wire_words(), static_cast<size_t>(p)) << "P=" << p;
      EXPECT_TRUE(PartsOf(exchanged).empty()) << "P=" << p;
      EXPECT_EQ(cluster.comm(r).stats().messages_received,
                static_cast<uint64_t>(SrsBagLayout::NumSteps(p)))
          << "P=" << p << " rank=" << r;
      EXPECT_EQ(cluster.comm(r).stats().words_received,
                static_cast<uint64_t>(p - 1))
          << "P=" << p << " rank=" << r;
      for (int j = 0; j < p; ++j) {
        EXPECT_EQ(chunks[static_cast<size_t>(r)]
                      .Slice(static_cast<size_t>(j), 1)
                      .entries(),
                  chunk(j).size())
            << "P=" << p << " rank=" << r << " position=" << j;
      }
    }
  }
}

// After an all-gather every worker lists all P parts, but the group holds
// each part once: what stays is P parts and O(P log P) list nodes, under
// 2 MiB at P = 1024. A copy of every part on every worker, P^2 copies of
// a 4-entry part (a 48-byte header and two 16-byte arrays each), would
// hold about 110 MiB, and a P-entry pointer vector on every worker 8 MiB.
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
    std::vector<PartList> held(kWorkers);
    const double before = HeapMiB();
    cluster.Run([&](Comm& comm) {
      const CommGroup world = CommGroup::World(comm);
      PartList mine(four_entries(comm.rank()));
      held[static_cast<size_t>(comm.rank())] =
          bruck ? BruckAllGather(comm, world, std::move(mine))
                : RecursiveDoublingAllGather(comm, world, std::move(mine));
    });
    EXPECT_LT(HeapMiB() - before, 4.0);
    EXPECT_EQ(*PartsOf(held[kWorkers - 1])[0], four_entries(0));
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
