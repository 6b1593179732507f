#include "sparse/block_partition.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

namespace spardl {
namespace {

TEST(BlockPartitionTest, UniformWidths) {
  BlockPartition p(100, 4);
  EXPECT_EQ(p.block_width(), 25u);
  for (int b = 0; b < 4; ++b) {
    EXPECT_EQ(p.BlockStart(b), static_cast<GradIndex>(25 * b));
    EXPECT_EQ(p.BlockSize(b), 25u);
  }
}

TEST(BlockPartitionTest, RaggedLastBlock) {
  BlockPartition p(10, 4);  // width ceil(10/4) = 3
  EXPECT_EQ(p.block_width(), 3u);
  EXPECT_EQ(p.BlockSize(0), 3u);
  EXPECT_EQ(p.BlockSize(3), 1u);
  EXPECT_EQ(p.BlockEnd(3), 10u);
}

TEST(BlockPartitionTest, EmptyTrailingBlocksWhenNSmall) {
  BlockPartition p(3, 8);  // width 1; blocks 3..7 empty
  EXPECT_EQ(p.BlockSize(2), 1u);
  EXPECT_EQ(p.BlockSize(3), 0u);
  EXPECT_EQ(p.BlockSize(7), 0u);
}

TEST(BlockPartitionTest, BlockOfRoundTrips) {
  BlockPartition p(97, 7);
  for (GradIndex i = 0; i < 97; ++i) {
    const int b = p.BlockOf(i);
    EXPECT_GE(i, p.BlockStart(b));
    EXPECT_LT(i, p.BlockEnd(b));
  }
}

TEST(BlockPartitionTest, PerBlockBudgetCeilsAndFloorsAtOne) {
  BlockPartition p(1000, 4);
  EXPECT_EQ(p.PerBlockBudget(100), 25u);
  EXPECT_EQ(p.PerBlockBudget(101), 26u);
  EXPECT_EQ(p.PerBlockBudget(1), 1u);
}

TEST(BlockPartitionTest, DiesOnZeroInputs) {
  EXPECT_DEATH(BlockPartition(0, 4), "");
  EXPECT_DEATH(BlockPartition(10, 0), "");
}

TEST(SrsBagLayoutTest, NumStepsIsCeilLog2) {
  EXPECT_EQ(SrsBagLayout::NumSteps(1), 0);
  EXPECT_EQ(SrsBagLayout::NumSteps(2), 1);
  EXPECT_EQ(SrsBagLayout::NumSteps(3), 2);
  EXPECT_EQ(SrsBagLayout::NumSteps(4), 2);
  EXPECT_EQ(SrsBagLayout::NumSteps(6), 3);
  EXPECT_EQ(SrsBagLayout::NumSteps(8), 3);
  EXPECT_EQ(SrsBagLayout::NumSteps(14), 4);
}

// Block ranks of `bag` in circular order: the offsets [BagBegin, BagEnd).
std::vector<int> BagBlocks(const SrsBagLayout& layout, int bag) {
  std::vector<int> blocks;
  for (int offset = layout.BagBegin(bag); offset < layout.BagEnd(bag);
       ++offset) {
    blocks.push_back(layout.BlockAt(offset));
  }
  return blocks;
}

// The paper's Example 1: P = 6, worker 1 (0-indexed rank 0): B0 = {0},
// B1 = {1}, B2 = {2,3}, B3 = {4,5} (short bag, E = 6 - 4 = 2).
TEST(SrsBagLayoutTest, PaperExampleSixWorkers) {
  SrsBagLayout layout(6, 0);
  EXPECT_EQ(layout.num_steps(), 3);
  EXPECT_EQ(BagBlocks(layout, 0), (std::vector<int>{0}));
  EXPECT_EQ(BagBlocks(layout, 1), (std::vector<int>{1}));
  EXPECT_EQ(BagBlocks(layout, 2), (std::vector<int>{2, 3}));
  EXPECT_EQ(BagBlocks(layout, 3), (std::vector<int>{4, 5}));
}

// The paper's Example 2 distances: step 1 -> 4, step 2 -> 2, step 3 -> 1.
TEST(SrsBagLayoutTest, PaperExampleDistances) {
  SrsBagLayout layout(6, 0);
  EXPECT_EQ(layout.StepDistance(1), 4);
  EXPECT_EQ(layout.StepDistance(2), 2);
  EXPECT_EQ(layout.StepDistance(3), 1);
  EXPECT_EQ(layout.SendPeer(1), 4);
  EXPECT_EQ(layout.RecvPeer(1), 2);
  EXPECT_EQ(layout.BagForStep(1), 3);
  EXPECT_EQ(layout.BagForStep(3), 1);
}

TEST(SrsBagLayoutTest, CircularWrapAround) {
  SrsBagLayout layout(6, 4);
  EXPECT_EQ(BagBlocks(layout, 0), (std::vector<int>{4}));
  EXPECT_EQ(BagBlocks(layout, 1), (std::vector<int>{5}));
  EXPECT_EQ(BagBlocks(layout, 2), (std::vector<int>{0, 1}));
  EXPECT_EQ(BagBlocks(layout, 3), (std::vector<int>{2, 3}));
}

class SrsBagLayoutSweep : public ::testing::TestWithParam<int> {};

TEST_P(SrsBagLayoutSweep, BagsPartitionAllBlocks) {
  const int p = GetParam();
  for (int rank = 0; rank < p; ++rank) {
    SrsBagLayout layout(p, rank);
    std::set<int> seen;
    for (int bag = 0; bag <= layout.num_steps(); ++bag) {
      for (int block : BagBlocks(layout, bag)) {
        EXPECT_TRUE(seen.insert(block).second)
            << "block " << block << " in two bags";
        EXPECT_EQ(layout.BlockAt(layout.OffsetOf(block)), block);
      }
    }
    EXPECT_EQ(static_cast<int>(seen.size()), p);
  }
}

TEST_P(SrsBagLayoutSweep, BagSizesArePowersOfTwoExceptLast) {
  const int p = GetParam();
  SrsBagLayout layout(p, 0);
  const int l = layout.num_steps();
  for (int bag = 1; bag < l; ++bag) {
    EXPECT_EQ(BagBlocks(layout, bag).size(), static_cast<size_t>(1)
                                                 << (bag - 1));
  }
  if (l >= 1) {
    const int expected_last = p - (1 << (l - 1));  // E = P - 2^(l-1)
    EXPECT_EQ(static_cast<int>(BagBlocks(layout, l).size()), expected_last);
  }
}

// The held offsets before a step are every offset minus the bags sent at
// earlier steps, and the bag sent at the step is their tail.
TEST_P(SrsBagLayoutSweep, HeldOffsetsAreAllMinusSentBags) {
  const int p = GetParam();
  SrsBagLayout layout(p, 0);
  std::set<int> held;
  for (int offset = 0; offset < p; ++offset) held.insert(offset);
  for (int step = 1; step <= layout.num_steps() + 1; ++step) {
    EXPECT_EQ(static_cast<int>(held.size()), layout.HeldBeforeStep(step));
    EXPECT_EQ(*held.rbegin(), layout.HeldBeforeStep(step) - 1);
    if (step > layout.num_steps()) break;
    const int bag = layout.BagForStep(step);
    EXPECT_EQ(layout.BagEnd(bag), layout.HeldBeforeStep(step));
    for (int offset = layout.BagBegin(bag); offset < layout.BagEnd(bag);
         ++offset) {
      EXPECT_EQ(held.erase(offset), 1u) << "step " << step;
    }
  }
}

// Theorem 1 at the layout level: the blocks a worker sends at step i land,
// in the same order, on the target's offsets [0, ReceivedAtStep(i)), which
// the target still holds after sending its own bag.
TEST_P(SrsBagLayoutSweep, Theorem1HoldsForEveryRankAndStep) {
  const int p = GetParam();
  for (int rank = 0; rank < p; ++rank) {
    SrsBagLayout sender(p, rank);
    for (int step = 1; step <= sender.num_steps(); ++step) {
      SrsBagLayout target(p, sender.SendPeer(step));
      const std::vector<int> sent =
          BagBlocks(sender, sender.BagForStep(step));
      EXPECT_EQ(static_cast<int>(sent.size()), target.ReceivedAtStep(step));
      EXPECT_LE(target.ReceivedAtStep(step), target.HeldBeforeStep(step + 1));
      for (size_t i = 0; i < sent.size(); ++i) {
        EXPECT_EQ(target.OffsetOf(sent[i]), static_cast<int>(i))
            << "P=" << p << " rank=" << rank << " step=" << step
            << " block=" << sent[i];
      }
    }
  }
}

TEST_P(SrsBagLayoutSweep, SendRecvPeersAreInverse) {
  const int p = GetParam();
  for (int rank = 0; rank < p; ++rank) {
    SrsBagLayout layout(p, rank);
    for (int step = 1; step <= layout.num_steps(); ++step) {
      SrsBagLayout peer(p, layout.SendPeer(step));
      EXPECT_EQ(peer.RecvPeer(step), rank);
    }
  }
}

TEST_P(SrsBagLayoutSweep, FinalHeldBlockIsOwnRank) {
  const int p = GetParam();
  for (int rank = 0; rank < p; ++rank) {
    SrsBagLayout layout(p, rank);
    EXPECT_EQ(layout.HeldBeforeStep(layout.num_steps() + 1), 1);
    EXPECT_EQ(layout.BlockAt(0), rank);
  }
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, SrsBagLayoutSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12,
                                           14, 16, 17, 31, 32));

}  // namespace
}  // namespace spardl
