// Regression for the historical tune_teams bug: the tuner ignored
// --topology and always swept d on the flat closed-form fabric, so its
// "optimal d" was wrong for exactly the clusters where d matters.
// `TuneTeamPlacement` (the engine behind the `spardl-bench tune_teams`
// scenario) now grids over the *given* TopologySpec — proven
// here by the oversubscribed `fattree:2x6` picking a different optimal d
// than flat for the same workload.

#include <gtest/gtest.h>

#include <string>

#include "bench_util.h"
#include "topo/placement.h"
#include "topo/topology_spec.h"

namespace spardl {
namespace {

// Laptop-sized paper-shaped workload: the profile only sets the gradient
// length and the (zero) compute constant, so epoch time is pure comm.
const ModelProfile kProfile = {"-", "synthetic", "-", 2'000'000, 0.0};

bench::TeamTuneResult Tune(const TopologySpec& fabric,
                           const bench::TeamTuneOptions& options) {
  return bench::TuneTeamPlacement(kProfile, fabric, options);
}

bench::TeamTuneOptions FastOptions() {
  bench::TeamTuneOptions options;
  options.measured_iterations = 1;
  // The d-vs-d comparison is the point here; one layout keeps it quick.
  options.policies = {PlacementPolicy::kContiguous};
  return options;
}

TEST(TuneTeamsTest, GridCoversEveryDivisorOfP) {
  const bench::TeamTuneResult result =
      Tune(TopologySpec::Flat(12), FastOptions());
  // Flat has one locality group, so the grid is one row per divisor.
  ASSERT_EQ(result.candidates.size(), 6u);  // d in {1, 2, 3, 4, 6, 12}
  int previous = 0;
  for (const bench::TeamTuneCandidate& c : result.candidates) {
    EXPECT_GT(c.num_teams, previous);
    EXPECT_EQ(12 % c.num_teams, 0);
    EXPECT_EQ(c.placement, PlacementPolicy::kContiguous);
    EXPECT_GT(c.epoch_seconds, 0.0);
    previous = c.num_teams;
  }
  EXPECT_LT(result.best_index, result.candidates.size());
}

// The bugfix acceptance: tuning on fattree:2x6 must be able to pick a
// different d than flat. With the old flat-only tuner both sides of this
// comparison were the same sweep and the EXPECT_NE below could never hold.
TEST(TuneTeamsTest, FatTreeTunesDifferentTeamCountThanFlat) {
  const bench::TeamTuneOptions options = FastOptions();
  const bench::TeamTuneResult flat =
      Tune(TopologySpec::Flat(8), options);
  // The event engine makes the contended fat-tree times bit-identical
  // across runs, so the argmin cannot flip with the fiber schedule or
  // with which Sweep carrier ran a cell.
  const bench::TeamTuneResult fat_tree =
      Tune(TopologySpec::FatTree(8, /*rack_size=*/2, /*oversub=*/6.0),
           options);
  ASSERT_FALSE(flat.candidates.empty());
  ASSERT_FALSE(fat_tree.candidates.empty());
  EXPECT_NE(flat.best().num_teams, fat_tree.best().num_teams)
      << "flat picked d=" << flat.best().num_teams << " ("
      << flat.best().epoch_seconds << " s), fattree:2x6 picked d="
      << fat_tree.best().num_teams << " ("
      << fat_tree.best().epoch_seconds
      << " s) — the tuner is ignoring the fabric again";

  // And the fabric genuinely changed the numbers, not just the argmin:
  // every candidate is strictly slower on the oversubscribed tree.
  for (size_t i = 0; i < flat.candidates.size(); ++i) {
    EXPECT_GT(fat_tree.candidates[i].epoch_seconds,
              flat.candidates[i].epoch_seconds)
        << "d=" << flat.candidates[i].num_teams;
  }
}

// On a multi-rack fabric the grid carries one row per placement policy for
// every d > 1 (d = 1 has no teams to lay out).
TEST(TuneTeamsTest, MultiRackGridIncludesPlacementAxis) {
  bench::TeamTuneOptions options;
  options.measured_iterations = 1;
  const bench::TeamTuneResult result =
      Tune(TopologySpec::FatTree(8, /*rack_size=*/2, /*oversub=*/4.0),
           options);
  // d=1: one row; d in {2, 4, 8}: three rows each.
  ASSERT_EQ(result.candidates.size(), 10u);
  EXPECT_EQ(result.candidates[0].num_teams, 1);
  EXPECT_EQ(result.candidates[0].placement, PlacementPolicy::kContiguous);
  for (size_t i = 1; i < result.candidates.size(); i += 3) {
    EXPECT_EQ(result.candidates[i].placement,
              PlacementPolicy::kContiguous);
    EXPECT_EQ(result.candidates[i + 1].placement,
              PlacementPolicy::kRackLocal);
    EXPECT_EQ(result.candidates[i + 2].placement,
              PlacementPolicy::kInterleaved);
  }
}

}  // namespace
}  // namespace spardl
