// The team-placement planner: planned layouts are valid permutations,
// kContiguous reproduces the legacy CommGroup layouts bit-for-bit, the
// registry surfaces bad team shapes as InvalidArgument instead of dying on
// a CHECK, and — the headline regression — rack-local teams beat
// interleaved ones on a contended oversubscribed fat-tree, bit-identically
// across runs.

#include "topo/placement.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "baselines/registry.h"
#include "core/spar_reduce_scatter.h"
#include "simnet/cluster.h"
#include "test_util.h"
#include "topo/topologies.h"
#include "topo/topology_spec.h"

namespace spardl {
namespace {

using ::spardl::testing::RandomGradient;

TEST(PlacementPolicyTest, NamesRoundTripThroughParse) {
  for (PlacementPolicy policy : AllPlacementPolicies()) {
    auto parsed = ParsePlacementPolicy(PlacementPolicyName(policy));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, policy);
  }
  auto rack = ParsePlacementPolicy("rack");
  ASSERT_TRUE(rack.ok());
  EXPECT_EQ(*rack, PlacementPolicy::kRackLocal);
  auto bad = ParsePlacementPolicy("diagonal");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

std::vector<TopologySpec> PlannableSpecs(int p) {
  const CostModel cm = CostModel::Ethernet();
  std::vector<TopologySpec> specs = {
      TopologySpec::Flat(p, cm), TopologySpec::Star(p, cm),
      TopologySpec::Ring(p, cm),
      TopologySpec::FatTree(p, /*rack_size=*/3, /*oversub=*/4.0, cm),
      TopologySpec::FatTree(p, /*rack_size=*/2, /*oversub=*/4.0, cm)};
  if (p % 2 == 0) specs.push_back(TopologySpec::Torus(p / 2, 2, cm));
  return specs;
}

// Every planned placement must be a bijection rank <-> (team, position)
// with every team exactly P/d strong, on every fabric and policy.
TEST(PlanPlacementTest, PlannedLayoutsArePermutations) {
  for (int p : {8, 12}) {
    for (const TopologySpec& spec : PlannableSpecs(p)) {
      for (int d = 1; d <= p; ++d) {
        if (p % d != 0) continue;
        for (PlacementPolicy policy : AllPlacementPolicies()) {
          auto planned = PlanPlacement(spec, p, d, policy);
          ASSERT_TRUE(planned.ok())
              << spec.Describe() << " d=" << d << " "
              << PlacementPolicyName(policy) << ": "
              << planned.status().ToString();
          const TeamPlacement& placement = *planned;
          EXPECT_EQ(placement.num_workers(), p);
          EXPECT_EQ(placement.num_teams(), d);
          EXPECT_EQ(placement.team_size(), p / d);
          std::set<int> seen;
          for (int t = 0; t < d; ++t) {
            const std::vector<int> members = placement.TeamMembers(t);
            ASSERT_EQ(static_cast<int>(members.size()), p / d);
            for (int pos = 0; pos < p / d; ++pos) {
              const int rank = members[static_cast<size_t>(pos)];
              ASSERT_GE(rank, 0);
              ASSERT_LT(rank, p);
              EXPECT_TRUE(seen.insert(rank).second)
                  << "rank " << rank << " placed twice";
              EXPECT_EQ(placement.GlobalRank(t, pos), rank);
              EXPECT_EQ(placement.TeamOf(rank), t);
              EXPECT_EQ(placement.PositionOf(rank), pos);
            }
          }
          EXPECT_EQ(static_cast<int>(seen.size()), p);
        }
      }
    }
  }
}

// The tentpole's backward-compatibility contract: the kContiguous planner
// output drives CommGroup::Team/CrossTeam to *exactly* the groups the
// legacy ContiguousTeam/SamePositionAcrossTeams factories build.
TEST(PlacementCommGroupTest, ContiguousMatchesLegacyFactoriesExactly) {
  const int p = 12;
  for (int d : {1, 2, 3, 4, 6, 12}) {
    auto planned =
        PlanPlacement(TopologySpec::Flat(p), p, d, PlacementPolicy::kContiguous);
    ASSERT_TRUE(planned.ok());
    const TeamPlacement placement = *planned;
    Cluster cluster(p, CostModel::Free());
    cluster.Run([&](Comm& comm) {
      const int team = comm.rank() / (p / d);
      const CommGroup legacy_team =
          CommGroup::ContiguousTeam(comm, d, team);
      const CommGroup placed_team = CommGroup::Team(comm, placement);
      EXPECT_EQ(placed_team.ranks, legacy_team.ranks);
      EXPECT_EQ(placed_team.my_pos, legacy_team.my_pos);

      const CommGroup legacy_cross =
          CommGroup::SamePositionAcrossTeams(comm, d);
      const CommGroup placed_cross = CommGroup::CrossTeam(comm, placement);
      EXPECT_EQ(placed_cross.ranks, legacy_cross.ranks);
      EXPECT_EQ(placed_cross.my_pos, legacy_cross.my_pos);
    });
  }
}

// A SparDL instance given an explicit kContiguous placement must charge
// exactly (bit-for-bit) what the placement-free default charges.
TEST(PlacementCommGroupTest, ExplicitContiguousPlacementIsBitForBit) {
  const int p = 8;
  const size_t n = 4000;
  AlgorithmConfig config;
  config.n = n;
  config.k = 400;
  config.num_workers = p;
  config.num_teams = 2;

  std::vector<double> makespans;
  for (bool explicit_placement : {false, true}) {
    AlgorithmConfig run_config = config;
    if (explicit_placement) {
      auto planned = PlanPlacement(TopologySpec::Flat(p), p, 2,
                                   PlacementPolicy::kContiguous);
      ASSERT_TRUE(planned.ok());
      run_config.placement = *planned;
    }
    Cluster cluster(p, CostModel::Ethernet());
    std::vector<std::unique_ptr<SparseAllReduce>> algos(
        static_cast<size_t>(p));
    for (int r = 0; r < p; ++r) {
      auto created = CreateAlgorithm("spardl", run_config);
      ASSERT_TRUE(created.ok());
      algos[static_cast<size_t>(r)] = std::move(*created);
    }
    for (int iter = 0; iter < 3; ++iter) {
      cluster.Run([&](Comm& comm) {
        std::vector<float> grad = RandomGradient(
            n, 99 + static_cast<uint64_t>(comm.rank()) +
                   1000 * static_cast<uint64_t>(iter));
        algos[static_cast<size_t>(comm.rank())]->Run(comm, grad);
      });
    }
    makespans.push_back(cluster.MaxSimSeconds());
  }
  EXPECT_EQ(makespans[0], makespans[1]);  // exact, not EXPECT_DOUBLE_EQ
}

TEST(PlanPlacementTest, RackLocalNeverStraddlesWhenTeamSizeDivides) {
  const int p = 16;
  const TopologySpec spec =
      TopologySpec::FatTree(p, /*rack_size=*/4, /*oversub=*/8.0);
  for (int d : {4, 8}) {  // team sizes 4 and 2 both divide the rack size
    auto planned = PlanPlacement(spec, p, d, PlacementPolicy::kRackLocal);
    ASSERT_TRUE(planned.ok());
    for (int t = 0; t < d; ++t) {
      const std::vector<int> members = (*planned).TeamMembers(t);
      for (int rank : members) {
        EXPECT_EQ(rank / spec.rack_size, members[0] / spec.rack_size)
            << "team " << t << " straddles racks";
      }
    }
  }
}

// Misaligned racks (rank 2 shares a rack with 0..2, not with 3): the
// planner keeps whole teams inside racks where they fit and only the
// leftover team crosses.
TEST(PlanPlacementTest, RackLocalPacksMisalignedRacks) {
  const TopologySpec spec =
      TopologySpec::FatTree(8, /*rack_size=*/3, /*oversub=*/4.0);
  auto planned = PlanPlacement(spec, 8, 4, PlacementPolicy::kRackLocal);
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ((*planned).TeamMembers(0), (std::vector<int>{0, 1}));
  EXPECT_EQ((*planned).TeamMembers(1), (std::vector<int>{3, 4}));
  EXPECT_EQ((*planned).TeamMembers(2), (std::vector<int>{6, 7}));
  EXPECT_EQ((*planned).TeamMembers(3), (std::vector<int>{2, 5}));
}

TEST(PlanPlacementTest, InterleavedDealsConsecutiveRanksAcrossTeams) {
  auto planned = PlanPlacement(TopologySpec::Flat(8), 8, 2,
                               PlacementPolicy::kInterleaved);
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ((*planned).TeamMembers(0), (std::vector<int>{0, 2, 4, 6}));
  EXPECT_EQ((*planned).TeamMembers(1), (std::vector<int>{1, 3, 5, 7}));
}

TEST(PlanPlacementTest, RejectsBadShapes) {
  const TopologySpec flat8 = TopologySpec::Flat(8);
  EXPECT_EQ(PlanPlacement(flat8, 8, 0, PlacementPolicy::kContiguous)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(PlanPlacement(flat8, 8, 3, PlacementPolicy::kRackLocal)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // The spec's own worker count must agree with the placement's.
  EXPECT_EQ(PlanPlacement(flat8, 4, 2, PlacementPolicy::kContiguous)
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  auto duplicate = TeamPlacement::FromMembers({0, 1, 1, 3}, 2,
                                              PlacementPolicy::kContiguous);
  EXPECT_EQ(duplicate.status().code(), StatusCode::kInvalidArgument);
  auto out_of_range = TeamPlacement::FromMembers({0, 1, 2, 7}, 2,
                                                 PlacementPolicy::kContiguous);
  EXPECT_EQ(out_of_range.status().code(), StatusCode::kInvalidArgument);
}

// The registry boundary (satellite bugfix): a team shape that cannot run —
// a d that does not divide P, or a placement planned for a different
// cluster — must surface as InvalidArgument from CreateAlgorithm, not die
// on a SPARDL_CHECK inside the CommGroup machinery mid-run.
TEST(RegistryTeamShapeTest, InvalidTeamCountReturnsStatusNotDeath) {
  AlgorithmConfig config;
  config.n = 1000;
  config.k = 10;
  config.num_workers = 8;
  for (int bad_d : {0, -2, 5, 7}) {
    config.num_teams = bad_d;
    auto created = CreateAlgorithm("spardl", config);
    ASSERT_FALSE(created.ok()) << "d=" << bad_d;
    EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument)
        << "d=" << bad_d;
  }
}

TEST(RegistryTeamShapeTest, MismatchedPlacementReturnsStatusNotDeath) {
  AlgorithmConfig config;
  config.n = 1000;
  config.k = 10;
  config.num_workers = 8;
  config.num_teams = 2;

  // Placement planned for a 4-worker cluster, run asks for 8.
  auto wrong_workers = PlanPlacement(TopologySpec::Flat(4), 4, 2,
                                     PlacementPolicy::kContiguous);
  ASSERT_TRUE(wrong_workers.ok());
  config.placement = *wrong_workers;
  auto created = CreateAlgorithm("spardl", config);
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument);

  // Placement holds 4 teams, run asks for 2.
  auto wrong_teams = PlanPlacement(TopologySpec::Flat(8), 8, 4,
                                   PlacementPolicy::kContiguous);
  ASSERT_TRUE(wrong_teams.ok());
  config.placement = *wrong_teams;
  created = CreateAlgorithm("spardl", config);
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), StatusCode::kInvalidArgument);

  // A matching placement builds fine.
  auto good = PlanPlacement(TopologySpec::Flat(8), 8, 2,
                            PlacementPolicy::kRackLocal);
  ASSERT_TRUE(good.ok());
  config.placement = *good;
  created = CreateAlgorithm("spardl", config);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
}

// The synchronous-SGD invariant must survive any layout: every worker ends
// each iteration with the bit-identical global gradient even when teams
// are scattered across racks.
TEST(PlacementConsistencyTest, AllWorkersIdenticalUnderAnyPlacement) {
  const int p = 8;
  const size_t n = 480;
  const size_t k = 48;
  const TopologySpec spec =
      TopologySpec::FatTree(p, /*rack_size=*/2, /*oversub=*/4.0);
  for (PlacementPolicy policy :
       {PlacementPolicy::kRackLocal, PlacementPolicy::kInterleaved}) {
    auto planned = PlanPlacement(spec, p, 2, policy);
    ASSERT_TRUE(planned.ok());
    AlgorithmConfig config;
    config.n = n;
    config.k = k;
    config.num_workers = p;
    config.num_teams = 2;
    config.placement = *planned;

    Cluster cluster(spec);
    std::vector<std::unique_ptr<SparseAllReduce>> algos(
        static_cast<size_t>(p));
    for (int r = 0; r < p; ++r) {
      auto created = CreateAlgorithm("spardl", config);
      ASSERT_TRUE(created.ok());
      algos[static_cast<size_t>(r)] = std::move(*created);
    }
    std::vector<SparseVector> outputs(static_cast<size_t>(p));
    for (int iter = 0; iter < 3; ++iter) {
      cluster.Run([&](Comm& comm) {
        std::vector<float> grad = RandomGradient(
            n, 7 + static_cast<uint64_t>(comm.rank()) +
                   100 * static_cast<uint64_t>(iter));
        outputs[static_cast<size_t>(comm.rank())] =
            algos[static_cast<size_t>(comm.rank())]->Run(comm, grad);
      });
      for (int r = 1; r < p; ++r) {
        EXPECT_EQ(outputs[static_cast<size_t>(r)], outputs[0])
            << PlacementPolicyName(policy) << " iter " << iter << " rank "
            << r;
      }
    }
  }
}

// Measures the max per-worker comm seconds of one SRS round per team on
// `spec`, with teams laid out by `policy`. Pure SRS — the phase whose
// traffic the placement is supposed to keep rack-local.
double SrsCommSeconds(const TopologySpec& spec, int num_teams,
                      PlacementPolicy policy) {
  const int p = spec.num_workers;
  const size_t n = 4000;
  auto planned = PlanPlacement(spec, p, num_teams, policy);
  SPARDL_CHECK(planned.ok()) << planned.status().ToString();
  const TeamPlacement placement = *planned;
  Cluster cluster(spec);
  cluster.Run([&](Comm& comm) {
    const std::vector<float> grad = RandomGradient(
        n, 31 + static_cast<uint64_t>(comm.rank()));
    const CommGroup team = CommGroup::Team(comm, placement);
    SrsOptions options;
    options.k = 400;
    SparReduceScatter(comm, team, grad, options, nullptr);
    comm.BarrierSyncClocks();
  });
  double comm_seconds = 0.0;
  for (int r = 0; r < p; ++r) {
    comm_seconds =
        std::max(comm_seconds, cluster.comm(r).stats().comm_seconds);
  }
  return comm_seconds;
}

// Max per-worker comm seconds of two full SparDL updates (SRS + SAG +
// intra-team all-gather) on `spec` under `policy` — the per-update metric
// the acceptance criterion is stated in.
double PerUpdateCommSeconds(const TopologySpec& spec, int num_teams,
                            PlacementPolicy policy) {
  const int p = spec.num_workers;
  const size_t n = 4000;
  auto planned = PlanPlacement(spec, p, num_teams, policy);
  SPARDL_CHECK(planned.ok()) << planned.status().ToString();
  AlgorithmConfig config;
  config.n = n;
  config.k = 400;
  config.num_workers = p;
  config.num_teams = num_teams;
  config.placement = *planned;
  Cluster cluster(spec);
  std::vector<std::unique_ptr<SparseAllReduce>> algos(
      static_cast<size_t>(p));
  for (int r = 0; r < p; ++r) {
    auto created = CreateAlgorithm("spardl", config);
    SPARDL_CHECK(created.ok()) << created.status().ToString();
    algos[static_cast<size_t>(r)] = std::move(*created);
  }
  for (int iter = 0; iter < 2; ++iter) {
    cluster.Run([&](Comm& comm) {
      std::vector<float> grad = RandomGradient(
          n, 31 + static_cast<uint64_t>(comm.rank()) +
                 1000 * static_cast<uint64_t>(iter));
      algos[static_cast<size_t>(comm.rank())]->Run(comm, grad);
      comm.BarrierSyncClocks();
    });
  }
  double comm_seconds = 0.0;
  for (int r = 0; r < p; ++r) {
    comm_seconds =
        std::max(comm_seconds, cluster.comm(r).stats().comm_seconds);
  }
  return comm_seconds;
}

// The acceptance regression: on a contended oversubscribed fat-tree where
// teams fit inside racks — `fattree:2x4` with d = 2 (P = 4, teams of
// two), and the larger `fattree:4x4` with d = 2 (P = 8, teams of four) —
// rack-local teams yield strictly lower SRS *and* per-update comm time
// than interleaved ones. (When a team is forced to straddle racks, e.g.
// teams of four over racks of two, the layouts converge: some worker
// crosses the trunk every SRS round no matter the placement — which is
// exactly why the planner packs teams into racks whenever team_size
// divides the rack size.)
TEST(PlacementContentionTest, RackLocalBeatsInterleaved) {
  for (const TopologySpec& spec :
       {TopologySpec::FatTree(4, /*rack_size=*/2, /*oversub=*/4.0),
        TopologySpec::FatTree(8, /*rack_size=*/4, /*oversub=*/4.0)}) {
    const double rack_srs =
        SrsCommSeconds(spec, 2, PlacementPolicy::kRackLocal);
    const double interleaved_srs =
        SrsCommSeconds(spec, 2, PlacementPolicy::kInterleaved);
    EXPECT_LT(rack_srs, interleaved_srs) << spec.Describe();
    const double rack_update =
        PerUpdateCommSeconds(spec, 2, PlacementPolicy::kRackLocal);
    const double interleaved_update =
        PerUpdateCommSeconds(spec, 2, PlacementPolicy::kInterleaved);
    EXPECT_LT(rack_update, interleaved_update) << spec.Describe();
  }
}

// What a user gets with no suffix: the event engine's contended times
// are a pure function of the config.
TEST(PlacementContentionTest, EventEngineTimesBitIdenticalAcrossRuns) {
  const TopologySpec spec =
      TopologySpec::FatTree(8, /*rack_size=*/4, /*oversub=*/4.0);
  for (PlacementPolicy policy :
       {PlacementPolicy::kRackLocal, PlacementPolicy::kInterleaved}) {
    const double srs_first = SrsCommSeconds(spec, 2, policy);
    const double update_first = PerUpdateCommSeconds(spec, 2, policy);
    for (int run = 0; run < 3; ++run) {
      EXPECT_EQ(SrsCommSeconds(spec, 2, policy), srs_first)  // exact
          << PlacementPolicyName(policy) << " run " << run;
      EXPECT_EQ(PerUpdateCommSeconds(spec, 2, policy), update_first)
          << PlacementPolicyName(policy) << " run " << run;
    }
  }
}

}  // namespace
}  // namespace spardl
