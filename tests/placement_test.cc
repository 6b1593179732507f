// The team-placement planner: planned layouts are valid permutations,
// kContiguous reproduces rank-arithmetic teams bit-for-bit, the
// cluster plans its layout from its own fabric, the registry surfaces bad
// team shapes as InvalidArgument instead of dying on a CHECK, and — the
// headline regression — rack-local teams beat interleaved ones on a
// contended oversubscribed fat-tree, bit-identically across runs.

#include "topo/placement.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <span>
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

// Team `team`'s global ranks, in position order.
std::vector<int> MembersOf(const TeamPlacement& placement, int team) {
  const std::span<const int> members = placement.members().subspan(
      static_cast<size_t>(team * placement.team_size()),
      static_cast<size_t>(placement.team_size()));
  return std::vector<int>(members.begin(), members.end());
}

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
            const std::vector<int> members = MembersOf(placement, t);
            ASSERT_EQ(static_cast<int>(members.size()), p / d);
            for (int pos = 0; pos < p / d; ++pos) {
              const int rank = members[static_cast<size_t>(pos)];
              ASSERT_GE(rank, 0);
              ASSERT_LT(rank, p);
              EXPECT_TRUE(seen.insert(rank).second)
                  << "rank " << rank << " placed twice";
              EXPECT_EQ(placement.members()[static_cast<size_t>(
                            t * (p / d) + pos)],
                        rank);
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

// The kContiguous layout drives CommGroup::Team/CrossTeam to rank
// arithmetic: position pos of team t is global rank t*(P/d) + pos.
TEST(PlacementCommGroupTest, ContiguousPlanMatchesRankArithmetic) {
  const int p = 12;
  for (int d : {1, 2, 3, 4, 6, 12}) {
    const int team_size = p / d;
    Cluster cluster(p, CostModel::Free());
    cluster.Run([&](Comm& comm) {
      const int team = comm.rank() / team_size;
      const int pos = comm.rank() % team_size;
      const CommGroup team_group =
          CommGroup::Team(comm, d, PlacementPolicy::kContiguous);
      ASSERT_EQ(team_group.size(), team_size);
      for (int i = 0; i < team_size; ++i) {
        EXPECT_EQ(team_group.GlobalRank(i), team * team_size + i);
      }
      EXPECT_EQ(team_group.my_pos(), pos);

      const CommGroup cross =
          CommGroup::CrossTeam(comm, d, PlacementPolicy::kContiguous);
      ASSERT_EQ(cross.size(), d);
      for (int t = 0; t < d; ++t) {
        EXPECT_EQ(cross.GlobalRank(t), t * team_size + pos);
      }
      EXPECT_EQ(cross.my_pos(), team);
    });
  }
}

// The cluster plans the layout from its own fabric, so one policy lands
// teams differently per fabric. Racks of three at P = 8 are {0,1,2},
// {3,4,5}, {6,7}: rack-local keeps the whole teams {0,1}, {3,4}, {6,7}
// and pairs the leftovers 2 and 5; flat is one locality group, so rank 2
// teams with its neighbour.
TEST(PlacementCommGroupTest, TeamFollowsTheFabric) {
  for (const auto& [fabric, team] :
       {std::pair<const char*, std::vector<int>>{"fattree:3x4", {2, 5}},
        std::pair<const char*, std::vector<int>>{"flat", {2, 3}}}) {
    auto spec = TopologySpec::Parse(fabric, 8);
    ASSERT_TRUE(spec.ok()) << spec.status().ToString();
    Network network(*spec);
    Comm comm(&network, /*rank=*/2);
    const CommGroup group =
        CommGroup::Team(comm, 4, PlacementPolicy::kRackLocal);
    ASSERT_EQ(group.size(), 2) << fabric;
    EXPECT_EQ((std::vector<int>{group.GlobalRank(0), group.GlobalRank(1)}),
              team)
        << fabric;
  }
}

// Flat has one locality group, where rack-local packing is the
// contiguous layout: a rack-local SparDL must charge exactly
// (bit-for-bit) what the default charges.
TEST(PlacementCommGroupTest, RackLocalOnFlatIsBitForBit) {
  const int p = 8;
  const size_t n = 4000;
  AlgorithmConfig config;
  config.n = n;
  config.k = 400;
  config.num_workers = p;
  config.num_teams = 2;

  std::vector<double> makespans;
  for (PlacementPolicy policy :
       {PlacementPolicy::kContiguous, PlacementPolicy::kRackLocal}) {
    AlgorithmConfig run_config = config;
    run_config.placement = policy;
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
      const std::vector<int> members = MembersOf(*planned, t);
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
  EXPECT_EQ(MembersOf(*planned, 0), (std::vector<int>{0, 1}));
  EXPECT_EQ(MembersOf(*planned, 1), (std::vector<int>{3, 4}));
  EXPECT_EQ(MembersOf(*planned, 2), (std::vector<int>{6, 7}));
  EXPECT_EQ(MembersOf(*planned, 3), (std::vector<int>{2, 5}));
}

TEST(PlanPlacementTest, InterleavedDealsConsecutiveRanksAcrossTeams) {
  auto planned = PlanPlacement(TopologySpec::Flat(8), 8, 2,
                               PlacementPolicy::kInterleaved);
  ASSERT_TRUE(planned.ok());
  EXPECT_EQ(MembersOf(*planned, 0), (std::vector<int>{0, 2, 4, 6}));
  EXPECT_EQ(MembersOf(*planned, 1), (std::vector<int>{1, 3, 5, 7}));
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

  auto duplicate = TeamPlacement::FromMembers({0, 1, 1, 3}, 2);
  EXPECT_EQ(duplicate.status().code(), StatusCode::kInvalidArgument);
  auto out_of_range = TeamPlacement::FromMembers({0, 1, 2, 7}, 2);
  EXPECT_EQ(out_of_range.status().code(), StatusCode::kInvalidArgument);
}

// The registry boundary: a team count that cannot run — one that does not
// divide P — must surface as InvalidArgument from CreateAlgorithm, not die
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
    AlgorithmConfig config;
    config.n = n;
    config.k = k;
    config.num_workers = p;
    config.num_teams = 2;
    config.placement = policy;

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
  Cluster cluster(spec);
  cluster.Run([&](Comm& comm) {
    const std::vector<float> grad = RandomGradient(
        n, 31 + static_cast<uint64_t>(comm.rank()));
    const CommGroup team = CommGroup::Team(comm, num_teams, policy);
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
  AlgorithmConfig config;
  config.n = n;
  config.k = 400;
  config.num_workers = p;
  config.num_teams = num_teams;
  config.placement = policy;
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
