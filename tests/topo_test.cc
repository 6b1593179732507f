// The topology subsystem: routing-path invariants on every fabric,
// bit-for-bit flat-topology equivalence with the legacy CostModel
// charging, and the contention regressions (two flows through a shared
// link must serialize instead of magically overlapping).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "baselines/registry.h"
#include "simnet/cluster.h"
#include "test_util.h"
#include "topo/topologies.h"
#include "topo/topology_spec.h"

namespace spardl {
namespace {

std::vector<TopologySpec> AllSpecs(int p, CostModel cm) {
  // A P x 1 torus degenerates to a ring but exercises the torus plumbing
  // at every worker count; 2D grids get dedicated tests below.
  return {TopologySpec::Flat(p, cm), TopologySpec::Star(p, cm),
          TopologySpec::FatTree(p, /*rack_size=*/3, /*oversub=*/4.0, cm),
          TopologySpec::FatTree(p, /*rack_size=*/3, /*oversub=*/4.0, cm,
                                /*num_cores=*/2),
          TopologySpec::Ring(p, cm), TopologySpec::Torus(p, 1, cm)};
}

// Every route must be a contiguous walk from src's terminal to dst's
// terminal over valid, non-repeating links.
TEST(TopologyRoutingTest, PathsAreContiguousWalks) {
  for (int p : {2, 3, 7, 8}) {
    for (const TopologySpec& spec : AllSpecs(p, CostModel::Ethernet())) {
      auto built = spec.Build();
      ASSERT_TRUE(built.ok()) << built.status().ToString();
      const std::unique_ptr<Topology>& topo = *built;
      std::vector<LinkId> path;
      for (int src = 0; src < p; ++src) {
        for (int dst = 0; dst < p; ++dst) {
          if (src == dst) continue;
          topo->Route(src, dst, &path);
          ASSERT_FALSE(path.empty()) << spec.Describe();
          std::set<LinkId> seen;
          int at = src;
          for (LinkId id : path) {
            ASSERT_GE(id, 0) << spec.Describe();
            ASSERT_LT(id, topo->num_links()) << spec.Describe();
            EXPECT_TRUE(seen.insert(id).second)
                << spec.Describe() << ": link repeated on " << src << "->"
                << dst;
            const LinkInfo link = topo->link_info(id);
            EXPECT_EQ(link.tail, at)
                << spec.Describe() << ": discontinuous path " << src << "->"
                << dst;
            at = link.head;
          }
          EXPECT_EQ(at, dst) << spec.Describe();
        }
      }
    }
  }
}

TEST(TopologyRoutingTest, RingTakesShorterDirection) {
  RingTopology ring(8, CostModel::Ethernet());
  std::vector<LinkId> path;
  ring.Route(0, 1, &path);
  EXPECT_EQ(path.size(), 1u);
  ring.Route(0, 7, &path);
  EXPECT_EQ(path.size(), 1u);  // counter-clockwise, not 7 hops around
  ring.Route(0, 4, &path);
  EXPECT_EQ(path.size(), 4u);
  ring.Route(2, 6, &path);
  EXPECT_EQ(path.size(), 4u);
}

TEST(TopologyRoutingTest, FatTreeCrossRackUsesTrunks) {
  FatTreeTopology tree(8, /*rack_size=*/4, /*oversub=*/4.0,
                       CostModel::Ethernet());
  std::vector<LinkId> path;
  tree.Route(0, 3, &path);  // same rack
  EXPECT_EQ(path.size(), 2u);
  tree.Route(0, 4, &path);  // cross rack
  EXPECT_EQ(path.size(), 4u);
  // The trunk hop carries the oversubscribed beta.
  double max_beta = 0.0;
  for (LinkId id : path) {
    max_beta = std::max(max_beta, tree.link_info(id).beta);
  }
  EXPECT_DOUBLE_EQ(max_beta, CostModel::Ethernet().beta * 4.0);
}

TEST(TopologySpecTest, ParseRoundTrips) {
  for (const char* text :
       {"flat", "star", "ring", "fattree", "fattree:4x8", "fattree:4x8x2",
        "torus:4x2", "torus:2x4", "flat+event", "fattree:4x8x2+event"}) {
    auto spec = TopologySpec::Parse(text, 8);
    ASSERT_TRUE(spec.ok()) << text;
    EXPECT_TRUE((*spec).Build().ok()) << text;
  }
  auto spec = TopologySpec::Parse("fattree:2x16", 8);
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ((*spec).rack_size, 2);
  EXPECT_DOUBLE_EQ((*spec).oversubscription, 16.0);
  EXPECT_EQ((*spec).num_cores, 1);

  // "+event" is a no-op kept for older spec strings: every non-flat
  // fabric runs the event engine.
  spec = TopologySpec::Parse("fattree:4x8x2+event", 16);
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ((*spec).rack_size, 4);
  EXPECT_DOUBLE_EQ((*spec).oversubscription, 8.0);
  EXPECT_EQ((*spec).num_cores, 2);
  EXPECT_EQ((*spec).Describe(),
            (*TopologySpec::Parse("fattree:4x8x2", 16)).Describe());

  spec = TopologySpec::Parse("torus:4x2", 8);
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ((*spec).torus_width, 4);
  EXPECT_EQ((*spec).torus_height, 2);

  // A '+' inside a numeric parameter is not a suffix: scientific
  // notation keeps parsing (regression for the "+event" stripping).
  spec = TopologySpec::Parse("fattree:4x1e+1", 8);
  ASSERT_TRUE(spec.ok());
  EXPECT_DOUBLE_EQ((*spec).oversubscription, 10.0);

  // Malformed specs are InvalidArgument from Parse or Build — never a
  // CHECK abort (NaN oversubscription), inf simulated times (infinite
  // trunk beta), an int wrapped into a different fabric, a bad_alloc or
  // a signed overflow in the torus grid product. The removed busy-until
  // engine's suffix is an error, not a silent fallback, and a torus grid
  // must hold exactly num_workers workers.
  for (const char* text :
       {"torus", "torus:4", "torus:4xtwo", "fattree:x", "fattree:4xgarbage",
        "fattree:4x8xgarbage", "flat+warp", "fattree:4x8+busy", "torus:3x3",
        "fattree:4xnan", "fattree:4xinf", "fattree:4x-inf",
        "fattree:99999999999x4", "fattree:4x4x99999999999",
        "fattree:4x4x2000000000", "fattree:4x4x9",
        "torus:65536x65536", "torus:99999999999x1"}) {
    auto parsed = TopologySpec::Parse(text, 8);
    const Status status =
        parsed.ok() ? (*parsed).Build().status() : parsed.status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << text;
  }
  EXPECT_FALSE(TopologySpec::Flat(0).Build().ok());
  EXPECT_FALSE(TopologySpec::FatTree(8, 0, 4.0).Build().ok());
  EXPECT_FALSE(TopologySpec::FatTree(8, 4, 0.0).Build().ok());
  EXPECT_FALSE(TopologySpec::FatTree(8, 4, 4.0, CostModel::Ethernet(),
                                     /*num_cores=*/0)
                   .Build()
                   .ok());
  EXPECT_FALSE(TopologySpec::Torus(65536, 65536).Build().ok());
  // One core per worker, one worker per rack: over 2^33 links, more than an
  // int LinkId can number.
  EXPECT_FALSE(TopologySpec::FatTree(65536, 1, 4.0, CostModel::Ethernet(),
                                     /*num_cores=*/65536)
                   .Build()
                   .ok());
}

// Constructing the fabric directly (bypassing Build's validation) must die
// on the CHECK, not divide by zero computing the rack count.
TEST(TopologySpecTest, FatTreeCtorRejectsZeroRackSize) {
  EXPECT_DEATH(FatTreeTopology(8, 0, 4.0, CostModel::Ethernet()), "");
}

// Torus routing: dimension order (x then y), shorter way around each
// ring, Manhattan wrap distance hop counts, contiguous walks (the generic
// walk test covers P x 1; this covers real 2D grids).
TEST(TorusRoutingTest, DimensionOrderShortestPaths) {
  for (const auto& [w, h] : std::vector<std::pair<int, int>>{
           {2, 2}, {3, 2}, {4, 2}, {3, 3}, {4, 4}, {1, 4}}) {
    TorusTopology torus(w, h, CostModel::Ethernet());
    const int p = w * h;
    std::vector<LinkId> path;
    for (int src = 0; src < p; ++src) {
      for (int dst = 0; dst < p; ++dst) {
        if (src == dst) continue;
        torus.Route(src, dst, &path);
        const int dx_raw = ((dst % w) - (src % w) + w) % w;
        const int dy_raw = ((dst / w) - (src / w) + h) % h;
        const int dx = std::min(dx_raw, w - dx_raw);
        const int dy = std::min(dy_raw, h - dy_raw);
        ASSERT_EQ(path.size(), static_cast<size_t>(dx + dy))
            << w << "x" << h << " " << src << "->" << dst;
        // Contiguous walk ending at dst.
        int at = src;
        for (LinkId id : path) {
          const LinkInfo link = torus.link_info(id);
          ASSERT_EQ(link.tail, at);
          at = link.head;
        }
        EXPECT_EQ(at, dst);
      }
    }
  }
}

TEST(TorusChargeTest, UncontendedFlowPaysManhattanLatency) {
  const CostModel cm{1e-3, 1e-6};
  const size_t words = 50;
  Cluster cluster(TopologySpec::Torus(4, 2, cm));
  cluster.Run([&](Comm& comm) {
    if (comm.rank() == 0) {
      // (0,0) -> (2,1): 2 x-hops + 1 y-hop.
      comm.Send(6, Payload(std::vector<float>(words, 1.0f)));
    } else if (comm.rank() == 6) {
      comm.RecvAs<std::vector<float>>(0);
      EXPECT_DOUBLE_EQ(comm.sim_now(),
                       3.0 * cm.alpha +
                           cm.beta * static_cast<double>(words));
    }
  });
}

// Crossing row flows share a ring segment and must serialize; flows in
// different rows never touch.
TEST(TorusChargeTest, RowFlowsContendColumnsDoNot) {
  const CostModel cm{1e-3, 1e-6};
  const size_t words = 10'000;
  const double serialize = cm.beta * static_cast<double>(words);
  // 4x2: ranks 0..3 are row 0, ranks 4..7 are row 1. Flow A is 0 -> 2
  // (eastbound through 1). Flow B is 1 -> 3 (shares the 1 -> 2 segment
  // with A) or its row-1 twin 5 -> 7 (disjoint).
  double makespan[2];
  int slot = 0;
  for (bool same_row : {true, false}) {
    const int b_src = same_row ? 1 : 5;
    const int b_dst = same_row ? 3 : 7;
    Cluster cluster(TopologySpec::Torus(4, 2, cm));
    cluster.Run([&](Comm& comm) {
      if (comm.rank() == 0) {
        comm.Send(2, Payload(std::vector<float>(words, 1.0f)));
      } else if (comm.rank() == 2) {
        comm.RecvAs<std::vector<float>>(0);
      }
      if (comm.rank() == b_src) {
        comm.Send(b_dst, Payload(std::vector<float>(words, 1.0f)));
      } else if (comm.rank() == b_dst) {
        comm.RecvAs<std::vector<float>>(b_src);
      }
    });
    makespan[slot++] = cluster.MaxSimSeconds();
  }
  // Disjoint rows overlap fully: two 2-hop flows, uncontended.
  EXPECT_DOUBLE_EQ(makespan[1], 2.0 * cm.alpha + serialize);
  // The shared 1 -> 2 segment serializes the same-row pair.
  EXPECT_GT(makespan[0], makespan[1] + 0.9 * serialize);
}

TEST(FatTreeEcmpTest, CoreSelectionIsDeterministicAndUsed) {
  FatTreeTopology tree(8, /*rack_size=*/4, /*oversub=*/4.0,
                       CostModel::Ethernet(), /*num_cores=*/3);
  EXPECT_EQ(tree.num_cores(), 3);
  // 2 racks x 3 cores x 2 directions of trunks + 8 up + 8 down.
  EXPECT_EQ(tree.num_links(), 16 + 12);
  std::vector<LinkId> path;
  bool multiple_cores_used = false;
  int first_core = -1;
  for (int src = 0; src < 4; ++src) {
    for (int dst = 4; dst < 8; ++dst) {
      const int core = tree.CoreFor(src, dst);
      ASSERT_GE(core, 0);
      ASSERT_LT(core, 3);
      EXPECT_EQ(core, tree.CoreFor(src, dst));  // stable
      if (first_core < 0) first_core = core;
      if (core != first_core) multiple_cores_used = true;
      // The routed path's middle node must be that core's graph id.
      tree.Route(src, dst, &path);
      ASSERT_EQ(path.size(), 4u);
      const int core_node = tree.link_info(path[1]).head;
      EXPECT_EQ(core_node, 8 + 2 + core);  // P + num_racks + core
    }
  }
  EXPECT_TRUE(multiple_cores_used)
      << "ECMP hash degenerated to a single core";
}

// Two cross-rack flows that hash to different cores overlap fully — the
// rack trunk is no longer a single serialization point (the PR 2
// limitation this subsystem removes).
TEST(FatTreeEcmpTest, DistinctCoresRemoveTrunkSerialization) {
  const CostModel cm{1e-3, 1e-6};
  const size_t words = 10'000;
  const double trunk_serialize =
      4.0 * cm.beta * static_cast<double>(words);

  // Find two sender/receiver pairs (rack 0 -> rack 1, all four workers
  // distinct) that ECMP pins to different cores.
  FatTreeTopology probe(8, /*rack_size=*/4, /*oversub=*/4.0, cm,
                        /*num_cores=*/2);
  int s1 = -1, d1 = -1, s2 = -1, d2 = -1;
  for (int a = 0; a < 4 && s2 < 0; ++a) {
    for (int b = 4; b < 8 && s2 < 0; ++b) {
      for (int c = 0; c < 4 && s2 < 0; ++c) {
        for (int d = 4; d < 8 && s2 < 0; ++d) {
          if (a == c || b == d) continue;
          if (probe.CoreFor(a, b) != probe.CoreFor(c, d)) {
            s1 = a;
            d1 = b;
            s2 = c;
            d2 = d;
          }
        }
      }
    }
  }
  ASSERT_GE(s2, 0) << "no core-disjoint pair found";

  double makespan[2];
  int slot = 0;
  for (int cores : {1, 2}) {
    Cluster cluster(TopologySpec::FatTree(8, /*rack_size=*/4,
                                          /*oversub=*/4.0, cm, cores));
    cluster.Run([&](Comm& comm) {
      if (comm.rank() == s1) {
        comm.Send(d1, Payload(std::vector<float>(words, 1.0f)));
      } else if (comm.rank() == s2) {
        comm.Send(d2, Payload(std::vector<float>(words, 1.0f)));
      } else if (comm.rank() == d1) {
        comm.RecvAs<std::vector<float>>(s1);
      } else if (comm.rank() == d2) {
        comm.RecvAs<std::vector<float>>(s2);
      }
    });
    makespan[slot++] = cluster.MaxSimSeconds();
  }
  const double uncontended = 2.0 * cm.alpha + trunk_serialize;
  // One core: the two flows serialize on the shared trunks.
  EXPECT_GT(makespan[0], uncontended + 0.9 * trunk_serialize);
  // Two cores with core-disjoint hashes: full overlap, uncontended time.
  EXPECT_DOUBLE_EQ(makespan[1], uncontended);
}

// The tentpole equivalence: a Cluster over TopologySpec::Flat must charge
// *exactly* (bit-for-bit, not approximately) what the legacy
// Cluster(size, CostModel) charged, on a full SparDL run.
TEST(FlatEquivalenceTest, SparDLSimTimesMatchLegacyExactly) {
  const int p = 8;
  const size_t n = 4000;
  AlgorithmConfig config;
  config.n = n;
  config.k = 400;
  config.num_workers = p;
  config.num_teams = 2;

  std::vector<double> makespans;
  std::vector<double> per_rank[2];
  int slot = 0;
  for (bool via_topology : {false, true}) {
    auto cluster =
        via_topology
            ? std::make_unique<Cluster>(
                  TopologySpec::Flat(p, CostModel::Ethernet()))
            : std::make_unique<Cluster>(p, CostModel::Ethernet());
    std::vector<std::unique_ptr<SparseAllReduce>> algos(
        static_cast<size_t>(p));
    for (int r = 0; r < p; ++r) {
      algos[static_cast<size_t>(r)] =
          std::move(*CreateAlgorithm("spardl", config));
    }
    for (int iter = 0; iter < 3; ++iter) {
      cluster->Run([&](Comm& comm) {
        std::vector<float> grad = testing::RandomGradient(
            n, 17 + static_cast<uint64_t>(comm.rank()) +
                   1000 * static_cast<uint64_t>(iter));
        algos[static_cast<size_t>(comm.rank())]->Run(comm, grad);
      });
    }
    makespans.push_back(cluster->MaxSimSeconds());
    for (int r = 0; r < p; ++r) {
      per_rank[slot].push_back(cluster->comm(r).sim_now());
    }
    ++slot;
  }
  EXPECT_EQ(makespans[0], makespans[1]);  // exact, not EXPECT_DOUBLE_EQ
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(per_rank[0][static_cast<size_t>(r)],
              per_rank[1][static_cast<size_t>(r)])
        << "rank " << r;
  }
}

// An uncontended single flow costs the flat alpha + beta*words on star and
// in-rack fat-tree too (the per-hop split preserves the end-to-end budget).
TEST(TopologyChargeTest, UncontendedSingleFlowMatchesFlatBudget) {
  const CostModel cm{1e-3, 1e-6};
  const size_t words = 100;
  const double expected = cm.alpha + static_cast<double>(words) * cm.beta;
  for (TopologySpec spec :
       {TopologySpec::Star(4, cm),
        TopologySpec::FatTree(4, /*rack_size=*/4, /*oversub=*/8.0, cm)}) {
    Cluster cluster(spec);
    cluster.Run([&](Comm& comm) {
      if (comm.rank() == 0) {
        comm.Send(1, Payload(std::vector<float>(words, 1.0f)));
      } else if (comm.rank() == 1) {
        comm.RecvAs<std::vector<float>>(0);
        EXPECT_DOUBLE_EQ(comm.sim_now(), expected) << spec.Describe();
      }
    });
  }
}

TEST(TopologyChargeTest, FatTreeCrossRackPaysLatencyAndOversub) {
  const CostModel cm{1e-3, 1e-6};
  const size_t words = 100;
  Cluster cluster(TopologySpec::FatTree(4, /*rack_size=*/2,
                                        /*oversub=*/8.0, cm));
  cluster.Run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.Send(2, Payload(std::vector<float>(words, 1.0f)));
    } else if (comm.rank() == 2) {
      comm.RecvAs<std::vector<float>>(0);
      // 4 hops x alpha/2 + oversub * beta * words at the trunk bottleneck.
      EXPECT_DOUBLE_EQ(comm.sim_now(),
                       2.0 * cm.alpha +
                           8.0 * cm.beta * static_cast<double>(words));
    }
  });
}

TEST(TopologyChargeTest, RingChargesPerHopLatency) {
  const CostModel cm{1e-3, 1e-6};
  const size_t words = 50;
  Cluster cluster(TopologySpec::Ring(6, cm));
  cluster.Run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.Send(3, Payload(std::vector<float>(words, 1.0f)));
    } else if (comm.rank() == 3) {
      comm.RecvAs<std::vector<float>>(0);
      // Three hops of alpha, one bottleneck serialization.
      EXPECT_DOUBLE_EQ(comm.sim_now(),
                       3.0 * cm.alpha +
                           cm.beta * static_cast<double>(words));
    }
  });
}

// The contention regression: one sender fanning out to two receivers
// overlaps fully on the flat crossbar, but must serialize on its single
// star uplink.
TEST(TopologyContentionTest, SharedStarUplinkSerializesTwoFlows) {
  const CostModel cm{1e-3, 1e-6};
  const size_t words = 10'000;
  const double serialize = cm.beta * static_cast<double>(words);

  double makespan[2];
  int slot = 0;
  for (TopologySpec spec :
       {TopologySpec::Flat(3, cm), TopologySpec::Star(3, cm)}) {
    Cluster cluster(spec);
    cluster.Run([&](Comm& comm) {
      if (comm.rank() == 0) {
        comm.Send(1, Payload(std::vector<float>(words, 1.0f)));
        comm.Send(2, Payload(std::vector<float>(words, 1.0f)));
      } else {
        comm.RecvAs<std::vector<float>>(0);
      }
    });
    makespan[slot++] = cluster.MaxSimSeconds();
  }
  // Flat: both receivers finish at alpha + serialize.
  EXPECT_DOUBLE_EQ(makespan[0], cm.alpha + serialize);
  // Star: whichever flow queues second leaves the uplink one full
  // serialization later, so the makespan grows by ~serialize.
  EXPECT_GT(makespan[1], makespan[0] + 0.9 * serialize);
  // And an upper bound: queueing, not double charging everywhere.
  EXPECT_LT(makespan[1], makespan[0] + 1.5 * serialize);
}

// Link occupancy anchors at the *send* time: a receiver that sits in
// local compute before ingesting must not retroactively occupy the shared
// uplink and delay the other receiver by its compute time. The prompt
// receiver is delayed by at most the other flow's queueing window (alpha +
// serialization), never by the 100 s compute.
TEST(TopologyContentionTest, LateReceiverDoesNotInflateSharedLink) {
  const CostModel cm{1e-3, 1e-6};
  const size_t words = 10'000;
  const double serialize = cm.beta * static_cast<double>(words);
  Cluster cluster(TopologySpec::Star(3, cm));
  cluster.Run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.Send(1, Payload(std::vector<float>(words, 1.0f)));
      comm.Send(2, Payload(std::vector<float>(words, 1.0f)));
    } else if (comm.rank() == 1) {
      comm.Compute(100.0);  // late ingest: traversal overlaps compute
      comm.RecvAs<std::vector<float>>(0);
      EXPECT_DOUBLE_EQ(comm.sim_now(), 100.0);
    } else {
      comm.RecvAs<std::vector<float>>(0);
      EXPECT_LE(comm.sim_now(), 2.0 * cm.alpha + 3.0 * serialize);
    }
  });
}

// Same regression through a rack trunk: two cross-rack flows with
// distinct senders and receivers share only the rack-0 uplink.
TEST(TopologyContentionTest, SharedRackTrunkSerializesCrossRackFlows) {
  const CostModel cm{1e-3, 1e-6};
  const size_t words = 10'000;
  const double oversub = 4.0;
  const double trunk_serialize =
      oversub * cm.beta * static_cast<double>(words);

  Cluster cluster(TopologySpec::FatTree(4, /*rack_size=*/2, oversub, cm));
  cluster.Run([&](Comm& comm) {
    // rank 0 -> rank 2 and rank 1 -> rank 3, both rack 0 -> rack 1.
    if (comm.rank() == 0) {
      comm.Send(2, Payload(std::vector<float>(words, 1.0f)));
    } else if (comm.rank() == 1) {
      comm.Send(3, Payload(std::vector<float>(words, 1.0f)));
    } else {
      comm.RecvAs<std::vector<float>>(comm.rank() - 2);
    }
  });
  const double uncontended = 2.0 * cm.alpha + trunk_serialize;
  EXPECT_GT(cluster.MaxSimSeconds(), uncontended + 0.9 * trunk_serialize);
}

// WorkerSlowdown folds into ingress-link scaling on every fabric and keeps
// its exact legacy semantics on flat.
TEST(TopologyNodeScaleTest, SlowdownScalesIngress) {
  const CostModel cm{1.0, 0.0};
  {
    Cluster cluster(TopologySpec::Flat(2, cm));
    cluster.network().SetWorkerSlowdown(1, 3.0);
    cluster.Run([](Comm& comm) {
      if (comm.rank() == 0) {
        comm.Send(1, Payload(int64_t{1}));
      } else {
        comm.RecvAs<int64_t>(0);
        EXPECT_DOUBLE_EQ(comm.sim_now(), 3.0);  // legacy: 3x the full alpha
      }
    });
  }
  {
    Cluster cluster(TopologySpec::Star(2, cm));
    cluster.network().SetWorkerSlowdown(1, 3.0);
    cluster.Run([](Comm& comm) {
      if (comm.rank() == 0) {
        comm.Send(1, Payload(int64_t{1}));
      } else {
        comm.RecvAs<int64_t>(0);
        // Only the downlink half of the alpha scales: 0.5 + 3 * 0.5.
        EXPECT_DOUBLE_EQ(comm.sim_now(), 2.0);
      }
    });
  }
}

// Reset must rewind link busy clocks along with worker clocks, or warm-up
// occupancy would leak into the measured phase.
TEST(TopologyResetTest, ResetClearsLinkClocks) {
  const CostModel cm{1e-3, 1e-6};
  const size_t words = 10'000;
  Cluster cluster(TopologySpec::Star(3, cm));
  double first = 0.0;
  for (int phase = 0; phase < 2; ++phase) {
    cluster.Run([&](Comm& comm) {
      if (comm.rank() == 0) {
        comm.Send(1, Payload(std::vector<float>(words, 1.0f)));
        comm.Send(2, Payload(std::vector<float>(words, 1.0f)));
      } else {
        comm.RecvAs<std::vector<float>>(0);
      }
    });
    if (phase == 0) {
      first = cluster.MaxSimSeconds();
      cluster.ResetClocksAndStats();
    }
  }
  EXPECT_DOUBLE_EQ(cluster.MaxSimSeconds(), first);
}

// Every algorithm still produces consistent replicas on a contended,
// multi-hop fabric — topology changes timing, never data.
TEST(TopologyConsistencyTest, AlgorithmsConsistentOnEveryFabric) {
  const int p = 6;
  const size_t n = 600;
  AlgorithmConfig config;
  config.n = n;
  config.k = 60;
  config.num_workers = p;

  for (const TopologySpec& spec : AllSpecs(p, CostModel::Ethernet())) {
    for (const char* algo : {"spardl", "topka", "oktopk"}) {
      Cluster cluster(spec);
      std::vector<std::unique_ptr<SparseAllReduce>> algos(
          static_cast<size_t>(p));
      for (int r = 0; r < p; ++r) {
        algos[static_cast<size_t>(r)] =
            std::move(*CreateAlgorithm(algo, config));
      }
      std::vector<SparseVector> outs(static_cast<size_t>(p));
      cluster.Run([&](Comm& comm) {
        std::vector<float> grad = testing::RandomGradient(
            n, 11 + static_cast<uint64_t>(comm.rank()));
        outs[static_cast<size_t>(comm.rank())] =
            algos[static_cast<size_t>(comm.rank())]->Run(comm, grad);
      });
      for (int r = 1; r < p; ++r) {
        EXPECT_EQ(outs[static_cast<size_t>(r)], outs[0])
            << spec.Describe() << " " << algo;
      }
    }
  }
}

}  // namespace
}  // namespace spardl
