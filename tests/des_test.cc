// The event engine (src/des) that charges every non-flat fabric:
// LinkServer fairness and deterministic tie-breaking, exact agreement with
// the sum(alpha) + max(beta * words) budget on uncontended paths,
// bit-for-bit flat/legacy equality, and the headline regression —
// run-to-run determinism of contended fat-tree times.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "baselines/registry.h"
#include "des/event_engine.h"
#include "simnet/cluster.h"
#include "test_util.h"
#include "topo/topologies.h"
#include "topo/topology_spec.h"

namespace spardl {
namespace {

TEST(EventQueueTest, OrdersByTimeThenKey) {
  EventQueue queue;
  queue.Push(2.0, 1);
  queue.Push(1.0, 9);
  queue.Push(1.0, 3);
  queue.Push(3.0, 0);
  ASSERT_EQ(queue.Size(), 4u);
  auto event = queue.PopEarliest();
  EXPECT_EQ(event.time, 1.0);
  EXPECT_EQ(event.flow, 3u);  // equal times break by flow key
  event = queue.PopEarliest();
  EXPECT_EQ(event.time, 1.0);
  EXPECT_EQ(event.flow, 9u);
  event = queue.PopEarliest();
  EXPECT_EQ(event.time, 2.0);
  event = queue.PopEarliest();
  EXPECT_EQ(event.time, 3.0);
  EXPECT_TRUE(queue.Empty());
}

TEST(LinkServerTest, BackToBackHeadersQueueOnBusyLink) {
  LinkServer link;
  // First header: leaves at 0 + alpha, link busy until alpha + serialize.
  EXPECT_DOUBLE_EQ(link.Serve(0.0, 0.5, 2.0), 0.5);
  EXPECT_DOUBLE_EQ(link.busy_until(), 2.5);
  // Second header arriving earlier than busy-until starts at busy-until.
  EXPECT_DOUBLE_EQ(link.Serve(1.0, 0.5, 2.0), 3.0);
  EXPECT_DOUBLE_EQ(link.busy_until(), 5.0);
  // A header arriving after the link went idle is not delayed.
  EXPECT_DOUBLE_EQ(link.Serve(10.0, 0.5, 2.0), 10.5);
  link.Reset();
  EXPECT_DOUBLE_EQ(link.busy_until(), 0.0);
}

// Two same-time flows sharing one star uplink must be served in flow-key
// order (sender's send order), each getting exactly one serialization
// window — fair FIFO queueing, no double-charging, no overlap.
TEST(LinkServerFairnessTest, SameTimeFlowsSerializeInSendOrder) {
  const CostModel cm{1e-3, 1e-6};
  const size_t words = 10'000;
  const double serialize = cm.beta * static_cast<double>(words);
  Cluster cluster(TopologySpec::Star(3, cm));
  cluster.Run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.Send(1, Payload(std::vector<float>(words, 1.0f)));
      comm.Send(2, Payload(std::vector<float>(words, 1.0f)));
    } else if (comm.rank() == 1) {
      comm.RecvAs<std::vector<float>>(0);
      // First flow off the uplink (key order: dst 1 before dst 2):
      // alpha + one serialization.
      EXPECT_DOUBLE_EQ(comm.sim_now(), cm.alpha + serialize);
    } else {
      comm.RecvAs<std::vector<float>>(0);
      // Second flow's header leaves the shared uplink only once the first
      // body crossed it (alpha/2 + serialize), then pays the remaining
      // uplink + downlink latency and its own serialization:
      // (alpha/2 + serialize) + alpha/2 + alpha/2 + serialize.
      EXPECT_DOUBLE_EQ(comm.sim_now(), 1.5 * cm.alpha + 2.0 * serialize);
    }
  });
}

// The flow with the earlier logical send time gets a shared link first
// even when its receiver consumes *second* in wall-clock order — a
// receiver-ordered charge could not guarantee that. Driving the Comm
// endpoints from one thread makes the consumption order fully ours: two
// cross-rack flows share the rack-0 trunk (and the rack-1 return trunk);
// the later-sent flow's receiver consumes first.
TEST(LinkServerFairnessTest, EarlierSendTimeWinsRegardlessOfChargeOrder) {
  const CostModel cm{1e-3, 1e-6};
  const size_t words = 10'000;
  const double s_trunk = 4.0 * cm.beta * static_cast<double>(words);
  const TopologySpec spec =
      TopologySpec::FatTree(4, /*rack_size=*/2, /*oversub=*/4.0, cm);
  Network network(spec);
  Comm early_sender(&network, 0);
  Comm late_sender(&network, 1);
  Comm early_receiver(&network, 2);
  Comm late_receiver(&network, 3);

  // Flow A: 0 -> 2 injected at t = 0. Flow B: 1 -> 3 injected at
  // t = alpha, well inside A's trunk serialization window.
  early_sender.Send(2, Payload(std::vector<float>(words, 1.0f)));
  late_sender.Compute(cm.alpha);
  late_sender.Send(3, Payload(std::vector<float>(words, 1.0f)));

  // Consume the *later* flow first. Were link order decided by
  // consumption order, B would win the trunk; the event engine must give
  // it to A, which was injected first.
  late_receiver.RecvAs<std::vector<float>>(1);
  early_receiver.RecvAs<std::vector<float>>(0);

  // A rides an idle fabric: 4 hops of alpha/2 plus the trunk bottleneck.
  EXPECT_DOUBLE_EQ(early_receiver.sim_now(), 2.0 * cm.alpha + s_trunk);
  // B's header reaches the trunk while A's body crosses it, waits out
  // A's occupancy on both trunks, then pays its own bottleneck:
  // (alpha + s_trunk) + alpha/2 [up-trunk] ... + alpha/2 [down-trunk]
  // + alpha/2 [downlink] + s_trunk = 2.5*alpha + 2*s_trunk.
  EXPECT_DOUBLE_EQ(late_receiver.sim_now(), 2.5 * cm.alpha + 2.0 * s_trunk);
}

// Uncontended permutation traffic (each worker sends to exactly one
// distinct peer, so no two flows share any link) must charge exactly what
// per-link busy-until clocks give on idle links: delivery at
// max(receiver clock, sent_at + sum(alpha) + max(beta * words)) over the
// route. The reference replays that arithmetic in the engine's operation
// order, so the comparison is exact.
TEST(EngineEquivalenceTest, UncontendedPathsMatchBusyUntilExactly) {
  const CostModel cm{1e-3, 1e-6};
  const int p = 6;
  const auto words_of = [](int rank, int round) {
    return 100 + 10 * static_cast<size_t>(rank) +
           50 * static_cast<size_t>(round);
  };
  for (const TopologySpec& spec :
       {TopologySpec::Star(p, cm),
        TopologySpec::FatTree(p, /*rack_size=*/3, /*oversub=*/4.0, cm)}) {
    Cluster cluster(spec);
    ASSERT_TRUE(cluster.network().event_ordered()) << spec.Describe();
    std::vector<double> expected(static_cast<size_t>(p), 0.0);
    std::vector<LinkId> path;
    for (int round = 0; round < 3; ++round) {
      cluster.Run([&](Comm& comm) {
        // Neighbour permutation r -> r+1: on the star every flow has a
        // private uplink/downlink; on the 2-rack fat tree the two
        // cross-rack flows (2->3 and 5->0) use opposite trunk pairs.
        const int dst = (comm.rank() + 1) % p;
        const int src = (comm.rank() + p - 1) % p;
        comm.Compute(1e-4 * static_cast<double>(comm.rank() + round));
        comm.Send(dst, Payload(std::vector<float>(
                           words_of(comm.rank(), round), 1.0f)));
        comm.RecvAs<std::vector<float>>(src);
      });
      std::vector<double> sent(static_cast<size_t>(p));
      for (int r = 0; r < p; ++r) {
        double& clock = expected[static_cast<size_t>(r)];
        clock += 1e-4 * static_cast<double>(r + round);
        sent[static_cast<size_t>(r)] = clock;
      }
      for (int dst = 0; dst < p; ++dst) {
        const int src = (dst + p - 1) % p;
        cluster.topology().Route(src, dst, &path);
        double head = sent[static_cast<size_t>(src)];
        double bottleneck = 0.0;
        for (const LinkId id : path) {
          const LinkInfo link = cluster.topology().link_info(id);
          head = head + link.alpha;
          bottleneck = std::max(
              bottleneck,
              link.beta * static_cast<double>(words_of(src, round)));
        }
        double& clock = expected[static_cast<size_t>(dst)];
        clock = std::max(clock, head + bottleneck);
      }
    }
    for (int r = 0; r < p; ++r) {
      EXPECT_EQ(cluster.comm(r).sim_now(), expected[static_cast<size_t>(r)])
          << spec.Describe() << " rank " << r;
    }
  }
}

// FlatTopology keeps its closed-form legacy charge and never runs the
// event engine — the no-op "+event" suffix included: a full SparDL run
// must match the legacy `Cluster(size, CostModel)` bit for bit.
TEST(EngineEquivalenceTest, FlatUnderEventEngineStaysLegacyExact) {
  const int p = 8;
  const size_t n = 4000;
  AlgorithmConfig config;
  config.n = n;
  config.k = 400;
  config.num_workers = p;
  config.num_teams = 2;

  auto parsed = TopologySpec::Parse("flat+event", p);
  ASSERT_TRUE(parsed.ok());
  std::vector<double> makespans;
  std::vector<double> per_rank[2];
  int slot = 0;
  for (bool via_spec : {false, true}) {
    auto cluster = via_spec
                       ? std::make_unique<Cluster>(*parsed)
                       : std::make_unique<Cluster>(p, CostModel::Ethernet());
    EXPECT_FALSE(cluster->network().event_ordered())
        << "flat is closed-form; the event engine must be skipped";
    std::vector<std::unique_ptr<SparseAllReduce>> algos(
        static_cast<size_t>(p));
    for (int r = 0; r < p; ++r) {
      algos[static_cast<size_t>(r)] =
          std::move(*CreateAlgorithm("spardl", config));
    }
    for (int iter = 0; iter < 3; ++iter) {
      cluster->Run([&](Comm& comm) {
        std::vector<float> grad = testing::RandomGradient(
            n, 23 + static_cast<uint64_t>(comm.rank()) +
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

// One full contended run on the reference fattree:4x8x2 fabric: returns
// every worker's final clock plus the makespan.
std::vector<double> ContendedFatTreeRun(int iterations) {
  const int p = 16;
  auto parsed = TopologySpec::Parse("fattree:4x8x2", p);
  SPARDL_CHECK(parsed.ok());
  Cluster cluster(*parsed);
  EXPECT_TRUE(cluster.network().event_ordered());

  AlgorithmConfig config;
  config.n = 6000;
  config.k = 600;
  config.num_workers = p;
  config.num_teams = 4;
  std::vector<std::unique_ptr<SparseAllReduce>> algos(
      static_cast<size_t>(p));
  for (int r = 0; r < p; ++r) {
    algos[static_cast<size_t>(r)] =
        std::move(*CreateAlgorithm("spardl", config));
  }
  for (int iter = 0; iter < iterations; ++iter) {
    cluster.Run([&](Comm& comm) {
      // Per-rank staggered compute widens the wall-clock races a
      // receiver-ordered charge would be sensitive to.
      comm.Compute(1e-5 * static_cast<double>(comm.rank() % 5));
      std::vector<float> grad = testing::RandomGradient(
          6000, 31 + static_cast<uint64_t>(comm.rank()) +
                    1000 * static_cast<uint64_t>(iter));
      algos[static_cast<size_t>(comm.rank())]->Run(comm, grad);
      // Direct cross-rack fan-in on top of the algorithm traffic, to
      // guarantee trunk contention every iteration.
      const int peer = (comm.rank() + 4) % p;
      comm.Send(peer, Payload(std::vector<float>(
                          500 + 100 * static_cast<size_t>(comm.rank() % 3),
                          1.0f)),
                /*tag=*/99);
      comm.RecvAs<std::vector<float>>((comm.rank() + p - 4) % p, /*tag=*/99);
    });
  }
  std::vector<double> times;
  for (int r = 0; r < p; ++r) times.push_back(cluster.comm(r).sim_now());
  times.push_back(cluster.MaxSimSeconds());
  return times;
}

// The acceptance criterion: >= 5 repeated runs of a contended
// fattree:4x8x2 workload produce bit-identical per-worker times. (Repeat
// the whole cluster lifecycle so no state carries over between runs.)
TEST(EventOrderedDeterminismTest, ContendedFatTreeTimesAreBitIdentical) {
  const std::vector<double> reference = ContendedFatTreeRun(/*iterations=*/3);
  double contended_makespan = reference.back();
  EXPECT_GT(contended_makespan, 0.0);
  for (int run = 1; run < 5; ++run) {
    const std::vector<double> repeat = ContendedFatTreeRun(/*iterations=*/3);
    ASSERT_EQ(repeat.size(), reference.size());
    for (size_t i = 0; i < reference.size(); ++i) {
      ASSERT_EQ(repeat[i], reference[i])  // exact, not EXPECT_DOUBLE_EQ
          << "run " << run << " entry " << i;
    }
  }
}

// Determinism must survive ResetClocksAndStats (warm-up/measured phase
// structure of every bench).
TEST(EventOrderedDeterminismTest, SurvivesClockReset) {
  auto one = [] {
    auto parsed = TopologySpec::Parse("star", 4, CostModel{1e-3, 1e-6});
    SPARDL_CHECK(parsed.ok());
    Cluster cluster(*parsed);
    for (int phase = 0; phase < 2; ++phase) {
      cluster.Run([&](Comm& comm) {
        if (comm.rank() == 0) {
          for (int dst = 1; dst < 4; ++dst) {
            comm.Send(dst, Payload(std::vector<float>(5'000, 1.0f)));
          }
        } else {
          comm.Compute(1e-4 * static_cast<double>(comm.rank()));
          comm.RecvAs<std::vector<float>>(0);
        }
      });
      if (phase == 0) cluster.ResetClocksAndStats();
    }
    return cluster.MaxSimSeconds();
  };
  const double first = one();
  for (int run = 1; run < 3; ++run) EXPECT_EQ(one(), first);
}

// The engine's blocking protocol must also handle tag-based out-of-order
// consumption and barriers without deadlock or misordering.
TEST(EventEngineProtocolTest, TagsBarriersAndClockSyncWork) {
  auto parsed = TopologySpec::Parse("ring", 4, CostModel{1e-3, 1e-6});
  ASSERT_TRUE(parsed.ok());
  Cluster cluster(*parsed);
  cluster.Run([](Comm& comm) {
    if (comm.rank() == 0) {
      comm.Send(1, Payload(int64_t{1}), /*tag=*/7);
      comm.Send(1, Payload(int64_t{2}), /*tag=*/9);
    } else if (comm.rank() == 1) {
      EXPECT_EQ(comm.RecvAs<int64_t>(0, /*tag=*/9), 2);
      EXPECT_EQ(comm.RecvAs<int64_t>(0, /*tag=*/7), 1);
    }
    comm.Barrier();
    comm.BarrierSyncClocks();
  });
  // All clocks aligned to the max after the sync.
  for (int r = 1; r < 4; ++r) {
    EXPECT_EQ(cluster.comm(r).sim_now(), cluster.comm(0).sim_now());
  }
}

// Algorithms stay data-correct under the event engine — the engine
// changes timing accounting, never payload routing.
TEST(EventEngineProtocolTest, AlgorithmsConsistentUnderEventEngine) {
  const int p = 6;
  const size_t n = 600;
  AlgorithmConfig config;
  config.n = n;
  config.k = 60;
  config.num_workers = p;
  for (const char* topo : {"star", "fattree:3x4x2", "torus:3x2"}) {
    auto parsed = TopologySpec::Parse(topo, p);
    ASSERT_TRUE(parsed.ok()) << topo;
    for (const char* algo : {"spardl", "topka", "gtopk"}) {
      Cluster cluster(*parsed);
      std::vector<std::unique_ptr<SparseAllReduce>> algos(
          static_cast<size_t>(p));
      for (int r = 0; r < p; ++r) {
        algos[static_cast<size_t>(r)] =
            std::move(*CreateAlgorithm(algo, config));
      }
      std::vector<SparseVector> outs(static_cast<size_t>(p));
      cluster.Run([&](Comm& comm) {
        std::vector<float> grad = testing::RandomGradient(
            n, 47 + static_cast<uint64_t>(comm.rank()));
        outs[static_cast<size_t>(comm.rank())] =
            algos[static_cast<size_t>(comm.rank())]->Run(comm, grad);
      });
      for (int r = 1; r < p; ++r) {
        EXPECT_EQ(outs[static_cast<size_t>(r)], outs[0]) << topo << " "
                                                         << algo;
      }
    }
  }
}

}  // namespace
}  // namespace spardl
