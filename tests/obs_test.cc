// The observability subsystem: phase accounting that survives with
// tracing disabled, span recording invariants (nesting, zero-alloc
// disabled path), the JSON exporters, and the event engine's per-link
// fabric counters.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "allocation_counter.h"
#include "baselines/registry.h"
#include "dl/grad_profile.h"
#include "obs/exporters.h"
#include "obs/json.h"
#include "obs/trace.h"
#include "simnet/cluster.h"
#include "test_util.h"
#include "topo/topology_spec.h"

namespace spardl {
namespace {

// Runs SparDL end-to-end on the given cluster: n = 4096, k = n/50, two
// teams when P is even, no residuals.
void RunSparDl(Cluster& cluster, int iterations) {
  const int p = cluster.size();
  AlgorithmConfig config;
  config.n = 1 << 12;
  config.k = config.n / 50;
  config.num_workers = p;
  config.num_teams = p % 2 == 0 ? 2 : 1;
  config.residual_mode = ResidualMode::kNone;
  std::vector<std::unique_ptr<SparseAllReduce>> algos(
      static_cast<size_t>(p));
  for (int r = 0; r < p; ++r) {
    auto created = CreateAlgorithm("spardl", config);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    algos[static_cast<size_t>(r)] = std::move(*created);
  }
  const ProfileGradientGenerator generator(config.n, /*seed=*/2024);
  for (int iter = 0; iter < iterations; ++iter) {
    cluster.Run([&](Comm& comm) {
      const SparseVector candidates =
          generator.Generate(comm.rank(), iter, config.k * 3 / 2);
      algos[static_cast<size_t>(comm.rank())]->RunOnSparse(comm, candidates);
      comm.BarrierSyncClocks();
    });
  }
}

TopologySpec SmallFatTree() {
  return TopologySpec::FatTree(/*num_workers=*/4, /*rack_size=*/2,
                               /*oversubscription=*/4.0);
}

TEST(PhaseTest, NamesUniqueAndNonEmpty) {
  std::set<std::string_view> names;
  for (size_t i = 0; i < kNumPhases; ++i) {
    const std::string_view name = PhaseName(static_cast<Phase>(i));
    EXPECT_FALSE(name.empty()) << "phase " << i;
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
  }
}

TEST(PhaseTest, CommPhasesPrecedeComputePhases) {
  EXPECT_TRUE(IsCommPhase(Phase::kUntagged));
  EXPECT_TRUE(IsCommPhase(Phase::kSparsify));
  EXPECT_TRUE(IsCommPhase(Phase::kBucket));
  EXPECT_FALSE(IsCommPhase(Phase::kCompute));
  EXPECT_FALSE(IsCommPhase(Phase::kBarrier));
  EXPECT_FALSE(IsCommPhase(Phase::kOverlapIdle));
  EXPECT_FALSE(IsCommPhase(Phase::kLink));
}

// Satellite (b): the phase breakdown is maintained with tracing OFF and
// the comm-tagged buckets partition comm_seconds exactly (same additions,
// same order), while kCompute mirrors compute_seconds.
TEST(PhaseBreakdownTest, PartitionsCommSecondsWithTracingDisabled) {
  Cluster cluster(SmallFatTree());
  ASSERT_EQ(cluster.tracer(), nullptr);
  RunSparDl(cluster, /*iterations=*/2);
  ASSERT_EQ(cluster.tracer(), nullptr);
  for (int r = 0; r < cluster.size(); ++r) {
    const CommStats& stats = cluster.WorkerStats(r);
    ASSERT_GT(stats.comm_seconds, 0.0) << "rank " << r;
    EXPECT_NEAR(stats.CommPhaseSum(), stats.comm_seconds,
                1e-12 * stats.comm_seconds)
        << "rank " << r;
    EXPECT_DOUBLE_EQ(
        stats.phase_seconds[static_cast<size_t>(Phase::kCompute)],
        stats.compute_seconds)
        << "rank " << r;
    // SparDL's whole collective runs under tagged scopes, so nothing may
    // land in the untagged bucket.
    EXPECT_EQ(stats.phase_seconds[static_cast<size_t>(Phase::kUntagged)],
              0.0)
        << "rank " << r;
  }
}

// Scopes follow the call stack over a monotonic per-worker clock, so two
// spans on the same (track, stream) either nest or are disjoint — never
// partially overlap. Zero-length spans (instants) are always fine.
TEST(TraceRecorderTest, SpansNestPerTrackAndStream) {
  Cluster cluster(SmallFatTree());
  cluster.EnableTracing();
  RunSparDl(cluster, /*iterations=*/1);
  const TraceRecorder* tracer = cluster.tracer();
  ASSERT_NE(tracer, nullptr);
  ASSERT_GT(tracer->TotalSpans(), 0u);
  for (int w = 0; w < cluster.size(); ++w) {
    const std::vector<TraceSpan>& spans = tracer->worker_spans(w);
    EXPECT_FALSE(spans.empty()) << "worker " << w;
    for (const TraceSpan& span : spans) {
      EXPECT_LE(span.t0, span.t1) << span.name;
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      for (size_t j = i + 1; j < spans.size(); ++j) {
        const TraceSpan& a = spans[i];
        const TraceSpan& b = spans[j];
        if (a.stream != b.stream) continue;
        const bool disjoint = a.t1 <= b.t0 || b.t1 <= a.t0;
        const bool a_in_b = b.t0 <= a.t0 && a.t1 <= b.t1;
        const bool b_in_a = a.t0 <= b.t0 && b.t1 <= a.t1;
        EXPECT_TRUE(disjoint || a_in_b || b_in_a)
            << "worker " << w << ": " << a.name << " [" << a.t0 << ", "
            << a.t1 << ") partially overlaps " << b.name << " [" << b.t0
            << ", " << b.t1 << ")";
      }
    }
  }
}

TEST(TraceRecorderTest, DisabledByDefaultEnableIdempotentClearOnReset) {
  Cluster cluster(SmallFatTree());
  EXPECT_EQ(cluster.tracer(), nullptr);
  TraceRecorder& first = cluster.EnableTracing();
  TraceRecorder& second = cluster.EnableTracing();
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(cluster.tracer(), &first);

  RunSparDl(cluster, /*iterations=*/1);
  EXPECT_GT(first.TotalSpans(), 0u);
  EXPECT_FALSE(first.link_spans().empty());

  cluster.ResetClocksAndStats();
  EXPECT_EQ(first.TotalSpans(), 0u);
  EXPECT_TRUE(first.link_spans().empty());
}

// The disabled path must be free: with no tracer attached, clock charges
// and TraceScope perform zero heap allocations.
TEST(TraceRecorderTest, DisabledPathAllocatesNothing) {
  Network network(/*size=*/1, CostModel::Free());
  Comm comm(&network, /*rank=*/0);
  ASSERT_EQ(comm.tracer(), nullptr);

  g_allocation_count = 0;
  g_count_allocations = true;
  {
    TraceScope outer(comm, Phase::kCollective, "outer");
    comm.Compute(1e-3);
    {
      TraceScope inner(comm, Phase::kSparsify, "inner", /*a=*/3);
      comm.ChargeOverlappedCompute(1e-4);
    }
    comm.AdvanceClockTo(1.0);
  }
  g_count_allocations = false;
  EXPECT_EQ(g_allocation_count, 0u);
  EXPECT_GT(comm.stats().compute_seconds, 0.0);
}

TEST(ExportersTest, ChromeTraceAndMetricsAreValidJson) {
  Cluster cluster(SmallFatTree());
  cluster.EnableTracing();
  RunSparDl(cluster, /*iterations=*/1);

  const std::string trace = ChromeTraceJson(cluster);
  EXPECT_TRUE(JsonParse(trace).has_value()) << trace.substr(0, 200);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("thread_name"), std::string::npos);
  EXPECT_NE(trace.find("sparsify"), std::string::npos);

  const RunMetrics metrics = CollectRunMetrics(cluster, "spardl");
  EXPECT_EQ(metrics.workers, cluster.size());
  EXPECT_GT(metrics.makespan_seconds, 0.0);
  EXPECT_FALSE(metrics.links.empty());
  const std::string json = RunMetricsJson({metrics});
  EXPECT_TRUE(JsonParse(json).has_value()) << json.substr(0, 200);
  EXPECT_NE(json.find("spardl-run-metrics/2"), std::string::npos);
  EXPECT_FALSE(LinkUtilizationTable(metrics).empty());
  EXPECT_FALSE(TopPhasesTable(metrics).empty());
}

TEST(ExportersTest, DisabledTracingStillExportsValidDocuments) {
  Cluster cluster(4, CostModel::Ethernet());
  const std::string trace = ChromeTraceJson(cluster);
  EXPECT_TRUE(JsonParse(trace).has_value());
  const RunMetrics metrics = CollectRunMetrics(cluster, "idle");
  EXPECT_EQ(metrics.makespan_seconds, 0.0);
  EXPECT_TRUE(metrics.links.empty());  // flat fabric: closed-form charge
  EXPECT_TRUE(JsonParse(RunMetricsJson({metrics})).has_value());
}

TEST(ExportersTest, WriteTextFileReportsFailures) {
  const std::string path = "obs_test_write_check.tmp";
  EXPECT_TRUE(WriteTextFile(path, "hello\n"));
  std::remove(path.c_str());
  EXPECT_FALSE(
      WriteTextFile("/nonexistent-dir-zz/obs_test.tmp", "hello\n"));
}

// One uncontended message through a star fabric: both route links carry
// exactly its bytes, their busy time is bounded by the receiver's
// comm_seconds, and the end-to-end charge preserves the alpha-beta
// budget.
TEST(StarLinkCounters, SingleMessageAccounting) {
  const size_t kWords = 1000;
  Cluster cluster(TopologySpec::Star(2));
  cluster.Run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.Send(1, std::vector<float>(kWords, 1.0f));
    } else {
      comm.RecvAs<std::vector<float>>(0);
    }
  });

  const CostModel& cost = cluster.network().cost_model();
  const double expected = cost.alpha + cost.beta * kWords;
  const double comm_seconds = cluster.WorkerStats(1).comm_seconds;
  EXPECT_NEAR(comm_seconds, expected, 1e-9 * expected);

  std::vector<LinkId> path;
  cluster.topology().Route(0, 1, &path);
  ASSERT_EQ(path.size(), 2u);  // worker -> switch -> worker
  double total_alpha = 0.0;
  for (const LinkId id : path) {
    const LinkUsage usage = cluster.network().link_usage(id);
    EXPECT_EQ(usage.messages, 1u);
    EXPECT_EQ(usage.bytes, kWords * sizeof(float));
    EXPECT_GT(usage.busy_seconds, 0.0);
    EXPECT_LE(usage.busy_seconds, comm_seconds + 1e-12);
    EXPECT_EQ(usage.max_queue_seconds, 0.0);  // nothing to queue behind
    total_alpha += cluster.topology().link_info(id).alpha;
  }
  // The per-hop split preserves the reference budget end-to-end.
  EXPECT_NEAR(total_alpha, cost.alpha, 1e-12);

  // Off-route links saw no traffic.
  uint64_t total_messages = 0;
  for (LinkId id = 0; id < cluster.topology().num_links(); ++id) {
    total_messages += cluster.network().link_usage(id).messages;
  }
  EXPECT_EQ(total_messages, 2u);
}

// Acceptance: on an oversubscribed fat-tree under all-cross-rack traffic
// the utilization table's busiest row is a trunk (both endpoints are
// switches, i.e. graph ids >= P).
TEST(LinkUtilizationTest, OversubscribedTrunkIsBusiest) {
  const int p = 8;
  const size_t kWords = 4096;
  Cluster cluster(TopologySpec::FatTree(p, /*rack_size=*/4,
                                        /*oversubscription=*/8.0));
  cluster.Run([&](Comm& comm) {
    const int peer = (comm.rank() + p / 2) % p;  // always cross-rack
    comm.Send(peer, std::vector<float>(kWords, 1.0f));
    comm.RecvAs<std::vector<float>>(peer);
  });

  const RunMetrics metrics = CollectRunMetrics(cluster, "cross-rack");
  ASSERT_FALSE(metrics.links.empty());
  const RunMetrics::Link& busiest = metrics.links.front();
  const LinkInfo info = cluster.topology().link_info(busiest.id);
  EXPECT_GE(info.tail, p) << busiest.name;
  EXPECT_GE(info.head, p) << busiest.name;
  EXPECT_GT(busiest.utilization, 0.0);
  EXPECT_LE(busiest.utilization, 1.0 + 1e-12);
}

}  // namespace
}  // namespace spardl
