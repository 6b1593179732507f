// Critical-path analysis + per-iteration time series (src/obs/analysis):
// the path identity (segments tile [0, makespan] exactly) on the flat
// closed form and on a contended fat-tree under the event engine, what-if
// monotonicity, byte-identical artifacts across runs, the straggler
// report, the nearest-rank p99, and the JSON DOM parser the
// spardl-analyze viewer reads artifacts back with.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "baselines/registry.h"
#include "dl/grad_profile.h"
#include "obs/analysis.h"
#include "obs/json.h"
#include "simnet/cluster.h"
#include "topo/topology_spec.h"

namespace spardl {
namespace {

// SparDL end-to-end with a nonzero compute constant and an iteration
// mark before each barrier (the trainer/bench loop shape, scaled down).
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
      comm.Compute(1e-4);
      const SparseVector candidates =
          generator.Generate(comm.rank(), iter, config.k * 3 / 2);
      algos[static_cast<size_t>(comm.rank())]->RunOnSparse(comm, candidates);
      comm.MarkIteration();
      comm.BarrierSyncClocks();
    });
  }
}

TopologySpec ContendedFatTree() {
  auto parsed = TopologySpec::Parse("fattree:4x8x2", 8);
  EXPECT_TRUE(parsed.ok());
  return *parsed;
}

// The enforced invariant, checked the strong way: exact boundary
// equality segment-to-segment, exact [0, makespan] coverage, and the
// forward-order sum reproducing path_seconds bit-for-bit.
void CheckIdentity(const Cluster& cluster,
                   const CriticalPathReport& report) {
  EXPECT_TRUE(report.identity_ok);
  EXPECT_EQ(report.makespan, cluster.MaxSimSeconds());
  ASSERT_FALSE(report.segments.empty());
  EXPECT_EQ(report.segments.front().t0, 0.0);
  EXPECT_EQ(report.segments.back().t1, report.makespan);
  double sum = 0.0;
  for (size_t i = 0; i < report.segments.size(); ++i) {
    const CriticalSegment& segment = report.segments[i];
    EXPECT_LT(segment.t0, segment.t1) << "segment " << i;
    if (i > 0) {
      EXPECT_EQ(report.segments[i - 1].t1, segment.t0)
          << "gap before segment " << i;
    }
    sum += segment.seconds();
  }
  EXPECT_EQ(sum, report.path_seconds);
  EXPECT_GT(report.path_seconds, 0.0);
}

TEST(CriticalPathTest, IdentityOnFlatClosedForm) {
  Cluster cluster(TopologySpec::Flat(4));
  cluster.EnableTracing();
  RunSparDl(cluster, /*iterations=*/2);
  const CriticalPathReport report = ExtractCriticalPath(cluster);
  CheckIdentity(cluster, report);
  // The flat closed form decomposes into alpha + serialize — no
  // queueing.
  EXPECT_EQ(report.by_kind[static_cast<size_t>(SegmentKind::kLinkQueue)],
            0.0);
  EXPECT_GT(
      report.by_kind[static_cast<size_t>(SegmentKind::kLinkSerialize)],
      0.0);
  EXPECT_TRUE(report.by_link.empty());  // no real LinkIds on the crossbar
}

TEST(CriticalPathTest, IdentityOnContendedFatTreeEvent) {
  Cluster cluster(ContendedFatTree());
  cluster.EnableTracing();
  RunSparDl(cluster, /*iterations=*/2);
  const CriticalPathReport report = ExtractCriticalPath(cluster);
  CheckIdentity(cluster, report);
  // The event engine yields a per-hop decomposition with real links; the
  // 8x-oversubscribed trunk must show queueing on the path.
  EXPECT_FALSE(report.by_link.empty());
  EXPECT_GT(report.by_kind[static_cast<size_t>(SegmentKind::kLinkQueue)],
            0.0);
  EXPECT_GT(
      report.by_kind[static_cast<size_t>(SegmentKind::kLinkSerialize)],
      0.0);
  EXPECT_GT(report.by_kind[static_cast<size_t>(SegmentKind::kCompute)],
            0.0);
}

TEST(CriticalPathTest, NoTracingYieldsEmptyNonOkReport) {
  Cluster cluster(TopologySpec::Flat(4));
  RunSparDl(cluster, /*iterations=*/1);
  const CriticalPathReport report = ExtractCriticalPath(cluster);
  EXPECT_FALSE(report.identity_ok);
  EXPECT_TRUE(report.segments.empty());
}

TEST(CriticalPathTest, AnalysisJsonByteIdenticalAcrossRuns) {
  std::string first;
  for (int run = 0; run < 2; ++run) {
    Cluster cluster(ContendedFatTree());
    cluster.EnableTracing();
    RunSparDl(cluster, /*iterations=*/2);
    const CriticalPathReport report = ExtractCriticalPath(cluster);
    const std::string json =
        AnalysisJson(report, EstimateWhatIfs(report, cluster));
    EXPECT_TRUE(JsonParse(json).has_value());
    if (run == 0) {
      first = json;
    } else {
      EXPECT_EQ(first, json);
    }
  }
  EXPECT_NE(first.find("\"schema\":\"spardl-analysis/1\""),
            std::string::npos);
  EXPECT_NE(first.find("\"identity_ok\":true"), std::string::npos);
}

TEST(WhatIfTest, HypotheticalsNeverLengthenThePath) {
  Cluster cluster(ContendedFatTree());
  cluster.EnableTracing();
  RunSparDl(cluster, /*iterations=*/2);
  const CriticalPathReport report = ExtractCriticalPath(cluster);
  ASSERT_TRUE(report.identity_ok);
  const std::vector<WhatIfResult> results =
      EstimateWhatIfs(report, cluster);
  ASSERT_EQ(results.size(), 4u);
  for (const WhatIfResult& result : results) {
    EXPECT_LE(result.path_seconds, report.path_seconds) << result.name;
    EXPECT_GE(result.speedup, 1.0) << result.name;
  }
  // The helper charges real compute, so pricing it away must shrink the
  // path strictly; same for zeroing every per-message latency.
  EXPECT_LT(results[0].path_seconds, report.path_seconds);  // compute-free
  EXPECT_LT(results[1].path_seconds, report.path_seconds);  // alpha-zero
  // Halving *all* serialization can never be worse than halving just the
  // trunk links'.
  EXPECT_LE(results[3].path_seconds, results[2].path_seconds);
}

TEST(TimeSeriesTest, JsonByteIdenticalAcrossRunsOnEventEngine) {
  std::string first;
  for (int run = 0; run < 2; ++run) {
    Cluster cluster(ContendedFatTree());
    cluster.EnableTracing();
    RunSparDl(cluster, /*iterations=*/3);
    const TimeSeriesReport report = BuildTimeSeries(cluster);
    EXPECT_EQ(report.workers, 8);
    EXPECT_EQ(report.iterations, 3);
    ASSERT_EQ(report.series.size(), 3u);
    const std::string json = TimeSeriesJson(report, "spardl");
    EXPECT_TRUE(JsonParse(json).has_value());
    if (run == 0) {
      first = json;
    } else {
      EXPECT_EQ(first, json);
    }
  }
  EXPECT_NE(first.find("\"schema\":\"spardl-timeseries/1\""),
            std::string::npos);
}

TEST(TimeSeriesTest, PerIterationStatsOrderedAndPositive) {
  Cluster cluster(ContendedFatTree());
  cluster.EnableTracing();
  RunSparDl(cluster, /*iterations=*/2);
  const TimeSeriesReport report = BuildTimeSeries(cluster);
  ASSERT_EQ(report.series.size(), 2u);
  for (const IterationStat& stat : report.series) {
    EXPECT_GT(stat.wall_min, 0.0);
    EXPECT_LE(stat.wall_min, stat.wall_median);
    EXPECT_LE(stat.wall_median, stat.wall_max);
    EXPECT_LE(stat.wall_p99, stat.wall_max);
    EXPECT_GE(stat.wall_p99, stat.wall_min);
    EXPECT_GT(stat.comm_mean, 0.0);
    EXPECT_GT(stat.compute_mean, 0.0);
  }
}

TEST(TimeSeriesTest, FlagsInjectedStraggler) {
  // Pure compute, no communication, no barrier: worker 2 runs 8x longer
  // per iteration, with nothing coupling the other clocks to it.
  Cluster cluster(TopologySpec::Flat(4));
  cluster.EnableTracing();
  for (int iter = 0; iter < 3; ++iter) {
    cluster.Run([&](Comm& comm) {
      comm.Compute(comm.rank() == 2 ? 0.8 : 0.1);
      comm.MarkIteration();
    });
  }
  const TimeSeriesReport report = BuildTimeSeries(cluster, 1.5);
  EXPECT_EQ(report.iterations, 3);
  EXPECT_DOUBLE_EQ(report.median_worker_wall, 0.1);
  ASSERT_EQ(report.stragglers.size(), 1u);
  EXPECT_EQ(report.stragglers[0].worker, 2);
  EXPECT_DOUBLE_EQ(report.stragglers[0].mean_wall, 0.8);
  EXPECT_DOUBLE_EQ(report.stragglers[0].ratio, 8.0);
  ASSERT_EQ(report.series.size(), 3u);
  EXPECT_DOUBLE_EQ(report.series[0].wall_min, 0.1);
  EXPECT_DOUBLE_EQ(report.series[0].wall_max, 0.8);
  EXPECT_DOUBLE_EQ(report.series[0].wall_median, 0.1);
  // And with a permissive threshold nobody is flagged.
  EXPECT_TRUE(BuildTimeSeries(cluster, 10.0).stragglers.empty());
}

TEST(TimeSeriesTest, P99OfFourWorkersIsTheStragglersWall) {
  // Nearest rank: p99 of P walls is the ceil(0.99 P)-th smallest, which
  // for P = 4 is the largest — the straggler's wall, exactly.
  Cluster cluster(TopologySpec::Flat(4));
  cluster.EnableTracing();
  for (int iter = 0; iter < 2; ++iter) {
    cluster.Run([&](Comm& comm) {
      comm.Compute(comm.rank() == 1 ? 0.8 : 0.1);
      comm.MarkIteration();
    });
  }
  const TimeSeriesReport report = BuildTimeSeries(cluster);
  ASSERT_EQ(report.series.size(), 2u);
  for (const IterationStat& stat : report.series) {
    EXPECT_EQ(stat.wall_p99, stat.wall_max);
    EXPECT_DOUBLE_EQ(stat.wall_p99, 0.8);
  }
}

TEST(TimeSeriesTest, P99OfTwoHundredWorkersIsTheNearestRank) {
  // Past P = 99 the nearest rank drops below the max: for P = 200 it is
  // the 198th smallest wall, so the two slowest workers lie above it.
  // Walls are multiples of 1/1024 s, so every sum is exact.
  const int p = 200;
  const double unit = 1.0 / 1024;
  Cluster cluster(TopologySpec::Flat(p));
  cluster.EnableTracing();
  cluster.Run([&](Comm& comm) {
    comm.Compute(unit * (comm.rank() + 1));
    comm.MarkIteration();
  });
  const TimeSeriesReport report = BuildTimeSeries(cluster);
  ASSERT_EQ(report.series.size(), 1u);
  EXPECT_EQ(report.series[0].wall_max, unit * p);
  EXPECT_EQ(report.series[0].wall_p99, unit * 198);
}

TEST(JsonParseTest, ParsesScalarsContainersAndEscapes) {
  const auto doc = JsonParse(
      "{\"a\":1.5e2,\"b\":\"x\\u0041\\n\",\"c\":[true,null,-3],"
      "\"d\":{\"nested\":\"ok\"}}");
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  EXPECT_DOUBLE_EQ(doc->NumberOr("a", 0.0), 150.0);
  EXPECT_EQ(doc->StringOr("b", ""), "xA\n");
  const JsonValue* c = doc->Find("c");
  ASSERT_NE(c, nullptr);
  ASSERT_TRUE(c->is_array());
  ASSERT_EQ(c->array_items.size(), 3u);
  EXPECT_EQ(c->array_items[0].type, JsonValue::Type::kBool);
  EXPECT_TRUE(c->array_items[0].bool_value);
  EXPECT_EQ(c->array_items[1].type, JsonValue::Type::kNull);
  EXPECT_DOUBLE_EQ(c->array_items[2].number_value, -3.0);
  const JsonValue* d = doc->Find("d");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->StringOr("nested", ""), "ok");
  // Fallbacks for missing/mistyped members.
  EXPECT_DOUBLE_EQ(doc->NumberOr("missing", -1.0), -1.0);
  EXPECT_EQ(doc->StringOr("a", "fallback"), "fallback");
  EXPECT_EQ(doc->Find("missing"), nullptr);
}

TEST(JsonParseTest, DecodesSurrogatePairsToUtf8) {
  const auto doc = JsonParse("{\"emoji\":\"\\uD83D\\uDE00\"}");
  ASSERT_TRUE(doc.has_value());
  const std::string emoji = doc->StringOr("emoji", "");
  EXPECT_EQ(emoji.size(), 4u);  // U+1F600 is 4 bytes of UTF-8
  EXPECT_EQ(static_cast<unsigned char>(emoji[0]), 0xF0u);
}

TEST(JsonParseTest, RejectsMalformedDocuments) {
  EXPECT_FALSE(JsonParse("").has_value());
  EXPECT_FALSE(JsonParse("{").has_value());
  EXPECT_FALSE(JsonParse("{\"a\":1} trailing").has_value());
  EXPECT_FALSE(JsonParse("{'a':1}").has_value());
  EXPECT_FALSE(JsonParse("{\"a\":01}").has_value());
  EXPECT_FALSE(JsonParse("[1,]").has_value());
  EXPECT_FALSE(JsonParse("nulll").has_value());
  EXPECT_FALSE(JsonParse("\"\\uD83D\"").has_value());  // lone surrogate
}

TEST(JsonParseTest, RoundTripsTheAnalysisArtifacts) {
  Cluster cluster(ContendedFatTree());
  cluster.EnableTracing();
  RunSparDl(cluster, /*iterations=*/2);
  const CriticalPathReport report = ExtractCriticalPath(cluster);
  const std::string analysis =
      AnalysisJson(report, EstimateWhatIfs(report, cluster));
  const auto parsed = JsonParse(analysis);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->StringOr("schema", ""), "spardl-analysis/1");
  EXPECT_DOUBLE_EQ(parsed->NumberOr("makespan_seconds", -1.0),
                   report.makespan);
  EXPECT_DOUBLE_EQ(parsed->NumberOr("path_seconds", -1.0),
                   report.path_seconds);
  const JsonValue* what_if = parsed->Find("what_if");
  ASSERT_NE(what_if, nullptr);
  EXPECT_EQ(what_if->array_items.size(), 4u);

  const std::string series =
      TimeSeriesJson(BuildTimeSeries(cluster), "spardl");
  const auto series_doc = JsonParse(series);
  ASSERT_TRUE(series_doc.has_value());
  EXPECT_EQ(series_doc->StringOr("schema", ""), "spardl-timeseries/1");
  EXPECT_DOUBLE_EQ(series_doc->NumberOr("iterations", 0.0), 2.0);
  ASSERT_NE(series_doc->Find("series"), nullptr);
  EXPECT_EQ(series_doc->Find("series")->array_items.size(), 2u);
}

}  // namespace
}  // namespace spardl
