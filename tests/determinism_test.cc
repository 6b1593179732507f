// Bit-reproducibility: runs of the same configuration on fresh clusters
// must produce byte-identical global gradients and traces for every
// method, whatever order the fiber scheduler resumes workers in. This is
// what makes the repo's experiments and regressions trustworthy.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "dl/grad_profile.h"
#include "obs/exporters.h"
#include "test_util.h"
#include "topo/topology_spec.h"

namespace spardl {
namespace {

std::vector<SparseVector> OneRun(const std::string& name, int p, size_t n,
                                 size_t k, int iterations,
                                 uint64_t schedule_seed) {
  const testing::ScopedScheduleSeed seed(schedule_seed);
  AlgorithmConfig config;
  config.n = n;
  config.k = k;
  config.num_workers = p;
  if (name == "spardl") config.num_teams = 2;
  std::vector<std::vector<SparseVector>> outputs;
  testing::RunAlgorithm(
      p, n, iterations,
      [&](int) { return std::move(*CreateAlgorithm(name, config)); },
      nullptr, &outputs, /*seed_base=*/777);
  std::vector<SparseVector> flattened;
  for (const auto& iter_outputs : outputs) {
    flattened.push_back(iter_outputs[0]);
  }
  return flattened;
}

class DeterminismSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(DeterminismSweep, IdenticalAcrossRuns) {
  const std::string name = GetParam();
  const int p = 4;
  const size_t n = 400;
  const size_t k = 40;
  const auto first = OneRun(name, p, n, k, 3, /*schedule_seed=*/0);
  for (uint64_t seed = 0; seed <= 3; ++seed) {
    const auto again = OneRun(name, p, n, k, 3, seed);
    ASSERT_EQ(first.size(), again.size());
    for (size_t i = 0; i < first.size(); ++i) {
      EXPECT_EQ(first[i], again[i]) << name << " seed " << seed << " iter "
                                    << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Methods, DeterminismSweep,
                         ::testing::Values("spardl", "topka", "topkdsa",
                                           "gtopk", "oktopk", "dense"));

// One traced SparDL run on a contended oversubscribed fat-tree under the
// event-ordered engine and the given fiber schedule, exported as Chrome
// trace JSON.
std::string OneTracedRun(uint64_t schedule_seed) {
  const testing::ScopedScheduleSeed seed(schedule_seed);
  const int p = 8;
  auto spec = TopologySpec::Parse("fattree:4x8x2", p);
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  Cluster cluster(*spec);
  cluster.EnableTracing();

  AlgorithmConfig config;
  config.n = 1 << 12;
  config.k = config.n / 50;
  config.num_workers = p;
  config.num_teams = 2;
  std::vector<std::unique_ptr<SparseAllReduce>> algos(
      static_cast<size_t>(p));
  for (int r = 0; r < p; ++r) {
    algos[static_cast<size_t>(r)] = std::move(*CreateAlgorithm("spardl", config));
  }
  const ProfileGradientGenerator generator(config.n, /*seed=*/99);
  for (int iter = 0; iter < 2; ++iter) {
    cluster.Run([&](Comm& comm) {
      algos[static_cast<size_t>(comm.rank())]->RunOnSparse(
          comm, generator.Generate(comm.rank(), iter, config.k * 3 / 2));
      comm.BarrierSyncClocks();
    });
  }
  return ChromeTraceJson(cluster);
}

// The observability acceptance bar: the exported trace — including the
// contended per-link occupancy spans — is byte-identical across runs on
// the event-ordered engine, in rank order (seed 0) and under shuffled
// fiber schedules.
TEST(TraceDeterminism, ChromeTraceByteIdenticalAcrossRuns) {
  const std::string first = OneTracedRun(/*schedule_seed=*/0);
  ASSERT_FALSE(first.empty());
  for (uint64_t seed = 0; seed <= 3; ++seed) {
    EXPECT_EQ(OneTracedRun(seed), first) << "seed " << seed;
  }
}

}  // namespace
}  // namespace spardl
