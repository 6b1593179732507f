// See where a sparse All-Reduce spends its simulated time: runs SparDL
// with span recording on, prints the phase breakdown and per-link
// utilization tables, and (with --trace-out) writes a Perfetto-loadable
// Chrome trace of every worker and the hottest links.
//
//   $ ./build/examples/trace_explorer [--workers P] [--iterations N]
//         [--topology SPEC]
//         [--trace-out trace.json] [--metrics-out metrics.json]
//
// Defaults to an oversubscribed two-rack fat-tree — a fabric where the
// rack-to-core trunk links are the bottleneck, which the link table
// should surface as the busiest rows.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/registry.h"
#include "bench_util.h"
#include "common/logging.h"
#include "dl/grad_profile.h"
#include "obs/exporters.h"
#include "simnet/cluster.h"
#include "topo/topology_spec.h"

int main(int argc, char** argv) {
  using namespace spardl;  // NOLINT
  const bench::HarnessArgs args = bench::ParseHarnessArgs(argc, argv);
  const int p = args.workers_or(8);
  const int iterations = args.iterations_or(2);

  // Two racks, heavily oversubscribed trunks — unless the harness flags
  // say otherwise.
  const TopologySpec fabric = *args.TopologyOr(
      TopologySpec::FatTree(p, /*rack_size=*/(p + 1) / 2,
                            /*oversubscription=*/8.0),
      p);

  const size_t n = 1 << 16;
  const size_t k = n / 100;
  AlgorithmConfig config;
  config.n = n;
  config.k = k;
  config.num_workers = p;
  config.num_teams = p % 2 == 0 ? 2 : 1;
  config.residual_mode = ResidualMode::kNone;

  Cluster cluster(fabric);
  cluster.EnableTracing();  // always on here — tracing is the point
  std::vector<std::unique_ptr<SparseAllReduce>> algos(
      static_cast<size_t>(p));
  for (int r = 0; r < p; ++r) {
    auto created = CreateAlgorithm("spardl", config);
    SPARDL_CHECK(created.ok()) << created.status().ToString();
    algos[static_cast<size_t>(r)] = std::move(*created);
  }

  const ProfileGradientGenerator generator(n, /*seed=*/2024);
  const size_t candidates_per_worker = k * 3 / 2;
  for (int iter = 0; iter < iterations; ++iter) {
    cluster.Run([&](Comm& comm) {
      const SparseVector candidates =
          generator.Generate(comm.rank(), iter, candidates_per_worker);
      algos[static_cast<size_t>(comm.rank())]->RunOnSparse(comm,
                                                           candidates);
      comm.MarkIteration();  // before the barrier: keep cross-worker skew
      comm.BarrierSyncClocks();
    });
  }

  const std::string label(algos[0]->name());
  const RunMetrics metrics = CollectRunMetrics(cluster, label);
  std::printf("%s on %s (%s engine): %d iterations, makespan %.6fs, "
              "%zu spans recorded\n\n",
              label.c_str(), metrics.topology.c_str(),
              metrics.engine.c_str(), iterations, metrics.makespan_seconds,
              cluster.tracer()->TotalSpans());
  std::printf("Top phases (seconds summed over %d workers):\n%s\n", p,
              TopPhasesTable(metrics).c_str());
  std::printf("Busiest links:\n%s\n",
              LinkUtilizationTable(metrics).c_str());

  // Persist artifacts when --trace-out / --metrics-out were given.
  bench::ObserveRun(cluster, label);
  return 0;
}
