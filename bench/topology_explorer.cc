// Explore how the choice of network fabric changes which sparse All-Reduce
// method wins, before deploying on a real cluster: runs SparDL (with and
// without teams) and the strongest baselines on a chosen topology and
// prints measured per-update costs next to the flat-model baseline.
//
//   $ ./build/bench/spardl-bench topology_explorer [--topology SPEC]
//         [--workers P]
//
// SPEC is flat | star | ring | fattree |
// fattree:<rack>x<oversub>[x<cores>] | torus:<w>x<h> (e.g. "fattree:4x8"
// or the 2-core ECMP "fattree:4x8x2"); without --topology the explorer
// sweeps every fabric. P defaults to 8.

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "metrics/table.h"
#include "scenarios.h"
#include "topo/topology_spec.h"

namespace spardl {
namespace {

/// The methods compared on `spec`: (registry name, team count).
std::vector<std::pair<std::string, int>> MethodsFor(const TopologySpec& spec) {
  std::vector<std::pair<std::string, int>> methods = {
      {"topka", 1}, {"oktopk", 1}, {"gtopk", 1}, {"spardl", 1}};
  if (spec.num_workers % 2 == 0) methods.push_back({"spardl", 2});
  return methods;
}

}  // namespace
}  // namespace spardl

int spardl::bench::RunTopologyExplorer(const HarnessArgs& args) {
  const int p = args.workers_or(8);
  if (p < 2 && !args.topology) UsageError("the sweep needs --workers >= 2");
  const size_t n = 2'000'000;
  const double k_ratio = 0.01;

  std::printf(
      "Topology explorer: measured per-update costs on simulated fabrics\n"
      "(P=%d, n=%zu, k/n=%g, Ethernet alpha-beta budget per hop)\n\n",
      p, n, k_ratio);

  const std::vector<TopologySpec> specs =
      args.topology.has_value()
          ? std::vector<TopologySpec>{*args.TopologyOr(std::nullopt, p)}
          : DefaultFabricSweep(p);
  const ModelProfile profile = {"-", "synthetic", "-", n, 0.0};
  bench::Sweep<bench::PerUpdateResult> sweep;
  for (const TopologySpec& spec : specs) {
    for (const auto& [algo, teams] : MethodsFor(spec)) {
      bench::PerUpdateOptions options;
      options.num_workers = spec.num_workers;
      options.k_ratio = k_ratio;
      options.num_teams = teams;
      options.topology = spec;
      options.measured_iterations = 2;
      bench::AddPerUpdate(sweep, algo, profile, options);
    }
  }
  const std::vector<bench::PerUpdateResult> results = sweep.Run();
  auto next = results.begin();
  for (const TopologySpec& spec : specs) {
    TablePrinter table({"method", "comm/update", "words/update", "msgs"});
    for (size_t i = 0; i < MethodsFor(spec).size(); ++i) {
      const bench::PerUpdateResult& r = *next++;
      table.AddRow({r.algo_label, HumanSeconds(r.comm_seconds),
                    StrFormat("%.0f", r.words_per_update),
                    StrFormat("%.0f", r.messages_per_update)});
    }
    std::printf("--- %s ---\n%s\n", spec.Describe().c_str(),
                table.ToString().c_str());
  }

  std::printf(
      "Reading: pick the method whose traffic shape matches your fabric — "
      "on oversubscribed racks, prefer team counts that keep SRS traffic "
      "rack-local; on high-latency multi-hop fabrics, fewer rounds beat "
      "lower volume.\n");
  return 0;
}
