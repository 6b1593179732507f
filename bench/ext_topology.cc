// Extension bench (beyond the paper's flat §II model): the same sparse
// All-Reduce methods across simulated fabrics — flat crossbar, star
// (single switch, per-worker uplinks), oversubscribed two-rack fat-tree
// (single-core, and ECMP'd across two cores), a neighbour-link ring, and
// a 2D torus. Per-topology per-update communication time shows how each
// method's traffic pattern interacts with shared links: the flat model
// flatters everything; contention and multi-hop latency punish
// direct-send fan-in (TopkA) hardest, while SparDL's log-round block
// exchanges degrade most gracefully.
//
//   $ ./build/bench/spardl-bench ext_topology [--workers N]
//         [--iterations N] [--topology SPEC]
//         [--placement contiguous|rack|interleaved]
//
// --topology replaces the sweep with one fabric; --placement pins
// SparDL's team layout for the method table. A second table compares the three placement policies for
// SparDL (d = 2) on every multi-rack fabric of the sweep.

#include <cstdio>
#include <string>
#include <vector>

#include "common/strings.h"
#include "metrics/table.h"
#include "scenarios.h"
#include "topo/placement.h"

int spardl::bench::RunExtTopology(const HarnessArgs& args) {
  const int p = args.workers_or(8);
  // Large-P mode (P >= 256, where fibers let one machine host the run): the
  // direct-send methods (topka; oktopk's threshold phase also fans in
  // P-wise) would materialise Theta(P^2) packets, so the sweep keeps the
  // log-round methods only, and k/n shrinks to 0.1% to bound per-worker
  // candidate volume.
  const bool large_p = p >= 256;
  // Paper-shaped but laptop-sized: 4M params, k/n = 1% (0.1% large-P).
  const ModelProfile profile = {"-", "synthetic", "-", 4'000'000, 0.0};
  const double k_ratio = large_p ? 0.001 : 0.01;
  const std::vector<std::string> algos =
      large_p ? std::vector<std::string>{"gtopk", "spardl"}
              : std::vector<std::string>{"topka", "gtopk", "oktopk",
                                         "spardl"};
  const CostModel cm = CostModel::Ethernet();
  std::vector<TopologySpec> fabrics;
  if (args.topology.has_value()) {
    fabrics = {*args.TopologyOr(std::nullopt, p, cm)};
  } else {
    if (p < 2) UsageError("the sweep needs --workers >= 2");
    fabrics = bench::DefaultFabricSweep(p, cm);
    if (large_p) {
      // O(P)-diameter fabrics turn every log-round exchange into
      // thousands of per-hop events; they are small-P illustrations.
      std::erase_if(fabrics, [](const TopologySpec& spec) {
        return spec.kind == TopologyKind::kRing ||
               spec.kind == TopologyKind::kTorus;
      });
    }
  }
  if (large_p) {
    std::printf(
        "[large-P] P=%d: direct-send methods and O(P)-diameter fabrics "
        "excluded; k/n=0.1%%.\n\n",
        p);
  }

  std::printf(
      "== Extension: sparse All-Reduce across network topologies ==\n"
      "Per-update communication seconds (max over workers) on the same\n"
      "synthetic n=%zu, k/n=%.1f%% workload, P=%d. 'vs flat' is the "
      "fabric's\n"
      "slowdown over the paper's flat alpha-beta model for that method.\n\n",
      profile.num_params, k_ratio * 100.0, p);

  // One sweep: every (fabric, method) cell, then SparDL's d = 2 teams
  // under each layout on every fabric of the sweep with more than one
  // locality group (the others cost the same under any layout).
  bench::PerUpdateOptions options;
  options.num_workers = p;
  options.k_ratio = k_ratio;
  options.measured_iterations = args.iterations_or(2);
  bench::Sweep<bench::PerUpdateResult> sweep;
  for (const TopologySpec& spec : fabrics) {
    options.topology = spec;
    options.num_teams = 1;
    options.placement = args.placement_or(PlacementPolicy::kContiguous);
    for (const std::string& algo : algos) {
      bench::AddPerUpdate(sweep, algo, profile, options);
    }
  }
  std::vector<TopologySpec> multi_group;
  if (p % 2 == 0) {
    for (const TopologySpec& spec : fabrics) {
      if (LocalityGroups(spec, p).size() > 1) multi_group.push_back(spec);
    }
  }
  for (const TopologySpec& spec : multi_group) {
    options.topology = spec;
    options.num_teams = 2;
    for (PlacementPolicy policy : AllPlacementPolicies()) {
      options.placement = policy;
      bench::AddPerUpdate(sweep, "spardl", profile, options);
    }
  }
  const std::vector<bench::PerUpdateResult> results = sweep.Run();
  auto next = results.begin();

  std::vector<std::string> header = {"topology"};
  for (const std::string& algo : algos) {
    header.push_back(algo);
    header.push_back("vs flat");
  }
  TablePrinter table(header);
  std::vector<double> flat_comm(algos.size(), 0.0);
  for (const TopologySpec& spec : fabrics) {
    std::vector<std::string> row = {spec.Describe()};
    for (size_t a = 0; a < algos.size(); ++a) {
      const bench::PerUpdateResult& r = *next++;
      if (spec.kind == TopologyKind::kFlat) flat_comm[a] = r.comm_seconds;
      row.push_back(StrFormat("%.4f s", r.comm_seconds));
      // No flat baseline when --topology narrows the sweep to one fabric.
      row.push_back(spec.kind == TopologyKind::kFlat
                        ? std::string("1.0x")
                        : (flat_comm[a] > 0.0
                               ? StrFormat("%.1fx",
                                           r.comm_seconds / flat_comm[a])
                               : std::string("-")));
    }
    table.AddRow(row);
  }
  std::printf("%s\n", table.ToString().c_str());

  if (!multi_group.empty()) {
    TablePrinter placement_table({"topology", "contiguous", "rack-local",
                                  "interleaved"});
    for (const TopologySpec& spec : multi_group) {
      std::vector<std::string> row = {spec.Describe()};
      for (size_t i = 0; i < AllPlacementPolicies().size(); ++i) {
        row.push_back(StrFormat("%.4f s", (next++)->comm_seconds));
      }
      placement_table.AddRow(row);
    }
    std::printf(
        "team placement (SparDL, d=2): per-update comm seconds by "
        "layout\n%s\n",
        placement_table.ToString().c_str());
  }

  std::printf(
      "Reading: star adds sender-uplink serialization, so fan-out-heavy "
      "phases queue; the oversubscribed fat-tree multiplies every "
      "cross-rack word, hurting bandwidth-heavy baselines most (the "
      "2-core ECMP row shows how much of that pain is trunk contention "
      "rather than oversubscription); the ring and torus turn each "
      "log-round exchange into multi-hop latency. SparDL's near-constant "
      "per-worker volume keeps it ahead on every fabric, but the margins "
      "shift — exactly the axis the flat Table-I model cannot see.\n");
  return 0;
}
