// The paper's recommended procedure for picking the team count d
// (§III-D, §IV-G), generalised to the fabric you actually run on: a
// (d, placement) grid search that simulates one epoch of SparDL per
// divisor of P per team-placement policy on the *selected* topology and
// keeps the fastest cell. On the flat default every placement costs the
// same and this degenerates to the paper's d sweep; on a hierarchical
// fabric (e.g. an oversubscribed fat-tree) both the optimal d and the
// optimal layout can differ from the flat answer — which is the point.
//
//   $ ./build/examples/tune_teams [P] [--topology SPEC]
//         [--placement contiguous|rack|interleaved] [--workers N]
//         [--iterations N]
//
// P defaults to 12; --workers (or SPARDL_BENCH_WORKERS) overrides it.
// --placement narrows the grid to one policy.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "common/strings.h"
#include "metrics/table.h"

int main(int argc, char** argv) {
  using namespace spardl;  // NOLINT
  const bench::HarnessArgs args = bench::ParseHarnessArgs(argc, argv);
  int p = 12;
  if (argc > 1 && std::strncmp(argv[1], "--", 2) != 0) {
    p = std::atoi(argv[1]);
  }
  p = args.workers_or(p);
  if (p < 2) {
    std::fprintf(stderr, "P must be >= 2\n");
    return 1;
  }
  const ModelProfile& profile = ProfileByModel("VGG-16");

  // The historical bug this rebuild fixes: the tuner used to ignore
  // --topology / SPARDL_BENCH_TOPOLOGY and always tuned d on the flat
  // closed-form fabric. The grid now runs on the resolved spec.
  const TopologySpec fabric =
      args.TopologyOr(std::nullopt, p).value_or(TopologySpec::Flat(p));

  bench::TeamTuneOptions tune;
  tune.iterations_per_epoch = 30;
  tune.measured_iterations = args.iterations_or(2);
  if (args.placement.has_value()) tune.policies = {*args.placement};

  std::printf(
      "selecting the optimal (d, placement) for P=%d on %s (%zu params)\n"
      "fabric: %s\n"
      "one simulated epoch (%d iterations) per candidate...\n\n",
      p, profile.model.c_str(), profile.num_params, fabric.Describe().c_str(),
      tune.iterations_per_epoch);

  const bench::TeamTuneResult result =
      bench::TuneTeamPlacement(profile, fabric, tune);

  TablePrinter table(
      {"d", "placement", "SAG variant", "per-epoch comm+comp (s)"});
  for (const bench::TeamTuneCandidate& c : result.candidates) {
    table.AddRow({StrFormat("%d", c.num_teams),
                  std::string(PlacementPolicyName(c.placement)),
                  c.algo_label, StrFormat("%.2f", c.epoch_seconds)});
  }
  std::printf("%s\n", table.ToString().c_str());
  const bench::TeamTuneCandidate& best = result.best();
  std::printf("optimal: d=%d, %.*s placement (%s), %.2f s per epoch\n",
              best.num_teams,
              static_cast<int>(PlacementPolicyName(best.placement).size()),
              PlacementPolicyName(best.placement).data(),
              best.algo_label.c_str(), best.epoch_seconds);
  return 0;
}
