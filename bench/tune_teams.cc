// The paper's recommended procedure for picking the team count d
// (§III-D, §IV-G), generalised to the fabric you actually run on: a
// (d, placement) grid search that simulates one epoch of SparDL per
// divisor of P per team-placement policy on the *selected* topology and
// keeps the fastest cell. On the flat default every placement costs the
// same and this degenerates to the paper's d sweep; on a hierarchical
// fabric (e.g. an oversubscribed fat-tree) both the optimal d and the
// optimal layout can differ from the flat answer — which is the point.
//
//   $ ./build/bench/spardl-bench tune_teams [--workers P]
//         [--topology SPEC] [--placement contiguous|rack|interleaved]
//         [--iterations N]
//
// P defaults to 12. --placement narrows the grid to one policy.

#include <cstdio>
#include <string>

#include "common/strings.h"
#include "metrics/table.h"
#include "scenarios.h"

int spardl::bench::RunTuneTeams(const HarnessArgs& args) {
  const int p = args.workers_or(12);
  if (p < 2) UsageError("--workers must be >= 2");
  const ModelProfile& profile = ProfileByModel("VGG-16");

  // The historical bug this rebuild fixes: the tuner used to ignore
  // --topology and always tuned d on the flat closed-form fabric. The
  // grid now runs on the resolved spec.
  const TopologySpec fabric =
      args.TopologyOr(std::nullopt, p).value_or(TopologySpec::Flat(p));

  bench::TeamTuneOptions tune;
  tune.measured_iterations = args.iterations_or(2);
  if (args.placement.has_value()) tune.policies = {*args.placement};

  std::printf(
      "selecting the optimal (d, placement) for P=%d on %s (%zu params)\n"
      "fabric: %s\n"
      "one simulated epoch (%d iterations) per candidate...\n\n",
      p, profile.model.c_str(), profile.num_params, fabric.Describe().c_str(),
      bench::kTuneIterationsPerEpoch);

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
