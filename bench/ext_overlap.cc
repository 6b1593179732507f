// Extension bench (beyond the paper's step-synchronous trainer):
// layer-bucketed communication/computation overlap. The same SparDL
// training run under the three `GradSyncMode`s —
//
//   step-synchronous   charge whole-iteration compute, then one
//                      whole-model sparse allreduce (the paper's S-SGD),
//   bucketed           one bucket per parameter layer, posted the instant
//                      its backward slice finishes (reverse layer order),
//   bucketed-priority  bucket launches reordered so front layers — the
//                      ones the next forward consumes first — finish
//                      earliest (Parallax/EmbRace-style scheduling),
//
// on a flat crossbar and on a contended oversubscribed fat-tree, with a
// nonzero per-iteration compute constant (the deep-overlap case, whose
// rear layers hold ~70% of the parameters while the front layers do most
// of the compute). Because the simnet anchors link occupancy at logical
// send times, posting buckets during backward genuinely hides their
// transfer behind the remaining compute; the table reports how much of
// the synchronous epoch that recovers on each fabric.
//
//   $ ./build/bench/spardl-bench ext_overlap [--workers N]
//         [--iterations N] [--topology SPEC]
//         [--placement contiguous|rack|interleaved]
//
// --topology replaces the two-fabric sweep with one fabric.

#include <cstdio>
#include <string>
#include <vector>

#include "common/strings.h"
#include "dl/trainer.h"
#include "metrics/table.h"
#include "scenarios.h"
#include "train_util.h"

int spardl::bench::RunExtOverlap(const HarnessArgs& args) {
  const int p = args.workers_or(8);
  const int iterations = args.iterations_or(10);
  const int epochs = 2;
  const CostModel cm = CostModel::Ethernet();

  std::vector<TopologySpec> fabrics;
  if (args.topology.has_value()) {
    fabrics = {*args.TopologyOr(std::nullopt, p, cm)};
  } else {
    fabrics = {TopologySpec::Flat(p, cm),
               // Oversubscribed rack uplinks: the contended fabric where
               // hiding transfers behind backward pays off most.
               TopologySpec::FatTree(p, /*rack_size=*/p >= 8 ? 4 : 2,
                                     /*oversubscription=*/8.0, cm)};
  }

  const TrainingCaseSpec spec = bench::MakeDeepOverlapCase();
  const GradSyncMode modes[] = {GradSyncMode::kStepSynchronous,
                                GradSyncMode::kBucketed,
                                GradSyncMode::kBucketedPriority};

  std::printf(
      "== Extension: layer-bucketed comm/compute overlap ==\n"
      "SparDL training (%s), P=%d, %d epochs x %d\n"
      "iterations, k/n = 5%%. All replicas stay bit-identical within a\n"
      "mode; the modes reschedule *when* each layer's bucket travels,\n"
      "so the simulated clock is what changes.\n\n",
      spec.name.c_str(), p, epochs, iterations);

  bench::Sweep<bench::ConvergenceSeries> sweep;
  for (const TopologySpec& fabric : fabrics) {
    for (GradSyncMode mode : modes) {
      bench::TrainRunOptions options;
      options.num_workers = p;
      options.k_ratio = 0.05;
      options.epochs = epochs;
      options.iterations_per_epoch = iterations;
      options.cost_model = cm;
      options.topology = fabric;
      // The deep-overlap case carries its own compute constant, sized
      // against the Ethernet cost model; no paper-model rescaling.
      options.paper_scale_network = false;
      options.placement = args.placement_or(PlacementPolicy::kContiguous);
      options.sync_mode = mode;
      bench::AddTrainingCase(sweep, spec, "spardl",
                             std::string(GradSyncModeName(mode)), options);
    }
  }
  const std::vector<bench::ConvergenceSeries> runs = sweep.Run();

  TablePrinter table({"topology", "sync mode", "total sim (s)",
                      "comm s/epoch", "compute s/epoch", "vs sync"});
  auto run = runs.begin();
  for (const TopologySpec& fabric : fabrics) {
    double sync_total = 0.0;
    for (GradSyncMode mode : modes) {
      const EpochRecord& last = (run++)->epochs.back();
      const double total = last.sim_seconds_cumulative;
      if (mode == GradSyncMode::kStepSynchronous) sync_total = total;
      table.AddRow({fabric.Describe(), std::string(GradSyncModeName(mode)),
                    StrFormat("%.3f", total),
                    StrFormat("%.3f", last.comm_seconds_epoch),
                    StrFormat("%.3f", last.compute_seconds_epoch),
                    StrFormat("%.2fx", sync_total / total)});
    }
  }
  std::printf("%s\n", table.ToString().c_str());
  std::printf(
      "Reading: on the flat crossbar overlap hides most of the transfer\n"
      "behind backward; on the oversubscribed fat-tree the contended\n"
      "trunk stretches every bucket, and priority ordering recovers the\n"
      "front layers' forward stalls on top of plain bucketing.\n");
  return 0;
}
