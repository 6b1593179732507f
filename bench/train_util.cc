#include "train_util.h"

#include <cstdio>
#include <memory>

#include "baselines/registry.h"
#include "dl/layers.h"
#include "bench_util.h"
#include "common/logging.h"
#include "common/strings.h"
#include "dl/grad_profile.h"
#include "metrics/table.h"
#include "simnet/cluster.h"

namespace spardl {
namespace bench {

TrainingCaseSpec MakeDeepOverlapCase() {
  TrainingCaseSpec spec;
  spec.key = "deep-overlap";
  spec.name = "Deep VGG-shaped MLP / synthetic CIFAR-10";
  spec.metric = TaskMetric::kAccuracy;
  spec.dataset_factory = [] {
    return MakeSyntheticClassification(96, 10, 1.6f, 108);
  };
  spec.model_factory = [](uint64_t seed) {
    auto model = std::make_unique<Model>();
    // Front "conv-like" layers: compute-heavy, parameter-light.
    model->Add(std::make_unique<LinearLayer>(96, 64));   //  6,208 params
    model->Add(std::make_unique<ReluLayer>());
    model->Add(std::make_unique<LinearLayer>(64, 64));   //  4,160
    model->Add(std::make_unique<ReluLayer>());
    model->Add(std::make_unique<LinearLayer>(64, 64));   //  4,160
    model->Add(std::make_unique<ReluLayer>());
    // Rear "fc-like" layers: ~70% of parameters, little compute.
    model->Add(std::make_unique<LinearLayer>(64, 512));  // 33,280
    model->Add(std::make_unique<ReluLayer>());
    model->Add(std::make_unique<LinearLayer>(512, 10));  //  5,130
    model->Finalize(seed);
    return model;
  };
  TrainerConfig config;
  config.batch_size = 32;
  config.iterations_per_epoch = 20;
  config.epochs = 8;
  config.sgd.learning_rate = 0.08;
  config.sgd.momentum = 0.9;
  // Sized against the Ethernet cost model so that on an oversubscribed
  // fat-tree one iteration's sparse transfers at k/n = 5% roughly match
  // the backward window: enough compute to hide buckets behind, not so
  // much that the stream drains between launches and ordering stops
  // mattering.
  config.compute_seconds_per_iteration = 1.4e-2;
  // Conv-vs-fc compute split: front layers dominate the forward/backward
  // time even though the rear layers dominate the parameter count.
  config.layer_compute_fractions = {0.35, 0.25, 0.2, 0.15, 0.05};
  spec.default_config = config;
  return spec;
}

ConvergenceSeries RunTrainingCase(const TrainingCaseSpec& spec,
                                  const std::string& algo_name,
                                  const std::string& label,
                                  const TrainRunOptions& options) {
  auto dataset = spec.dataset_factory();
  TrainerConfig config = spec.default_config;
  config.epochs = options.epochs;
  config.iterations_per_epoch = options.iterations_per_epoch;
  config.sync_mode = options.sync_mode;
  if (options.lr_drop_fraction > 0.0) {
    config.sgd.lr_milestones = {
        {static_cast<int>(options.lr_drop_fraction * options.epochs), 0.1}};
  }

  TopologySpec fabric = ResolveFabric(options.topology, options.num_workers,
                                      options.cost_model);
  if (options.paper_scale_network && !spec.paper_model.empty()) {
    const ModelProfile& profile = ProfileByModel(spec.paper_model);
    const size_t actual_n = spec.model_factory(config.model_seed)->num_params();
    // Rescale the fabric's per-hop budget, so non-flat topologies keep
    // their relative trunk/access provisioning at paper scale.
    fabric.cost.beta *= static_cast<double>(profile.num_params) /
                        static_cast<double>(actual_n);
    config.compute_seconds_per_iteration = profile.compute_seconds;
  }

  // Like MeasurePerUpdate: the team layout is planned against the
  // *resolved* fabric, so a --topology override moves teams too.
  auto placement = PlanPlacement(fabric, options.num_workers,
                                 options.num_teams, options.placement);
  SPARDL_CHECK(placement.ok()) << placement.status().ToString();

  AlgorithmFactory algorithm_factory = [&, placement](size_t n) {
    AlgorithmConfig algo_config;
    algo_config.n = n;
    algo_config.k = std::max<size_t>(
        1, static_cast<size_t>(options.k_ratio * static_cast<double>(n)));
    algo_config.num_workers = options.num_workers;
    algo_config.num_teams = options.num_teams;
    algo_config.placement = *placement;
    algo_config.value_bits = options.value_bits;
    if (options.residual_mode.has_value()) {
      algo_config.residual_mode = *options.residual_mode;
    }
    if (options.sag_mode.has_value()) {
      algo_config.sag_mode = *options.sag_mode;
    }
    auto created = CreateAlgorithm(algo_name, algo_config);
    SPARDL_CHECK(created.ok()) << created.status().ToString();
    return std::move(*created);
  };

  Cluster cluster(fabric);
  ConfigureCluster(cluster);
  const TrainResult result = TrainDistributed(
      cluster, *dataset, spec.model_factory, algorithm_factory, config);
  SPARDL_CHECK(result.replicas_consistent)
      << label << ": replicas diverged";
  ObserveRun(cluster, label);

  ConvergenceSeries series;
  series.label = label;
  series.metric = spec.metric;
  series.epochs = result.epochs;
  series.replicas_consistent = result.replicas_consistent;
  return series;
}

void AddTrainingCase(Sweep<ConvergenceSeries>& sweep,
                     const TrainingCaseSpec& spec,
                     const std::string& algo_name, const std::string& label,
                     const TrainRunOptions& options) {
  sweep.Add(
      [&spec, algo_name, label, options] {
        return RunTrainingCase(spec, algo_name, label, options);
      },
      static_cast<double>(options.epochs) * options.iterations_per_epoch *
          options.num_workers);
}

void PrintConvergence(const std::string& title,
                      const std::vector<ConvergenceSeries>& series) {
  std::printf("%s\n", title.c_str());
  const bool accuracy =
      !series.empty() && series[0].metric == TaskMetric::kAccuracy;
  TablePrinter table({"method", "epoch", "sim time (s)",
                      accuracy ? "test accuracy" : "test loss"});
  for (const ConvergenceSeries& s : series) {
    for (const EpochRecord& e : s.epochs) {
      table.AddRow({s.label, StrFormat("%d", e.epoch + 1),
                    StrFormat("%.3f", e.sim_seconds_cumulative),
                    accuracy ? StrFormat("%.1f%%", 100.0 * e.test_metric)
                             : StrFormat("%.4f", e.test_metric)});
    }
  }
  std::printf("%s", table.ToString().c_str());

  // Completion-time summary (the paper's speedup metric: time to finish
  // the same number of epochs).
  TablePrinter summary({"method", "total sim time (s)", "final metric",
                        "speedup vs first row"});
  const double reference = series[0].epochs.back().sim_seconds_cumulative;
  for (const ConvergenceSeries& s : series) {
    const double total = s.epochs.back().sim_seconds_cumulative;
    summary.AddRow(
        {s.label, StrFormat("%.3f", total),
         accuracy
             ? StrFormat("%.1f%%", 100.0 * s.epochs.back().test_metric)
             : StrFormat("%.4f", s.epochs.back().test_metric),
         StrFormat("%.2fx", reference / total)});
  }
  std::printf("%s\n", summary.ToString().c_str());
}

}  // namespace bench
}  // namespace spardl
