// Train a classifier across a simulated 8-worker cluster with SparDL and
// watch accuracy climb — the full S-SGD loop from the paper's Fig. 4:
// forward/backward -> residual feedback -> Spar-Reduce-Scatter ->
// (Spar-All-Gather) -> Bruck all-gather -> SGD update.
//
//   $ ./build/bench/spardl-bench train_cluster

#include <cstdio>
#include <string>

#include "baselines/registry.h"
#include "common/logging.h"
#include "dl/cases.h"
#include "scenarios.h"
#include "simnet/cluster.h"

int spardl::bench::RunTrainCluster(const HarnessArgs& /*args*/) {
  const std::string algo = "spardl";
  const int num_workers = 8;

  const TrainingCaseSpec spec = MakeTrainingCase("vgg16");
  auto dataset = spec.dataset_factory();

  TrainerConfig config = spec.default_config;
  config.epochs = 6;
  config.iterations_per_epoch = 15;

  AlgorithmFactory algorithm_factory = [&](size_t n) {
    AlgorithmConfig algo_config;
    algo_config.n = n;
    algo_config.k = n / 100;
    algo_config.num_workers = num_workers;
    auto created = CreateAlgorithm(algo, algo_config);
    SPARDL_CHECK(created.ok()) << created.status().ToString();
    return std::move(*created);
  };

  std::printf("training %s with %s on %d simulated workers...\n",
              spec.name.c_str(), algo.c_str(), num_workers);
  Cluster cluster(num_workers, CostModel::Ethernet());
  ConfigureCluster(cluster);
  const TrainResult result = TrainDistributed(
      cluster, *dataset, spec.model_factory, algorithm_factory, config);
  ObserveRun(cluster, algo);

  for (const EpochRecord& epoch : result.epochs) {
    std::printf(
        "epoch %d | train loss %.4f | test accuracy %5.1f%% | sim time "
        "%.3f s (comm %.3f s)\n",
        epoch.epoch + 1, epoch.train_loss, 100.0 * epoch.test_metric,
        epoch.sim_seconds_cumulative, epoch.comm_seconds_epoch);
  }
  std::printf("replicas consistent: %s\n",
              result.replicas_consistent ? "yes" : "NO");
  return result.replicas_consistent ? 0 : 1;
}
