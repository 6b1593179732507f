#ifndef SPARDL_DL_CASES_H_
#define SPARDL_DL_CASES_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dl/data.h"
#include "dl/trainer.h"

namespace spardl {

/// A runnable, laptop-scale counterpart of one of the paper's seven deep
/// learning cases (Table II): same task type, synthetic data, a model that
/// trains for real in seconds. Used by the convergence benches
/// (Fig. 9/11/12b/13/16/17).
struct TrainingCaseSpec {
  std::string key;         // "vgg19"
  std::string name;        // "Case 2: VGG-19-like / synthetic CIFAR-100"
  /// The paper model this case stands in for ("VGG-19", ...). Convergence
  /// benches scale the network's beta by paper-n / this-n so the small
  /// model experiences the paper's bandwidth-to-latency balance (the
  /// alpha-beta model is linear, so this preserves method ratios).
  std::string paper_model;
  TaskMetric metric = TaskMetric::kAccuracy;
  std::function<std::unique_ptr<Dataset>()> dataset_factory;
  ModelFactory model_factory;
  /// Sensible defaults (batch size, SGD, modelled compute per iteration).
  TrainerConfig default_config;
};

/// Builds the case registered under `key`:
/// "vgg16", "vgg19", "resnet50", "vgg11", "lstm-imdb", "lstm-ptb", "bert".
/// Aborts on unknown keys.
TrainingCaseSpec MakeTrainingCase(const std::string& key);

}  // namespace spardl

#endif  // SPARDL_DL_CASES_H_
