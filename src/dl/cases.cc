#include "dl/cases.h"

#include "common/logging.h"
#include "dl/layers.h"

namespace spardl {

namespace {

ModelFactory MlpFactory(size_t in, size_t hidden1, size_t hidden2,
                        size_t out) {
  return [=](uint64_t seed) {
    auto model = std::make_unique<Model>();
    model->Add(std::make_unique<LinearLayer>(in, hidden1));
    model->Add(std::make_unique<ReluLayer>());
    model->Add(std::make_unique<LinearLayer>(hidden1, hidden2));
    model->Add(std::make_unique<ReluLayer>());
    model->Add(std::make_unique<LinearLayer>(hidden2, out));
    model->Finalize(seed);
    return model;
  };
}

ModelFactory LstmFactory(size_t vocab, size_t embed_dim, size_t hidden,
                         size_t seq_len, size_t out) {
  return [=](uint64_t seed) {
    auto model = std::make_unique<Model>();
    model->Add(std::make_unique<EmbeddingLayer>(vocab, embed_dim));
    model->Add(std::make_unique<LstmLayer>(embed_dim, hidden, seq_len));
    model->Add(std::make_unique<LinearLayer>(hidden, out));
    model->Finalize(seed);
    return model;
  };
}

TrainerConfig DefaultConfig(double lr, double compute_seconds) {
  TrainerConfig config;
  config.batch_size = 32;
  config.iterations_per_epoch = 20;
  config.epochs = 8;
  config.sgd.learning_rate = lr;
  config.sgd.momentum = 0.9;
  config.compute_seconds_per_iteration = compute_seconds;
  return config;
}

}  // namespace

TrainingCaseSpec MakeTrainingCase(const std::string& key) {
  TrainingCaseSpec spec;
  spec.key = key;
  if (key == "vgg16") {
    spec.paper_model = "VGG-16";
    spec.name = "Case 1: VGG-16-like MLP / synthetic CIFAR-10";
    spec.metric = TaskMetric::kAccuracy;
    spec.dataset_factory = [] {
      return MakeSyntheticClassification(96, 10, 1.6f, 101);
    };
    spec.model_factory = MlpFactory(96, 256, 128, 10);
    spec.default_config = DefaultConfig(0.08, 2.0e-3);
    return spec;
  }
  if (key == "vgg19") {
    spec.paper_model = "VGG-19";
    spec.name = "Case 2: VGG-19-like MLP / synthetic CIFAR-100";
    spec.metric = TaskMetric::kAccuracy;
    spec.dataset_factory = [] {
      return MakeSyntheticClassification(128, 20, 1.6f, 102);
    };
    spec.model_factory = MlpFactory(128, 320, 160, 20);
    spec.default_config = DefaultConfig(0.08, 2.4e-3);
    return spec;
  }
  if (key == "resnet50") {
    spec.paper_model = "ResNet-50";
    spec.name = "Case 3: ResNet-50-like MLP / synthetic ImageNet";
    spec.metric = TaskMetric::kAccuracy;
    spec.dataset_factory = [] {
      return MakeSyntheticClassification(160, 30, 1.4f, 103);
    };
    spec.model_factory = MlpFactory(160, 384, 192, 30);
    spec.default_config = DefaultConfig(0.06, 4.0e-3);
    return spec;
  }
  if (key == "vgg11") {
    spec.paper_model = "VGG-11";
    spec.name = "Case 4: VGG-11-like MLP / synthetic House (regression)";
    spec.metric = TaskMetric::kLoss;
    spec.dataset_factory = [] {
      return MakeSyntheticRegression(64, 0.05f, 104);
    };
    spec.model_factory = MlpFactory(64, 160, 80, 1);
    spec.default_config = DefaultConfig(0.05, 1.2e-3);
    return spec;
  }
  if (key == "lstm-imdb") {
    spec.paper_model = "LSTM-IMDB";
    spec.name = "Case 5: LSTM / synthetic IMDB (text classification)";
    spec.metric = TaskMetric::kAccuracy;
    spec.dataset_factory = [] {
      return MakeSyntheticSequenceClassification(400, 16, 2, 105);
    };
    spec.model_factory = LstmFactory(400, 24, 48, 16, 2);
    spec.default_config = DefaultConfig(0.15, 4.0e-3);
    return spec;
  }
  if (key == "lstm-ptb") {
    spec.paper_model = "LSTM-PTB";
    spec.name = "Case 6: LSTM / synthetic PTB (language modelling)";
    spec.metric = TaskMetric::kLoss;
    spec.dataset_factory = [] {
      return MakeSyntheticLanguageModel(200, 12, 106);
    };
    spec.model_factory = LstmFactory(200, 24, 56, 12, 200);
    spec.default_config = DefaultConfig(0.25, 5.0e-3);
    return spec;
  }
  if (key == "bert") {
    spec.paper_model = "BERT";
    spec.name = "Case 7: BERT-like LSTM-LM / synthetic Wikipedia";
    spec.metric = TaskMetric::kLoss;
    spec.dataset_factory = [] {
      return MakeSyntheticLanguageModel(300, 16, 107);
    };
    spec.model_factory = LstmFactory(300, 32, 64, 16, 300);
    spec.default_config = DefaultConfig(0.2, 8.0e-3);
    return spec;
  }
  SPARDL_CHECK(false) << "unknown training case: " << key;
  __builtin_unreachable();
}

}  // namespace spardl
