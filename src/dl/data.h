#ifndef SPARDL_DL_DATA_H_
#define SPARDL_DL_DATA_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "dl/matrix.h"

namespace spardl {

/// One training batch. Classification/LM tasks fill `labels`; regression
/// fills `targets`.
struct Batch {
  Matrix inputs;
  std::vector<int> labels;
  Matrix targets;
};

/// How a task is scored.
enum class TaskMetric {
  kAccuracy,  // higher is better (classification)
  kLoss,      // lower is better (regression, language modelling)
};

/// A deterministic, infinitely-sampled synthetic dataset. Batches are pure
/// functions of (worker, batch_index), so runs are bit-reproducible and
/// workers see disjoint i.i.d. shards, mirroring data-parallel S-SGD.
///
/// These stand in for the paper's CIFAR/House/IMDB/PTB datasets (offline
/// reproduction): same task *types*, synthetic generators.
class Dataset {
 public:
  virtual ~Dataset() = default;

  virtual Batch TrainBatch(int worker, int64_t batch_index,
                           size_t batch_size) const = 0;
  /// A fixed held-out batch, identical for all callers.
  virtual Batch TestBatch(size_t batch_size) const = 0;

  virtual TaskMetric metric() const = 0;
  /// True when outputs are class logits (cross-entropy training).
  virtual bool is_classification() const = 0;
};

/// Type 1 (image classification, CIFAR-like): Gaussian class clusters.
/// x = prototype[label] + noise. Input dim `input_dim`, `num_classes`
/// classes.
std::unique_ptr<Dataset> MakeSyntheticClassification(size_t input_dim,
                                                     size_t num_classes,
                                                     float noise,
                                                     uint64_t seed);

/// Type 2 (image regression, House-like): scalar target from a fixed
/// random two-layer tanh teacher network plus observation noise.
std::unique_ptr<Dataset> MakeSyntheticRegression(size_t input_dim,
                                                 float noise, uint64_t seed);

/// Type 3 (text classification, IMDB-like): token sequences whose unigram
/// distribution depends on the class; inputs are token ids [batch,
/// seq_len].
std::unique_ptr<Dataset> MakeSyntheticSequenceClassification(
    size_t vocab, size_t seq_len, size_t num_classes, uint64_t seed);

/// Type 4 (language modelling, PTB-like): sequences from a noisy
/// deterministic Markov chain over `vocab` tokens; the label is the token
/// following the sequence.
std::unique_ptr<Dataset> MakeSyntheticLanguageModel(size_t vocab,
                                                    size_t seq_len,
                                                    uint64_t seed);

}  // namespace spardl

#endif  // SPARDL_DL_DATA_H_
