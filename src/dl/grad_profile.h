#ifndef SPARDL_DL_GRAD_PROFILE_H_
#define SPARDL_DL_GRAD_PROFILE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "sparse/sparse_vector.h"

namespace spardl {

/// One of the paper's seven deep-learning cases (Table II): parameter count
/// and a modelled per-iteration forward+backward time standing in for the
/// GPU compute that cannot be reproduced offline. The compute constants
/// are chosen to match the computation-cost bars of Fig. 8/10 in order of
/// magnitude; only their *stability across methods* matters for the
/// figures' shapes.
struct ModelProfile {
  std::string case_name;   // "Case 2"
  std::string model;       // "VGG-19"
  std::string dataset;     // "CIFAR-100"
  size_t num_params = 0;   // n
  double compute_seconds = 0.0;
};

/// All seven cases in Table II order.
const std::vector<ModelProfile>& PaperModelProfiles();

/// Looks up a profile by model name ("VGG-19", "BERT", ...). Aborts if
/// unknown.
const ModelProfile& ProfileByModel(const std::string& model);

/// Deterministic generator of per-worker *candidate* sparse gradients for
/// paper-scale models: the top entries a worker's dense gradient would
/// yield, without materialising the O(n) dense vector.
///
/// Structure mimics what top-k sparsification sees in real training:
///  * indices cluster into `num_clusters` hot windows (layers/embedding
///    rows with large gradients) shared across workers -> partial support
///    overlap, Zipf-skewed index density;
///  * the hot windows drift slowly over iterations (`drift_period`), the
///    property Ok-Topk's periodic rebalancing and B-SAG's h controller
///    both exploit (paper Fig. 7);
///  * each cluster draws its samples from a window 1/0.15 times their
///    count, so two workers' supports overlap by about 15%;
///  * magnitudes are heavy-tailed AND correlated across workers (75% of
///    the variance is a per-index term shared by every worker): workers'
///    largest coordinates largely coincide, as in real data-parallel
///    training — this is what makes inter-team unions shrink and B-SAG's
///    bandwidth grow with d (Fig. 13/14).
class ProfileGradientGenerator {
 public:
  /// `n` — gradient length.
  ProfileGradientGenerator(size_t n, uint64_t seed, int num_clusters = 64,
                           int drift_period = 50);

  /// About `count` entries (slightly fewer after in-window dedup), sorted.
  /// The result is a pure function of the arguments and the constructor's.
  ///
  /// Within a drift phase, the part of an entry's magnitude that every
  /// worker shares (its hot flag and shared Gaussian) depends only on the
  /// entry's window slot. So the generator keeps a table of it for the
  /// drift phase and window width of its latest call: 9 bytes per slot,
  /// clusters x window slots. The first call that needs the table builds
  /// it; later calls of that phase and width, by any worker, read it. A
  /// shape whose table would pass 4 MiB computes the term per entry
  /// instead and drops any table held. n = 4M with 6,000 candidates
  /// (39,680 slots, 0.34 MiB) and fig7's n = 2M with 40,000 (2.3 MiB) are
  /// tabulated; the paper's VGG-19 shape (17.2 MiB) is not. The table is
  /// immutable and swapped under a mutex, so P fibers and several carrier
  /// threads may call `Generate` on one generator at once.
  SparseVector Generate(int worker, int64_t iteration, size_t count) const;

  size_t n() const { return n_; }

  /// Heterogeneous-compute mode (the §VI straggler extension on the
  /// *compute* side): scales `worker`'s forward+backward time by
  /// `factor` (>= 1 models a slower accelerator; 1 is the homogeneous
  /// default). Set before running workers; CHECK-fails on factor <= 0
  /// or a negative worker.
  void SetComputeMultiplier(int worker, double factor);

  /// `base_seconds` scaled by `worker`'s multiplier — what a bench
  /// should pass to `Comm::Compute` for that worker's iteration.
  double ComputeSeconds(int worker, double base_seconds) const;

  /// True once `SetComputeMultiplier` has been called (lets harnesses
  /// charge compute only when heterogeneity was asked for).
  bool has_compute_skew() const { return !multipliers_.empty(); }

 private:
  struct PhaseTable;

  /// The table for `drift_phase` and `window` (windows starting at
  /// `window_starts`, one per cluster), built if the latest one is for
  /// another phase or width; null, with the held table dropped, when it
  /// would pass the cap.
  std::shared_ptr<const PhaseTable> TableFor(
      uint64_t drift_phase, size_t window,
      std::span<const size_t> window_starts) const;

  size_t n_;
  uint64_t seed_;
  int num_clusters_;
  int drift_period_;
  mutable std::mutex table_mutex_;
  mutable std::shared_ptr<const PhaseTable> table_;  // guarded by the mutex
  /// Per-worker compute multipliers; empty = homogeneous (all 1.0).
  /// Sized on first `SetComputeMultiplier` (missing entries are 1.0).
  std::vector<double> multipliers_;
};

}  // namespace spardl

#endif  // SPARDL_DL_GRAD_PROFILE_H_
