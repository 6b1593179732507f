#include "dl/grad_profile.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/random.h"

namespace spardl {

const std::vector<ModelProfile>& PaperModelProfiles() {
  static const std::vector<ModelProfile>& kProfiles =
      *new std::vector<ModelProfile>{
          {"Case 1", "VGG-16", "CIFAR-10", 14'700'000, 0.050},
          {"Case 2", "VGG-19", "CIFAR-100", 20'100'000, 0.060},
          {"Case 3", "ResNet-50", "ImageNet", 23'500'000, 0.120},
          {"Case 4", "VGG-11", "House", 9'200'000, 0.030},
          {"Case 5", "LSTM-IMDB", "IMDB", 35'200'000, 0.100},
          {"Case 6", "LSTM-PTB", "PTB", 66'000'000, 0.160},
          {"Case 7", "BERT", "Wikipedia", 133'500'000, 0.250},
      };
  return kProfiles;
}

const ModelProfile& ProfileByModel(const std::string& model) {
  for (const ModelProfile& profile : PaperModelProfiles()) {
    if (profile.model == model) return profile;
  }
  SPARDL_CHECK(false) << "unknown model profile: " << model;
  __builtin_unreachable();
}

ProfileGradientGenerator::ProfileGradientGenerator(size_t n, uint64_t seed,
                                                   int num_clusters,
                                                   int drift_period)
    : n_(n),
      seed_(seed),
      num_clusters_(num_clusters),
      drift_period_(drift_period) {
  SPARDL_CHECK_GT(n, 0u);
  SPARDL_CHECK_GT(num_clusters, 0);
  SPARDL_CHECK_GT(drift_period, 0);
}

void ProfileGradientGenerator::SetComputeMultiplier(int worker,
                                                    double factor) {
  SPARDL_CHECK_GE(worker, 0);
  SPARDL_CHECK_GT(factor, 0.0);
  if (multipliers_.size() <= static_cast<size_t>(worker)) {
    multipliers_.resize(static_cast<size_t>(worker) + 1, 1.0);
  }
  multipliers_[static_cast<size_t>(worker)] = factor;
}

double ProfileGradientGenerator::ComputeSeconds(int worker,
                                                double base_seconds) const {
  SPARDL_CHECK_GE(worker, 0);
  if (static_cast<size_t>(worker) >= multipliers_.size()) {
    return base_seconds;
  }
  return base_seconds * multipliers_[static_cast<size_t>(worker)];
}

namespace {

// Expected pairwise support overlap: a cluster's draws come from a window
// 1/kOverlap times their count.
constexpr double kOverlap = 0.15;
// Largest per-phase table of shared terms (9 bytes per window slot). It
// holds n = 4M at 0.15% candidates (39,680 slots, 0.34 MiB) and fig7's
// n = 2M at 2% (266,624 slots, 2.3 MiB), where each slot serves tens to
// hundreds of entries per update. The paper's VGG-19 shape (2,009,600
// slots, 17.2 MiB) would raise that point's ~74 MiB peak by 23%, so it
// computes the term per entry.
constexpr size_t kMaxTableBytes = size_t{4} << 20;
// Share of a magnitude's variance that is the per-index term common to
// every worker.
constexpr double kSharedMagnitude = 0.75;

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double HashToUnit(uint64_t x) {
  return static_cast<double>(Mix64(x) >> 11) * 0x1.0p-53;
}

// Deterministic per-index standard normal (same on every worker).
[[gnu::always_inline]] inline double HashToGaussian(uint64_t x) {
  double u1 = HashToUnit(x);
  const double u2 = HashToUnit(x ^ 0x6a09e667f3bcc909ULL);
  if (u1 <= 1e-12) u1 = 1e-12;
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * 3.14159265358979323846 * u2);
}

// The part of an entry's magnitude every worker shares in a drift phase:
// whether the coordinate is "hot" (heavy-tailed magnitudes; deterministic
// across workers, so workers' top entries coincide as they do in real
// training) and the shared Gaussian.
struct SharedTerm {
  bool hot;
  double gaussian;
};

// Forced inline, with HashToGaussian: with the table build as a second
// caller, GCC calls one of them out of line, a call per entry in
// Generate's loop on shapes over the cap.
[[gnu::always_inline]] inline SharedTerm SharedTermOf(size_t index,
                                                      uint64_t seed,
                                                      uint64_t drift_phase) {
  const uint64_t index_salt = static_cast<uint64_t>(index) ^ seed ^
                              (drift_phase * 0x9e3779b97f4a7c15ULL);
  return {HashToUnit(index_salt) < 0.05, HashToGaussian(index_salt)};
}

}  // namespace

// Shared terms of one drift phase and window width, by slot
// cluster * window + offset.
struct ProfileGradientGenerator::PhaseTable {
  uint64_t drift_phase;
  size_t window;
  std::vector<uint8_t> hot;
  std::vector<double> gaussian;

  SharedTerm At(size_t slot) const {
    return {hot[slot] != 0, gaussian[slot]};
  }
};

std::shared_ptr<const ProfileGradientGenerator::PhaseTable>
ProfileGradientGenerator::TableFor(uint64_t drift_phase, size_t window,
                                   std::span<const size_t> window_starts)
    const {
  const size_t slots = window_starts.size() * window;
  const std::lock_guard<std::mutex> lock(table_mutex_);
  if (slots * (sizeof(uint8_t) + sizeof(double)) > kMaxTableBytes) {
    table_.reset();
    return nullptr;
  }
  if (table_ == nullptr || table_->drift_phase != drift_phase ||
      table_->window != window) {
    // Dropped first: unless another call still reads it, the stale table
    // is freed before its successor is allocated.
    table_.reset();
    auto table = std::make_shared<PhaseTable>(
        PhaseTable{drift_phase, window, std::vector<uint8_t>(slots),
                   std::vector<double>(slots)});
    for (size_t j = 0; j < window_starts.size(); ++j) {
      for (size_t off = 0; off < window; ++off) {
        const SharedTerm term =
            SharedTermOf(window_starts[j] + off, seed_, drift_phase);
        table->hot[j * window + off] = term.hot ? 1 : 0;
        table->gaussian[j * window + off] = term.gaussian;
      }
    }
    table_ = std::move(table);
  }
  return table_;
}

SparseVector ProfileGradientGenerator::Generate(int worker,
                                                int64_t iteration,
                                                size_t count) const {
  const auto clusters = static_cast<size_t>(num_clusters_);
  const size_t region = n_ / clusters;  // disjoint per-cluster regions
  SPARDL_CHECK_GT(region, 0u);
  const size_t per_cluster = std::max<size_t>(1, count / clusters);
  // Window width: per_cluster / kOverlap samples drawn from it => expected
  // pairwise support overlap ~= kOverlap.
  const size_t window = std::min(
      region, std::max<size_t>(
                  per_cluster,
                  static_cast<size_t>(static_cast<double>(per_cluster) /
                                      kOverlap)));

  // Window placement drifts with the iteration epoch window; shared by all
  // workers (that is what makes supports overlap).
  const auto drift_phase = static_cast<uint64_t>(
      iteration / drift_period_);
  Rng placement_rng(seed_ ^ (drift_phase * 0x2545f4914f6cdd1dULL));
  std::vector<size_t> window_starts(clusters);
  const size_t max_offset = region - window;
  for (size_t j = 0; j < clusters; ++j) {
    window_starts[j] =
        j * region +
        (max_offset == 0 ? 0 : placement_rng.NextBounded(max_offset + 1));
  }
  const std::shared_ptr<const PhaseTable> table =
      TableFor(drift_phase, window, window_starts);
  Rng worker_rng(seed_ ^ (0x5851f42d4c957f2dULL *
                          (static_cast<uint64_t>(worker) + 1)) ^
                 static_cast<uint64_t>(iteration) * 0x9e3779b97f4a7c15ULL);
  const double w_shared = std::sqrt(kSharedMagnitude);
  const double w_worker = std::sqrt(1.0 - kSharedMagnitude);

  SparseVector out;
  out.Reserve(count + clusters);
  // One bit per window offset. Each draw sets its bit; walking the set
  // bits upwards yields the offsets sorted and deduplicated, with the
  // Gaussians drawn in that order, as sorting the draws would. The window
  // holds at most 7 bits per draw (1 / kOverlap), so the walk costs less
  // than the draws themselves.
  std::vector<uint64_t> drawn((window + 63) / 64);
  for (size_t j = 0; j < clusters; ++j) {
    for (size_t i = 0; i < per_cluster; ++i) {
      const uint64_t off = worker_rng.NextBounded(window);
      drawn[off / 64] |= uint64_t{1} << (off % 64);
    }
    for (size_t word = 0; word < drawn.size(); ++word) {
      uint64_t bits = drawn[word];
      drawn[word] = 0;
      for (; bits != 0; bits &= bits - 1) {
        const size_t off =
            word * 64 + static_cast<size_t>(std::countr_zero(bits));
        const size_t index = window_starts[j] + off;
        const SharedTerm shared =
            table != nullptr ? table->At(j * window + off)
                             : SharedTermOf(index, seed_, drift_phase);
        const double scale = shared.hot ? 1.0 : 0.02;
        const double g_worker = worker_rng.NextGaussian();
        const float value = static_cast<float>(
            scale * (w_shared * shared.gaussian + w_worker * g_worker));
        out.PushBack(static_cast<GradIndex>(index),
                     value == 0.0f ? 1e-6f : value);
      }
    }
  }
  return out;
}

}  // namespace spardl
