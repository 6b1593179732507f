// Frozen-reference test for ProfileGradientGenerator::Generate: the
// library's bitmap dedup must reproduce the sort-based generator it
// replaced bit for bit (indices, value bits and the order in which the
// worker RNG is consumed), since every simulated number downstream of a
// candidate set depends on it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "dl/grad_profile.h"

namespace spardl {
namespace {

// ---------------------------------------------------------------------------
// Verbatim copy of the sort-based Generate, with the options that are now
// fixed (overlap 0.15, shared_magnitude 0.75) at their former defaults.
// Do not edit: it is the reference the library is held to.

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
double HashToGaussian(uint64_t x) {
  double u1 = HashToUnit(x);
  const double u2 = HashToUnit(x ^ 0x6a09e667f3bcc909ULL);
  if (u1 <= 1e-12) u1 = 1e-12;
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * 3.14159265358979323846 * u2);
}

struct ReferenceGenerator {
  size_t n_;
  uint64_t seed_;
  int num_clusters_;
  int drift_period_;
  double overlap_ = 0.15;
  double shared_magnitude_ = 0.75;

  SparseVector Generate(int worker, int64_t iteration,
                        size_t count) const {
    const auto clusters = static_cast<size_t>(num_clusters_);
    const size_t region = n_ / clusters;  // disjoint per-cluster regions
    SPARDL_CHECK_GT(region, 0u);
    const size_t per_cluster = std::max<size_t>(1, count / clusters);
    // Window width: per_cluster / overlap samples drawn from it => expected
    // pairwise support overlap ~= overlap.
    const size_t window = std::min(
        region, std::max<size_t>(
                    per_cluster,
                    static_cast<size_t>(static_cast<double>(per_cluster) /
                                        overlap_)));

    // Window placement drifts with the iteration epoch window; shared by all
    // workers (that is what makes supports overlap).
    const auto drift_phase = static_cast<uint64_t>(
        iteration / drift_period_);
    Rng placement_rng(seed_ ^ (drift_phase * 0x2545f4914f6cdd1dULL));
    Rng worker_rng(seed_ ^ (0x5851f42d4c957f2dULL *
                            (static_cast<uint64_t>(worker) + 1)) ^
                   static_cast<uint64_t>(iteration) * 0x9e3779b97f4a7c15ULL);

    SparseVector out;
    out.Reserve(count + clusters);
    std::vector<uint32_t> offsets;
    offsets.reserve(per_cluster);
    for (size_t j = 0; j < clusters; ++j) {
      const size_t region_start = j * region;
      const size_t max_offset = region - window;
      const size_t window_start =
          region_start +
          (max_offset == 0 ? 0 : placement_rng.NextBounded(max_offset + 1));
      offsets.clear();
      for (size_t i = 0; i < per_cluster; ++i) {
        offsets.push_back(
            static_cast<uint32_t>(worker_rng.NextBounded(window)));
      }
      std::sort(offsets.begin(), offsets.end());
      offsets.erase(std::unique(offsets.begin(), offsets.end()),
                    offsets.end());
      for (uint32_t off : offsets) {
        const uint64_t index_salt =
            static_cast<uint64_t>(window_start + off) ^ seed_ ^
            (drift_phase * 0x9e3779b97f4a7c15ULL);
        // Heavy-tailed magnitudes: whether a coordinate is "hot" is a
        // property of the coordinate (deterministic across workers), so
        // workers' top entries coincide as they do in real training.
        const double scale = HashToUnit(index_salt) < 0.05 ? 1.0 : 0.02;
        const double g_shared = HashToGaussian(index_salt);
        const double g_worker = worker_rng.NextGaussian();
        const double w_shared = std::sqrt(shared_magnitude_);
        const double w_worker = std::sqrt(1.0 - shared_magnitude_);
        const float value = static_cast<float>(
            scale * (w_shared * g_shared + w_worker * g_worker));
        out.PushBack(static_cast<GradIndex>(window_start + off),
                     value == 0.0f ? 1e-6f : value);
      }
    }
    return out;
  }
};

// ---------------------------------------------------------------------------

void ExpectBitIdentical(const SparseVector& expected,
                        const SparseVector& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  ASSERT_TRUE(std::equal(expected.indices().begin(), expected.indices().end(),
                         actual.indices().begin()));
  // Value bits, not float ==: a -0.0f / +0.0f or NaN-payload change fails.
  ASSERT_EQ(std::memcmp(expected.values().data(), actual.values().data(),
                        expected.size() * sizeof(float)),
            0);
}

struct Call {
  int drift_period;
  int worker;
  int64_t iteration;
};

// Every drift_period, worker and iteration value appears; iterations 49
// and 50 sit on either side of a period-50 drift boundary.
constexpr Call kCalls[] = {
    {10, 0, 0}, {50, 13, 49}, {50, 1023, 50}, {10, 13, 500}, {50, 0, 500},
};

TEST(ProfileGradientGeneratorReferenceTest, MatchesSortBasedGenerator) {
  const uint64_t seed = 2024;
  // n = 2,000 with count >= 6,000 clamps the window to the whole region
  // (e.g. 62 wide at 32 clusters, where 187 draws want 1,246), so no
  // placement draw is made and most of the region is drawn.
  for (size_t n : {size_t{2'000}, size_t{1'000'000}, size_t{4'000'000},
                   size_t{20'100'000}}) {
    for (size_t count : {size_t{1}, size_t{63}, size_t{64}, size_t{6'000},
                         size_t{301'500}}) {
      for (int clusters : {1, 32, 64}) {
        for (const Call& call : kCalls) {
          SCOPED_TRACE(testing::Message()
                       << "n=" << n << " count=" << count << " clusters="
                       << clusters << " drift_period=" << call.drift_period
                       << " worker=" << call.worker
                       << " iteration=" << call.iteration);
          const ReferenceGenerator reference{n, seed, clusters,
                                             call.drift_period};
          const ProfileGradientGenerator generator(n, seed, clusters,
                                                   call.drift_period);
          ExpectBitIdentical(
              reference.Generate(call.worker, call.iteration, count),
              generator.Generate(call.worker, call.iteration, count));
        }
      }
    }
  }
}

}  // namespace
}  // namespace spardl
