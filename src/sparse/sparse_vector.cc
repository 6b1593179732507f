#include "sparse/sparse_vector.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>

namespace spardl {

SparseVector::SparseVector(std::vector<GradIndex> indices,
                           std::vector<float> values)
    : indices_(std::move(indices)), values_(std::move(values)) {
  SPARDL_CHECK_EQ(indices_.size(), values_.size());
  for (size_t i = 1; i < indices_.size(); ++i) {
    SPARDL_CHECK_LT(indices_[i - 1], indices_[i])
        << "SparseVector indices must be strictly ascending";
  }
}

SparseVector SparseVector::FromDense(std::span<const float> dense,
                                     GradIndex base_index) {
  // Count first so the arrays are sized exactly once (gradients are built
  // from dense blocks every iteration; growth reallocations were measurable
  // churn on the hot path).
  size_t nnz = 0;
  for (float v : dense) nnz += (v != 0.0f);
  SparseVector out;
  out.Reserve(nnz);
  for (size_t i = 0; i < dense.size(); ++i) {
    if (dense[i] != 0.0f) {
      out.PushBack(base_index + static_cast<GradIndex>(i), dense[i]);
    }
  }
  return out;
}

void SparseVector::AppendSpan(std::span<const GradIndex> indices,
                              std::span<const float> values) {
  SPARDL_CHECK_EQ(indices.size(), values.size());
  if (indices.empty()) return;
  SPARDL_CHECK(indices_.empty() || indices.front() > indices_.back())
      << "AppendSpan must start above the current last index";
  for (size_t i = 1; i < indices.size(); ++i) {
    SPARDL_DCHECK_LT(indices[i - 1], indices[i]);
  }
  indices_.insert(indices_.end(), indices.begin(), indices.end());
  values_.insert(values_.end(), values.begin(), values.end());
}

double SparseVector::ValueSum() const {
  double s = 0.0;
  for (float v : values_) s += v;
  return s;
}

bool SparseVector::IndicesWithin(GradIndex lo, GradIndex hi) const {
  if (empty()) return true;
  return indices_.front() >= lo && indices_.back() < hi;
}

void SparseVector::AddToDense(std::span<float> dense) const {
  // Indices are strictly ascending (class invariant — enforced by a CHECK
  // in the constructor; PushBack enforces it with a DCHECK only, so the
  // guarantee is debug-verified on incrementally built vectors), so one
  // O(1) CHECK on the last index bounds-checks every write and survives
  // NDEBUG at every call site — residual absorption and dense
  // materialisation both scribble into caller-owned buffers, where a
  // silent overflow is far worse than one comparison per call. The
  // per-entry DCHECK stays for debug builds.
  if (!indices_.empty()) SPARDL_CHECK_LT(indices_.back(), dense.size());
  for (size_t i = 0; i < indices_.size(); ++i) {
    SPARDL_DCHECK_LT(indices_[i], dense.size());
    dense[indices_[i]] += values_[i];
  }
}

void SparseVector::ExtractRange(GradIndex lo, GradIndex hi,
                                SparseVector* out) const {
  const auto begin =
      std::lower_bound(indices_.begin(), indices_.end(), lo);
  const auto end = std::lower_bound(begin, indices_.end(), hi);
  const size_t from = static_cast<size_t>(begin - indices_.begin());
  const size_t count = static_cast<size_t>(end - begin);
  out->AppendSpan(std::span<const GradIndex>(indices_.data() + from, count),
                  std::span<const float>(values_.data() + from, count));
}

void MergeSum(const SparseVector& a, const SparseVector& b,
              SparseVector* out) {
  SPARDL_DCHECK(out != &a && out != &b);
  const size_t na = a.size();
  const size_t nb = b.size();
  out->ResizeForOverwrite(na + nb);
  const GradIndex* ai = a.indices_.data();
  const float* av = a.values_.data();
  const GradIndex* bi = b.indices_.data();
  const float* bv = b.values_.data();
  GradIndex* oi = out->MutableIndexData();
  float* ov = out->MutableValueData();
  size_t i = 0;
  size_t j = 0;
  size_t n = 0;
  // Raw-pointer merge, sized up front so the inner loop is two stores per
  // emitted entry with no capacity checks. The overlap case keeps its
  // branch — it is rare and well-predicted on sparse-gradient supports —
  // but the "which side advances" decision is 50/50 on interleaved inputs,
  // where a branch mispredicts constantly; it is computed as a bit mask
  // instead, so the index/value selects and cursor bumps are pure ALU ops.
  while (i < na && j < nb) {
    const GradIndex ia = ai[i];
    const GradIndex ib = bi[j];
    if (ia == ib) [[unlikely]] {
      oi[n] = ia;
      ov[n] = av[i] + bv[j];
      ++n;
      ++i;
      ++j;
      continue;
    }
    const bool take_a = ia < ib;
    const uint32_t mask = -static_cast<uint32_t>(take_a);
    oi[n] = (ia & mask) | (ib & ~mask);
    uint32_t va_bits;
    uint32_t vb_bits;
    std::memcpy(&va_bits, &av[i], sizeof(va_bits));
    std::memcpy(&vb_bits, &bv[j], sizeof(vb_bits));
    const uint32_t v_bits = (va_bits & mask) | (vb_bits & ~mask);
    std::memcpy(&ov[n], &v_bits, sizeof(v_bits));
    ++n;
    i += static_cast<size_t>(take_a);
    j += static_cast<size_t>(!take_a);
  }
  out->ResizeForOverwrite(n);
  // At most one of the tails is non-empty; bulk-append it (one boundary
  // CHECK per span).
  out->AppendSpan(std::span<const GradIndex>(ai + i, na - i),
                  std::span<const float>(av + i, na - i));
  out->AppendSpan(std::span<const GradIndex>(bi + j, nb - j),
                  std::span<const float>(bv + j, nb - j));
}

void MergeSumInPlace(SparseVector* acc, const SparseVector& x,
                     SparseVector* scratch) {
  MergeSum(*acc, x, scratch);
  std::swap(*acc, *scratch);
}

namespace {

// SumAll accumulates the index space one window of this many slots at a
// time: a 256 KiB float accumulator and an 8 KiB touched bitmap, both
// cache-resident whatever the span. At TopkA's call (64 x 4,000 entries
// over 4M) 2^16 and 2^20 slots timed within 10%, and with 64 uniform
// inputs 2^16 was 1.3x faster. 2^20 was 3x faster with 1,024 inputs over
// 4M, where each input's run per window is short, but at default sizes
// the scenarios sum 3 to 14 inputs and benchmark/'s TopkA 64.
constexpr size_t kSumAllWindow = size_t{1} << 16;

}  // namespace

SparseVector SumAll(std::span<const SparseVector* const> inputs) {
  // Empty inputs merge to a no-op; the rest keep their relative order,
  // which is the accumulation order.
  std::vector<const SparseVector*> live;
  live.reserve(inputs.size());
  size_t total = 0;
  for (const SparseVector* x : inputs) {
    if (x->empty()) continue;
    live.push_back(x);
    total += x->size();
  }
  SparseVector out;
  if (live.empty()) return out;
  if (live.size() == 1) {
    out.AppendSpan(live[0]->indices(), live[0]->values());
    return out;
  }
  if (live.size() == 2) {
    MergeSum(*live[0], *live[1], &out);
    return out;
  }
  // Windowed dense accumulation. Each window starts at the smallest
  // pending index, so empty stretches of the span cost nothing. Inside it
  // the inputs are visited in order: a slot's first touch *assigns*
  // (rather than adding to 0.0f, so -0.0f values and exact copies
  // survive) and later touches add, which is pairwise left-to-right
  // MergeSum bit for bit. The touched bits are then walked upwards and
  // cleared, emitting the window's union in index order. The output is
  // reserved, not zero-filled, so only the union's pages are written.
  std::vector<size_t> pos(live.size(), 0);
  const auto acc = std::make_unique_for_overwrite<float[]>(kSumAllWindow);
  std::vector<uint64_t> touched(kSumAllWindow / 64, 0);
  out.Reserve(total);
  for (size_t left = total; left > 0;) {
    GradIndex lo = std::numeric_limits<GradIndex>::max();
    for (size_t s = 0; s < live.size(); ++s) {
      if (pos[s] < live[s]->size()) {
        lo = std::min(lo, live[s]->index(pos[s]));
      }
    }
    size_t count = 0;  // distinct slots touched in this window
    size_t last = 0;   // highest slot touched in this window
    for (size_t s = 0; s < live.size(); ++s) {
      const GradIndex* idx = live[s]->indices().data();
      const float* val = live[s]->values().data();
      const size_t size = live[s]->size();
      size_t p = pos[s];
      // idx[p] >= lo, so the offset cannot wrap, even at 2^32 - 1.
      for (; p < size && idx[p] - lo < kSumAllWindow; ++p) {
        const size_t o = idx[p] - lo;
        const uint64_t bit = uint64_t{1} << (o % 64);
        if (touched[o / 64] & bit) {
          acc[o] += val[p];
        } else {
          touched[o / 64] |= bit;
          acc[o] = val[p];
          ++count;
        }
      }
      if (p > pos[s]) last = std::max<size_t>(last, idx[p - 1] - lo);
      left -= p - pos[s];
      pos[s] = p;
    }
    const size_t n = out.size();
    out.ResizeForOverwrite(n + count);
    GradIndex* oi = out.MutableIndexData() + n;
    float* ov = out.MutableValueData() + n;
    for (size_t word = 0; word <= last / 64; ++word) {
      uint64_t bits = touched[word];
      touched[word] = 0;
      for (; bits != 0; bits &= bits - 1) {
        const size_t o =
            word * 64 + static_cast<size_t>(std::countr_zero(bits));
        *oi++ = lo + static_cast<GradIndex>(o);
        *ov++ = acc[o];
      }
    }
  }
  return out;
}

SparseVector SumAll(std::span<const SparseVector> inputs) {
  std::vector<const SparseVector*> pointers;
  pointers.reserve(inputs.size());
  for (const SparseVector& x : inputs) pointers.push_back(&x);
  return SumAll(pointers);
}

SparseVector ConcatDisjoint(std::span<const SparseVector> parts) {
  size_t total = 0;
  for (const SparseVector& p : parts) total += p.size();
  SparseVector out;
  out.Reserve(total);
  for (const SparseVector& p : parts) {
    // AppendSpan's boundary CHECK is exactly the documented interleave
    // check (each part's internal order is already an invariant), and it
    // survives NDEBUG builds where a per-entry DCHECK compiles out.
    out.AppendSpan(p.indices(), p.values());
  }
  return out;
}

}  // namespace spardl
