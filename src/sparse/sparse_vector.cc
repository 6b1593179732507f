#include "sparse/sparse_vector.h"

#include <algorithm>
#include <cstring>
#include <limits>
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

// A read cursor over one SumAll input. The merge key packs (current index,
// input ordinal) so equal indices pop in input order — exactly the
// left-to-right accumulation order of pairwise MergeSum, which keeps the
// float sums bit-identical. Exhausted cursors sort last.
struct MergeCursor {
  const GradIndex* idx;
  const float* val;
  size_t pos;
  size_t size;
};

constexpr uint64_t kCursorExhausted = std::numeric_limits<uint64_t>::max();

uint64_t CursorKey(const MergeCursor& c, uint32_t ordinal) {
  if (c.pos >= c.size) return kCursorExhausted;
  return (static_cast<uint64_t>(c.idx[c.pos]) << 32) | ordinal;
}

// Dense-accumulator path: when the union's index span is comparable to the
// total nnz, a first-touch dense sweep beats the comparison-based merge.
// First touch *assigns* (rather than adding to 0.0f) so -0.0f values and
// exact copies survive bit-identically; later touches accumulate in input
// order, matching pairwise MergeSum. Writes the (index-ordered) union
// through `oi`/`ov`, which must have room for min(span, total) entries;
// returns the emitted count.
size_t SumAllDense(std::span<const MergeCursor> cursors, GradIndex lo,
                   size_t span, GradIndex* oi, float* ov) {
  std::vector<float> acc(span, 0.0f);
  std::vector<uint8_t> present(span, 0);
  for (const MergeCursor& c : cursors) {
    for (size_t p = 0; p < c.size; ++p) {
      const size_t o = static_cast<size_t>(c.idx[p]) - lo;
      if (present[o]) {
        acc[o] += c.val[p];
      } else {
        present[o] = 1;
        acc[o] = c.val[p];
      }
    }
  }
  size_t n = 0;
  for (size_t o = 0; o < span; ++o) {
    if (present[o]) {
      oi[n] = lo + static_cast<GradIndex>(o);
      ov[n] = acc[o];
      ++n;
    }
  }
  return n;
}

// Loser-tree (tournament) k-way merge: O(log P) comparisons per emitted
// entry instead of the O(P^2 * k) copies of repeated two-way merging.
// Writes through `oi`/`ov` (room for `total` entries); returns the count.
size_t SumAllLoserTree(std::span<MergeCursor> cursors, GradIndex* oi,
                       float* ov) {
  const size_t num = cursors.size();
  constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();
  std::vector<uint64_t> keys(num);
  for (size_t s = 0; s < num; ++s) {
    keys[s] = CursorKey(cursors[s], static_cast<uint32_t>(s));
  }
  // tree[1..num-1] hold the losers of each internal match; leaf s enters at
  // node (s + num) / 2. Initialisation parks the loser of every match and
  // lets winners climb: exactly one contestant emerges past the root.
  std::vector<uint32_t> tree(num, kNone);
  uint32_t winner = 0;
  for (uint32_t s = 0; s < num; ++s) {
    uint32_t cur = s;
    for (size_t t = (s + num) / 2; t >= 1 && cur != kNone; t /= 2) {
      if (tree[t] == kNone) {
        tree[t] = cur;
        cur = kNone;
      } else if (keys[tree[t]] < keys[cur]) {
        std::swap(tree[t], cur);
      }
    }
    if (cur != kNone) winner = cur;
  }

  size_t n = 0;
  while (keys[winner] != kCursorExhausted) {
    MergeCursor& c = cursors[winner];
    const GradIndex idx = c.idx[c.pos];
    const float v = c.val[c.pos];
    if (n > 0 && oi[n - 1] == idx) {
      ov[n - 1] += v;
    } else {
      oi[n] = idx;
      ov[n] = v;
      ++n;
    }
    ++c.pos;
    keys[winner] = CursorKey(c, winner);
    // Replay the matches from this cursor's leaf up to the root.
    uint32_t cur = winner;
    for (size_t t = (static_cast<size_t>(winner) + num) / 2; t >= 1; t /= 2) {
      if (keys[tree[t]] < keys[cur]) std::swap(tree[t], cur);
    }
    winner = cur;
  }
  return n;
}

}  // namespace

SparseVector SumAll(std::span<const SparseVector> inputs) {
  // Collect cursors over the non-empty inputs (empties merge to a no-op);
  // relative order is preserved, which is all the tie-break needs.
  std::vector<MergeCursor> cursors;
  cursors.reserve(inputs.size());
  const SparseVector* first = nullptr;
  const SparseVector* second = nullptr;
  size_t total = 0;
  GradIndex lo = std::numeric_limits<GradIndex>::max();
  GradIndex hi = 0;
  for (const SparseVector& x : inputs) {
    if (x.empty()) continue;
    if (first == nullptr) {
      first = &x;
    } else if (second == nullptr) {
      second = &x;
    }
    cursors.push_back({x.indices().data(), x.values().data(), 0, x.size()});
    total += x.size();
    lo = std::min(lo, x.index(0));
    hi = std::max(hi, x.index(x.size() - 1));
  }
  if (cursors.empty()) return SparseVector();
  if (cursors.size() == 1) {
    SparseVector out;
    out.AppendSpan(first->indices(), first->values());
    return out;
  }
  if (cursors.size() == 2) {
    SparseVector out;
    MergeSum(*first, *second, &out);
    return out;
  }
  SparseVector out;
  const size_t span = static_cast<size_t>(hi) - lo + 1;
  size_t n;
  if (span <= 2 * total) {
    out.ResizeForOverwrite(std::min(span, total));
    n = SumAllDense(cursors, lo, span, out.MutableIndexData(),
                    out.MutableValueData());
  } else {
    out.ResizeForOverwrite(total);
    n = SumAllLoserTree(cursors, out.MutableIndexData(),
                        out.MutableValueData());
  }
  out.ResizeForOverwrite(n);
  return out;
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
