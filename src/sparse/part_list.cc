#include "sparse/part_list.h"

#include <utility>
#include <vector>

#include "common/logging.h"

namespace spardl {

PartList::PartList(SparseVector part) {
  const size_t wire_words = part.WireWords();
  *this = PartList(std::move(part), wire_words);
}

PartList::PartList(SparseVector part, size_t wire_words) {
  // A leaf's part lives until the last list that lists it is gone, on
  // whichever member of the group finishes last, so it keeps none of the
  // spare capacity the code that built it may have left.
  part.ShrinkToFit();
  const size_t entries = part.size();
  node_ = std::make_shared<const Node>(
      Node{1, entries, wire_words,
           std::make_shared<const SparseVector>(std::move(part)), nullptr,
           nullptr});
}

PartList::PartList(PartList head, PartList tail) {
  if (head.node_ == nullptr || tail.node_ == nullptr) {
    node_ = std::move(head.node_ == nullptr ? tail.node_ : head.node_);
    return;
  }
  const size_t count = head.size() + tail.size();
  const size_t entries = head.entries() + tail.entries();
  const size_t wire_words = head.wire_words() + tail.wire_words();
  node_ = std::make_shared<const Node>(Node{count, entries, wire_words,
                                            nullptr, std::move(head.node_),
                                            std::move(tail.node_)});
}

PartList PartList::Slice(size_t begin, size_t count) const {
  SPARDL_CHECK_LE(begin + count, size());
  return SliceOf(node_, begin, count);
}

PartList PartList::SliceOf(const std::shared_ptr<const Node>& node,
                           size_t begin, size_t count) {
  if (count == 0) return PartList();
  if (begin == 0 && count == node->count) return PartList(node);
  // A leaf lists one part, so only a join gets here. A slice that spans
  // both halves splits once; below the split each side is a prefix or a
  // suffix and follows one path, so a slice adds O(depth) joins.
  const size_t in_head = node->head->count;
  if (begin >= in_head) return SliceOf(node->tail, begin - in_head, count);
  if (begin + count <= in_head) return SliceOf(node->head, begin, count);
  return PartList(SliceOf(node->head, begin, in_head - begin),
                  SliceOf(node->tail, 0, begin + count - in_head));
}

SparseVector SumAll(const PartList& parts) {
  std::vector<const SparseVector*> inputs;
  parts.ForEach(
      [&inputs](const SparseVector& part) { inputs.push_back(&part); });
  return SumAll(inputs);
}

SparseVector ConcatDisjoint(const PartList& parts) {
  SparseVector out;
  out.Reserve(parts.entries());
  parts.ForEach([&out](const SparseVector& part) {
    // AppendSpan's boundary CHECK is exactly the interleave check.
    out.AppendSpan(part.indices(), part.values());
  });
  return out;
}

}  // namespace spardl
