#include "sparse/part_list.h"

#include <utility>

#include "common/logging.h"

namespace spardl {

PartList::PartList(SparseVector part) {
  // A leaf's part lives until the last list that lists it is gone, on
  // whichever member of the group finishes last, so it keeps none of the
  // spare capacity the code that built it may have left.
  part.ShrinkToFit();
  node_ = std::make_shared<const Node>(Node{
      1, std::make_shared<const SparseVector>(std::move(part)), nullptr,
      nullptr});
}

PartList::PartList(PartList head, PartList tail) {
  if (head.node_ == nullptr || tail.node_ == nullptr) {
    node_ = std::move(head.node_ == nullptr ? tail.node_ : head.node_);
    return;
  }
  const size_t count = head.size() + tail.size();
  node_ = std::make_shared<const Node>(
      Node{count, nullptr, std::move(head.node_), std::move(tail.node_)});
}

PartList PartList::Prefix(size_t count) const {
  SPARDL_CHECK_LE(count, size());
  if (count == size()) return *this;
  if (count == 0) return PartList();
  return PartList(
      std::make_shared<const Node>(Node{count, nullptr, node_, nullptr}));
}

}  // namespace spardl
