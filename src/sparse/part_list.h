#ifndef SPARDL_SPARSE_PART_LIST_H_
#define SPARDL_SPARSE_PART_LIST_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>

#include "sparse/sparse_vector.h"

namespace spardl {

/// An immutable list of sparse parts whose copies share their parts: what
/// a sparse all-gather forwards. Copying a list costs one reference,
/// joining two lists or taking a prefix one node, and no operation copies
/// a part. So P simulated workers that each end up listing all P parts
/// hold P parts between them, not P^2.
///
/// A list is a tree of shared nodes: a leaf holds one part, a join lists
/// its head list and then its tail list, and a prefix lists the first
/// `count` parts of another list.
class PartList {
 public:
  /// The empty list.
  PartList() = default;

  /// The list of the one part `part`.
  explicit PartList(SparseVector part);

  /// `head`'s parts, then `tail`'s.
  PartList(PartList head, PartList tail);

  /// This list's first `count` parts; `count` must not exceed `size()`.
  PartList Prefix(size_t count) const;

  size_t size() const { return node_ == nullptr ? 0 : node_->count; }

  /// Calls `fn(part)` on every listed part, in list order. A part's
  /// address stays valid while any list that lists it lives.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (node_ != nullptr) Visit(*node_, node_->count, fn);
  }

 private:
  struct Node {
    size_t count = 0;                          // parts listed, >= 1
    std::shared_ptr<const SparseVector> part;  // a leaf's part
    std::shared_ptr<const Node> head;          // a join's or prefix's source
    std::shared_ptr<const Node> tail;          // a join's second list
  };

  explicit PartList(std::shared_ptr<const Node> node)
      : node_(std::move(node)) {}

  // Visits the first `count` (>= 1) parts `node` lists.
  template <typename Fn>
  static void Visit(const Node& node, size_t count, Fn& fn) {
    if (node.part != nullptr) {
      fn(*node.part);
      return;
    }
    const size_t from_head = std::min(count, node.head->count);
    Visit(*node.head, from_head, fn);
    if (count > from_head) Visit(*node.tail, count - from_head, fn);
  }

  std::shared_ptr<const Node> node_;  // null for the empty list
};

}  // namespace spardl

#endif  // SPARDL_SPARSE_PART_LIST_H_
