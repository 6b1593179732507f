#ifndef SPARDL_SPARSE_PART_LIST_H_
#define SPARDL_SPARSE_PART_LIST_H_

#include <cstddef>
#include <memory>
#include <utility>

#include "sparse/sparse_vector.h"

namespace spardl {

/// An immutable list of sparse parts whose copies share their parts: what
/// a sparse all-gather forwards. Copying a list costs one reference,
/// joining two lists one node, slicing one a node per level, and no
/// operation copies a part. So P simulated workers that each end up
/// listing all P parts hold P parts between them, not P^2.
///
/// Each part comes with the wire words its owner declares for it, and a
/// list is charged on the wire as the sum of its parts' words. A list is
/// a tree of shared nodes: a leaf holds one part, a join lists its head
/// list and then its tail list. Every node keeps its part count, entry
/// count and wire words, so reading them costs O(1).
class PartList {
 public:
  /// The empty list.
  PartList() = default;

  /// The list of the one part `part`, charged as its COO encoding.
  explicit PartList(SparseVector part);

  /// The list of the one part `part`, charged `wire_words` on the wire.
  PartList(SparseVector part, size_t wire_words);

  /// `head`'s parts, then `tail`'s.
  PartList(PartList head, PartList tail);

  /// The `count` parts starting at part `begin`; `begin + count` must not
  /// exceed `size()`.
  PartList Slice(size_t begin, size_t count) const;

  /// Parts listed, empty ones included.
  size_t size() const { return node_ == nullptr ? 0 : node_->count; }

  /// Entries across the listed parts.
  size_t entries() const { return node_ == nullptr ? 0 : node_->entries; }

  /// Wire words the listed parts' owners declared.
  size_t wire_words() const {
    return node_ == nullptr ? 0 : node_->wire_words;
  }

  /// Calls `fn(part)` on every non-empty listed part, in list order,
  /// skipping whole subtrees that hold no entries. A part's address stays
  /// valid while any list that lists it lives.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    if (node_ != nullptr) Visit(*node_, fn);
  }

 private:
  struct Node {
    size_t count = 0;       // parts listed, >= 1
    size_t entries = 0;     // entries across them
    size_t wire_words = 0;  // their owners' declared words
    std::shared_ptr<const SparseVector> part;  // a leaf's part
    std::shared_ptr<const Node> head;          // a join's first list
    std::shared_ptr<const Node> tail;          // a join's second list
  };

  explicit PartList(std::shared_ptr<const Node> node)
      : node_(std::move(node)) {}

  static PartList SliceOf(const std::shared_ptr<const Node>& node,
                          size_t begin, size_t count);

  template <typename Fn>
  static void Visit(const Node& node, Fn& fn) {
    if (node.entries == 0) return;
    if (node.part != nullptr) {
      fn(*node.part);
      return;
    }
    Visit(*node.head, fn);
    Visit(*node.tail, fn);
  }

  std::shared_ptr<const Node> node_;  // null for the empty list
};

/// `SumAll` over the listed parts, in list order.
SparseVector SumAll(const PartList& parts);

/// `ConcatDisjoint` over the listed parts, in list order.
SparseVector ConcatDisjoint(const PartList& parts);

}  // namespace spardl

#endif  // SPARDL_SPARSE_PART_LIST_H_
