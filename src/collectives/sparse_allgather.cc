#include "collectives/sparse_allgather.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "common/logging.h"

namespace spardl {

std::vector<SparseVector> BruckAllGather(Comm& comm, const CommGroup& group,
                                         SparseVector mine,
                                         const PartWireWords* wire_cost) {
  const int group_size = group.size();
  const int pos = group.my_pos();
  // local[j] holds the part of group position (pos + j) % G.
  std::vector<SparseVector> local;
  local.reserve(static_cast<size_t>(group_size));
  local.push_back(std::move(mine));
  for (int step = 0; (1 << step) < group_size; ++step) {
    // Keeps the ambient phase: Bruck runs under B-SAG (kSag) and under the
    // final intra-team gather (kAllGather); the span just marks the step.
    TraceScope scope(comm, comm.phase(), "bruck-step", step);
    const int distance = 1 << step;
    const int send_count =
        std::min(distance, group_size - distance);
    const int to = group.GlobalRank((pos - distance + group_size) % group_size);
    const int from = group.GlobalRank((pos + distance) % group_size);
    size_t words_override = 0;
    if (wire_cost != nullptr) {
      for (int j = 0; j < send_count; ++j) {
        words_override += (*wire_cost)(local[static_cast<size_t>(j)],
                                       (pos + j) % group_size);
      }
    }
    std::vector<SparseVector> outgoing(
        local.begin(), local.begin() + send_count);
    comm.Send(to, Payload(std::move(outgoing)), /*tag=*/0, words_override);
    std::vector<SparseVector> incoming =
        comm.RecvAs<std::vector<SparseVector>>(from);
    SPARDL_DCHECK_EQ(static_cast<int>(incoming.size()), send_count);
    for (auto& part : incoming) local.push_back(std::move(part));
  }
  SPARDL_CHECK_EQ(static_cast<int>(local.size()), group_size);
  // Undo the rotation: local[j] belongs to position (pos + j) % G.
  std::vector<SparseVector> result(static_cast<size_t>(group_size));
  for (int j = 0; j < group_size; ++j) {
    result[static_cast<size_t>((pos + j) % group_size)] =
        std::move(local[static_cast<size_t>(j)]);
  }
  return result;
}

std::vector<SparseVector> RecursiveDoublingAllGather(Comm& comm,
                                                     const CommGroup& group,
                                                     SparseVector mine) {
  const int group_size = group.size();
  SPARDL_CHECK_EQ(group_size & (group_size - 1), 0)
      << "recursive doubling requires a power-of-two group";
  const int pos = group.my_pos();
  // held covers the aligned run [base, base + run); run doubles each step.
  std::vector<SparseVector> held;
  held.reserve(static_cast<size_t>(group_size));
  held.push_back(std::move(mine));
  int run = 1;
  while (run < group_size) {
    const int peer_pos = pos ^ run;
    const int peer = group.GlobalRank(peer_pos);
    std::vector<SparseVector> outgoing = held;  // full exchange
    comm.Send(peer, Payload(std::move(outgoing)));
    std::vector<SparseVector> incoming =
        comm.RecvAs<std::vector<SparseVector>>(peer);
    SPARDL_DCHECK_EQ(incoming.size(), held.size());
    // Peer's run is the sibling half of the aligned window; splice so
    // `held` stays in position order.
    if ((pos & run) != 0) {
      // Peer's half precedes mine.
      incoming.insert(incoming.end(), std::make_move_iterator(held.begin()),
                      std::make_move_iterator(held.end()));
      held = std::move(incoming);
    } else {
      held.insert(held.end(), std::make_move_iterator(incoming.begin()),
                  std::make_move_iterator(incoming.end()));
    }
    run *= 2;
  }
  SPARDL_CHECK_EQ(static_cast<int>(held.size()), group_size);
  return held;
}

std::vector<uint32_t> BruckAllGatherCounts(Comm& comm,
                                           const CommGroup& group,
                                           uint32_t mine) {
  const int group_size = group.size();
  const int pos = group.my_pos();
  std::vector<uint32_t> local;  // local[j] = value of position (pos+j)%G
  local.reserve(static_cast<size_t>(group_size));
  local.push_back(mine);
  for (int step = 0; (1 << step) < group_size; ++step) {
    const int distance = 1 << step;
    const int send_count = std::min(distance, group_size - distance);
    const int to =
        group.GlobalRank((pos - distance + group_size) % group_size);
    const int from = group.GlobalRank((pos + distance) % group_size);
    std::vector<uint32_t> outgoing(local.begin(),
                                   local.begin() + send_count);
    comm.Send(to, Payload(std::move(outgoing)));
    std::vector<uint32_t> incoming =
        comm.RecvAs<std::vector<uint32_t>>(from);
    local.insert(local.end(), incoming.begin(), incoming.end());
  }
  std::vector<uint32_t> result(static_cast<size_t>(group_size));
  for (int j = 0; j < group_size; ++j) {
    result[static_cast<size_t>((pos + j) % group_size)] =
        local[static_cast<size_t>(j)];
  }
  return result;
}

}  // namespace spardl
