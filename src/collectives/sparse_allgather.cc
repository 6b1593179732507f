#include "collectives/sparse_allgather.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace spardl {

namespace {

// `list` lists the parts of group positions first, first + 1, ... (mod
// its size); returns them by position.
GatheredParts ByPosition(PartList list, int first) {
  const int group_size = static_cast<int>(list.size());
  GatheredParts gathered;
  gathered.parts.resize(list.size());
  int position = first;
  list.ForEach([&](const SparseVector& part) {
    gathered.parts[static_cast<size_t>(position)] = &part;
    position = (position + 1) % group_size;
  });
  gathered.list = std::move(list);
  return gathered;
}

}  // namespace

GatheredParts BruckAllGather(Comm& comm, const CommGroup& group,
                             SparseVector mine,
                             const PartWireWords* wire_cost) {
  const int group_size = group.size();
  const int pos = group.my_pos();
  // local lists the parts of positions pos, pos + 1, ... (mod G).
  PartList local(std::move(mine));
  for (int step = 0; (1 << step) < group_size; ++step) {
    // Keeps the ambient phase: Bruck runs under B-SAG (kSag) and under the
    // final intra-team gather (kAllGather); the span just marks the step.
    TraceScope scope(comm, comm.phase(), "bruck-step", step);
    const int distance = 1 << step;
    const int send_count =
        std::min(distance, group_size - distance);
    const int to = group.GlobalRank((pos - distance + group_size) % group_size);
    const int from = group.GlobalRank((pos + distance) % group_size);
    // local lists `distance` parts; only the last step sends fewer.
    PartList outgoing = local.Prefix(static_cast<size_t>(send_count));
    size_t words_override = 0;
    if (wire_cost != nullptr) {
      int position = pos;
      outgoing.ForEach([&](const SparseVector& part) {
        words_override += (*wire_cost)(part, position);
        position = (position + 1) % group_size;
      });
    }
    comm.Send(to, Payload(std::move(outgoing)), /*tag=*/0, words_override);
    PartList incoming = comm.RecvAs<PartList>(from);
    SPARDL_DCHECK_EQ(static_cast<int>(incoming.size()), send_count);
    local = PartList(std::move(local), std::move(incoming));
  }
  SPARDL_CHECK_EQ(static_cast<int>(local.size()), group_size);
  return ByPosition(std::move(local), pos);
}

GatheredParts RecursiveDoublingAllGather(Comm& comm, const CommGroup& group,
                                         SparseVector mine) {
  const int group_size = group.size();
  SPARDL_CHECK_EQ(group_size & (group_size - 1), 0)
      << "recursive doubling requires a power-of-two group";
  const int pos = group.my_pos();
  // held lists the aligned run [base, base + run) in position order; run
  // doubles each step.
  PartList held(std::move(mine));
  int run = 1;
  while (run < group_size) {
    const int peer = group.GlobalRank(pos ^ run);
    comm.Send(peer, Payload(held));  // full exchange
    PartList incoming = comm.RecvAs<PartList>(peer);
    SPARDL_DCHECK_EQ(incoming.size(), held.size());
    // Peer's run is the sibling half of the aligned window.
    held = (pos & run) != 0
               ? PartList(std::move(incoming), std::move(held))
               : PartList(std::move(held), std::move(incoming));
    run *= 2;
  }
  SPARDL_CHECK_EQ(static_cast<int>(held.size()), group_size);
  return ByPosition(std::move(held), 0);
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
