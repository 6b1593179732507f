#include "collectives/sparse_allgather.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace spardl {

PartList BruckAllGather(Comm& comm, const CommGroup& group, PartList mine) {
  SPARDL_DCHECK_EQ(mine.size(), 1u);
  const int group_size = group.size();
  const int pos = group.my_pos();
  // local lists the parts of positions pos, pos + 1, ... (mod G).
  PartList local = std::move(mine);
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
    comm.Send(to, Payload(local.Slice(0, static_cast<size_t>(send_count))));
    PartList incoming = comm.RecvAs<PartList>(from);
    SPARDL_DCHECK_EQ(static_cast<int>(incoming.size()), send_count);
    local = PartList(std::move(local), std::move(incoming));
  }
  SPARDL_CHECK_EQ(static_cast<int>(local.size()), group_size);
  // Rotate into position order: positions 0 .. pos - 1 close the list.
  const size_t size = local.size();
  const size_t first = static_cast<size_t>(pos);
  return PartList(local.Slice(size - first, first),
                  local.Slice(0, size - first));
}

PartList RecursiveDoublingAllGather(Comm& comm, const CommGroup& group,
                                    PartList mine) {
  SPARDL_DCHECK_EQ(mine.size(), 1u);
  const int group_size = group.size();
  SPARDL_CHECK_EQ(group_size & (group_size - 1), 0)
      << "recursive doubling requires a power-of-two group";
  const int pos = group.my_pos();
  // held lists the aligned run [base, base + run) in position order; run
  // doubles each step.
  PartList held = std::move(mine);
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
  return held;
}

}  // namespace spardl
