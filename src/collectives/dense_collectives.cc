#include "collectives/dense_collectives.h"

#include <utility>
#include <vector>

#include "common/logging.h"
#include "sparse/block_partition.h"

namespace spardl {

namespace {

std::vector<float> CopyRange(std::span<const float> data, size_t lo,
                             size_t hi) {
  return std::vector<float>(data.begin() + static_cast<ptrdiff_t>(lo),
                            data.begin() + static_cast<ptrdiff_t>(hi));
}

}  // namespace

void RingAllReduce(Comm& comm, const CommGroup& group,
                   std::span<float> data) {
  const int group_size = group.size();
  if (group_size == 1) return;
  const int pos = group.my_pos();
  const int next = group.GlobalRank((pos + 1) % group_size);
  const int prev = group.GlobalRank((pos - 1 + group_size) % group_size);
  const BlockPartition blocks(data.size(), group_size);

  // Phase 1: reduce-scatter. After step s, this worker holds the running
  // sum of chunk (pos - s - 1 + G) % G.
  for (int s = 0; s < group_size - 1; ++s) {
    const int send_chunk = (pos - s + 2 * group_size) % group_size;
    const int recv_chunk = (pos - s - 1 + 2 * group_size) % group_size;
    comm.Send(next, Payload(CopyRange(data, blocks.BlockStart(send_chunk),
                                      blocks.BlockEnd(send_chunk))));
    std::vector<float> incoming = comm.RecvAs<std::vector<float>>(prev);
    const size_t lo = blocks.BlockStart(recv_chunk);
    SPARDL_DCHECK_EQ(incoming.size(), blocks.BlockSize(recv_chunk));
    for (size_t i = 0; i < incoming.size(); ++i) data[lo + i] += incoming[i];
  }

  // Phase 2: all-gather of the fully reduced chunks.
  for (int s = 0; s < group_size - 1; ++s) {
    const int send_chunk = (pos - s + 1 + 2 * group_size) % group_size;
    const int recv_chunk = (pos - s + 2 * group_size) % group_size;
    comm.Send(next, Payload(CopyRange(data, blocks.BlockStart(send_chunk),
                                      blocks.BlockEnd(send_chunk))));
    std::vector<float> incoming = comm.RecvAs<std::vector<float>>(prev);
    const size_t lo = blocks.BlockStart(recv_chunk);
    SPARDL_DCHECK_EQ(incoming.size(), blocks.BlockSize(recv_chunk));
    for (size_t i = 0; i < incoming.size(); ++i) data[lo + i] = incoming[i];
  }
}

void RabenseifnerAllReduce(Comm& comm, const CommGroup& group,
                           std::span<float> data) {
  const int group_size = group.size();
  SPARDL_CHECK_EQ(group_size & (group_size - 1), 0)
      << "Rabenseifner all-reduce requires a power-of-two group";
  if (group_size == 1) return;
  const int pos = group.my_pos();

  // Recursive halving reduce-scatter: the owned range [lo, hi) halves each
  // step; the discarded half is sent to the peer, the peer's matching half
  // is accumulated.
  size_t lo = 0;
  size_t hi = data.size();
  std::vector<std::pair<size_t, size_t>> range_history;
  for (int distance = group_size / 2; distance >= 1; distance /= 2) {
    range_history.emplace_back(lo, hi);
    const int peer = group.GlobalRank(pos ^ distance);
    const size_t mid = lo + (hi - lo) / 2;
    const bool keep_upper = (pos & distance) != 0;
    const size_t send_lo = keep_upper ? lo : mid;
    const size_t send_hi = keep_upper ? mid : hi;
    comm.Send(peer, Payload(CopyRange(data, send_lo, send_hi)));
    std::vector<float> incoming = comm.RecvAs<std::vector<float>>(peer);
    const size_t keep_lo = keep_upper ? mid : lo;
    SPARDL_DCHECK_EQ(incoming.size(),
                     (keep_upper ? hi - mid : mid - lo));
    for (size_t i = 0; i < incoming.size(); ++i) {
      data[keep_lo + i] += incoming[i];
    }
    lo = keep_lo;
    hi = keep_upper ? hi : mid;
  }

  // Recursive doubling all-gather: walk the halving history backwards,
  // exchanging the owned range with the same peers in reverse order.
  for (int step = static_cast<int>(range_history.size()) - 1; step >= 0;
       --step) {
    const int distance = (group_size / 2) >> step;
    const int peer = group.GlobalRank(pos ^ distance);
    comm.Send(peer, Payload(CopyRange(data, lo, hi)));
    std::vector<float> incoming = comm.RecvAs<std::vector<float>>(peer);
    const auto [outer_lo, outer_hi] = range_history[static_cast<size_t>(step)];
    const size_t mid = outer_lo + (outer_hi - outer_lo) / 2;
    const size_t fill_lo = (lo == outer_lo) ? mid : outer_lo;
    SPARDL_DCHECK_EQ(incoming.size(),
                     (lo == outer_lo ? outer_hi - mid : mid - outer_lo));
    for (size_t i = 0; i < incoming.size(); ++i) {
      data[fill_lo + i] = incoming[i];
    }
    lo = outer_lo;
    hi = outer_hi;
  }
}

void DenseAllReduceAuto(Comm& comm, const CommGroup& group,
                        std::span<float> data) {
  const int group_size = group.size();
  if ((group_size & (group_size - 1)) == 0) {
    RabenseifnerAllReduce(comm, group, data);
  } else {
    RingAllReduce(comm, group, data);
  }
}

}  // namespace spardl
