#include "baselines/gtopk.h"

#include <utility>

#include "common/logging.h"

namespace spardl {

SparseVector GTopk::Core(Comm& comm, SparseVector local) {
  const int p = comm.size();
  const int rank = comm.rank();
  // Largest power of two <= p; the tree runs over ranks [0, p2).
  int p2 = 1;
  while (p2 * 2 <= p) p2 *= 2;
  const int rem = p - p2;
  SparseVector scratch;
  SparseVector kept;
  SparseVector discarded;

  const auto merge_and_reselect = [&](SparseVector incoming) {
    MergeSumInPlace(&local, incoming, &scratch);
    // Re-select top-k: the gTopk SGA fix. Merged supports come from
    // disjoint worker sets, so discards are credited at full weight.
    if (local.size() > k_) {
      selector_.SelectSparse(local, k_, &kept, &discarded);
      residuals_.AddCommDiscard(discarded, 1.0f);
      std::swap(local, kept);
    }
  };

  // Non-power-of-two fold: extras push their running top-k into the tree's
  // base before it starts.
  if (rank >= p2) {
    comm.Send(rank - p2, Payload(std::move(local)));
    local.Clear();
  } else if (rank < rem) {
    merge_and_reselect(comm.RecvAs<SparseVector>(rank + p2));
  }

  if (rank < p2) {
    // Reduction tree: at level `distance`, ranks that are odd multiples of
    // `distance` push their running top-k to the even multiple below them.
    for (int distance = 1; distance < p2; distance *= 2) {
      const int span = 2 * distance;
      if (rank % span == distance) {
        comm.Send(rank - distance, Payload(std::move(local)));
        local.Clear();
        break;  // inactive until the broadcast reaches this rank
      }
      if (rank % span == 0) {
        merge_and_reselect(comm.RecvAs<SparseVector>(rank + distance));
      }
    }

    // Broadcast tree: the root's global top-k flows back down.
    for (int distance = p2 / 2; distance >= 1; distance /= 2) {
      const int span = 2 * distance;
      if (rank % span == 0) {
        comm.Send(rank + distance, Payload(local));
      } else if (rank % span == distance) {
        local = comm.RecvAs<SparseVector>(rank - distance);
      }
    }
  }

  // Unfold: the folded extras get the global result from their partners.
  if (rank < rem) {
    comm.Send(rank + p2, Payload(local));
  } else if (rank >= p2) {
    local = comm.RecvAs<SparseVector>(rank - p2);
  }
  return local;
}

}  // namespace spardl
