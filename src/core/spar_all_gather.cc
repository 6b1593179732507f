#include "core/spar_all_gather.h"

#include <utility>
#include <vector>

#include "collectives/sparse_allgather.h"
#include "common/logging.h"
#include "sparse/topk.h"

namespace spardl {

SparseVector RSag(Comm& comm, const CommGroup& cross_team_group,
                  SparseVector block, size_t target_l,
                  ResidualStore* residuals) {
  const int d = cross_team_group.size();
  SPARDL_CHECK_EQ(d & (d - 1), 0) << "R-SAG requires a power-of-two d";
  const int pos = cross_team_group.my_pos();
  TopKSelector selector;
  SparseVector kept;
  SparseVector discarded;
  SparseVector scratch;
  int step_index = 0;
  for (int distance = 1; distance < d; distance *= 2) {
    TraceScope scope(comm, Phase::kSag, "rsag-round", step_index);
    const int peer = cross_team_group.GlobalRank(pos ^ distance);
    comm.Send(peer, Payload(block));
    SparseVector incoming = comm.RecvAs<SparseVector>(peer);
    MergeSumInPlace(&block, incoming, &scratch);
    ++step_index;
    if (block.size() > target_l) {
      selector.SelectSparse(block, target_l, &kept, &discarded);
      if (residuals != nullptr) {
        // 2^step identical copies of this block now exist cluster-wide;
        // credit each copy's discard proportionally so the total counts
        // each dropped gradient exactly once.
        residuals->AddCommDiscard(
            discarded, 1.0f / static_cast<float>(1 << step_index));
      }
      std::swap(block, kept);
    }
  }
  return block;
}

SparseVector BSag(Comm& comm, const CommGroup& cross_team_group,
                  SparseVector block, size_t target_l,
                  ChunkAdjuster* adjuster, ResidualStore* residuals,
                  size_t* observed_union) {
  const int d = cross_team_group.size();
  SPARDL_CHECK_GT(d, 1);
  SPARDL_CHECK(adjuster != nullptr);
  const size_t h = adjuster->CurrentH();

  // Pre-communication top-h: each worker trims its own chunk, so this
  // discard is worker-unique (scale 1).
  TopKSelector selector;
  SparseVector to_send;
  SparseVector discarded;
  if (block.size() > h) {
    selector.SelectSparse(block, h, &to_send, &discarded);
    if (residuals != nullptr) residuals->AddCommDiscard(discarded, 1.0f);
  } else {
    to_send = std::move(block);
  }

  // Inter-team Bruck all-gather of the (overlapping-index) chunks. No
  // per-step selection: Bruck peers see different merge orders, so pruning
  // mid-flight would desynchronise the replicas (paper Fig. 3b argument).
  const PartList chunks =
      BruckAllGather(comm, cross_team_group, PartList(std::move(to_send)));

  // Deterministic team-order summation -> identical union on all replicas.
  SparseVector summed = SumAll(chunks);
  const size_t union_size = summed.size();
  adjuster->Observe(union_size);
  if (observed_union != nullptr) *observed_union = union_size;

  // Final selection to L; d identical replicas each credit 1/d.
  if (summed.size() > target_l) {
    SparseVector kept;
    selector.SelectSparse(summed, target_l, &kept, &discarded);
    if (residuals != nullptr) {
      residuals->AddCommDiscard(discarded, 1.0f / static_cast<float>(d));
    }
    return kept;
  }
  return summed;
}

}  // namespace spardl
