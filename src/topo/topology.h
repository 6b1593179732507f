#ifndef SPARDL_TOPO_TOPOLOGY_H_
#define SPARDL_TOPO_TOPOLOGY_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "simnet/cost_model.h"

namespace spardl {

/// Index of a directed link inside a `Topology`.
using LinkId = int;

/// Static description of one directed link, for inspection and tests.
///
/// `tail`/`head` are graph-node ids: workers occupy 0..P-1, switches get
/// ids >= P. `alpha`/`beta` include any per-node scale currently applied
/// (see `Topology::SetNodeScale`).
struct LinkInfo {
  int tail = 0;
  int head = 0;
  double alpha = 0.0;
  double beta = 0.0;
};

/// Cumulative per-link charge counters, maintained by the event engine's
/// `LinkServer`s. The closed-form `FlatTopology` never touches link state,
/// so its counters stay zero.
struct LinkUsage {
  /// Simulated seconds the link was occupied (header latency plus body
  /// serialization of every message that crossed it).
  double busy_seconds = 0.0;
  /// Payload bytes carried (wire words * 4).
  uint64_t bytes = 0;
  uint64_t messages = 0;
  /// Worst queueing delay a header saw behind earlier flows — the
  /// time-domain measure of the deepest backlog this link built up.
  double max_queue_seconds = 0.0;
};

/// A simulated network fabric: workers and switches joined by directed
/// links, each with its own latency (alpha, seconds/message) and
/// serialization cost (beta, seconds/word).
///
/// Subclasses lay out the links and answer `Route(src, dst)`; the fabric
/// itself is static. An uncontended message of `words` traverses its path
/// for
///
///     sum over path links of alpha_l  +  max over path links of beta_l*words
///
/// (cut-through forwarding: the header pays every hop's latency, the body
/// is serialized once at the bottleneck link). `Network` charges every
/// fabric except `FlatTopology` through the discrete-event engine
/// (`src/des`), which serves each link as a FIFO in `(time, flow key)`
/// order: two concurrent flows through a shared link queue instead of
/// magically overlapping — the behaviour the flat alpha-beta model of the
/// paper (§II) cannot express — and the queueing order is a pure function
/// of the SPMD program, so contended times are bit-identical across runs
/// and fiber schedules. Link occupancy is anchored at the *send* time,
/// so a receiver that sits in local compute before ingesting cannot
/// retroactively occupy upstream links; its delivery is simply
/// `max(receiver_now, network arrival)`. `FlatTopology` builds no links
/// and charges the paper's closed form instead (bit-for-bit equal to the
/// historical `CostModel` charging); its routes are empty.
///
/// `Route` and `link_info` must be const. `SetNodeScale` must be called
/// before workers run.
class Topology {
 public:
  virtual ~Topology() = default;

  Topology(const Topology&) = delete;
  Topology& operator=(const Topology&) = delete;

  int num_workers() const { return num_workers_; }

  /// The reference alpha-beta model this fabric was derived from (used by
  /// analytical predictions and as the per-hop budget).
  const CostModel& base_cost() const { return base_cost_; }

  /// Writes the link ids a message from worker `src` to worker `dst`
  /// crosses, in order, into `*path` (cleared first; left empty on a
  /// fabric without links). src != dst.
  virtual void Route(int src, int dst, std::vector<LinkId>* path) const = 0;

  /// Folds per-worker heterogeneity (the legacy `WorkerSlowdown`) into the
  /// fabric: scales the cost of `node`'s ingress link(s) by `factor`
  /// (>= 1 models a straggler NIC); flat's closed form reads `NodeScale`
  /// instead. Call before running workers.
  void SetNodeScale(int node, double factor);
  double NodeScale(int node) const {
    return node_scale_[static_cast<size_t>(node)];
  }

  int num_links() const { return static_cast<int>(links_.size()); }
  LinkInfo link_info(LinkId id) const;

 protected:
  Topology(int num_workers, CostModel base_cost);

  /// Registers a directed link from graph node `tail` to `head`.
  LinkId AddLink(int tail, int head, double alpha, double beta);

  /// Marks `link` as part of worker `node`'s receive path: `SetNodeScale`
  /// on that node will scale this link's alpha and beta.
  void RegisterIngress(int node, LinkId link);

 private:
  struct LinkState {
    int tail;
    int head;
    double alpha;
    double beta;
    double scale = 1.0;
  };

  int num_workers_;
  CostModel base_cost_;
  std::vector<LinkState> links_;
  std::vector<std::vector<LinkId>> ingress_links_;  // per worker
  std::vector<double> node_scale_;                  // per worker
};

}  // namespace spardl

#endif  // SPARDL_TOPO_TOPOLOGY_H_
