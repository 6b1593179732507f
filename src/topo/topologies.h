#ifndef SPARDL_TOPO_TOPOLOGIES_H_
#define SPARDL_TOPO_TOPOLOGIES_H_

#include <vector>

#include "topo/topology.h"

namespace spardl {

/// Single crossbar: the paper's flat full-duplex alpha-beta network (§II)
/// and the historical `CostModel` charging. Every ordered worker pair
/// talks over its own dedicated channel, which can never contend beyond
/// the receiver serialization the `Comm` clock already models, so the
/// fabric builds no links at all: `Route` returns an empty path, and
/// `Network` charges `ChargeMessage` directly and runs no event engine.
/// `ChargeMessage` is the exact legacy arithmetic
/// (`ready + (alpha + beta*words) * node_scale(dst)`), so simulated times
/// are bit-for-bit identical to the pre-topology simulator.
class FlatTopology : public Topology {
 public:
  FlatTopology(int num_workers, CostModel cost)
      : Topology(num_workers, cost) {}

  /// Clears `path`: flat has no links to cross.
  void Route(int src, int dst, std::vector<LinkId>* path) const override;

  /// Delivery time at `dst` of a `words`-word message sent at `sent_at`
  /// to a receiver whose clock reads `receiver_now`. Pure: reads only the
  /// base cost and `NodeScale(dst)`.
  double ChargeMessage(int dst, size_t words, double sent_at,
                       double receiver_now) const;
};

/// All workers behind one switch: each worker has an uplink and a downlink
/// to the central switch, each with alpha/2 latency and the full beta, so
/// an uncontended message costs exactly the flat alpha + beta*words — but
/// a worker's outgoing messages now serialize on its uplink (real
/// single-port NICs are not infinitely fast senders), and fan-in to one
/// worker serializes on its downlink.
class StarTopology : public Topology {
 public:
  StarTopology(int num_workers, CostModel cost);

  void Route(int src, int dst, std::vector<LinkId>* path) const override;

 private:
  std::vector<LinkId> up_;    // worker -> switch
  std::vector<LinkId> down_;  // switch -> worker
};

/// Two-level tree: workers in racks of `rack_size` behind a top-of-rack
/// switch, ToRs joined through `num_cores` core switches by trunk links
/// whose beta is `oversubscription` times the access beta (oversub > 1
/// models the usual under-provisioned rack uplinks). In-rack traffic costs
/// the flat alpha + beta*words; cross-rack traffic pays 2*alpha latency
/// and oversub*beta*words at the trunk bottleneck. With one core every
/// cross-rack flow of a rack contends on that rack's single trunk; with
/// `num_cores` > 1 each ToR has one trunk pair per core and flows are
/// spread across them by deterministic ECMP hashing of the (src, dst)
/// pair (`CoreFor`), so the rack trunk stops being a single serialization
/// point.
class FatTreeTopology : public Topology {
 public:
  FatTreeTopology(int num_workers, int rack_size, double oversubscription,
                  CostModel cost, int num_cores = 1);

  void Route(int src, int dst, std::vector<LinkId>* path) const override;

  int rack_size() const { return rack_size_; }
  int num_racks() const { return num_racks_; }
  int num_cores() const { return num_cores_; }
  double oversubscription() const { return oversubscription_; }
  int RackOf(int worker) const { return worker / rack_size_; }

  /// The core switch ECMP pins the (src, dst) flow to, in [0, num_cores).
  /// A deterministic hash of the pair — the simulated analogue of
  /// five-tuple ECMP hashing — so the same flow always takes the same
  /// core, run to run.
  int CoreFor(int src, int dst) const;

 private:
  int rack_size_;
  int num_racks_ = 0;  // set in the constructor body, after validation
  int num_cores_;
  double oversubscription_;
  std::vector<LinkId> up_;          // worker -> its ToR
  std::vector<LinkId> down_;        // ToR -> worker
  std::vector<LinkId> trunk_up_;    // [rack * num_cores + core]: ToR -> core
  std::vector<LinkId> trunk_down_;  // [rack * num_cores + core]: core -> ToR
};

/// Unidirectional-per-hop ring: worker w has a link to each neighbour
/// ((w+1) % P and (w-1+P) % P), each with the full alpha and beta. Routes
/// take the shorter direction (ties go clockwise), so a distance-h message
/// costs h*alpha + beta*words uncontended and crossing flows contend on
/// shared segments. Neighbour-pattern algorithms are ring-native; the
/// log-distance peers of recursive halving pay multi-hop latency.
class RingTopology : public Topology {
 public:
  RingTopology(int num_workers, CostModel cost);

  void Route(int src, int dst, std::vector<LinkId>* path) const override;

 private:
  std::vector<LinkId> next_;  // w -> (w+1) % P
  std::vector<LinkId> prev_;  // w -> (w-1+P) % P; empty when P < 3
};

/// 2D torus: worker w sits at (w % width, w / width) on a width x height
/// grid whose rows and columns are rings with per-direction links, each
/// carrying the full alpha and beta (like `RingTopology`; a dimension of
/// size 2 gets a single cable per direction pair, and a dimension of size
/// 1 gets none). Routing is dimension-ordered — along the row to the
/// destination column, then along the column — taking the shorter way
/// around each ring (ties go the positive direction), so a message at
/// wrap-around distance (dx, dy) costs (dx + dy)*alpha + beta*words
/// uncontended. The HPC-style neighbour fabric of the netsim exemplars:
/// ring algorithms stay contention-free per row, while log-distance
/// exchanges pay Manhattan-distance latency and crossing flows contend on
/// shared ring segments.
class TorusTopology : public Topology {
 public:
  /// num_workers = width * height.
  TorusTopology(int width, int height, CostModel cost);

  void Route(int src, int dst, std::vector<LinkId>* path) const override;

  int width() const { return width_; }
  int height() const { return height_; }

 private:
  int XOf(int worker) const { return worker % width_; }
  int YOf(int worker) const { return worker / width_; }
  int WorkerAt(int x, int y) const { return y * width_ + x; }

  /// Appends the ring walk from `from` to the node with coordinate `to`
  /// in dimension `dim` (0 = x, 1 = y); returns the node reached.
  int WalkDimension(int from, int to, int dim,
                    std::vector<LinkId>* path) const;

  int width_;
  int height_;
  // Per-direction neighbour links, indexed by worker; empty when the
  // dimension is too small to need them (see the class comment).
  std::vector<LinkId> x_next_;  // (x, y) -> (x+1 mod W, y)
  std::vector<LinkId> x_prev_;  // (x, y) -> (x-1 mod W, y); W >= 3 only
  std::vector<LinkId> y_next_;  // (x, y) -> (x, y+1 mod H)
  std::vector<LinkId> y_prev_;  // (x, y) -> (x, y-1 mod H); H >= 3 only
};

}  // namespace spardl

#endif  // SPARDL_TOPO_TOPOLOGIES_H_
