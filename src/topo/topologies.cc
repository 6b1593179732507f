#include "topo/topologies.h"

#include <cstdint>

#include "common/logging.h"

namespace spardl {

void FlatTopology::Route(int /*src*/, int /*dst*/,
                         std::vector<LinkId>* path) const {
  path->clear();
}

double FlatTopology::ChargeMessage(int dst, size_t words, double sent_at,
                                   double receiver_now) const {
  // Exact legacy arithmetic (same operation order as the old Comm::Recv,
  // including the branch-style max), so flat simulated times stay
  // bit-for-bit reproducible. No link state: a dedicated (src, dst)
  // channel only carries that pair's traffic, and the receiver's own clock
  // already serializes those messages, so it can never be busy when the
  // next message is ready.
  const double ready = sent_at > receiver_now ? sent_at : receiver_now;
  return ready + base_cost().MessageSeconds(words) * NodeScale(dst);
}

StarTopology::StarTopology(int num_workers, CostModel cost)
    : Topology(num_workers, cost) {
  const int kSwitch = num_workers;  // graph-node id of the central switch
  up_.reserve(static_cast<size_t>(num_workers));
  down_.reserve(static_cast<size_t>(num_workers));
  for (int w = 0; w < num_workers; ++w) {
    up_.push_back(AddLink(w, kSwitch, cost.alpha / 2.0, cost.beta));
    down_.push_back(AddLink(kSwitch, w, cost.alpha / 2.0, cost.beta));
    RegisterIngress(w, down_.back());
  }
}

void StarTopology::Route(int src, int dst,
                         std::vector<LinkId>* path) const {
  path->clear();
  path->push_back(up_[static_cast<size_t>(src)]);
  path->push_back(down_[static_cast<size_t>(dst)]);
}

FatTreeTopology::FatTreeTopology(int num_workers, int rack_size,
                                 double oversubscription, CostModel cost,
                                 int num_cores)
    : Topology(num_workers, cost),
      rack_size_(rack_size),
      num_cores_(num_cores),
      oversubscription_(oversubscription) {
  // Validate before the rack division: rack_size = 0 must hit the CHECK,
  // not a division by zero in an initializer.
  SPARDL_CHECK_GE(rack_size, 1);
  SPARDL_CHECK_GE(num_cores, 1);
  SPARDL_CHECK_GT(oversubscription, 0.0);
  // 64-bit ceil: num_workers + rack_size - 1 overflows int for racks
  // near INT_MAX.
  num_racks_ = static_cast<int>(
      (int64_t{num_workers} + rack_size - 1) / rack_size);
  const int kTorBase = num_workers;  // ToR r has id P + r
  const int kCoreBase = num_workers + num_racks_;  // core c has id after ToRs
  for (int w = 0; w < num_workers; ++w) {
    const int tor = kTorBase + RackOf(w);
    up_.push_back(AddLink(w, tor, cost.alpha / 2.0, cost.beta));
    down_.push_back(AddLink(tor, w, cost.alpha / 2.0, cost.beta));
    RegisterIngress(w, down_.back());
  }
  for (int r = 0; r < num_racks_; ++r) {
    for (int c = 0; c < num_cores_; ++c) {
      trunk_up_.push_back(AddLink(kTorBase + r, kCoreBase + c,
                                  cost.alpha / 2.0,
                                  cost.beta * oversubscription_));
      trunk_down_.push_back(AddLink(kCoreBase + c, kTorBase + r,
                                    cost.alpha / 2.0,
                                    cost.beta * oversubscription_));
    }
  }
}

int FatTreeTopology::CoreFor(int src, int dst) const {
  // Fibonacci-style mixing so adjacent rank pairs do not all land on the
  // same core; any fixed hash works, it just has to be a pure function of
  // the pair.
  const uint64_t mix = static_cast<uint64_t>(src) * 0x9E3779B97F4A7C15ull +
                       static_cast<uint64_t>(dst) * 0xC2B2AE3D27D4EB4Full;
  return static_cast<int>((mix >> 32) % static_cast<uint64_t>(num_cores_));
}

void FatTreeTopology::Route(int src, int dst,
                            std::vector<LinkId>* path) const {
  path->clear();
  path->push_back(up_[static_cast<size_t>(src)]);
  const int src_rack = RackOf(src);
  const int dst_rack = RackOf(dst);
  if (src_rack != dst_rack) {
    const size_t core = static_cast<size_t>(CoreFor(src, dst));
    path->push_back(
        trunk_up_[static_cast<size_t>(src_rack) *
                      static_cast<size_t>(num_cores_) + core]);
    path->push_back(
        trunk_down_[static_cast<size_t>(dst_rack) *
                        static_cast<size_t>(num_cores_) + core]);
  }
  path->push_back(down_[static_cast<size_t>(dst)]);
}

RingTopology::RingTopology(int num_workers, CostModel cost)
    : Topology(num_workers, cost) {
  for (int w = 0; w < num_workers && num_workers >= 2; ++w) {
    next_.push_back(
        AddLink(w, (w + 1) % num_workers, cost.alpha, cost.beta));
    RegisterIngress((w + 1) % num_workers, next_.back());
  }
  // With P = 2 the clockwise link already reaches the only neighbour; a
  // separate counter-clockwise cable would just duplicate it.
  for (int w = 0; w < num_workers && num_workers >= 3; ++w) {
    prev_.push_back(
        AddLink(w, (w + num_workers - 1) % num_workers, cost.alpha,
                cost.beta));
    RegisterIngress((w + num_workers - 1) % num_workers, prev_.back());
  }
}

void RingTopology::Route(int src, int dst,
                         std::vector<LinkId>* path) const {
  path->clear();
  const int p = num_workers();
  const int clockwise = (dst - src + p) % p;
  const int counter = p - clockwise;
  if (clockwise <= counter || prev_.empty()) {
    for (int w = src; w != dst; w = (w + 1) % p) {
      path->push_back(next_[static_cast<size_t>(w)]);
    }
  } else {
    for (int w = src; w != dst; w = (w + p - 1) % p) {
      path->push_back(prev_[static_cast<size_t>(w)]);
    }
  }
}

TorusTopology::TorusTopology(int width, int height, CostModel cost)
    : Topology(width * height, cost), width_(width), height_(height) {
  SPARDL_CHECK_GE(width, 1);
  SPARDL_CHECK_GE(height, 1);
  const size_t p = static_cast<size_t>(num_workers());
  // Same cabling rules as RingTopology, applied per row and per column: a
  // dimension of 2 needs only the positive cable (the negative one would
  // duplicate it), a dimension of 1 needs none.
  if (width_ >= 2) x_next_.resize(p);
  if (width_ >= 3) x_prev_.resize(p);
  if (height_ >= 2) y_next_.resize(p);
  if (height_ >= 3) y_prev_.resize(p);
  for (int w = 0; w < num_workers(); ++w) {
    const int x = XOf(w);
    const int y = YOf(w);
    if (width_ >= 2) {
      const int to = WorkerAt((x + 1) % width_, y);
      x_next_[static_cast<size_t>(w)] = AddLink(w, to, cost.alpha, cost.beta);
      RegisterIngress(to, x_next_[static_cast<size_t>(w)]);
    }
    if (width_ >= 3) {
      const int to = WorkerAt((x + width_ - 1) % width_, y);
      x_prev_[static_cast<size_t>(w)] = AddLink(w, to, cost.alpha, cost.beta);
      RegisterIngress(to, x_prev_[static_cast<size_t>(w)]);
    }
    if (height_ >= 2) {
      const int to = WorkerAt(x, (y + 1) % height_);
      y_next_[static_cast<size_t>(w)] = AddLink(w, to, cost.alpha, cost.beta);
      RegisterIngress(to, y_next_[static_cast<size_t>(w)]);
    }
    if (height_ >= 3) {
      const int to = WorkerAt(x, (y + height_ - 1) % height_);
      y_prev_[static_cast<size_t>(w)] = AddLink(w, to, cost.alpha, cost.beta);
      RegisterIngress(to, y_prev_[static_cast<size_t>(w)]);
    }
  }
}

int TorusTopology::WalkDimension(int from, int to, int dim,
                                 std::vector<LinkId>* path) const {
  const int extent = dim == 0 ? width_ : height_;
  const std::vector<LinkId>& next = dim == 0 ? x_next_ : y_next_;
  const std::vector<LinkId>& prev = dim == 0 ? x_prev_ : y_prev_;
  int at = dim == 0 ? XOf(from) : YOf(from);
  const int forward = (to - at + extent) % extent;
  const int backward = extent - forward;
  const bool positive = forward <= backward || prev.empty();
  int node = from;
  while (at != to) {
    path->push_back(positive ? next[static_cast<size_t>(node)]
                             : prev[static_cast<size_t>(node)]);
    at = positive ? (at + 1) % extent : (at + extent - 1) % extent;
    node = dim == 0 ? WorkerAt(at, YOf(node)) : WorkerAt(XOf(node), at);
  }
  return node;
}

void TorusTopology::Route(int src, int dst,
                          std::vector<LinkId>* path) const {
  path->clear();
  // Dimension-order routing: along the row first, then the column — the
  // deterministic deadlock-free classic, and every (src, dst) pair gets
  // one fixed path.
  const int mid = WalkDimension(src, XOf(dst), /*dim=*/0, path);
  WalkDimension(mid, YOf(dst), /*dim=*/1, path);
}

}  // namespace spardl
