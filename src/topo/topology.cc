#include "topo/topology.h"

#include "common/logging.h"

namespace spardl {

Topology::Topology(int num_workers, CostModel base_cost)
    : num_workers_(num_workers), base_cost_(base_cost) {
  SPARDL_CHECK_GE(num_workers, 1);
  ingress_links_.resize(static_cast<size_t>(num_workers));
  node_scale_.assign(static_cast<size_t>(num_workers), 1.0);
}

LinkId Topology::AddLink(int tail, int head, double alpha, double beta) {
  SPARDL_CHECK_GE(tail, 0);
  SPARDL_CHECK_GE(head, 0);
  SPARDL_CHECK_GE(alpha, 0.0);
  SPARDL_CHECK_GE(beta, 0.0);
  links_.push_back(LinkState{.tail = tail, .head = head, .alpha = alpha,
                             .beta = beta});
  return static_cast<LinkId>(links_.size()) - 1;
}

void Topology::RegisterIngress(int node, LinkId link) {
  SPARDL_CHECK(node >= 0 && node < num_workers_);
  SPARDL_CHECK(link >= 0 && link < num_links());
  ingress_links_[static_cast<size_t>(node)].push_back(link);
}

void Topology::SetNodeScale(int node, double factor) {
  SPARDL_CHECK(node >= 0 && node < num_workers_);
  SPARDL_CHECK_GT(factor, 0.0);
  node_scale_[static_cast<size_t>(node)] = factor;
  for (LinkId id : ingress_links_[static_cast<size_t>(node)]) {
    links_[static_cast<size_t>(id)].scale = factor;
  }
}

LinkInfo Topology::link_info(LinkId id) const {
  SPARDL_CHECK(id >= 0 && id < num_links());
  const LinkState& link = links_[static_cast<size_t>(id)];
  return LinkInfo{link.tail, link.head, link.alpha * link.scale,
                  link.beta * link.scale};
}

}  // namespace spardl
