#include "des/event_engine.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace spardl {

EventEngine::EventEngine(const Topology& topology) : topology_(topology) {
  links_.resize(static_cast<size_t>(topology.num_links()));
  send_seq_.assign(static_cast<size_t>(topology.num_workers()), 0);
}

uint64_t EventEngine::InjectFlow(int src, int dst, size_t words,
                                 double sent_at) {
  const int p = topology_.num_workers();
  SPARDL_DCHECK(src >= 0 && src < p);
  SPARDL_DCHECK(dst >= 0 && dst < p);
  const uint64_t pair =
      static_cast<uint64_t>(src) * static_cast<uint64_t>(p) +
      static_cast<uint64_t>(dst);
  const uint64_t key = (pair << 32) | send_seq_[static_cast<size_t>(src)]++;

  Flow flow;
  flow.words = words;
  flow.src = src;
  flow.dst = dst;
  flow.sent_at = sent_at;
  topology_.Route(src, dst, &flow.path);
  SPARDL_DCHECK(!flow.path.empty()) << "empty route " << src << "->" << dst;
  flows_.emplace(key, std::move(flow));
  queue_.Push(sent_at, key);
  return key;
}

double EventEngine::TakeArrival(uint64_t flow) {
  auto it = resolved_.find(flow);
  SPARDL_CHECK(it != resolved_.end()) << "unresolved flow consumed";
  const double arrival = it->second;
  resolved_.erase(it);
  return arrival;
}

uint64_t EventEngine::PumpOne() {
  const EventQueue::Event event = queue_.PopEarliest();
  auto it = flows_.find(event.flow);
  SPARDL_DCHECK(it != flows_.end());
  Flow& flow = it->second;

  const LinkId id = flow.path[static_cast<size_t>(flow.hop)];
  // link_info folds SetNodeScale into alpha/beta.
  const LinkInfo link = topology_.link_info(id);
  const double serialize = link.beta * static_cast<double>(flow.words);
  const uint64_t bytes = static_cast<uint64_t>(flow.words) * 4;
  LinkServer& server = links_[static_cast<size_t>(id)];
  const double start = std::max(event.time, server.busy_until());
  const double head_out = server.Serve(event.time, link.alpha, serialize,
                                       bytes);
  if (trace_recorder_ != nullptr) {
    // The flow key embeds (src*P + dst) in its upper half.
    const int p = topology_.num_workers();
    const auto pair = static_cast<int>(event.flow >> 32);
    trace_recorder_->RecordLink(TraceSpan{id, kStreamLink, Phase::kLink,
                                          "flow", pair / p, pair % p, start,
                                          head_out + serialize, bytes});
    flow.hops.push_back(FlowHop{id, event.time, start, head_out, serialize});
  }
  flow.bottleneck = std::max(flow.bottleneck, serialize);
  ++flow.hop;
  if (flow.hop < static_cast<int>(flow.path.size())) {
    queue_.Push(head_out, event.flow);
    return 0;
  }
  // Final hop: the body trails the header by the bottleneck serialization.
  const double arrival = head_out + flow.bottleneck;
  resolved_.emplace(event.flow, arrival);
  if (trace_recorder_ != nullptr) {
    FlowRecord record;
    record.src = flow.src;
    record.dst = flow.dst;
    record.words = flow.words;
    record.sent_at = flow.sent_at;
    record.arrival = arrival;
    record.hops = std::move(flow.hops);
    trace_recorder_->RecordFlow(event.flow, std::move(record));
  }
  flows_.erase(it);
  return event.flow;
}

void EventEngine::Reset() {
  // resolved_ must drain too: a pre-reset arrival silently applied to
  // post-reset clocks would be a far worse bug than this abort.
  SPARDL_CHECK(Idle())
      << "event engine reset with flows in flight or unconsumed arrivals";
  for (LinkServer& link : links_) link.Reset();
}

LinkUsage EventEngine::link_usage(LinkId id) const {
  SPARDL_CHECK(id >= 0 && id < static_cast<int>(links_.size()));
  return links_[static_cast<size_t>(id)].usage();
}

}  // namespace spardl
