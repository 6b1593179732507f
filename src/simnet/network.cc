#include "simnet/network.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"
#include "des/coop_scheduler.h"
#include "simnet/protocol_check.h"
#include "topo/topologies.h"

namespace spardl {

namespace {

// A fiber's wait ends only when someone says whom an event can release
// (see CoopScheduler). Outside a fiber there is nobody to wake.
void WakeFiber(int rank) {
  if (CoopScheduler* scheduler = CoopScheduler::Current()) {
    scheduler->Wake(rank);
  }
}

void WakeAllFibers() {
  if (CoopScheduler* scheduler = CoopScheduler::Current()) {
    scheduler->WakeAll();
  }
}

}  // namespace

size_t PayloadWords(const Payload& payload) {
  struct Visitor {
    size_t operator()(const SparseVector& v) const { return v.WireWords(); }
    size_t operator()(const std::vector<SparseVector>& parts) const {
      size_t words = 0;
      for (const SparseVector& p : parts) words += p.WireWords();
      return words;
    }
    size_t operator()(const PartList& parts) const {
      return parts.wire_words();
    }
    size_t operator()(const std::vector<float>& v) const { return v.size(); }
    size_t operator()(int64_t) const { return 1; }
  };
  return std::visit(Visitor{}, payload);
}

Network::Network(int size, CostModel cost_model)
    : Network(TopologySpec::Flat(size, cost_model)) {}

Network::Network(const TopologySpec& spec)
    : spec_(spec),
      topology_([&spec] {
        auto built = spec.Build();
        SPARDL_CHECK(built.ok()) << built.status().ToString();
        return std::move(*built);
      }()),
      size_(topology_->num_workers()),
      inboxes_(static_cast<size_t>(size_)) {
  // Flat's closed form has no link state to order; every other fabric is
  // charged by the event engine.
  flat_ = dynamic_cast<const FlatTopology*>(topology_.get());
  if (flat_ == nullptr) engine_ = std::make_unique<EventEngine>(*topology_);
}

const TeamPlacement& Network::TeamLayout(int num_teams,
                                        PlacementPolicy policy) {
  const std::pair<int, PlacementPolicy> key(num_teams, policy);
  auto it = team_layouts_.find(key);
  if (it == team_layouts_.end()) {
    auto planned = PlanPlacement(spec_, size_, num_teams, policy);
    SPARDL_CHECK(planned.ok()) << planned.status().ToString();
    it = team_layouts_.emplace(key, std::move(*planned)).first;
  }
  return it->second;
}

void Network::AttachTraceRecorder(TraceRecorder* recorder) {
  if (engine_) engine_->set_trace_recorder(recorder);
}

LinkUsage Network::link_usage(LinkId id) const {
  return engine_ ? engine_->link_usage(id) : LinkUsage{};
}

void Network::SetWorkerSlowdown(int rank, double factor) {
  SPARDL_CHECK(rank >= 0 && rank < size_);
  SPARDL_CHECK_GT(factor, 0.0);
  topology_->SetNodeScale(rank, factor);
}

bool Network::interrupted() const {
  return protocol_ != nullptr && protocol_->failed();
}

void Network::ThrowIfInterrupted() const {
  if (interrupted()) throw ProtocolViolation(protocol_->status());
}

void Network::Wait(const std::function<bool()>& pred,
                   const std::function<std::string()>& describe) {
  const std::function<bool()> ready = [&] {
    return interrupted() || pred();  // the flag is monotonic
  };
  if (CoopScheduler* scheduler = CoopScheduler::Current();
      scheduler != nullptr) {
    // The scheduler polls `ready` and pumps the event engine at its own
    // all-workers-blocked cuts.
    scheduler->Wait(ready, describe);
  } else {
    // Outside any fiber nobody else can run, so only pumping the engine
    // can satisfy the wait.
    while (!ready()) {
      SPARDL_CHECK(engine_ != nullptr && !engine_->QueueEmpty())
          << describe()
          << " can never complete: no fiber to wait for and no event "
             "left to pump";
      engine_->PumpOne();
    }
  }
  ThrowIfInterrupted();
}

void Network::InterruptWaiters() { WakeAllFibers(); }

void Network::Post(int src, int dst, Packet packet) {
  SPARDL_DCHECK(src >= 0 && src < size_);
  SPARDL_DCHECK(dst >= 0 && dst < size_);
  packet.src = src;
  std::deque<Packet>& inbox = inboxes_[static_cast<size_t>(dst)];
  if (engine_) {
    // Inject the flow at *send* time: its route and logical injection time
    // are fully known here, and charging from the sender side is what
    // frees the engine from receiver ordering. The receiver waits for the
    // flow's resolution, which the pump announces.
    packet.flow =
        engine_->InjectFlow(src, dst, packet.words, packet.sent_at);
    inbox.push_back(std::move(packet));
    return;
  }
  inbox.push_back(std::move(packet));
  WakeFiber(dst);
}

Network::Delivered Network::RecvPacket(int src, int dst, int tag,
                                       double receiver_now) {
  std::deque<Packet>& inbox = inboxes_[static_cast<size_t>(dst)];
  // The oldest packet from `src` with `tag`: FIFO per (src, dst, tag). A
  // linear scan: the log-round collectives keep an inbox a few packets
  // deep; the direct-send baselines (Ok-Topk, TopkDSA) post to every peer
  // before receiving, so theirs hold up to 2(P-1), but they run at small P.
  const auto match = [&inbox, src, tag] {
    return std::find_if(inbox.begin(), inbox.end(),
                        [src, tag](const Packet& packet) {
                          return packet.src == src && packet.tag == tag;
                        });
  };
  Wait(
      [&] {
        const auto it = match();
        return it != inbox.end() &&
               (engine_ == nullptr || engine_->Resolved(it->flow));
      },
      [&] { return StrFormat("Recv dst=%d src=%d tag=%d", dst, src, tag); });
  const auto it = match();
  Delivered delivered{std::move(*it), 0.0};
  inbox.erase(it);
  const Packet& packet = delivered.packet;
  // On event fabrics traversal overlaps receiver compute, and consumption
  // waits for whichever finishes last.
  delivered.delivery_time =
      engine_ ? std::max(receiver_now, engine_->TakeArrival(packet.flow))
              : flat_->ChargeMessage(dst, packet.words, packet.sent_at,
                                     receiver_now);
  return delivered;
}

void Network::BarrierWait() {
  const uint64_t my_generation = barrier_generation_;
  if (++barrier_waiting_ == size_) {
    // The last arriver releases everyone.
    barrier_waiting_ = 0;
    ++barrier_generation_;
    WakeAllFibers();
    return;
  }
  Wait([&] { return barrier_generation_ != my_generation; },
       [] { return std::string("BarrierWait"); });
}

double Network::MaxClockSync(double value) {
  const uint64_t my_generation = sync_generation_;
  if (value > sync_max_) sync_max_ = value;
  if (++sync_count_ == size_) {
    // The last publisher latches the max and releases everyone.
    sync_result_ = sync_max_;
    sync_max_ = 0.0;
    sync_count_ = 0;
    ++sync_generation_;
    WakeAllFibers();
    return sync_result_;
  }
  Wait([&] { return sync_generation_ != my_generation; },
       [] { return std::string("MaxClockSync"); });
  return sync_result_;
}

bool Network::AllMailboxesEmpty() const {
  return std::all_of(
      inboxes_.begin(), inboxes_.end(),
      [](const std::deque<Packet>& inbox) { return inbox.empty(); });
}

void Network::ResetSimState() {
  // Link busy clocks must rewind with the worker clocks, or leftover
  // warm-up occupancy would delay post-reset flows.
  if (engine_) engine_->Reset();
}

}  // namespace spardl
