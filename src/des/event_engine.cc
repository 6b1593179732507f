#include "des/event_engine.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.h"

namespace spardl {

EventEngine::EventEngine(const Topology& topology)
    : topology_(topology),
      clocks_(static_cast<size_t>(topology.num_workers())) {
  links_.resize(static_cast<size_t>(topology.num_links()));
  send_seq_.assign(static_cast<size_t>(topology.num_workers()), 0);
}

void EventEngine::WorkerEnter() {
  std::lock_guard<lockcheck::OrderedMutex> lock(mu_);
  ++active_;
}

void EventEngine::WorkerExit() {
  std::lock_guard<lockcheck::OrderedMutex> lock(mu_);
  --active_;
  SPARDL_DCHECK(active_ >= 0);
  // One fewer runnable thread may make the remaining sleepers quiescent;
  // wake one so it re-evaluates the pump condition.
  cv_.notify_all();
}

uint64_t EventEngine::InjectFlowLocked(int src, int dst, size_t words,
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

double EventEngine::TakeArrivalLocked(uint64_t flow) {
  auto it = resolved_.find(flow);
  SPARDL_CHECK(it != resolved_.end()) << "unresolved flow consumed";
  const double arrival = it->second;
  resolved_.erase(it);
  return arrival;
}

bool EventEngine::AnySleeperReadyLocked() const {
  for (const Sleeper& sleeper : sleepers_) {
    if ((*sleeper.pred)()) return true;
  }
  return false;
}

double EventEngine::HorizonLocked() const {
  double horizon = std::numeric_limits<double>::infinity();
  for (const PublishedClock& clock : clocks_) {
    horizon =
        std::min(horizon, clock.value.load(std::memory_order_relaxed));
  }
  return horizon;
}

uint64_t EventEngine::PumpOneLocked() {
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

bool EventEngine::BlockUntil(std::unique_lock<lockcheck::OrderedMutex>& lock,
                             const std::function<bool()>& pred,
                             std::chrono::steady_clock::time_point deadline) {
  ++blocked_;
  bool timed_out = false;
  while (!pred() && !timed_out) {
    // Pump when it is provably safe. Quiescent cut: every registered
    // worker is blocked (this thread included) and no sleeper could make
    // progress if it held the lock, so the pending flow set is
    // scheduling-independent and the earliest event is safe to process.
    // Safe horizon: even with workers still running, an event strictly
    // below the min published clock precedes every flow any worker can
    // still inject, so pumping it now cannot disturb the (time, key)
    // order (see HorizonLocked). The sleeper check pauses pumping the
    // moment a resolution releases someone: that worker must consume its
    // arrival and run — possibly injecting earlier-keyed flows — before
    // later events are touched.
    if (!queue_.Empty() && !AnySleeperReadyLocked() &&
        (blocked_ >= active_ || queue_.NextTime() < HorizonLocked())) {
      const uint64_t resolved = PumpOneLocked();
      if (resolved != 0 && AnySleeperReadyLocked()) {
        // Hand the arrival over to the released sleeper and park.
        cv_.notify_all();
      } else {
        // Mid-path hop, or a resolution whose receiver has not asked yet —
        // keep pumping (after letting our own predicate notice it).
        continue;
      }
    }
    const auto me = sleepers_.insert(sleepers_.end(), Sleeper{&pred});
    timed_out = cv_.wait_until(lock, deadline) == std::cv_status::timeout;
    sleepers_.erase(me);
  }
  --blocked_;
  return !timed_out || pred();
}

void EventEngine::Reset() {
  std::lock_guard<lockcheck::OrderedMutex> lock(mu_);
  // resolved_ must drain too: a pre-reset arrival silently applied to
  // post-reset clocks would be a far worse bug than this abort.
  SPARDL_CHECK(flows_.empty() && queue_.Empty() && resolved_.empty())
      << "event engine reset with flows in flight or unconsumed arrivals";
  for (LinkServer& link : links_) link.Reset();
}

bool EventEngine::Idle() const {
  std::lock_guard<lockcheck::OrderedMutex> lock(mu_);
  return flows_.empty() && queue_.Empty() && resolved_.empty();
}

LinkUsage EventEngine::link_usage(LinkId id) const {
  std::lock_guard<lockcheck::OrderedMutex> lock(mu_);
  SPARDL_CHECK(id >= 0 && id < static_cast<int>(links_.size()));
  return links_[static_cast<size_t>(id)].usage();
}

void EventEngine::set_trace_recorder(TraceRecorder* recorder) {
  std::lock_guard<lockcheck::OrderedMutex> lock(mu_);
  trace_recorder_ = recorder;
}

}  // namespace spardl
