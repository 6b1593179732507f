#include "simnet/cluster.h"

#include <algorithm>
#include <atomic>

#include "common/logging.h"
#include "des/coop_scheduler.h"

namespace spardl {

namespace {
std::atomic<uint64_t> g_default_schedule_seed{0};
}  // namespace

void Cluster::set_default_schedule_seed(uint64_t seed) {
  g_default_schedule_seed.store(seed, std::memory_order_relaxed);
}

uint64_t Cluster::default_schedule_seed() {
  return g_default_schedule_seed.load(std::memory_order_relaxed);
}

Cluster::Cluster(int size, CostModel cost_model)
    : Cluster(std::make_unique<Network>(size, cost_model)) {}

Cluster::Cluster(const TopologySpec& spec)
    : Cluster(std::make_unique<Network>(spec)) {}

Cluster::Cluster(std::unique_ptr<Network> network)
    : network_(std::move(network)),
      schedule_seed_(default_schedule_seed()) {
  const int size = network_->size();
  comms_.reserve(static_cast<size_t>(size));
  for (int r = 0; r < size; ++r) {
    comms_.push_back(std::make_unique<Comm>(network_.get(), r));
  }
}

Cluster::~Cluster() = default;

Status Cluster::Run(const std::function<void(Comm&)>& worker_fn) {
  SPARDL_CHECK(!poisoned_)
      << "Cluster::Run after a protocol violation: workers were unwound "
         "mid-collective, so the simulated state is inconsistent";
  ProtocolChecker* checker = protocol_checker_.get();
  if (checker != nullptr) checker->BeginRun();
  // One worker's whole run.
  const std::function<void(int)> body = [this, &worker_fn,
                                         checker](int rank) {
    Comm& comm = *comms_[static_cast<size_t>(rank)];
    try {
      worker_fn(comm);
      // A worker that returns while a peer still waits on it is itself a
      // divergence, which the checker names if the run then stalls.
      if (checker != nullptr) checker->OnWorkerDone(rank);
    } catch (const ProtocolViolation&) {
      // The diagnosis is latched in the checker, and whoever made it woke
      // every waiter; just unwind this worker. (Only thrown when a
      // checker is attached.)
    }
  };
  std::function<void()> on_stall;
  if (checker != nullptr) on_stall = [checker] { checker->DiagnoseStall(); };
  CoopScheduler scheduler;
  scheduler.Run(size(), network_->event_engine(), body, schedule_seed_,
                on_stall);
  if (checker != nullptr && checker->failed()) {
    // Unwound mid-collective: inboxes may hold orphaned messages and the
    // engine unresolved flows — by design. Poison instead of CHECKing the
    // end-of-run invariants.
    poisoned_ = true;
    return checker->status();
  }
  SPARDL_CHECK(network_->AllMailboxesEmpty())
      << "worker function left unconsumed messages in the network";
  SPARDL_CHECK(network_->SimIdle())
      << "worker function left unresolved flows in the event engine";
  return Status::OK();
}

TraceRecorder& Cluster::EnableTracing() {
  if (!trace_recorder_) {
    trace_recorder_ = std::make_unique<TraceRecorder>(size());
    for (auto& comm : comms_) comm->set_tracer(trace_recorder_.get());
    network_->AttachTraceRecorder(trace_recorder_.get());
  }
  return *trace_recorder_;
}

ProtocolChecker& Cluster::EnableProtocolCheck() {
  if (!protocol_checker_) {
    protocol_checker_ = std::make_unique<ProtocolChecker>(*network_);
    for (auto& comm : comms_) {
      comm->set_protocol_checker(protocol_checker_.get());
    }
    network_->set_protocol_checker(protocol_checker_.get());
  }
  return *protocol_checker_;
}

double Cluster::MaxSimSeconds() const {
  double max_t = 0.0;
  for (const auto& comm : comms_) {
    max_t = std::max(max_t, comm->sim_now());
  }
  return max_t;
}

CommStats Cluster::TotalStats() const {
  CommStats total;
  for (const auto& comm : comms_) total += comm->stats();
  return total;
}

uint64_t Cluster::MaxWordsReceived() const {
  uint64_t max_words = 0;
  for (const auto& comm : comms_) {
    max_words = std::max(max_words, comm->stats().words_received);
  }
  return max_words;
}

uint64_t Cluster::MaxMessagesReceived() const {
  uint64_t max_messages = 0;
  for (const auto& comm : comms_) {
    max_messages = std::max(max_messages, comm->stats().messages_received);
  }
  return max_messages;
}

void Cluster::ResetClocksAndStats() {
  for (auto& comm : comms_) {
    comm->ResetClock();
    comm->stats().Reset();
  }
  // Link busy clocks must rewind with the worker clocks, or leftover
  // warm-up occupancy would delay post-reset flows.
  network_->ResetSimState();
  // Warm-up spans would otherwise leak into the measured trace.
  if (trace_recorder_) trace_recorder_->Clear();
}

}  // namespace spardl
