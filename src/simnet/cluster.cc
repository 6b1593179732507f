#include "simnet/cluster.h"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <thread>

#include "common/logging.h"
#include "des/coop_scheduler.h"

// TSan cannot follow ucontext stack switches (unlike ASan there is no
// fiber annotation API for it), so fiber execution under TSan would
// produce nothing but false positives. Detect it and pin the thread
// backend; the TSan CI job exists precisely to watch real threads.
#if defined(__SANITIZE_THREAD__)
#define SPARDL_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SPARDL_TSAN 1
#endif
#endif

namespace spardl {

Cluster::Cluster(int size, CostModel cost_model)
    : Cluster(std::make_unique<Network>(size, cost_model)) {}

Cluster::Cluster(const TopologySpec& spec)
    : Cluster(std::make_unique<Network>([&spec] {
        auto built = spec.Build();
        SPARDL_CHECK(built.ok()) << built.status().ToString();
        return std::move(*built);
      }())) {}

Cluster::Cluster(std::unique_ptr<Network> network)
    : network_(std::move(network)), backend_(DefaultExecBackend()) {
  const int size = network_->size();
  comms_.reserve(static_cast<size_t>(size));
  for (int r = 0; r < size; ++r) {
    comms_.push_back(std::make_unique<Comm>(network_.get(), r));
  }
}

Cluster::~Cluster() = default;

ExecBackend Cluster::DefaultExecBackend() {
#ifdef SPARDL_TSAN
  return ExecBackend::kThread;
#else
  static const ExecBackend backend = [] {
    const char* env = std::getenv("SPARDL_EXEC_BACKEND");
    if (env == nullptr || *env == '\0') return ExecBackend::kThread;
    const std::string value(env);
    if (value == "thread") return ExecBackend::kThread;
    if (value == "fiber") return ExecBackend::kFiber;
    SPARDL_CHECK(false) << "SPARDL_EXEC_BACKEND must be \"thread\" or "
                           "\"fiber\", got \""
                        << value << "\"";
    __builtin_unreachable();
  }();
  return backend;
#endif
}

Status Cluster::Run(const std::function<void(Comm&)>& worker_fn) {
  SPARDL_CHECK(!poisoned_)
      << "Cluster::Run after a protocol violation: workers were unwound "
         "mid-collective, so the simulated state is inconsistent";
  ProtocolChecker* checker = protocol_checker_.get();
  if (checker != nullptr) checker->BeginRun();
#ifndef SPARDL_TSAN
  if (backend_ == ExecBackend::kFiber) {
    return RunOnFibers(worker_fn, checker);
  }
#endif
  return RunOnThreads(worker_fn, checker);
}

Status Cluster::RunOnFibers(const std::function<void(Comm&)>& worker_fn,
                            ProtocolChecker* checker) {
  Network* network = network_.get();
  // No WorkerEnter/Exit: the engine's quiescence counters exist to tell
  // pump-eligible threads apart, and here there is exactly one OS
  // thread — the scheduler pumps at its own all-workers-blocked cuts.
  CoopScheduler scheduler;
  scheduler.Run(
      static_cast<int>(comms_.size()), network->event_engine(),
      [this, &worker_fn, network, checker](int rank) {
        Comm& comm = *comms_[static_cast<size_t>(rank)];
        try {
          worker_fn(comm);
          // A worker that returns while a peer still waits on it is
          // itself a divergence; the checker diagnoses the transition.
          if (checker != nullptr) checker->OnWorkerDone(comm.rank());
        } catch (const ProtocolViolation&) {
          // Diagnosis latched in the checker; unwind this worker.
        }
        if (checker != nullptr && checker->failed()) {
          // Peers still waiting carry `interrupted()` in their wake
          // predicates; this makes the scheduler release them to
          // observe the failure and unwind.
          network->InterruptWaiters();
        }
      });
  if (checker != nullptr && checker->failed()) {
    poisoned_ = true;
    return checker->status();
  }
  SPARDL_CHECK(network_->AllMailboxesEmpty())
      << "worker function left unconsumed messages in the network";
  SPARDL_CHECK(network_->SimIdle())
      << "worker function left unresolved flows in the event engine";
  return Status::OK();
}

Status Cluster::RunOnThreads(const std::function<void(Comm&)>& worker_fn,
                             ProtocolChecker* checker) {
  std::vector<std::thread> threads;
  threads.reserve(comms_.size());
  Network* network = network_.get();
  // Register every worker with the event engine's quiescence detection
  // (no-op on flat) BEFORE any thread starts: if the
  // engine only learned about workers as their threads got scheduled, the
  // already-started ones could look quiescent and pump contended events
  // ahead of a not-yet-registered worker's earlier-keyed flows — exactly
  // the startup-timing dependence the engine exists to eliminate.
  for (size_t i = 0; i < comms_.size(); ++i) network->WorkerEnter();
  for (auto& comm : comms_) {
    threads.emplace_back([&worker_fn, &comm, network, checker] {
      try {
        worker_fn(*comm);
        // A worker that returns while a peer still waits on it is itself
        // a divergence; the checker diagnoses it from this transition.
        if (checker != nullptr) checker->OnWorkerDone(comm->rank());
      } catch (const ProtocolViolation&) {
        // The diagnosis is latched in the checker; just unwind this
        // worker. (Only thrown when a checker is attached.)
      }
      if (checker != nullptr && checker->failed()) {
        // Wake any peers still blocked so they observe the failure and
        // unwind too — whoever detected first may have been this thread.
        network->InterruptWaiters();
      }
      // A worker that returns must deregister, or the remaining workers
      // could never all be "blocked".
      network->WorkerExit();
    });
  }
  for (auto& t : threads) t.join();
  if (checker != nullptr && checker->failed()) {
    // Unwound mid-collective: mailboxes may hold orphaned messages and
    // the engine unresolved flows — by design. Poison instead of
    // CHECKing the end-of-run invariants.
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
    protocol_checker_ = std::make_unique<ProtocolChecker>(size());
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
