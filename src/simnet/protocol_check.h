#ifndef SPARDL_SIMNET_PROTOCOL_CHECK_H_
#define SPARDL_SIMNET_PROTOCOL_CHECK_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <exception>
#include <string>
#include <vector>

#include "common/lockcheck.h"
#include "common/status.h"

namespace spardl {

/// SPMD collective-protocol verification.
///
/// Every SparDL algorithm is SPMD code against `Comm`: all workers must
/// execute *matching* sequences of collective operations (a send has a
/// receive with the same (peer, tag); all workers reach the same kind of
/// barrier; nobody returns while a peer still waits). A divergence — a
/// mismatched tag, an unequal SRS round count across replicas, a wrong
/// team size — does not crash: it deadlocks, and the only diagnostic is a
/// 120-second wall-clock timeout abort with one worker's view.
///
/// `ProtocolChecker` is an always-compiled, flag-enabled
/// (`Cluster::EnableProtocolCheck` / `--protocol-check`) verifier that
/// mirrors the network's matching rules on cheap logical state: each
/// worker's sequence of collective ops (kind, peer, tag, element count,
/// iteration) is recorded into a bounded per-worker log, per-channel
/// unmatched sends are tracked with the inbox's own (src, tag)-filtered
/// FIFO semantics, and the cross-checks run at each blocking transition:
///
///  * a worker entering `Barrier` while a peer waits in
///    `BarrierSyncClocks` (or vice versa) fails immediately — mismatched
///    barrier kinds can never rendezvous;
///  * a completed *clock-sync* barrier (an iteration boundary) with
///    unmatched sends still queued fails — a peer asymmetry that plain
///    FIFO matching would surface one iteration too late;
///  * whenever every worker is blocked (or done) and no blocked worker's
///    wait can be satisfied by the recorded unmatched sends, the run is
///    diagnosed as stuck — with specialised messages for tag mismatches
///    (wrong-tag sends queued on the waited-on channel) and for peers
///    that finished early.
///
/// Soundness: hooks run *before* the corresponding network operation, so
/// the checker's view of sends is never behind the inboxes'; a wait the
/// checker deems satisfiable really can complete, so there are no false
/// stuck reports — at worst a transiently missed one, caught at the next
/// blocking transition.
///
/// On detection the first diagnosis wins (later ones are dropped), the
/// failure flag flips, and the detecting `Comm` interrupts every blocked
/// waiter via `Network::InterruptWaiters`; all workers unwind with
/// `ProtocolViolation` and `Cluster::Run` returns the diagnosis as a
/// `Status` naming both workers' op traces — instead of hanging.

/// One recorded collective operation in a worker's log.
enum class ProtocolOp : uint8_t {
  kSend,
  kRecv,
  kBarrier,
  kClockSync,
};

std::string_view ProtocolOpName(ProtocolOp op);

struct ProtocolRecord {
  ProtocolOp op = ProtocolOp::kSend;
  /// Peer rank for send/recv; -1 for barriers.
  int peer = -1;
  int tag = 0;
  /// Wire words for send/recv; 0 for barriers.
  size_t words = 0;
  /// The worker's iteration counter (`Comm::MarkIteration`) when the op
  /// was issued.
  int64_t iteration = 0;
};

/// Thrown by `Comm`/`Network` blocking paths once a violation has been
/// diagnosed, to unwind every worker thread back to `Cluster::Run` (which
/// converts it into the returned `Status`). Never escapes `Cluster::Run`.
class ProtocolViolation : public std::exception {
 public:
  explicit ProtocolViolation(Status status) : status_(std::move(status)) {}

  const Status& status() const { return status_; }
  const char* what() const noexcept override {
    return status_.message().c_str();
  }

 private:
  Status status_;
};

/// The verifier. One instance per `Cluster`; hooks are thread-safe (worker
/// threads call them concurrently) and `failed()` is a lock-free flag safe
/// to poll from wait predicates.
class ProtocolChecker {
 public:
  explicit ProtocolChecker(int num_workers);

  ProtocolChecker(const ProtocolChecker&) = delete;
  ProtocolChecker& operator=(const ProtocolChecker&) = delete;

  /// Resets per-run state (worker states, channels, logs) at the top of
  /// `Cluster::Run`. Call while no worker threads run. CHECK-fails if a
  /// previous run's diagnosis was never consumed — a failed cluster is
  /// poisoned.
  void BeginRun();

  // --- Hooks, called by `Comm` *before* the corresponding network
  // operation (and `OnRecvMatched` right after the receive completes).

  void OnSend(int src, int dst, int tag, size_t words);
  void OnRecvPosted(int rank, int src, int tag);
  void OnRecvMatched(int rank, int src, int tag, size_t words);
  void OnBarrierEnter(int rank, bool clock_sync);
  /// `Comm::MarkIteration` — advances the worker's iteration counter used
  /// to label log entries.
  void OnIteration(int rank);
  /// The worker's function returned (called by `Cluster::Run`'s wrapper).
  void OnWorkerDone(int rank);

  /// True once a violation has been diagnosed. Lock-free; safe in wait
  /// predicates (monotonic false -> true).
  bool failed() const { return failed_.load(std::memory_order_acquire); }

  /// The first diagnosis, or OK. Lock-free: the status is written once,
  /// before `failed_` is published.
  Status status() const {
    if (!failed()) return Status::OK();
    return status_;
  }

 private:
  enum class WorkerState : uint8_t {
    kRunning,
    kRecvWait,
    kBarrierWait,
    kDone,
  };

  struct Worker {
    WorkerState state = WorkerState::kRunning;
    /// Valid in kRecvWait: the awaited (src, tag).
    int wait_peer = -1;
    int wait_tag = 0;
    /// Valid in kBarrierWait: which barrier kind.
    bool wait_clock_sync = false;
    int64_t iteration = 0;
    /// Ordinal of the next op (log entries may have been evicted).
    uint64_t num_ops = 0;
    /// Bounded trailing window of this worker's ops.
    std::deque<ProtocolRecord> log;
  };

  /// One unmatched send on a (src, dst) channel.
  struct PendingSend {
    int tag = 0;
    size_t words = 0;
  };

  Worker& WorkerFor(int rank) {
    return workers_[static_cast<size_t>(rank)];
  }
  std::deque<PendingSend>& ChannelLocked(int src, int dst) {
    return channels_[static_cast<size_t>(src) *
                         static_cast<size_t>(num_workers_) +
                     static_cast<size_t>(dst)];
  }

  void RecordLocked(int rank, ProtocolRecord record);

  /// True when `rank`'s pending receive has a matching unmatched send.
  bool RecvSatisfiableLocked(int rank) const;

  /// Global progress check, run at every blocking transition (recv posted,
  /// barrier entered, worker done): if no worker can make progress and not
  /// everyone is done, diagnoses the stuck state and fails the run.
  void CheckStuckLocked();

  /// Latches the first diagnosis and publishes `failed_`.
  void FailLocked(std::string message);

  /// "worker 2: recv-wait(src=0, tag=7) at iter 3 after 41 ops" plus the
  /// trailing op log, one op per line.
  std::string DescribeWorkerLocked(int rank) const;

  const int num_workers_;
  /// Guards all checker state below. A leaf in the lock order: held only
  /// inside hook calls, never while taking an engine/network mutex.
  mutable lockcheck::OrderedMutex mu_{"simnet.protocol"};
  std::vector<Worker> workers_;
  std::vector<std::deque<PendingSend>> channels_;  // [src * P + dst]

  /// Written once (under `mu_`) before `failed_` is published with release
  /// order; immutable afterwards, so readers need no lock.
  Status status_;
  std::atomic<bool> failed_{false};
};

}  // namespace spardl

#endif  // SPARDL_SIMNET_PROTOCOL_CHECK_H_
