#ifndef SPARDL_SIMNET_PROTOCOL_CHECK_H_
#define SPARDL_SIMNET_PROTOCOL_CHECK_H_

#include <cstdint>
#include <deque>
#include <exception>
#include <string>
#include <vector>

#include "common/status.h"

namespace spardl {

class Network;

/// SPMD collective-protocol verification.
///
/// Every SparDL algorithm is SPMD code against `Comm`: all workers must
/// execute *matching* sequences of collective operations (a send has a
/// receive with the same (peer, tag); all workers reach the same kind of
/// barrier; nobody returns while a peer still waits). A divergence — a
/// mismatched tag, an unequal SRS round count across replicas, a wrong
/// team size — does not crash: it deadlocks, and without this checker the
/// only diagnostic is the scheduler's abort listing each worker's
/// abandoned wait, with no history of how they got there.
///
/// `ProtocolChecker` is an always-compiled, flag-enabled
/// (`Cluster::EnableProtocolCheck` / `--protocol-check`) verifier. It
/// keeps only what no other module holds: each worker's sequence of
/// collective ops (kind, peer, tag, element count, iteration) in a
/// bounded per-worker log, and what each worker waits for. Unmatched
/// sends are the network's own inboxes (`Network::inbox`), read when a
/// diagnosis needs them, so the (src, tag) FIFO matching rule lives in
/// `Network` alone. It detects at two places:
///
///  * at barrier entry: a worker entering `Barrier` while a peer waits in
///    `BarrierSyncClocks` (or vice versa) fails immediately — mismatched
///    barrier kinds can never rendezvous; and a completed *clock-sync*
///    barrier (an iteration boundary) with unmatched sends still queued
///    fails, naming the lowest (src, dst) pair — a peer asymmetry that
///    plain FIFO matching would surface one iteration too late;
///  * at the scheduler's stall: when no worker can run and no event is
///    left to pump, `CoopScheduler::Run` calls `DiagnoseStall` (wired by
///    `Cluster::Run`), which names the most specific cause — a tag
///    mismatch (wrong-tag sends queued from the awaited peer), a peer
///    that finished early, an incomplete barrier, or a plain collective
///    deadlock.
///
/// The scheduler is thus the one place that decides a run is stuck, so
/// there are no false stuck reports by construction.
///
/// On detection the first diagnosis wins (later ones are dropped) and the
/// failure flag flips. The waiters are woken — by the detecting worker
/// through `Network::InterruptWaiters`, or by the scheduler after a stall
/// diagnosis — and unwind with `ProtocolViolation`; `Cluster::Run`
/// returns the diagnosis as a `Status` naming both workers' op traces —
/// instead of aborting.

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
/// diagnosed, to unwind every worker fiber back to `Cluster::Run` (which
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

/// The verifier. One instance per `Cluster`; its workers call the hooks
/// from their fibers on the cluster's one carrier thread, so the checker
/// needs no lock, and `failed()` is a plain flag safe to poll from wait
/// predicates.
class ProtocolChecker {
 public:
  /// Checks the workers of `network`, whose inboxes it reads; `network`
  /// must outlive the checker.
  explicit ProtocolChecker(const Network& network);

  ProtocolChecker(const ProtocolChecker&) = delete;
  ProtocolChecker& operator=(const ProtocolChecker&) = delete;

  /// Resets per-run state (worker states and logs) at the top of
  /// `Cluster::Run`. Call while no worker runs. CHECK-fails if a
  /// previous run's diagnosis was never consumed — a failed cluster is
  /// poisoned.
  void BeginRun();

  // --- Hooks, called by `Comm` *before* the corresponding network
  // operation (and `OnRecvMatched` right after the receive completes).

  void OnSend(int src, int dst, int tag, size_t words);
  void OnRecvPosted(int rank, int src, int tag);
  void OnRecvMatched(int rank, size_t words);
  /// Runs both barrier-entry checks; the only hook that can fail.
  void OnBarrierEnter(int rank, bool clock_sync);
  /// `Comm::MarkIteration` — advances the worker's iteration counter used
  /// to label log entries.
  void OnIteration(int rank);
  /// The worker's function returned (called by `Cluster::Run`'s wrapper).
  void OnWorkerDone(int rank);

  /// The scheduler's stall: every worker is blocked or done and nothing
  /// can release anyone. Diagnoses the most specific cause and fails the
  /// run; leaves it unfailed only when no worker is blocked in a
  /// collective the checker saw (the scheduler then aborts with its
  /// deadlock dump).
  void DiagnoseStall();

  /// True once a violation has been diagnosed. Safe in wait predicates
  /// (monotonic false -> true).
  bool failed() const { return failed_; }

  /// The first diagnosis, or OK.
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

  Worker& WorkerFor(int rank) {
    return workers_[static_cast<size_t>(rank)];
  }

  void Record(int rank, ProtocolRecord record);

  /// Latches the first diagnosis and publishes `failed_`.
  void Fail(std::string message);

  /// "worker 2: recv-wait(src=0, tag=7) at iter 3 after 41 ops" plus the
  /// trailing op log, one op per line.
  std::string DescribeWorker(int rank) const;

  const Network& network_;
  const int num_workers_;
  std::vector<Worker> workers_;

  /// Written once, together with `failed_`; immutable afterwards.
  Status status_;
  bool failed_ = false;
};

}  // namespace spardl

#endif  // SPARDL_SIMNET_PROTOCOL_CHECK_H_
