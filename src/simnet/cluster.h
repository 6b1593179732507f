#ifndef SPARDL_SIMNET_CLUSTER_H_
#define SPARDL_SIMNET_CLUSTER_H_

#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "simnet/comm.h"
#include "simnet/network.h"
#include "simnet/protocol_check.h"
#include "topo/topology_spec.h"

namespace spardl {

/// How `Cluster::Run` executes the P SPMD workers (see `Cluster`).
enum class ExecBackend {
  /// One OS thread per worker — the legacy backend. The only backend
  /// ThreadSanitizer can observe (ucontext switches are invisible to
  /// it), so TSan builds force this choice.
  kThread,
  /// All workers as stackful fibers cooperatively scheduled on the
  /// calling thread (`CoopScheduler`). Deterministic interleaving, no
  /// per-worker OS thread — the backend that scales one machine to
  /// P = 1024–4096 workers.
  kFiber,
};

/// Owns a simulated cluster: the network plus one `Comm` endpoint per
/// worker, and runs SPMD worker functions on an execution backend —
/// thread-per-worker or cooperative fibers (`ExecBackend`).
///
/// ```
/// Cluster cluster(14, CostModel::Ethernet());                  // flat
/// Cluster racks(TopologySpec::FatTree(16, 4, 8.0));            // any fabric
/// cluster.Run([&](Comm& comm) { ... SPMD code ... });
/// double t = cluster.MaxSimSeconds();
/// ```
///
/// Workers block on `Comm::Recv` (parking the thread or yielding the
/// fiber), so the cluster works — slowly but correctly — even on a
/// single hardware core.
class Cluster {
 public:
  /// Flat crossbar (the paper's model) shorthand.
  Cluster(int size, CostModel cost_model);

  /// Any fabric; CHECK-fails on an invalid spec (use `spec.Build()` first
  /// for recoverable validation).
  explicit Cluster(const TopologySpec& spec);

  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  int size() const { return static_cast<int>(comms_.size()); }
  Network& network() { return *network_; }
  const Network& network() const { return *network_; }
  Topology& topology() { return network_->topology(); }
  const Topology& topology() const { return network_->topology(); }

  Comm& comm(int rank) { return *comms_[static_cast<size_t>(rank)]; }
  const Comm& comm(int rank) const {
    return *comms_[static_cast<size_t>(rank)];
  }

  /// One worker's counters (the per-worker view of `TotalStats`).
  const CommStats& WorkerStats(int rank) const { return comm(rank).stats(); }

  /// Turns on span recording for this cluster (idempotent; off by
  /// default). Call between runs, not while workers execute. Spans
  /// accumulate across `Run` calls until `ResetClocksAndStats`.
  TraceRecorder& EnableTracing();

  /// The attached recorder, or null when tracing is off.
  TraceRecorder* tracer() const { return trace_recorder_.get(); }

  /// Turns on SPMD protocol verification for this cluster (idempotent;
  /// off by default — the hooks cost one virtualless branch each when
  /// off). Call between runs, not while workers execute. With checking
  /// on, a divergent collective schedule (mismatched tag, unequal round
  /// counts, wrong team size, mixed barrier kinds) makes `Run` return a
  /// diagnostic `Status` naming both workers' op traces instead of
  /// deadlocking until the wall-clock timeout.
  ProtocolChecker& EnableProtocolCheck();

  /// The attached verifier, or null when checking is off.
  ProtocolChecker* protocol_checker() const {
    return protocol_checker_.get();
  }

  /// The process-wide default backend: `SPARDL_EXEC_BACKEND` env
  /// ("thread" | "fiber"; CHECK-fails on anything else), else
  /// `kThread`. TSan builds always resolve to `kThread`.
  static ExecBackend DefaultExecBackend();

  /// Overrides this cluster's backend (constructed with the process
  /// default). Call between runs. Simulated results are identical on
  /// both backends — see `CoopScheduler` — so this only trades wall
  /// clock (fibers win at large P) against TSan observability.
  /// TSan builds ignore `kFiber` and keep running threads.
  void set_exec_backend(ExecBackend backend) { backend_ = backend; }
  ExecBackend exec_backend() const { return backend_; }

  /// Runs `worker_fn(comm)` on every rank concurrently; returns when all
  /// workers finish. CHECK failures inside workers abort the process.
  ///
  /// Returns OK unless protocol checking (`EnableProtocolCheck`) is on
  /// and diagnosed a divergence — then every worker is unwound and the
  /// diagnosis is returned. After a non-OK return the cluster's simulated
  /// state is inconsistent (the run never completed); calling `Run` again
  /// CHECK-fails.
  Status Run(const std::function<void(Comm&)>& worker_fn);

  /// Max simulated clock across workers (the cluster's makespan).
  double MaxSimSeconds() const;

  /// Aggregated stats across all workers.
  CommStats TotalStats() const;

  /// Max per-worker received-words (the paper's per-worker bandwidth y).
  uint64_t MaxWordsReceived() const;

  /// Max per-worker received-messages (the paper's per-worker latency x).
  uint64_t MaxMessagesReceived() const;

  /// Zeroes all clocks and stats — the event engine's per-link busy
  /// clocks and usage counters, and any recorded trace spans (between
  /// measured phases).
  void ResetClocksAndStats();

 private:
  explicit Cluster(std::unique_ptr<Network> network);

  /// The thread-per-worker `Run` body (also the TSan fallback).
  Status RunOnThreads(const std::function<void(Comm&)>& worker_fn,
                      ProtocolChecker* checker);

  /// The cooperative-fiber `Run` body.
  Status RunOnFibers(const std::function<void(Comm&)>& worker_fn,
                     ProtocolChecker* checker);

  std::unique_ptr<Network> network_;
  std::vector<std::unique_ptr<Comm>> comms_;
  std::unique_ptr<TraceRecorder> trace_recorder_;
  std::unique_ptr<ProtocolChecker> protocol_checker_;
  ExecBackend backend_ = ExecBackend::kThread;
  /// Set once a run returned non-OK: workers were unwound mid-collective,
  /// so mailboxes/clocks are garbage and further runs must not start.
  bool poisoned_ = false;
};

}  // namespace spardl

#endif  // SPARDL_SIMNET_CLUSTER_H_
