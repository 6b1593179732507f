#ifndef SPARDL_SIMNET_CLUSTER_H_
#define SPARDL_SIMNET_CLUSTER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/status.h"
#include "simnet/comm.h"
#include "simnet/network.h"
#include "simnet/protocol_check.h"
#include "topo/topology_spec.h"

namespace spardl {

/// Owns a simulated cluster: the network plus one `Comm` endpoint per
/// worker, and runs SPMD worker functions as cooperative fibers on the
/// calling thread (`CoopScheduler`).
///
/// ```
/// Cluster cluster(14, CostModel::Ethernet());                  // flat
/// Cluster racks(TopologySpec::FatTree(16, 4, 8.0));            // any fabric
/// cluster.Run([&](Comm& comm) { ... SPMD code ... });
/// double t = cluster.MaxSimSeconds();
/// ```
///
/// Workers block on `Comm::Recv` by yielding their fiber; one OS thread
/// carries all P of them, so a cluster needs no locks and its simulated
/// results are a pure function of the program. Independent clusters may
/// run on different threads at once (`bench::Sweep` does).
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
  /// aborting with the scheduler's deadlock dump.
  ProtocolChecker& EnableProtocolCheck();

  /// The attached verifier, or null when checking is off.
  ProtocolChecker* protocol_checker() const {
    return protocol_checker_.get();
  }

  /// Permutes the fiber schedule of every cluster constructed afterwards
  /// (see `CoopScheduler`), including clusters that library and bench code
  /// build internally: 0, the default, resumes each round's runnable
  /// workers in rank order; any other seed in a PRNG-drawn order.
  /// Simulated results must not depend on it, and the tests hold them to
  /// that. Safe to call from any thread.
  static void set_default_schedule_seed(uint64_t seed);
  static uint64_t default_schedule_seed();

  /// Runs `worker_fn(comm)` on every rank, each on its own fiber; returns
  /// when all workers finish. CHECK failures inside workers, and a
  /// collective deadlock, abort the process.
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

  std::unique_ptr<Network> network_;
  std::vector<std::unique_ptr<Comm>> comms_;
  std::unique_ptr<TraceRecorder> trace_recorder_;
  std::unique_ptr<ProtocolChecker> protocol_checker_;
  const uint64_t schedule_seed_;
  /// Set once a run returned non-OK: workers were unwound mid-collective,
  /// so inboxes/clocks are garbage and further runs must not start.
  bool poisoned_ = false;
};

}  // namespace spardl

#endif  // SPARDL_SIMNET_CLUSTER_H_
