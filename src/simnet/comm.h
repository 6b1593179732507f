#ifndef SPARDL_SIMNET_COMM_H_
#define SPARDL_SIMNET_COMM_H_

#include <cstddef>
#include <span>
#include <utility>

#include "common/logging.h"
#include "obs/trace.h"
#include "simnet/comm_stats.h"
#include "simnet/network.h"
#include "simnet/protocol_check.h"
#include "topo/placement.h"

namespace spardl {

/// One worker's endpoint into the simulated cluster: point-to-point
/// messaging plus the worker's simulated clock.
///
/// Clock semantics (the α-β model, §II of the paper):
///  * `Send` is free for the sender (full-duplex single-port: injecting a
///    message overlaps with whatever the sender does next) and stamps the
///    packet with the sender's current clock.
///  * `Recv` advances the receiver to
///    `max(local_clock, sent_at) + alpha + beta * words` — a message cannot
///    be consumed before it was produced, and every receive pays one alpha
///    plus beta per word. Receives therefore serialise on the receiver,
///    which reproduces the paper's `P*alpha` charge for direct-send phases
///    and the `log P * alpha` charge for exchange-round algorithms.
///  * `Compute` charges local (non-communication) simulated time.
///
/// The `alpha + beta * words` charge above is the default flat fabric; a
/// `Network` built over a non-flat `Topology` instead charges per-hop
/// latencies plus bottleneck serialization with shared-link queueing (see
/// `topo/topology.h`). The "cannot consume before produced" and
/// receiver-serialisation rules hold on every fabric.
///
/// All SparDL algorithms and baselines are written SPMD against this class,
/// exactly as they would be against an MPI communicator.
class Comm {
 public:
  Comm(Network* network, int rank)
      : network_(network), rank_(rank), size_(network->size()) {}

  Comm(const Comm&) = delete;
  Comm& operator=(const Comm&) = delete;

  int rank() const { return rank_; }
  int size() const { return size_; }

  double sim_now() const { return sim_now_; }
  CommStats& stats() { return stats_; }
  const CommStats& stats() const { return stats_; }

  /// The span recorder attached by `Cluster::EnableTracing` (null = off,
  /// the default; every record site is gated on this pointer).
  TraceRecorder* tracer() const { return tracer_; }
  void set_tracer(TraceRecorder* tracer) { tracer_ = tracer; }

  /// The SPMD protocol verifier attached by
  /// `Cluster::EnableProtocolCheck` (null = off, the default). Every
  /// collective op is reported to it *before* the network operation, so
  /// divergences are diagnosed instead of deadlocking.
  ProtocolChecker* protocol_checker() const { return protocol_; }
  void set_protocol_checker(ProtocolChecker* checker) {
    protocol_ = checker;
  }

  /// The phase tag `Recv` charges its wait under right now (maintained by
  /// `TraceScope`, always — the breakdown survives with tracing off).
  Phase phase() const { return phase_; }

  /// Sends `payload` to `dst`. Never blocks. `words_override`, when
  /// non-zero, replaces the payload's natural wire size — used to model
  /// alternative encodings (e.g. TopkDSA shipping a densified block as
  /// `width` dense words instead of `2 * nnz` COO words).
  void Send(int dst, Payload payload, int tag = 0,
            size_t words_override = 0) {
    SPARDL_DCHECK(dst != rank_) << "self-send";
    const size_t words =
        words_override != 0 ? words_override : PayloadWords(payload);
    stats_.messages_sent += 1;
    stats_.words_sent += words;
    if (tracer_ != nullptr) {
      tracer_->RecordWorker(
          rank_, TraceSpan{rank_, kStreamMain, phase_, "send", dst, -1,
                           sim_now_, sim_now_, words * sizeof(float)});
    }
    if (protocol_ != nullptr) protocol_->OnSend(rank_, dst, tag, words);
    network_->Post(rank_, dst,
                   Packet{std::move(payload), words, sim_now_, tag});
  }

  /// Blocks until a message with `tag` arrives from `src`; advances the
  /// clock per the network's topology cost model and returns the payload.
  /// On the default flat fabric this is exactly the legacy α-β charge;
  /// other topologies add per-hop latency and shared-link queueing,
  /// accounted by the event engine.
  Payload Recv(int src, int tag = 0) {
    SPARDL_DCHECK(src != rank_) << "self-recv";
    if (protocol_ != nullptr) protocol_->OnRecvPosted(rank_, src, tag);
    Network::Delivered delivered =
        network_->RecvPacket(src, rank_, tag, sim_now_);
    if (protocol_ != nullptr) {
      protocol_->OnRecvMatched(rank_, delivered.packet.words);
    }
    const double before = sim_now_;
    sim_now_ = delivered.delivery_time;
    stats_.messages_received += 1;
    stats_.words_received += delivered.packet.words;
    stats_.comm_seconds += sim_now_ - before;
    stats_.phase_seconds[static_cast<size_t>(phase_)] += sim_now_ - before;
    if (tracer_ != nullptr) {
      tracer_->RecordWorker(
          rank_, TraceSpan{rank_, kStreamMain, phase_, "recv", src, -1,
                           before, sim_now_,
                           delivered.packet.words * sizeof(float)});
      // Delivery metadata in the same order as the "recv" spans above:
      // the analysis layer zips the two sequences by ordinal to pair a
      // wait with its flow's dependency record.
      tracer_->RecordRecv(
          rank_, RecvRecord{src, delivered.packet.flow,
                            delivered.packet.sent_at,
                            delivered.packet.words});
    }
    return std::move(delivered.packet.payload);
  }

  /// Typed receive; CHECK-fails if the payload holds a different type.
  template <typename T>
  T RecvAs(int src, int tag = 0) {
    Payload payload = Recv(src, tag);
    T* value = std::get_if<T>(&payload);
    SPARDL_CHECK(value != nullptr)
        << "rank " << rank_ << ": payload type mismatch from " << src;
    return std::move(*value);
  }

  /// Charges `seconds` of local computation to the simulated clock.
  void Compute(double seconds) {
    SPARDL_DCHECK(seconds >= 0.0);
    const double before = sim_now_;
    sim_now_ += seconds;
    stats_.compute_seconds += seconds;
    stats_.phase_seconds[static_cast<size_t>(Phase::kCompute)] += seconds;
    if (tracer_ != nullptr) {
      tracer_->RecordWorker(
          rank_, TraceSpan{rank_, kStreamMain, Phase::kCompute, "compute",
                           -1, -1, before, sim_now_, 0});
    }
  }

  /// Advance-only clock move: waits (idle) until simulated time `t`,
  /// no-op when the clock is already past it. Charged to neither comm nor
  /// compute — it models the communication stream sitting idle until a
  /// gradient bucket becomes ready. Never moves the clock backwards, so
  /// send timestamps stay monotonic per worker (the event engine's safety
  /// assumption).
  void AdvanceClockTo(double t) {
    if (t <= sim_now_) return;
    const double before = sim_now_;
    sim_now_ = t;
    stats_.phase_seconds[static_cast<size_t>(Phase::kOverlapIdle)] +=
        sim_now_ - before;
    if (tracer_ != nullptr) {
      tracer_->RecordWorker(
          rank_, TraceSpan{rank_, kStreamMain, Phase::kOverlapIdle, "idle",
                           -1, -1, before, sim_now_, 0});
    }
  }

  /// Accounts `seconds` of computation that overlaps communication: the
  /// stats line is charged but the clock does not move. The bucketed
  /// trainer tracks the compute timeline arithmetically (per-layer slices)
  /// and folds it into the clock via `AdvanceClockTo`, so charging the
  /// clock here as well would double-count.
  void ChargeOverlappedCompute(double seconds) {
    SPARDL_DCHECK(seconds >= 0.0);
    stats_.compute_seconds += seconds;
    stats_.phase_seconds[static_cast<size_t>(Phase::kCompute)] += seconds;
  }

  /// Rendezvous with all workers (no simulated-time effect).
  void Barrier() {
    if (protocol_ != nullptr) {
      protocol_->OnBarrierEnter(rank_, /*clock_sync=*/false);
      ThrowIfProtocolFailed();
    }
    network_->BarrierWait();
  }

  /// Rendezvous and align every worker's clock to the cluster-wide max —
  /// the synchronisation point at the end of an S-SGD iteration.
  void BarrierSyncClocks() {
    if (protocol_ != nullptr) {
      protocol_->OnBarrierEnter(rank_, /*clock_sync=*/true);
      ThrowIfProtocolFailed();
    }
    const double before = sim_now_;
    sim_now_ = network_->MaxClockSync(sim_now_);
    stats_.phase_seconds[static_cast<size_t>(Phase::kBarrier)] +=
        sim_now_ - before;
    if (tracer_ != nullptr) {
      tracer_->RecordWorker(
          rank_, TraceSpan{rank_, kStreamMain, Phase::kBarrier,
                           "barrier-sync", -1, -1, before, sim_now_, 0});
    }
  }

  /// Marks an iteration boundary for the time-series recorder: snapshots
  /// this worker's clock and cumulative counters. No-op with tracing off
  /// (the boundary carries no simulated-time cost either way). Call from
  /// the training/measurement loop once per iteration, before the final
  /// clock-sync barrier so cross-worker skew is still visible.
  void MarkIteration() {
    if (protocol_ != nullptr) protocol_->OnIteration(rank_);
    if (tracer_ == nullptr) return;
    IterationMark mark;
    mark.sim_now = sim_now_;
    mark.comm_seconds = stats_.comm_seconds;
    mark.compute_seconds = stats_.compute_seconds;
    mark.phase_seconds = stats_.phase_seconds;
    tracer_->MarkIteration(rank_, mark);
  }

  /// Test/bench hook: reset the clock (call on all ranks between runs).
  void ResetClock(double value = 0.0) { sim_now_ = value; }

 private:
  friend class CommGroup;
  friend class TraceScope;

  /// Unwinds this worker once its barrier entry was diagnosed, waking
  /// every peer still blocked in the network so they unwind too. The
  /// exception is caught by `Cluster::Run`, which returns the diagnosis as
  /// a `Status`.
  void ThrowIfProtocolFailed() {
    if (protocol_->failed()) {
      network_->InterruptWaiters();
      throw ProtocolViolation(protocol_->status());
    }
  }

  Network* network_;
  int rank_;
  int size_;
  double sim_now_ = 0.0;
  CommStats stats_;
  TraceRecorder* tracer_ = nullptr;
  ProtocolChecker* protocol_ = nullptr;
  Phase phase_ = Phase::kUntagged;
};

/// RAII phase scope: swaps the `Comm`'s current phase for its lifetime and
/// — when tracing is enabled — records one span covering the scoped
/// simulated-time interval on destruction. Always-on cost is two enum
/// writes and a clock read; no allocation either way (`name` must be a
/// string literal, `a`/`b` carry step/bucket indices for display).
///
/// Scopes follow the call stack over a per-worker monotonic clock, so
/// recorded spans nest and never partially overlap within a worker's
/// stream — the invariant the trace tests pin.
class TraceScope {
 public:
  TraceScope(Comm& comm, Phase phase, const char* name, int a = -1,
             int b = -1)
      : comm_(comm),
        prev_(comm.phase_),
        phase_(phase),
        name_(name),
        a_(a),
        b_(b),
        t0_(comm.sim_now()) {
    comm_.phase_ = phase;
  }

  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

  ~TraceScope() {
    comm_.phase_ = prev_;
    if (comm_.tracer_ != nullptr) {
      comm_.tracer_->RecordWorker(
          comm_.rank_, TraceSpan{comm_.rank_, kStreamMain, phase_, name_, a_,
                                 b_, t0_, comm_.sim_now()});
    }
  }

 private:
  Comm& comm_;
  Phase prev_;
  Phase phase_;
  const char* name_;
  int a_;
  int b_;
  double t0_;
};

/// A group view over a communicator: group position i is global rank
/// `GlobalRank(i)`. SparDL's team-based algorithms (SRS within a team, SAG
/// across teams) run on groups.
///
/// Non-owning: a group points into a layout its cluster's network plans
/// once and keeps (`Network::TeamLayout`), so it is valid while the
/// cluster lives, and building one allocates nothing once that layout is
/// planned.
class CommGroup {
 public:
  /// The whole cluster as one group: the (1 team, contiguous) layout.
  static CommGroup World(const Comm& comm);

  /// This worker's team when the cluster's workers are laid out in
  /// `num_teams` teams under `policy` (members in position order).
  /// CHECK-fails unless `num_teams` divides comm.size() — validate at the
  /// config boundary (`AlgorithmConfig::Validate`) for a recoverable
  /// error.
  static CommGroup Team(const Comm& comm, int num_teams,
                        PlacementPolicy policy);

  /// The cross-team group of the workers sharing this worker's in-team
  /// position under the same layout (one worker per team, ordered by team
  /// id; my_pos is this worker's team) — the SAG companion of `Team`.
  static CommGroup CrossTeam(const Comm& comm, int num_teams,
                             PlacementPolicy policy);

  int size() const { return size_; }
  /// This worker's position in the group.
  int my_pos() const { return my_pos_; }
  int GlobalRank(int pos) const {
    return first_[static_cast<ptrdiff_t>(pos) * stride_];
  }

 private:
  CommGroup(const int* first, int size, int stride, int my_pos)
      : first_(first), size_(size), stride_(stride), my_pos_(my_pos) {}

  /// Position 0's entry in the layout's member table; position i sits
  /// `i * stride_` entries on.
  const int* first_;
  int size_;
  int stride_;
  int my_pos_;
};

}  // namespace spardl

#endif  // SPARDL_SIMNET_COMM_H_
