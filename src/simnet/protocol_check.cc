#include "simnet/protocol_check.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/logging.h"
#include "simnet/network.h"

namespace spardl {

namespace {

/// How many trailing ops each worker's log retains / a diagnosis prints.
/// Enough to show the full divergent round; bounded so an instrumented
/// multi-thousand-iteration bench stays O(1) memory per worker.
constexpr size_t kLogCapacity = 64;
constexpr size_t kLogPrinted = 12;

}  // namespace

std::string_view ProtocolOpName(ProtocolOp op) {
  switch (op) {
    case ProtocolOp::kSend:
      return "send";
    case ProtocolOp::kRecv:
      return "recv";
    case ProtocolOp::kBarrier:
      return "barrier";
    case ProtocolOp::kClockSync:
      return "barrier-sync";
  }
  return "?";
}

ProtocolChecker::ProtocolChecker(const Network& network)
    : network_(network), num_workers_(network.size()) {
  workers_.resize(static_cast<size_t>(num_workers_));
}

void ProtocolChecker::BeginRun() {
  SPARDL_CHECK(!failed())
      << "ProtocolChecker reused after a violation; the cluster's "
         "simulated state is inconsistent past the first diagnosis";
  for (Worker& worker : workers_) worker = Worker{};
}

void ProtocolChecker::Record(int rank, ProtocolRecord record) {
  Worker& worker = WorkerFor(rank);
  record.iteration = worker.iteration;
  ++worker.num_ops;
  worker.log.push_back(record);
  if (worker.log.size() > kLogCapacity) worker.log.pop_front();
}

void ProtocolChecker::OnSend(int src, int dst, int tag, size_t words) {
  if (failed()) return;
  Record(src, ProtocolRecord{ProtocolOp::kSend, dst, tag, words, 0});
}

void ProtocolChecker::OnRecvPosted(int rank, int src, int tag) {
  if (failed()) return;
  Record(rank, ProtocolRecord{ProtocolOp::kRecv, src, tag, 0, 0});
  Worker& worker = WorkerFor(rank);
  worker.state = WorkerState::kRecvWait;
  worker.wait_peer = src;
  worker.wait_tag = tag;
}

void ProtocolChecker::OnRecvMatched(int rank, size_t words) {
  if (failed()) return;
  Worker& worker = WorkerFor(rank);
  worker.state = WorkerState::kRunning;
  // Backfill the element count onto the recv record made at post time.
  if (!worker.log.empty() && worker.log.back().op == ProtocolOp::kRecv) {
    worker.log.back().words = words;
  }
}

void ProtocolChecker::OnBarrierEnter(int rank, bool clock_sync) {
  if (failed()) return;
  Record(rank, ProtocolRecord{clock_sync ? ProtocolOp::kClockSync
                                               : ProtocolOp::kBarrier,
                                    -1, 0, 0, 0});
  // A peer already waiting at the *other* barrier kind can never
  // rendezvous with us: Barrier and BarrierSyncClocks use separate
  // counters, so the divergence would deadlock. Diagnose immediately.
  for (int peer = 0; peer < num_workers_; ++peer) {
    const Worker& other = WorkerFor(peer);
    if (peer == rank || other.state != WorkerState::kBarrierWait ||
        other.wait_clock_sync == clock_sync) {
      continue;
    }
    Fail("collective mismatch: worker " + std::to_string(rank) +
         " entered " +
         std::string(clock_sync ? "BarrierSyncClocks" : "Barrier") +
         " while worker " + std::to_string(peer) + " waits in " +
         std::string(other.wait_clock_sync ? "BarrierSyncClocks"
                                           : "Barrier") +
         " — divergent barrier kinds can never rendezvous\n" +
         DescribeWorker(rank) + DescribeWorker(peer));
    return;
  }
  Worker& worker = WorkerFor(rank);
  worker.state = WorkerState::kBarrierWait;
  worker.wait_clock_sync = clock_sync;

  const bool all_waiting =
      std::all_of(workers_.begin(), workers_.end(), [](const Worker& w) {
        return w.state == WorkerState::kBarrierWait;
      });
  // Otherwise some peer is done (the barrier can then never complete) or
  // still blocked elsewhere — the scheduler's stall decides.
  if (!all_waiting) return;
  // Logical completion (we are the last arriver; the network barrier we
  // are about to enter will release everyone). A clock-sync barrier is an
  // iteration boundary: every send must have found its receive by now, so
  // surviving unmatched sends are a peer asymmetry — diagnose them here
  // rather than as a confusing tag mismatch an iteration later. Every
  // peer has finished its receives, so the inboxes hold exactly the
  // unmatched sends; report the lowest (src, dst) pair.
  if (clock_sync) {
    // Inboxes are scanned by ascending receiver, each in post order, so
    // the first packet seen from the lowest sender is that pair's oldest.
    const Packet* first = nullptr;
    int src = num_workers_;
    int dst = -1;
    for (int to = 0; to < num_workers_; ++to) {
      for (const Packet& packet : network_.inbox(to)) {
        if (packet.src < src) {
          first = &packet;
          src = packet.src;
          dst = to;
        }
      }
    }
    if (first != nullptr) {
      const auto& inbox = network_.inbox(dst);
      const auto count =
          std::count_if(inbox.begin(), inbox.end(),
                        [src](const Packet& p) { return p.src == src; });
      Fail("peer asymmetry: " + std::to_string(count) +
           " unmatched send(s) from worker " + std::to_string(src) +
           " to worker " + std::to_string(dst) + " (first: tag=" +
           std::to_string(first->tag) + ", words=" +
           std::to_string(first->words) +
           ") at a clock-sync barrier — the receiver never posted a "
           "matching recv this iteration\n" +
           DescribeWorker(src) + DescribeWorker(dst));
      return;
    }
  }
  for (Worker& w : workers_) w.state = WorkerState::kRunning;
}

void ProtocolChecker::OnIteration(int rank) {
  ++WorkerFor(rank).iteration;
}

void ProtocolChecker::OnWorkerDone(int rank) {
  if (failed()) return;
  WorkerFor(rank).state = WorkerState::kDone;
}

void ProtocolChecker::DiagnoseStall() {
  // Stuck: every worker is blocked or done, and no wait can be
  // satisfied. Pick the most specific diagnosis.
  int victim = -1;
  int peer = -1;
  std::string reason;
  for (int rank = 0; rank < num_workers_ && victim < 0; ++rank) {
    const Worker& worker = WorkerFor(rank);
    if (worker.state != WorkerState::kRecvWait) continue;
    // Sends from the awaited peer that none of its receives matched: at a
    // stall none carries the awaited tag — the classic mismatched-tag
    // divergence.
    std::string tags;
    for (const Packet& packet : network_.inbox(rank)) {
      if (packet.src != worker.wait_peer) continue;
      if (!tags.empty()) tags += ", ";
      tags += std::to_string(packet.tag);
    }
    if (!tags.empty()) {
      reason = "tag mismatch: worker " + std::to_string(rank) +
               " waits for tag " + std::to_string(worker.wait_tag) +
               " from worker " + std::to_string(worker.wait_peer) +
               ", but that channel only holds unmatched send(s) with "
               "tag(s) [" +
               tags + "]";
      victim = rank;
      peer = worker.wait_peer;
    }
  }
  for (int rank = 0; rank < num_workers_ && victim < 0; ++rank) {
    const Worker& worker = WorkerFor(rank);
    if (worker.state == WorkerState::kRecvWait &&
        WorkerFor(worker.wait_peer).state == WorkerState::kDone) {
      reason = "peer finished early: worker " + std::to_string(rank) +
               " waits for tag " + std::to_string(worker.wait_tag) +
               " from worker " + std::to_string(worker.wait_peer) +
               ", which already returned — divergent op counts "
               "(e.g. unequal round/team sizes)";
      victim = rank;
      peer = worker.wait_peer;
    }
  }
  for (int rank = 0; rank < num_workers_ && victim < 0; ++rank) {
    const Worker& worker = WorkerFor(rank);
    if (worker.state == WorkerState::kBarrierWait) {
      // A barrier needs every worker; someone is done or recv-stuck.
      victim = rank;
      for (int other = 0; other < num_workers_; ++other) {
        if (WorkerFor(other).state != WorkerState::kBarrierWait) {
          peer = other;
          break;
        }
      }
      reason = "incomplete barrier: worker " + std::to_string(rank) +
               " waits at " +
               std::string(worker.wait_clock_sync ? "BarrierSyncClocks"
                                                  : "Barrier") +
               " but worker " + std::to_string(peer) +
               " can never arrive";
    }
  }
  if (victim < 0) {
    // All remaining blocked workers are recv-waiting on empty channels.
    for (int rank = 0; rank < num_workers_; ++rank) {
      if (WorkerFor(rank).state == WorkerState::kRecvWait) {
        victim = rank;
        peer = WorkerFor(rank).wait_peer;
        break;
      }
    }
    // No worker waits in a collective op the checker saw (a wait that
    // bypassed `Comm`): leave the stall to the scheduler's deadlock dump.
    if (victim < 0) return;
    reason = "collective deadlock: every worker is blocked and no recorded "
             "send satisfies any pending recv (divergent schedules)";
  }
  std::string message = reason + "\n";
  message += DescribeWorker(victim);
  if (peer >= 0 && peer != victim) message += DescribeWorker(peer);
  std::ostringstream summary;
  summary << "worker states:";
  for (int rank = 0; rank < num_workers_; ++rank) {
    const Worker& worker = WorkerFor(rank);
    summary << " " << rank << "=";
    switch (worker.state) {
      case WorkerState::kRunning:
        summary << "running";
        break;
      case WorkerState::kRecvWait:
        summary << "recv-wait(src=" << worker.wait_peer
                << ",tag=" << worker.wait_tag << ")";
        break;
      case WorkerState::kBarrierWait:
        summary << (worker.wait_clock_sync ? "barrier-sync-wait"
                                           : "barrier-wait");
        break;
      case WorkerState::kDone:
        summary << "done";
        break;
    }
  }
  Fail(message + summary.str());
}

void ProtocolChecker::Fail(std::string message) {
  if (failed()) return;  // first diagnosis wins
  status_ = Status::FailedPrecondition("protocol violation: " +
                                       std::move(message));
  failed_ = true;
}

std::string ProtocolChecker::DescribeWorker(int rank) const {
  const Worker& worker = workers_[static_cast<size_t>(rank)];
  std::ostringstream out;
  out << "-- worker " << rank << " op trace (iter " << worker.iteration
      << ", " << worker.num_ops << " ops total, last "
      << std::min(worker.log.size(), kLogPrinted) << " shown):\n";
  const size_t start =
      worker.log.size() > kLogPrinted ? worker.log.size() - kLogPrinted : 0;
  for (size_t i = start; i < worker.log.size(); ++i) {
    const ProtocolRecord& record = worker.log[i];
    const uint64_t ordinal = worker.num_ops - worker.log.size() + i + 1;
    out << "   #" << ordinal << " " << ProtocolOpName(record.op);
    if (record.op == ProtocolOp::kSend) {
      out << "(dst=" << record.peer << ", tag=" << record.tag
          << ", words=" << record.words << ")";
    } else if (record.op == ProtocolOp::kRecv) {
      out << "(src=" << record.peer << ", tag=" << record.tag
          << ", words=" << record.words << ")";
    } else {
      out << "()";
    }
    out << " @iter" << record.iteration << "\n";
  }
  return out.str();
}

}  // namespace spardl
