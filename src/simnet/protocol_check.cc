#include "simnet/protocol_check.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/logging.h"

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

ProtocolChecker::ProtocolChecker(int num_workers)
    : num_workers_(num_workers) {
  SPARDL_CHECK_GE(num_workers_, 1);
  workers_.resize(static_cast<size_t>(num_workers_));
  channels_.resize(static_cast<size_t>(num_workers_) *
                   static_cast<size_t>(num_workers_));
}

void ProtocolChecker::BeginRun() {
  SPARDL_CHECK(!failed())
      << "ProtocolChecker reused after a violation; the cluster's "
         "simulated state is inconsistent past the first diagnosis";
  for (Worker& worker : workers_) worker = Worker{};
  for (auto& channel : channels_) channel.clear();
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
  Channel(src, dst).push_back(PendingSend{tag, words});
}

void ProtocolChecker::OnRecvPosted(int rank, int src, int tag) {
  if (failed()) return;
  Record(rank, ProtocolRecord{ProtocolOp::kRecv, src, tag, 0, 0});
  Worker& worker = WorkerFor(rank);
  worker.state = WorkerState::kRecvWait;
  worker.wait_peer = src;
  worker.wait_tag = tag;
  CheckStuck();
}

void ProtocolChecker::OnRecvMatched(int rank, int src, int tag,
                                    size_t words) {
  if (failed()) return;
  Worker& worker = WorkerFor(rank);
  worker.state = WorkerState::kRunning;
  // Backfill the element count onto the recv record made at post time.
  if (!worker.log.empty() && worker.log.back().op == ProtocolOp::kRecv) {
    worker.log.back().words = words;
  }
  // Consume the matched send, mirroring the inbox's semantics exactly:
  // first queued send with this tag, skipping other tags (FIFO per tag).
  auto& channel = Channel(src, rank);
  const auto it =
      std::find_if(channel.begin(), channel.end(),
                   [tag](const PendingSend& s) { return s.tag == tag; });
  SPARDL_CHECK(it != channel.end())
      << "protocol checker out of sync: worker " << rank
      << " received tag " << tag << " from " << src
      << " with no recorded unmatched send";
  channel.erase(it);
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
  if (!all_waiting) {
    // Some peer is done (the barrier can then never complete) or still
    // blocked elsewhere — let the global progress check decide.
    CheckStuck();
    return;
  }
  // Logical completion (we are the last arriver; the network barrier we
  // are about to enter will release everyone). A clock-sync barrier is an
  // iteration boundary: every send must have found its receive by now, so
  // surviving unmatched sends are a peer asymmetry — diagnose them here
  // rather than as a confusing tag mismatch an iteration later.
  if (clock_sync) {
    for (int src = 0; src < num_workers_; ++src) {
      for (int dst = 0; dst < num_workers_; ++dst) {
        const auto& channel = Channel(src, dst);
        if (channel.empty()) continue;
        Fail(
            "peer asymmetry: " + std::to_string(channel.size()) +
            " unmatched send(s) from worker " + std::to_string(src) +
            " to worker " + std::to_string(dst) + " (first: tag=" +
            std::to_string(channel.front().tag) + ", words=" +
            std::to_string(channel.front().words) +
            ") at a clock-sync barrier — the receiver never posted a "
            "matching recv this iteration\n" +
            DescribeWorker(src) + DescribeWorker(dst));
        return;
      }
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
  CheckStuck();
}

bool ProtocolChecker::RecvSatisfiable(int rank) const {
  const Worker& worker = workers_[static_cast<size_t>(rank)];
  const auto& channel =
      channels_[static_cast<size_t>(worker.wait_peer) *
                    static_cast<size_t>(num_workers_) +
                static_cast<size_t>(rank)];
  return std::any_of(channel.begin(), channel.end(),
                     [&worker](const PendingSend& s) {
                       return s.tag == worker.wait_tag;
                     });
}

void ProtocolChecker::CheckStuck() {
  if (failed()) return;
  bool all_done = true;
  for (const Worker& worker : workers_) {
    if (worker.state == WorkerState::kRunning) return;  // progress possible
    if (worker.state != WorkerState::kDone) all_done = false;
  }
  if (all_done) return;
  for (int rank = 0; rank < num_workers_; ++rank) {
    if (WorkerFor(rank).state == WorkerState::kRecvWait &&
        RecvSatisfiable(rank)) {
      return;  // that receive will complete and its worker will run
    }
  }
  // Stuck: every worker is blocked or done, no wait is satisfiable, and
  // at least one worker is not done. Pick the most specific diagnosis.
  int victim = -1;
  int peer = -1;
  std::string reason;
  for (int rank = 0; rank < num_workers_ && victim < 0; ++rank) {
    const Worker& worker = WorkerFor(rank);
    if (worker.state != WorkerState::kRecvWait) continue;
    const auto& channel = Channel(worker.wait_peer, rank);
    if (!channel.empty()) {
      // Sends exist on the waited-on channel but none carries the awaited
      // tag: the classic mismatched-tag divergence.
      std::string tags;
      for (const PendingSend& s : channel) {
        if (!tags.empty()) tags += ", ";
        tags += std::to_string(s.tag);
      }
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
