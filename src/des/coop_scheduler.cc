#include "des/coop_scheduler.h"

#include <algorithm>

#include "common/logging.h"
#include "common/random.h"
#include "des/event_engine.h"

namespace spardl {

namespace {

/// The scheduler whose fiber is running on this OS thread (null on a
/// plain thread). One level only: schedulers do not nest.
thread_local CoopScheduler* g_current_scheduler = nullptr;

}  // namespace

CoopScheduler::CoopScheduler() = default;
CoopScheduler::~CoopScheduler() = default;

CoopScheduler* CoopScheduler::Current() { return g_current_scheduler; }

void CoopScheduler::Run(int num_workers, EventEngine* engine,
                        const std::function<void(int)>& body,
                        uint64_t schedule_seed,
                        const std::function<void()>& on_stall) {
  SPARDL_CHECK(g_current_scheduler == nullptr)
      << "nested CoopScheduler::Run";
  SPARDL_CHECK_GE(num_workers, 1);
  engine_ = engine;
  slots_.clear();
  slots_.resize(static_cast<size_t>(num_workers));
  runnable_.clear();
  woken_.clear();
  wake_all_ = false;
  for (int rank = 0; rank < num_workers; ++rank) {
    slots_[static_cast<size_t>(rank)].fiber =
        std::make_unique<Fiber>([rank, &body] { body(rank); });
    runnable_.push_back(rank);
  }
  Rng shuffle(schedule_seed);
  g_current_scheduler = this;
  int done = 0;
  while (done < num_workers) {
    // Run every runnable worker once, in rank order (or the seeded
    // permutation of it). A worker returns control only by blocking
    // (state -> kWaiting) or finishing; `Wake` only marks, so the list
    // cannot grow during the round.
    std::sort(runnable_.begin(), runnable_.end());
    if (schedule_seed != 0) {
      for (size_t i = runnable_.size(); i > 1; --i) {
        std::swap(runnable_[i - 1], runnable_[shuffle.NextBounded(i)]);
      }
    }
    for (const int rank : runnable_) {
      WorkerSlot& slot = slots_[static_cast<size_t>(rank)];
      current_ = rank;
      slot.fiber->Resume();
      current_ = -1;
      if (slot.fiber->finished()) {
        slot.state = State::kDone;
        ++done;
      }
    }
    runnable_.clear();
    if (done >= num_workers) break;
    if (WakeReadyWaiters()) continue;
    if (engine_ != nullptr && PumpEngine()) continue;
    CheckNoMissedWakeUp();
    if (on_stall) {
      // A diagnosis flips the flag every wait predicate polls, so the
      // waiters unwind exactly as after an interrupt.
      on_stall();
      WakeAll();
      if (WakeReadyWaiters()) continue;
    }
    DiagnoseDeadlock();
  }
  g_current_scheduler = nullptr;
  engine_ = nullptr;
  slots_.clear();
}

void CoopScheduler::Wait(const std::function<bool()>& pred,
                         const std::function<std::string()>& describe) {
  SPARDL_CHECK(g_current_scheduler == this && current_ >= 0)
      << "CoopScheduler::Wait outside a worker fiber";
  WorkerSlot& slot = slots_[static_cast<size_t>(current_)];
  while (!pred()) {
    slot.state = State::kWaiting;
    slot.pred = &pred;
    slot.describe = &describe;
    slot.fiber->Yield();
    // Woken by the scheduler (state already back to kRunnable); re-check
    // the predicate like any condition wait.
    slot.pred = nullptr;
    slot.describe = nullptr;
  }
  slot.state = State::kRunnable;
}

void CoopScheduler::Wake(int rank) {
  SPARDL_DCHECK(rank >= 0 && rank < static_cast<int>(slots_.size()));
  if (slots_[static_cast<size_t>(rank)].state == State::kWaiting) {
    woken_.push_back(rank);  // may repeat: each entry costs one check
  }
}

void CoopScheduler::WakeAll() { wake_all_ = true; }

bool CoopScheduler::WakeReadyWaiters() {
  // Every fiber shares this OS thread, so nothing mutates predicate
  // state while the scheduler evaluates them.
  const auto try_wake = [this](int rank) {
    WorkerSlot& slot = slots_[static_cast<size_t>(rank)];
    if (slot.state == State::kWaiting && (*slot.pred)()) {
      slot.state = State::kRunnable;
      runnable_.push_back(rank);
    }
  };
  if (wake_all_) {
    wake_all_ = false;
    for (int rank = 0; rank < static_cast<int>(slots_.size()); ++rank) {
      try_wake(rank);
    }
  } else {
    for (const int rank : woken_) try_wake(rank);
  }
  woken_.clear();
  return !runnable_.empty();
}

bool CoopScheduler::PumpEngine() {
  // Every worker is blocked, so this is exactly the engine's quiescent
  // cut (see EventEngine), hence the deterministic (time, key) event
  // order. Pumping pauses as soon as a resolution makes its receiver
  // runnable: that worker may inject new, earlier-keyed flows that must
  // precede later queue entries.
  const uint64_t p = slots_.size();
  while (!engine_->QueueEmpty()) {
    const uint64_t resolved = engine_->PumpOne();
    if (resolved == 0) continue;
    // The key's upper half is src*P + dst: only dst waits on this flow.
    Wake(static_cast<int>((resolved >> 32) % p));
    if (WakeReadyWaiters()) return true;
  }
  return false;
}

void CoopScheduler::CheckNoMissedWakeUp() const {
  // Stall path only, so the full scan is free: a waiter that is in fact
  // ready means some state change skipped its `Wake` — a scheduler bug,
  // not an SPMD deadlock.
  for (size_t rank = 0; rank < slots_.size(); ++rank) {
    const WorkerSlot& slot = slots_[rank];
    SPARDL_CHECK(slot.state != State::kWaiting || !(*slot.pred)())
        << "scheduler missed a wake-up for worker " << rank;
  }
}

void CoopScheduler::DiagnoseDeadlock() {
  std::string detail;
  int shown = 0;
  for (size_t rank = 0; rank < slots_.size(); ++rank) {
    const WorkerSlot& slot = slots_[rank];
    if (slot.state != State::kWaiting) continue;
    if (++shown > 16) {
      detail += "\n  ...";
      break;
    }
    detail += "\n  worker " + std::to_string(rank) + ": " +
              (*slot.describe)();
  }
  SPARDL_CHECK(false)
      << "cooperative scheduler stalled: no runnable worker, no ready "
         "predicate, no pumpable event — collective deadlock?"
      << detail;
  std::abort();  // unreachable; keeps [[noreturn]] honest for the compiler
}

}  // namespace spardl
