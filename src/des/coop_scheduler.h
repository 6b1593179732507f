#ifndef SPARDL_DES_COOP_SCHEDULER_H_
#define SPARDL_DES_COOP_SCHEDULER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "des/fiber.h"

namespace spardl {

class EventEngine;

/// The execution engine of `Cluster::Run`: P SPMD workers as stackful
/// fibers multiplexed on the *calling* OS thread (the carrier), which
/// scales one machine to P = 1024–4096 workers.
///
/// Scheduling model. A worker keeps the carrier until it blocks (`Wait`)
/// or finishes. Each round resumes the list of runnable ranks, in rank
/// order (or in a seeded permutation, below). When it is empty the
/// scheduler (1) re-checks the predicates of the waiters some event has
/// marked with `Wake`/`WakeAll` and makes the ready ones runnable, and
/// otherwise (2) pumps the event engine until a resolution readies some
/// waiter. If neither helps, the run has stalled: the SPMD program is
/// deadlocked. The scheduler is the one place that decides this. It
/// first checks that no waiter is in fact ready (a missed wake-up, a
/// scheduler bug), then calls the optional stall callback (`Cluster::Run`
/// wires the protocol checker's diagnosis to it) and wakes every waiter;
/// if the callback made some wait predicate true, those workers unwind
/// as after any interrupt. Otherwise it aborts immediately with every
/// waiter's diagnostic.
///
/// Targeted wake-ups. A predicate is only re-evaluated after an event
/// that can make it true, so one message costs O(1) scheduler work, not
/// a scan of all P waiters. There are four such events, and each names
/// whom it releases:
///   - the engine resolves a flow: `PumpEngine` wakes its receiver;
///   - a packet lands in a flat-fabric inbox: `Network::Post` wakes its
///     owner, the only worker that waits on it;
///   - a barrier or clock-sync round completes: its last arriver calls
///     `WakeAll` (every other worker is a participant);
///   - a protocol violation: `Network::InterruptWaiters` calls `WakeAll`
///     (at a stall, the scheduler wakes everyone after the callback).
/// A new wait site whose predicate can become true some other way must
/// add the matching `Wake`; a missed one aborts at the stall with
/// "scheduler missed a wake-up" rather than a false deadlock report.
/// Because every ready waiter is marked, the woken set at each decision
/// point equals a full scan's, and so does the schedule.
///
/// Determinism. Simulated results depend only on the blocking points and
/// the engine's `(time, key)` event order, never on which runnable
/// worker goes first within a round. A nonzero `schedule_seed` makes
/// that explicit: each round's runnable workers are resumed in an order
/// permuted by a PRNG with that seed, and the tests require every seed to
/// reproduce seed 0 (rank order) bit for bit, so an order dependence
/// fails a test instead of hiding behind one fixed schedule.
///
/// Threading. One scheduler runs on one carrier thread and holds no
/// locks: every fiber shares that thread, so predicates and network state
/// are only ever touched by whoever is running. `Current` is
/// thread-local, so independent simulations may run on parallel carriers
/// (`bench::Sweep` does) as long as they share no mutable state.
class CoopScheduler {
 public:
  CoopScheduler();
  ~CoopScheduler();

  CoopScheduler(const CoopScheduler&) = delete;
  CoopScheduler& operator=(const CoopScheduler&) = delete;

  /// Runs `body(rank)` for every rank in [0, num_workers) to
  /// completion on fibers. `engine` is the fabric's event engine, or
  /// null on flat (nothing to pump; waiters are only released by other
  /// workers' actions). `schedule_seed` 0 resumes each round in rank
  /// order; any other value in a permutation drawn from a PRNG with that
  /// seed. `on_stall`, if set, is called on the carrier when the run
  /// stalls, before the deadlock abort; to end the stall it must make
  /// some waiter's predicate true. Not reentrant.
  void Run(int num_workers, EventEngine* engine,
           const std::function<void(int)>& body, uint64_t schedule_seed = 0,
           const std::function<void()>& on_stall = nullptr);

  /// From inside a worker fiber: cooperatively blocks until `pred()`
  /// returns true. `describe` is only invoked for the deadlock
  /// diagnostic. Both references must stay valid across the wait (they
  /// live in the caller's suspended frame).
  void Wait(const std::function<bool()>& pred,
            const std::function<std::string()>& describe);

  /// Marks `rank` as possibly ready: its predicate is re-checked at the
  /// next decision point. Call after any state change that can make
  /// that worker's wait predicate true. A no-op unless `rank` is waiting
  /// (a runnable worker checks its predicate before it waits).
  void Wake(int rank);

  /// Marks every waiter as possibly ready (one full predicate scan at
  /// the next decision point). For events that release all workers.
  void WakeAll();

  /// The scheduler driving the calling thread's current fiber, or null
  /// outside any fiber — the branch `Network::Wait` takes between a
  /// cooperative yield and pumping the event engine in place.
  static CoopScheduler* Current();

 private:
  enum class State : uint8_t { kRunnable, kWaiting, kDone };

  struct WorkerSlot {
    std::unique_ptr<Fiber> fiber;
    State state = State::kRunnable;
    /// Valid while kWaiting; they point into the fiber's suspended
    /// `Wait` frame.
    const std::function<bool()>* pred = nullptr;
    const std::function<std::string()>* describe = nullptr;
  };

  /// Moves every marked waiter whose predicate holds to runnable (all
  /// waiters after `WakeAll`). Returns true if any worker woke.
  bool WakeReadyWaiters();

  /// Pumps engine events until some waiter's predicate holds (or the
  /// queue drains). Returns true if a waiter is now runnable.
  bool PumpEngine();

  /// CHECK-fails with "scheduler missed a wake-up" if some waiter's
  /// predicate in fact holds at a stall.
  void CheckNoMissedWakeUp() const;

  /// Aborts with every waiter's diagnostic.
  [[noreturn]] void DiagnoseDeadlock();

  std::vector<WorkerSlot> slots_;
  std::vector<int> runnable_;  // ranks to resume next round
  std::vector<int> woken_;     // waiters marked by `Wake`
  bool wake_all_ = false;
  EventEngine* engine_ = nullptr;
  int current_ = -1;  // rank of the running fiber, -1 in the scheduler
};

}  // namespace spardl

#endif  // SPARDL_DES_COOP_SCHEDULER_H_
