#ifndef SPARDL_COMMON_LOCKCHECK_H_
#define SPARDL_COMMON_LOCKCHECK_H_

#include <mutex>
#include <string>
#include <vector>

namespace spardl {
namespace lockcheck {

/// Debug-build lock-order ("deadlock potential") detection.
///
/// The simulator holds real OS mutexes across its hot synchronisation
/// paths — the event-engine mutex, the per-inbox and sync mutexes of
/// `Network`, and the protocol checker's mutex. A lock-order inversion
/// between any two of those families would be a *potential* deadlock that
/// only manifests under a losing thread interleaving, i.e. exactly the
/// kind of bug that ships silently. `OrderedMutex` instruments each
/// acquisition against a global lock-acquisition-order graph: the first
/// time family A is held while family B is acquired, the directed edge
/// A -> B is recorded; an acquisition that would close a cycle
/// CHECK-fails immediately — on the *first* run that exhibits the order,
/// not the first run that loses the race.
///
/// Cost model: tracking is compiled in when `SPARDL_LOCKCHECK` is defined
/// or `NDEBUG` is not (debug and sanitizer builds); release builds keep
/// only an untaken null-pointer branch per lock/unlock. A `Graph` can
/// also be instantiated directly — with mutexes constructed against it,
/// tracking is unconditional. That is the test seam: the inversion unit
/// test provokes a cycle through a private graph in every build type
/// without touching the global registry.

/// Lock-acquisition-order graph over mutex *families* (all mutexes
/// registered under one name share a node — e.g. every per-inbox mutex
/// is one family). Thread-safe; acquisition stacks are tracked
/// per-thread, per-graph.
class Graph {
 public:
  Graph() = default;

  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;

  /// Returns the id for `name`, registering it on first use. Ids are
  /// stable for the graph's lifetime.
  int RegisterFamily(const std::string& name);

  /// Records that the calling thread is about to acquire a mutex of
  /// `family` while holding whatever this graph's per-thread stack says
  /// it holds. Adds held -> family edges; CHECK-fails (aborts) when an
  /// edge would close a cycle — the message names the offending edge
  /// pair — or when `family` is already held (self-nesting within a
  /// family is an inversion against itself).
  void OnAcquire(int family);

  /// Pops the most recent acquisition of `family` from the calling
  /// thread's stack (out-of-order release is allowed).
  void OnRelease(int family);

  /// The process-wide graph used by globally-registered mutexes.
  static Graph& Global();

 private:
  /// True when `to` can already reach `from` through recorded edges
  /// (adding from -> to would close a cycle). Caller holds `mu_`.
  bool ReachableLocked(int from, int to) const;

  mutable std::mutex mu_;
  std::vector<std::string> families_;
  std::vector<std::vector<bool>> edges_;  // edges_[from][to]
};

/// A `std::mutex` whose acquisitions are checked against a lock-order
/// `Graph`. Satisfies BasicLockable, so `std::lock_guard`,
/// `std::unique_lock` and `std::condition_variable_any` all work on it
/// (a cv wait releases and re-acquires through `unlock`/`lock`, keeping
/// the held-stack exact across the wait).
class OrderedMutex {
 public:
  /// Globally-registered mutex: tracked against `Graph::Global()` in
  /// debug/`SPARDL_LOCKCHECK` builds, a plain mutex otherwise.
  explicit OrderedMutex(const char* family);

  /// Explicit-graph mutex: always tracked, whatever the build type. This
  /// is the constructor the lock-order unit tests drive.
  OrderedMutex(Graph& graph, const char* family);

  OrderedMutex(const OrderedMutex&) = delete;
  OrderedMutex& operator=(const OrderedMutex&) = delete;

  void lock() {
    // Order edges are recorded for the *attempt*, before blocking: an
    // inversion aborts with its diagnostic even on the interleaving
    // where the two threads have already deadlocked each other.
    if (graph_ != nullptr) graph_->OnAcquire(family_);
    mu_.lock();
  }

  void unlock() {
    mu_.unlock();
    if (graph_ != nullptr) graph_->OnRelease(family_);
  }

  bool try_lock() {
    if (!mu_.try_lock()) return false;
    // A successful try_lock cannot block, but the order it witnesses is
    // still an order the code relies on — record it.
    if (graph_ != nullptr) graph_->OnAcquire(family_);
    return true;
  }

 private:
  std::mutex mu_;
  Graph* graph_ = nullptr;
  int family_ = -1;
};

}  // namespace lockcheck
}  // namespace spardl

#endif  // SPARDL_COMMON_LOCKCHECK_H_
