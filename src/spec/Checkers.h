//===- Checkers.h - Linearizability and operation-level SC -----*- C++ -*-===//
//
// Both criteria ask for a sequentialization of the concurrent history that
// the sequential specification accepts:
//
//   * operation-level sequential consistency: the sequentialization only
//     has to preserve per-thread (program) order;
//   * linearizability: it must additionally preserve the real-time order
//     of non-overlapping operations.
//
// Checking is a worst-case exponential search over sequentializations
// (paper §5.2); memoisation over (linearized-set, spec-state-hash) pairs
// keeps the small client histories used in practice tractable. The search
// runs over an index view of the history (the work-stealing relaxation
// filters ops out of the view instead of copying the history), assigns
// each depth's spec state into storage it reuses, and keeps its candidate
// lists and memo in per-thread scratch, so judging a history allocates
// next to nothing.
//
//===----------------------------------------------------------------------===//

#ifndef DFENCE_SPEC_CHECKERS_H
#define DFENCE_SPEC_CHECKERS_H

#include "spec/Spec.h"
#include "vm/History.h"

#include <string>
#include <vector>

namespace dfence::spec {

/// Limits for the exponential searches.
struct CheckerLimits {
  /// Histories longer than this are rejected by reportFatalError (client
  /// too big). serve::prepareJob, the request path of `dfence serve`,
  /// `dfence synth` and `dfence bench`, rejects an sc/lin client with more
  /// calls than this before the checker sees it.
  size_t MaxOps = 40;
  /// Search budget in visited states. A search that exhausts it accepts
  /// the history and says so (CheckResult::OutOfBudget).
  size_t MaxVisitedStates = 4u << 20;
};

/// Which sequentializations a check accepts.
enum class Criterion : uint8_t {
  /// Operation-level sequential consistency: per-thread order only.
  SequentialConsistency,
  /// Linearizability: per-thread and real-time order.
  Linearizability,
  /// Linearizability after the work-stealing EMPTY relaxation: the ops
  /// isConcurrentEmptyWsqOp selects are left out of the search.
  RelaxedLinearizability,
};

/// The verdict of one check.
struct CheckResult {
  bool Ok = true;
  /// The search ran out of CheckerLimits::MaxVisitedStates before it
  /// found a sequentialization or refuted them all; Ok is then true (the
  /// search accepts rather than invent a violation).
  bool OutOfBudget = false;
};

/// Searches for a sequentialization of \p H that preserves the orders
/// \p C requires and that the spec from \p Factory accepts. All
/// operations in \p H must be complete. Thread-safe: each thread reuses
/// its own search scratch, so a check allocates only its spec states'
/// growth and one initial state.
CheckResult checkHistory(const vm::History &H, const SpecFactory &Factory,
                         Criterion C, const CheckerLimits &Limits = {});

/// Returns true when \p H is linearizable w.r.t. \p Factory.
/// All operations in \p H must be complete.
bool isLinearizable(const vm::History &H, const SpecFactory &Factory,
                    const CheckerLimits &Limits = {});

/// Returns true when \p H is (operation-level) sequentially consistent
/// w.r.t. \p Factory: some interleaving respecting only per-thread order
/// is accepted by the spec.
bool isSequentiallyConsistent(const vm::History &H,
                              const SpecFactory &Factory,
                              const CheckerLimits &Limits = {});

/// The work-stealing EMPTY relaxation's filter: true when op \p I of \p H
/// is a take/steal that returned EMPTY *while overlapping another
/// operation in real time*. Such ops behave as aborts — they may
/// linearize anywhere — so Criterion::RelaxedLinearizability leaves them
/// out. An EMPTY take/steal that overlaps nothing must genuinely have seen
/// an empty queue (this is exactly the paper's Fig. 2c argument, which
/// only flags the non-overlapping EMPTY steal as a linearizability
/// violation). Operations with other names (dequeue, contains, ...) are
/// never selected.
bool isConcurrentEmptyWsqOp(const vm::History &H, size_t I);

/// The "no garbage tasks" safety property used for the idempotent
/// work-stealing queues: every value returned by a consuming operation
/// (take/steal/dequeue) is either EMPTY or was previously an argument of a
/// producing operation (put/enqueue). Duplicates are allowed (idempotent
/// semantics). Returns an empty string when the property holds, otherwise
/// a description of the violation.
std::string checkNoGarbageTasks(const vm::History &H);

} // namespace dfence::spec

#endif // DFENCE_SPEC_CHECKERS_H
