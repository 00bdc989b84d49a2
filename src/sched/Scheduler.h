//===- Scheduler.h - Demonic scheduler plug-in interface --------*- C++ -*-===//
//
// The interpreter delegates every scheduling decision — which thread takes
// the next step, and whether/what to flush from a store buffer — to a
// Scheduler. This mirrors the paper's design where schedulers are plug-ins
// controlling both thread interleaving and the memory system's flush
// actions.
//
//===----------------------------------------------------------------------===//

#ifndef DFENCE_SCHED_SCHEDULER_H
#define DFENCE_SCHED_SCHEDULER_H

#include "ir/Instr.h"
#include "support/Rng.h"

#include <cstdint>
#include <vector>

namespace dfence::sched {

/// What the scheduler can see about one thread at a scheduling point.
struct ThreadView {
  uint32_t Tid = 0;
  /// The thread can execute an instruction (alive and not blocked).
  bool Runnable = false;
  /// Total number of buffered (pending) stores for the thread.
  size_t PendingStores = 0;
  /// Distinct shared variables with a non-empty buffer. Under PSO these
  /// are real addresses; under TSO a singleton dummy entry when non-empty.
  std::vector<ir::Word> BufferedVars;
  /// The thread's next instruction accesses shared memory (used for
  /// partial-order reduction).
  bool NextIsShared = false;
};

/// A scheduling decision.
struct Action {
  enum KindTy : uint8_t {
    StepThread, ///< Execute one instruction of thread Tid.
    Flush,      ///< Flush the oldest buffered store of thread Tid
                ///< (of variable Var when HasVar, for PSO).
  };
  KindTy Kind = StepThread;
  uint32_t Tid = 0;
  bool HasVar = false;
  ir::Word Var = 0;

  /// The thread id of exhausted(); no execution has that many threads.
  static constexpr uint32_t ExhaustedTid = ~0u;

  static Action step(uint32_t Tid) { return {StepThread, Tid, false, 0}; }
  /// A scheduler with no decision left (a strict replay past the end of
  /// its trace) returns this; the engine ends the execution as a
  /// Deadlock reporting "replay trace exhausted".
  static Action exhausted() { return step(ExhaustedTid); }
  static Action flush(uint32_t Tid) { return {Flush, Tid, false, 0}; }
  static Action flushVar(uint32_t Tid, ir::Word Var) {
    return {Flush, Tid, true, Var};
  }
};

/// Scheduler plug-in interface.
///
/// pick() is called at every scheduling point with a view of all threads,
/// indexed by thread id (Threads[I].Tid == I); at least one thread is
/// runnable or has pending stores. The returned action must reference
/// such a thread. Randomness must come from \p R so executions replay
/// deterministically from a seed.
///
/// Local runs: right after pick() returned a step, the engine may take up
/// to localGrant() further steps of that thread without calling pick(),
/// for as long as the thread's next instruction is thread-local, and then
/// reports how many it took through tookLocal(). A scheduler may grant
/// only steps its own pick() would return, one pick per step, so taking
/// a grant is invisible in the execution. 0 — the default — asks pick()
/// at every scheduling point.
class Scheduler {
public:
  virtual ~Scheduler();

  virtual Action pick(const std::vector<ThreadView> &Threads, Rng &R) = 0;

  /// Called before each execution starts.
  virtual void reset() {}

  /// Steps of the thread pick() just stepped that the engine may take
  /// without asking; see the class comment.
  virtual uint32_t localGrant() const { return 0; }
  /// Records \p N granted steps taken, as N pick() calls would have.
  virtual void tookLocal(uint32_t /*N*/) {}
};

} // namespace dfence::sched

#endif // DFENCE_SCHED_SCHEDULER_H
