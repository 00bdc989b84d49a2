//===- RoundRobinScheduler.h - Deterministic baseline scheduler -*- C++ -*-===//
//
// A fully deterministic scheduler (uses no randomness): threads step in
// round-robin order, taking Quantum instructions each; buffered stores
// are flushed whenever a thread's pending count exceeds MaxPending at the
// start of its turn. Useful as a reproducible baseline and to show how
// much weaker a non-demonic scheduler is at exposing relaxed-memory
// violations (see bench/ablation_design).
//
//===----------------------------------------------------------------------===//

#ifndef DFENCE_SCHED_ROUNDROBINSCHEDULER_H
#define DFENCE_SCHED_ROUNDROBINSCHEDULER_H

#include "sched/Scheduler.h"

namespace dfence::sched {

struct RoundRobinConfig {
  uint32_t Quantum = 4;     ///< Instructions per turn.
  size_t MaxPending = 2;    ///< Flush down to this many pending stores.
};

class RoundRobinScheduler : public Scheduler {
public:
  explicit RoundRobinScheduler(RoundRobinConfig Cfg = {});
  ~RoundRobinScheduler() override;

  Action pick(const std::vector<ThreadView> &Threads, Rng &R) override;
  void reset() override;
  // No local grant: the flush rule reads the pending-store count after
  // the step, and a Store can push it over MaxPending, so a grant made
  // before the step could disagree with what pick() would return.

private:
  RoundRobinConfig Cfg;
  uint32_t Current = 0;
  uint32_t StepsInTurn = 0;
};

} // namespace dfence::sched

#endif // DFENCE_SCHED_ROUNDROBINSCHEDULER_H
