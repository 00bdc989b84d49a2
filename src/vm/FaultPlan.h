//===- FaultPlan.h - Adversarial fault injection for executions -*- C++ -*-===//
//
// A FaultPlan describes adversarial conditions the interpreter injects
// into an execution: flush storms (a whole store buffer drained at once),
// forced context switches away from chosen labels, simulated allocation
// failure, a bounded store-buffer capacity, and a stalled core. The
// harness tests use fault plans to prove the checkers and the synthesis
// loop degrade gracefully instead of crashing or hanging under hostile
// conditions.
//
// Fault decisions draw from a dedicated RNG stream (seeded from the
// execution seed) that is consumed only at fault decision points, never by
// the scheduler — so engine-level faults (allocation failure, buffer
// caps) reproduce exactly when a recorded trace is replayed, while
// scheduler-level faults (storms, forced switches) are already baked into
// the trace itself and are disabled during replay.
//
//===----------------------------------------------------------------------===//

#ifndef DFENCE_VM_FAULTPLAN_H
#define DFENCE_VM_FAULTPLAN_H

#include "ir/Instr.h"

#include <vector>

namespace dfence::vm {

struct FaultPlan {
  /// Probability, per scheduling point, that the engine overrides the
  /// scheduler and drains one randomly chosen non-empty store buffer
  /// completely (a "flush storm": the hardware commits a burst of stores
  /// at the worst possible moment).
  double FlushStormProb = 0.0;

  /// Force a context switch away from a thread that is about to execute
  /// one of these labels, whenever another thread can run or flush. Each
  /// arrival at the label is deferred at most once, so execution still
  /// terminates.
  std::vector<ir::InstrId> SwitchBeforeLabels;

  /// Probability that an Alloc instruction yields the null address
  /// (simulated out-of-memory). The memory-safety checker then flags any
  /// dereference of the failed allocation.
  double AllocFailProb = 0.0;

  /// Fail every allocation after this many successful ones (0 = off).
  uint64_t AllocFailAfter = 0;

  /// Cap on buffered stores per thread: a store finding the buffer at
  /// capacity force-flushes the oldest entry first (bounded hardware
  /// buffer). 0 = unbounded.
  size_t BufferCapacity = 0;

  /// Sleep this many milliseconds before the first step of every
  /// execution, counted against its wall-clock watchdog (a stalled or
  /// descheduled core). Changes only timing: an execution that still
  /// finishes within its budget is unchanged. Lets tests hold work in
  /// flight until a deadline expires, however fast the machine is.
  uint32_t StallMs = 0;

  bool enabled() const {
    return FlushStormProb > 0.0 || !SwitchBeforeLabels.empty() ||
           AllocFailProb > 0.0 || AllocFailAfter > 0 || BufferCapacity > 0 ||
           StallMs > 0;
  }

  /// The scheduler-level faults, which a recorded trace already contains
  /// and which must therefore be stripped when replaying one.
  bool hasSchedulerFaults() const {
    return FlushStormProb > 0.0 || !SwitchBeforeLabels.empty();
  }

  /// Returns a copy with the scheduler-level faults (and the timing-only
  /// stall) removed, keeping the engine-level ones (allocation failure,
  /// buffer capacity) that replay deterministically from the fault RNG
  /// stream.
  FaultPlan replayView() const {
    FaultPlan P = *this;
    P.FlushStormProb = 0.0;
    P.SwitchBeforeLabels.clear();
    P.StallMs = 0;
    return P;
  }
};

} // namespace dfence::vm

#endif // DFENCE_VM_FAULTPLAN_H
