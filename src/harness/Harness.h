//===- Harness.h - Resilient execution supervisor ---------------*- C++ -*-===//
//
// The robustness layer between the synthesis loop (and the CLI) and
// vm::runExecution. The paper's guarantee rests on thousands of
// flush-randomized executions per round actually completing; this harness
// makes sure a single pathological execution cannot take the whole run
// down with it:
//
//  * per-execution budgets and watchdogs — every runExecution call gets a
//    wall-clock deadline and a step budget;
//  * an escalation policy — a discarded execution (step limit, deadlock,
//    watchdog timeout) is retried up to MaxRetries times with a reseeded
//    schedule and an exponentially growing step budget before it is
//    finally counted as discarded;
//  * round- and run-level wall-clock deadlines that the synthesis loop
//    consults between executions (and threads into each watchdog) to
//    trigger graceful degradation instead of overrunning.
//
// The synthesis loop accounts for supervised executions in its per-round
// fold and captures crash-repro bundles there (see ReproBundle.h).
//
//===----------------------------------------------------------------------===//

#ifndef DFENCE_HARNESS_HARNESS_H
#define DFENCE_HARNESS_HARNESS_H

#include "vm/Interp.h"

#include <chrono>
#include <cstdint>

namespace dfence::vm {
class ExecContext;
class PreparedProgram;
} // namespace dfence::vm

namespace dfence::harness {

/// Per-execution supervision policy.
struct ExecPolicy {
  /// Wall-clock watchdog per attempt in milliseconds; 0 = none.
  uint32_t ExecWallMs = 0;
  /// How many times a discarded execution (StepLimit / Deadlock /
  /// Timeout) is retried with a reseeded schedule before giving up.
  unsigned MaxRetries = 2;
  /// Step-budget multiplier applied on each retry (a StepLimit discard is
  /// often just a budget that was a bit too tight for a long schedule).
  double StepBudgetGrowth = 2.0;
};

/// Monotonic elapsed-time measurement.
class Stopwatch {
public:
  Stopwatch() : Start(std::chrono::steady_clock::now()) {}
  uint64_t elapsedMs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - Start)
            .count());
  }

private:
  std::chrono::steady_clock::time_point Start;
};

/// An absolute wall-clock deadline. The synthesis loop consults it
/// between executions, and it is also threaded *into* in-flight work: the
/// supervision loop caps every attempt's watchdog at the time remaining,
/// so cancellation fires mid-execution — and therefore mid-round —
/// instead of only at round boundaries. A default-constructed Deadline is
/// unarmed and never expires.
class Deadline {
public:
  Deadline() = default;

  /// A deadline \p Ms milliseconds from now (0 = unarmed).
  static Deadline after(uint32_t Ms) {
    Deadline D;
    if (Ms != 0) {
      D.Armed = true;
      D.At = std::chrono::steady_clock::now() +
             std::chrono::milliseconds(Ms);
    }
    return D;
  }

  bool armed() const { return Armed; }
  bool expired() const {
    return Armed && std::chrono::steady_clock::now() >= At;
  }

  /// Milliseconds until expiry, clamped to >= 1 so the value can be used
  /// directly as a watchdog budget (0 would mean "unlimited" to the VM).
  /// Returns 1 when already expired; meaningless when unarmed.
  uint32_t remainingMs() const {
    auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
        At - std::chrono::steady_clock::now());
    return Left.count() < 1 ? 1u : static_cast<uint32_t>(Left.count());
  }

  /// The earlier of two deadlines (an unarmed one never wins).
  static Deadline sooner(const Deadline &A, const Deadline &B) {
    if (!A.Armed)
      return B;
    if (!B.Armed)
      return A;
    return A.At <= B.At ? A : B;
  }

private:
  std::chrono::steady_clock::time_point At{};
  bool Armed = false;
};

/// The outcome of one supervised execution.
struct SupervisedExec {
  vm::ExecResult Result;
  unsigned Attempts = 1; ///< 1 = no retry was needed.
  bool Discarded = false; ///< Still discarded after all retries.
  bool TimedOut = false;  ///< Some attempt hit the wall-clock watchdog.
  /// Seed and step budget of the attempt that produced Result (differ
  /// from the request after retries); a repro bundle must record these,
  /// since engine-level fault decisions derive from the seed.
  uint64_t UsedSeed = 0;
  size_t UsedMaxSteps = 0;
};

/// True for the outcomes the synthesis loop discards rather than checks.
bool isDiscardedOutcome(vm::Outcome O);

/// Runs client \p ClientIdx of \p P once under \p Policy on the
/// caller-owned reusable \p Ctx: applies the watchdog and retries
/// discarded runs with a reseeded schedule and an exponentially larger
/// step budget. \p EC is taken by value; the policy overrides its
/// WallClockMs and (on retries) Seed and MaxSteps. When \p DL is armed,
/// every attempt's watchdog is additionally capped at the time remaining
/// (an expired deadline yields an immediate Timeout without running), so
/// an in-flight execution cannot outlive its caller's wall-clock budget.
/// This is the round engine's hot path — each pool slot passes its
/// persistent context, so steady-state rounds execute without
/// per-execution allocation. \p Ctx must not be used concurrently from
/// another thread.
SupervisedExec runSupervised(const vm::PreparedProgram &P, size_t ClientIdx,
                             vm::ExecContext &Ctx, vm::ExecConfig EC,
                             const ExecPolicy &Policy,
                             const Deadline &DL = {});

/// runSupervised into a caller-owned \p Out, whose result buffers
/// (history, repairs, trace) keep their capacity: the round engine's
/// slots are reused across rounds, so a steady-state slot allocates
/// nothing here either.
void runSupervised(const vm::PreparedProgram &P, size_t ClientIdx,
                   vm::ExecContext &Ctx, vm::ExecConfig EC,
                   const ExecPolicy &Policy, const Deadline &DL,
                   SupervisedExec &Out);

} // namespace dfence::harness

#endif // DFENCE_HARNESS_HARNESS_H
