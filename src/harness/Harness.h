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
//    trigger graceful degradation instead of overrunning;
//  * crash-repro bundle capture for violating or aborted executions
//    (see ReproBundle.h).
//
//===----------------------------------------------------------------------===//

#ifndef DFENCE_HARNESS_HARNESS_H
#define DFENCE_HARNESS_HARNESS_H

#include "harness/ReproBundle.h"
#include "vm/Interp.h"

#include <chrono>
#include <cstdint>
#include <vector>

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
  /// Mixed into the seed on each retry so the schedule actually changes.
  uint64_t RetrySeedSalt = 0x9e3779b97f4a7c15ULL;
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

/// Cumulative accounting across a supervisor's lifetime.
struct SupervisorStats {
  uint64_t Executions = 0; ///< Supervised executions (not attempts).
  uint64_t Retries = 0;    ///< Extra attempts beyond the first.
  uint64_t Discarded = 0;  ///< Executions discarded after retries.
  uint64_t TimedOut = 0;   ///< Executions where the watchdog fired.
};

/// The execution supervisor: runSupervised + stats accounting + optional
/// crash-repro bundle capture. One instance supervises one synthesis run
/// (or one CLI command).
class Supervisor {
public:
  explicit Supervisor(ExecPolicy Policy = {}) : Policy(Policy) {}

  /// Enables bundle capture (at most \p MaxBundles are kept).
  void enableBundleCapture(size_t MaxBundles) {
    CaptureBundles = true;
    this->MaxBundles = MaxBundles;
  }
  bool capturing() const { return CaptureBundles; }

  /// Advisory checker metadata stamped into captured bundles.
  void setSpecInfo(std::string Spec, std::string SeqSpec) {
    SpecName = std::move(Spec);
    SeqSpecName = std::move(SeqSpec);
  }

  /// Advisory cache configuration ("on"/"off") stamped into captured
  /// bundles, so a repro records whether the run it came from had the
  /// result caches enabled. (Capture itself disables the execution
  /// cache, but the duplicate-history statistics are still counted under
  /// --cache=on.)
  void setCacheInfo(std::string Mode) { CacheMode = std::move(Mode); }

  /// Advisory originating-request identifier stamped into captured
  /// bundles. The serve daemon sets this per request, turning the
  /// bundles a request produces into its crash reports — a bundle on
  /// disk names the request that generated it.
  void setRequestInfo(std::string Id) { RequestId = std::move(Id); }

  /// Folds a supervised execution into this supervisor's accounting and,
  /// when capture is enabled, captures a VM-level violation (memory
  /// safety, assertion failure) automatically; violating executions of a
  /// Completed history are captured by the caller via capture(), because
  /// only the caller's checker can judge them. The parallel round
  /// engine (src/exec/) runs executions on worker threads through the
  /// reentrant runSupervised and folds the results back in deterministic
  /// execution-index order; fold itself must only be called from one
  /// thread at a time. Capture needs the execution's trace, so the caller
  /// runs it with ExecConfig::RecordTrace while capturing. \p EC is the config the
  /// execution was *requested* with (UsedSeed/UsedMaxSteps of \p SE
  /// override it for capture, as retries may have changed them).
  void fold(const ir::Module &M, const vm::Client &C, vm::ExecConfig EC,
            const SupervisedExec &SE);

  /// Captures a bundle for an execution this supervisor ran (no-op when
  /// capture is disabled or the cap is reached).
  void capture(const ir::Module &M, const vm::Client &C,
               const vm::ExecConfig &EC, const vm::ExecResult &R,
               const std::string &Message);

  const SupervisorStats &stats() const { return Stats; }
  std::vector<ReproBundle> takeBundles() { return std::move(Bundles); }
  const std::vector<ReproBundle> &bundles() const { return Bundles; }

private:
  ExecPolicy Policy;
  SupervisorStats Stats;
  bool CaptureBundles = false;
  size_t MaxBundles = 4;
  std::string SpecName, SeqSpecName, CacheMode, RequestId;
  std::vector<ReproBundle> Bundles;
};

} // namespace dfence::harness

#endif // DFENCE_HARNESS_HARNESS_H
