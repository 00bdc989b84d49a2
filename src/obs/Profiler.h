//===- Profiler.h - Phase profiler of the flight recorder ------*- C++ -*-===//
//
// Per-round cost attribution across the named phases of a synthesis
// round. The VM knows nothing of it: the round runner times each
// supervised execution and its violation check on the worker that runs
// them, reads the per-opcode step counts the worker's ExecContext kept
// (vm::ExecContext::countOpSteps), and hands all three to flushExec() as
// plain data. The merge-thread phases (SAT solve, fence enforcement,
// fold, round remainder) are observed directly.
//
// The Profiler pre-resolves its Registry series once: a histogram
// `obs_phase_<name>_us` per phase (exact power-of-two microsecond
// bounds, so Prometheus and JSON exports both carry p50/p90/p99) and a
// counter `obs_op_<name>_steps_total` per opcode.
//
// Invariants the rest of the repo relies on:
//  * Profiling is never a cache key and never changes an execution's
//    observable result — attaching a Profiler only adds metric series.
//  * Every profiler-produced metric is named with the `obs_` prefix. The
//    opcode/step counters are jobs-invariant (the executed slot multiset
//    is identical at any --jobs width) but NOT cache-invariant (exec-cache
//    hits skip execution), so the differential gates compare the counter
//    snapshot minus the `obs_*` prefix — mirroring `cache_*`. Phase
//    *times* are wall-clock and live in histograms only, which stay out
//    of countersJson by design.
//  * Sum property: per round, RoundOther absorbs whatever the other
//    phases did not attribute, so at --jobs 1 the phase histogram sums
//    add up to measured round wall time to clock granularity — the
//    property bench/obs_overhead.cpp checks.
//
//===----------------------------------------------------------------------===//

#ifndef DFENCE_OBS_PROFILER_H
#define DFENCE_OBS_PROFILER_H

#include "obs/Metrics.h"

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace dfence::obs {

/// The phases a synthesis round's wall time is attributed to. Exec and
/// SpecCheck are timed on the round workers, SatSolve/Enforce/Fold on the
/// merge thread; RoundOther is the remainder that makes the attribution
/// total by construction.
enum class Phase : uint8_t {
  Exec = 0,   ///< One supervised execution, retries included.
  SpecCheck,  ///< Violation check of one execution (worker side).
  SatSolve,   ///< Minimal-model SAT solving (merge thread).
  Enforce,    ///< Fence enforcement + program re-preparation.
  Fold,       ///< Deterministic merge fold of a round's slots.
  RoundOther, ///< Round wall time not attributed above.
};

constexpr unsigned NumPhases = 6;

/// Stable snake_case phase name, used in metric series names
/// (`obs_phase_<name>_us`) and the docs catalogue.
const char *phaseName(Phase P);

/// Nanoseconds from \p T0 to now on the steady clock.
inline uint64_t nsSince(std::chrono::steady_clock::time_point T0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - T0)
          .count());
}

/// The flight recorder's phase aggregator. Construct one per Registry;
/// call flushExec after each execution and observePhaseNs for the
/// merge-thread phases. Thread-safe: histograms use atomic buckets and
/// counters are sharded.
class Profiler {
public:
  /// \p OpNames names the per-opcode counters (index = dispatch-stream
  /// opcode byte); callers pass ir::opcodeNames(). Series are resolved
  /// in \p Reg once, here.
  Profiler(Registry &Reg, const std::vector<std::string> &OpNames);

  /// Folds one execution: \p ExecNs into the exec histogram, \p CheckNs
  /// into spec_check when the check ran (nonzero), and \p OpSteps (index
  /// = opcode byte) into the opcode counters. \p Worker selects the
  /// counter shard.
  void flushExec(uint64_t ExecNs, uint64_t CheckNs,
                 std::span<const uint64_t> OpSteps, unsigned Worker);

  /// Observes \p Ns into phase \p P's histogram (merge-thread phases).
  void observePhaseNs(Phase P, uint64_t Ns);

  /// Total nanoseconds attributed to any phase so far. The synthesizer
  /// brackets a round with this to compute RoundOther.
  uint64_t totalNs() const {
    return TotalNs.load(std::memory_order_relaxed);
  }

private:
  std::array<Histogram *, NumPhases> PhaseH{};
  std::vector<Counter *> OpC;
  Counter *ExecsProfiledC = nullptr;
  std::atomic<uint64_t> TotalNs{0};
};

} // namespace dfence::obs

#endif // DFENCE_OBS_PROFILER_H
