//===- Profiler.h - Phase profiler of the flight recorder ------*- C++ -*-===//
//
// Per-execution cost attribution across the named phases of a synthesis
// round. The design splits in two so the hot loop stays honest about the
// null-sink contract (Obs.h):
//
//  * ProfilerShard — a plain, header-only accumulator (phase nanoseconds
//    plus per-opcode step counts) that one worker thread owns exclusively.
//    The VM hot loop sees only a ProfilerShard*: null means *zero* clock
//    reads per step (the recorder-off mode the overhead bench gates at
//    <=2%); non-null means a handful of steady_clock reads per scheduler
//    iteration and one array increment per opcode dispatched.
//
//  * Profiler — the aggregator. It owns one shard per pool worker slot
//    and pre-resolves the Registry series once: a histogram
//    `obs_phase_<name>_us` per phase (exact power-of-two microsecond
//    bounds, so Prometheus and JSON exports both carry p50/p90/p99) and a
//    counter `obs_op_<name>_steps_total` per opcode. flushExec() folds a
//    shard after each execution; merge-thread phases (SAT solve, fence
//    enforcement, fold, round remainder) are observed directly.
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
//  * Sum property: per execution, the exec-side phases plus ExecOther
//    equal measured execution wall time by construction (ExecOther is the
//    remainder); per round, RoundOther absorbs whatever the merge thread
//    did not attribute. At --jobs 1 the phase histogram sums therefore
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
#include <string>
#include <vector>

namespace dfence::obs {

/// The phases a synthesis round's wall time is attributed to. The first
/// four are measured inside the VM scheduler loop per iteration; SpecCheck
/// on the round workers around the violation check; SatSolve/Enforce/Fold
/// on the merge thread; ExecOther and RoundOther are remainders that make
/// the attribution total by construction.
enum class Phase : uint8_t {
  ViewRefresh = 0, ///< Refreshing scheduler views (the acting thread's).
  SchedPick,       ///< Scheduler pick (incl. fault-forced switches).
  OpDispatch,      ///< Stepping a thread: one instruction and its local run.
  BufferFlush,     ///< Store-buffer flushes (picked, storm, final drain).
  SpecCheck,       ///< Violation check of one execution (worker side).
  SatSolve,        ///< Minimal-model SAT solving (merge thread).
  Enforce,         ///< Fence enforcement + program re-preparation.
  Fold,            ///< Deterministic merge fold of a round's slots.
  ExecOther,       ///< Execution wall time not attributed above.
  RoundOther,      ///< Round wall time not attributed above.
};

constexpr unsigned NumPhases = 10;

/// Stable snake_case phase name, used in metric series names
/// (`obs_phase_<name>_us`) and the docs catalogue.
const char *phaseName(Phase P);

/// Upper bound (exclusive) on dispatch-stream opcode bytes the per-opcode
/// counters cover; ir::Opcode currently uses 22 values.
constexpr unsigned ProfilerMaxOps = 32;

/// One worker's accumulator between flushes. Plain data, all inline: the
/// VM includes this header without linking the obs library.
struct ProfilerShard {
  std::array<uint64_t, NumPhases> PhaseNs{};
  std::array<uint64_t, ProfilerMaxOps> OpSteps{};

  void reset() {
    PhaseNs.fill(0);
    OpSteps.fill(0);
  }

  void addNs(Phase P, uint64_t Ns) {
    PhaseNs[static_cast<unsigned>(P)] += Ns;
  }

  /// Nanoseconds between two steady-clock points (0 when negative, which
  /// cannot happen on a steady clock but keeps the arithmetic total).
  static uint64_t elapsedNs(std::chrono::steady_clock::time_point From,
                            std::chrono::steady_clock::time_point To) {
    auto D = To - From;
    return D.count() > 0
               ? static_cast<uint64_t>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(D)
                         .count())
               : 0;
  }
};

/// The flight recorder's phase aggregator. Construct one per Registry;
/// hand shard(W) to pool worker W, call flushExec after each execution,
/// observePhaseNs for merge-thread phases. Thread-safe: histograms use
/// atomic buckets and counters are sharded; distinct workers use distinct
/// shards.
class Profiler {
public:
  /// \p OpNames names the per-opcode counters (index = dispatch-stream
  /// opcode byte); callers pass ir::opcodeName's table. Series are
  /// resolved in \p Reg once, here.
  Profiler(Registry &Reg, const std::vector<std::string> &OpNames);

  /// The accumulator for pool worker slot \p Worker (modulo capacity, like
  /// Counter's shards). Reset it before a batch of executions.
  ProfilerShard &shard(unsigned Worker) {
    return Shards[Worker & (MaxShards - 1)].S;
  }

  /// Folds one execution's accumulated shard: exec-side phase times go to
  /// their histograms, ExecOther = \p ExecWallNs minus attributed time,
  /// opcode counts to their counters. Resets the shard. \p Worker selects
  /// the counter shard (call from that worker's thread).
  void flushExec(ProfilerShard &S, uint64_t ExecWallNs, unsigned Worker);

  /// Observes \p Ns into phase \p P's histogram (merge-thread phases).
  void observePhaseNs(Phase P, uint64_t Ns);

  /// Total nanoseconds attributed to any phase so far. The synthesizer
  /// brackets a round with this to compute RoundOther.
  uint64_t totalNs() const {
    return TotalNs.load(std::memory_order_relaxed);
  }

private:
  // Pad shards to their own cache lines; neighbors belong to different
  // worker threads.
  struct alignas(128) PaddedShard {
    ProfilerShard S;
  };
  static constexpr unsigned MaxShards = 32;
  static_assert((MaxShards & (MaxShards - 1)) == 0,
                "shard count must be a power of two");

  std::array<PaddedShard, MaxShards> Shards;
  std::array<Histogram *, NumPhases> PhaseH{};
  std::array<Counter *, ProfilerMaxOps> OpC{};
  Counter *ExecsProfiledC = nullptr;
  std::atomic<uint64_t> TotalNs{0};
};

} // namespace dfence::obs

#endif // DFENCE_OBS_PROFILER_H
