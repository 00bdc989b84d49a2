//===- Synthesizer.h - Dynamic synthesis driver (Algorithm 1) --*- C++ -*-===//
//
// The paper's main loop: repeatedly execute the program under the demonic
// scheduler; whenever a round of executions produced violations, build the
// repair formula Φ (conjunction over violating executions of the
// disjunction of ordering predicates collected along each), find a minimal
// satisfying assignment with the SAT machinery, enforce it as fences, and
// continue with the repaired program. Terminates when a full round finds
// no violation (or limits are hit).
//
//===----------------------------------------------------------------------===//

#ifndef DFENCE_SYNTH_SYNTHESIZER_H
#define DFENCE_SYNTH_SYNTHESIZER_H

#include "harness/Harness.h"
#include "harness/ReproBundle.h"
#include "ir/Module.h"
#include "spec/Spec.h"
#include "support/Json.h"
#include "synth/FenceEnforcer.h"
#include "vm/Client.h"
#include "vm/Interp.h"

#include <string>
#include <vector>

namespace dfence::obs {
struct ObsContext;
class RoundLogWriter;
} // namespace dfence::obs

namespace dfence::cache {
class ExecCache;
} // namespace dfence::cache

namespace dfence::exec {
class ExecPool;
class PoolSlice;
} // namespace dfence::exec

namespace dfence::synth {

/// Which specification violations trigger repair. Memory safety checking
/// is always on (as in the paper); the other criteria add history checks.
enum class SpecKind : uint8_t {
  MemorySafety,           ///< Only the always-on safety checks.
  NoGarbage,              ///< + "no garbage tasks" (idempotent WSQs).
  SequentialConsistency,  ///< + operation-level SC.
  Linearizability,        ///< + linearizability.
};

const char *specKindName(SpecKind K);

/// Synthesis configuration (the paper's four experimental dimensions:
/// memory model, specification, clients, scheduler parameters).
struct SynthConfig {
  vm::MemModel Model = vm::MemModel::PSO;
  SpecKind Spec = SpecKind::SequentialConsistency;
  /// Sequential specification; required for SC/linearizability. With a
  /// shared ExecResultCache it must be a function of the module and
  /// SeqSpecName, which name it in the cache key.
  spec::SpecFactory Factory;

  double FlushProb = 0.5;
  /// Optional portfolio of flush probabilities cycled across executions;
  /// when non-empty it overrides FlushProb. Different delay regimes
  /// surface different violation classes (long delays expose store-load
  /// races, moderate ones store-store races), so mixing them inside one
  /// round improves coverage at a fixed K.
  std::vector<double> FlushProbs;
  unsigned ExecsPerRound = 400; ///< The paper's K.
  unsigned MaxRounds = 24;
  /// Cap on repair (enforcement) rounds; the "one-shot" strategy of
  /// Fig. 4 uses 1 here with a final verification round.
  unsigned MaxRepairRounds = 24;
  /// Consecutive violation-free rounds required to declare convergence.
  /// 1 matches the paper's termination rule; 2+ hardens against a clean
  /// round being sampling luck on a low-rate residual violation.
  unsigned CleanRoundsRequired = 1;
  uint64_t BaseSeed = 0x5eed;
  size_t MaxStepsPerExec = 60000;

  /// Worker threads running each round's K executions (the parallel
  /// round engine, src/exec/). Per-execution results are merged in
  /// execution-index order, so the SynthResult is bit-identical at any
  /// value; 1 = run in-process sequentially, 0 = use
  /// std::thread::hardware_concurrency(). Ignored when Pool is set.
  unsigned Jobs = 1;

  /// Optional externally owned worker pool. When set, synthesize() fans
  /// rounds across its slice 0 instead of constructing a private pool.
  /// Not owned; must outlive synthesize(), and slice 0 must not be used
  /// by concurrent synthesize() calls. Determinism is unaffected:
  /// results are merged in execution-index order regardless of who owns
  /// the workers. Ignored when Slice is set.
  exec::ExecPool *Pool = nullptr;

  /// Optional pool slice. When set, synthesize() fans rounds across
  /// exactly this slice — the serve dispatcher runs slot I on slice I,
  /// so concurrent synthesize() calls never share batch state,
  /// per-worker contexts or observability handles. Not owned; nothing
  /// else may run on the slice until synthesize() returns. Takes
  /// precedence over Pool/Jobs.
  exec::PoolSlice *Slice = nullptr;

  /// Unread; see vm::DispatchMode.
  vm::DispatchMode Dispatch = vm::DispatchMode::Specialized;

  EnforceMode Mode = EnforceMode::Fence;
  bool MergeFences = true;
  bool PartialOrderReduction = true;
  /// Ablation: disable the inter-operation [store ≺ return] predicates.
  bool InterOpPredicates = true;

  //===--- Resilience policy (see harness/Harness.h) ---===//

  /// Per-execution supervision: wall-clock watchdog and retry escalation
  /// for discarded (step-limited / deadlocked / timed-out) executions.
  harness::ExecPolicy Exec;
  /// Wall-clock budget per round in milliseconds; 0 = unlimited. A round
  /// that runs out of time stops early (RoundStats::Executions records
  /// how many executions actually ran).
  uint32_t RoundWallMs = 0;
  /// Wall-clock budget for the whole synthesis run; 0 = unlimited.
  uint32_t TotalWallMs = 0;
  /// When budgets are exhausted before convergence, fall back to
  /// conservative static delay-set fencing of the implicated functions
  /// instead of returning an unconverged (unsafe) program.
  bool DegradeToStatic = true;
  /// Capture crash-repro bundles for violating executions (at most
  /// MaxBundles; see harness/ReproBundle.h). Forces trace recording.
  bool CaptureBundles = false;
  unsigned MaxBundles = 4;
  /// Name of the sequential spec behind Factory. Stamped into captured
  /// bundles so `dfence --replay` can re-run the checker, and part of
  /// every ExecResultCache key: runs that share a cache must give
  /// different factories different names.
  std::string SeqSpecName;
  /// Advisory originating-request identifier (serve daemon), stamped
  /// into captured bundles so a crash report names its request. Empty
  /// for one-shot CLI runs.
  std::string RequestTag;
  /// Fault-injection plan forwarded to every execution (hardening tests;
  /// empty by default). Lives here so fault campaigns run through the
  /// exact production synthesis loop.
  vm::FaultPlan Faults;

  //===--- Result caching (see src/cache/) ---===//

  /// Master switch for the execution cache and the duplicate-history
  /// statistics (`dfence --cache on|off`). On by default. The execution
  /// cache is invisible in results by construction — a round is only
  /// served under a key that pins every input of its slots — so
  /// SynthResult (minus its cache statistics) and the deterministic
  /// counter snapshot (minus cache_*) are byte-identical with caching on
  /// or off, at any Jobs value (CacheDifferentialTest is the gate).
  bool CacheEnabled = true;
  /// Optional externally owned execution cache, shared across
  /// synthesize() calls so an identical request (same module, clients,
  /// seed, knobs and spec) folds whole stored rounds instead of running
  /// them. Not owned; null — the default — caches nothing (a run never
  /// repeats its own rounds). Only this run's merge thread touches it,
  /// so one instance must not serve concurrent synthesize() calls. The
  /// key names the sequential spec by SeqSpecName, not by Factory.
  cache::ExecCache *ExecResultCache = nullptr;

  //===--- Observability (see src/obs/) ---===//

  /// Optional observability context (metrics registry, trace sink,
  /// logger; each independently nullable). Null — the default — keeps
  /// every instrumentation site at the cost of a branch on a null
  /// pointer. Not owned; must outlive synthesize(). The registry's
  /// counters come out bit-identical at any Jobs value (they are folded
  /// on the merge thread in execution-index order, or count
  /// jobs-invariant events); wall-clock readings go to gauges and
  /// histograms only.
  ///
  /// When Obs->Prof carries the flight recorder's profiler, every round
  /// additionally attributes its wall time across the phase histograms
  /// (obs_phase_*_us) and counts per-opcode dispatch steps. Profiling is
  /// never a cache key and never changes the SynthResult — the
  /// FlightRecorderDifferentialTest pins canonical bytes identical with
  /// the recorder on or off.
  const obs::ObsContext *Obs = nullptr;

  /// Optional convergence round log (`--round-log FILE`): one JSON line
  /// per completed round, roundStatsJson of its RoundStats.
  /// Not owned; must outlive synthesize(). Written on the merge thread
  /// as each round finishes, so a consumer tailing the file sees rounds
  /// live. Null — the default — emits nothing.
  obs::RoundLogWriter *RoundLog = nullptr;
};

/// Overall disposition of a synthesis run, most desirable first.
enum class SynthStatus : uint8_t {
  Converged,   ///< A clean round verified the fenced program.
  /// Budgets exhausted; static fallback fences applied. FencedModule is
  /// then conservatively (over-)fenced but safe.
  Degraded,
  Exhausted,   ///< Budgets exhausted and degradation disabled.
  CannotFix,   ///< A round of violations had no repair candidates.
  ConfigError, ///< Invalid configuration; see SynthResult::Error.
};

const char *synthStatusName(SynthStatus S);

/// Per-round synthesis statistics (drives the Fig. 4 reproduction and
/// the flight recorder's convergence telemetry). Fields up to and
/// including SatTruncated are deterministic — byte-identical at any
/// --jobs width and either dispatch mode, and (except the cache hit/miss
/// split) across cache modes; the canonical result serialization
/// (serve::resultToJson) carries only that deterministic, cache-invariant
/// subset. The wall-clock fields at the end are machine-dependent and
/// only ever reach the round log file and the phase histograms.
struct RoundStats {
  unsigned Round = 0;
  uint64_t Executions = 0;
  uint64_t Violations = 0;
  unsigned FencesEnforced = 0; ///< Fences present after this round.
  std::string SampleViolation;

  //===--- Convergence telemetry (the fuzzer/bandit reward signal) ---===//

  uint64_t NewPredicates = 0;      ///< Distinct predicates Φ gained.
  uint64_t DistinctPredicates = 0; ///< |Φ| after this round.
  unsigned CleanStreak = 0; ///< Consecutive clean rounds incl. this one.
  bool Truncated = false;   ///< Cut short by a budget/deadline.
  /// Per-round duplicate-history and execution-cache statistics
  /// (jobs-invariant; cache-mode variant — the run-level totals'
  /// per-round split).
  uint64_t CheckCacheHits = 0;
  uint64_t CheckCacheMisses = 0;
  uint64_t ExecCacheHits = 0;
  uint64_t ExecCacheMisses = 0;
  /// SAT effort of this round's solve; all zero when no solve ran.
  uint64_t SatClauses = 0;
  uint64_t SatModels = 0;
  uint64_t SatNodes = 0;
  bool SatTruncated = false; ///< Search budget hit; see SynthResult.

  // Wall-clock (machine-dependent; round log + histograms only).
  uint64_t SatSolveUs = 0;
  uint64_t RoundWallUs = 0;
};

/// Serializes \p S as the round log's line object (stable key order).
Json roundStatsJson(const RoundStats &S);

/// The outcome of a synthesis run.
struct SynthResult {
  /// True when the run's total wall-clock budget (TotalWallMs) expired
  /// before a verdict — the run timed out. The result is then a partial
  /// one (RoundLog records what ran); its Status is Degraded
  /// (conservatively fenced) with DegradeToStatic, Exhausted without.
  bool TimedOut = false;
  SynthStatus Status = SynthStatus::Exhausted;
  std::string DegradeReason; ///< Why degradation / exhaustion happened.
  std::string Error;         ///< Non-empty iff Status == ConfigError.
  std::vector<InsertedFence> Fences; ///< Enforcements in final program.
  unsigned Rounds = 0;
  uint64_t TotalExecutions = 0;
  uint64_t ViolatingExecutions = 0;
  uint64_t DiscardedExecutions = 0; ///< Discarded after all retries.
  uint64_t RetriedExecutions = 0;   ///< Extra attempts the harness ran.
  uint64_t TimedOutExecutions = 0;  ///< Watchdog-expired executions.
  uint64_t DistinctPredicates = 0;  ///< Size of the predicate universe.
  unsigned StaticFallbackFences = 0; ///< Fences added by degradation.
  /// Repair solves that ran out of sat::MinimumModelNodeBudget. Each one
  /// enforced an inclusion-minimal predicate set that may not be of
  /// minimum size.
  unsigned SatTruncated = 0;
  ir::Module FencedModule;
  std::string FirstViolation; ///< Diagnostics of the first violation.
  std::vector<RoundStats> RoundLog;
  /// Crash-repro bundles captured for violating executions (when
  /// SynthConfig::CaptureBundles is set).
  std::vector<harness::ReproBundle> Bundles;

  //===--- Cache statistics (jobs-invariant; see docs/ALGORITHM.md §12).
  //===--- The only SynthResult fields allowed to differ between cache=on
  //===--- and cache=off runs. ---===//

  /// Completed histories that duplicate an earlier history of the same
  /// round (hits) or are the first of their kind (misses), counted on
  /// the merge thread. Statistics only: every history is still checked.
  /// Counted when caching is on and the spec checks histories.
  uint64_t CheckCacheHits = 0;
  uint64_t CheckCacheMisses = 0;
  /// Executions folded from a stored round of ExecResultCache (hits), or
  /// run after a round lookup missed (misses).
  uint64_t ExecCacheHits = 0;
  uint64_t ExecCacheMisses = 0;

  std::string fenceSummary() const;
};

/// Runs dynamic synthesis of \p M exercised by \p Clients (cycled through
/// round-robin across executions). \p M is copied, never modified.
/// Each round's executions run on SynthConfig::Jobs worker threads and
/// merge deterministically: the result is bit-identical for any Jobs.
SynthResult synthesize(const ir::Module &M,
                       const std::vector<vm::Client> &Clients,
                       const SynthConfig &Cfg);

/// Checks a single execution result against \p Cfg's specification.
/// Returns an empty string when the execution is acceptable, otherwise a
/// description of the violation. Step-limited/deadlocked/timed-out
/// executions are reported as acceptable ("discarded") per the synthesis
/// loop's policy; the caller distinguishes them via the outcome.
std::string checkExecution(const vm::ExecResult &R, const SynthConfig &Cfg);

} // namespace dfence::synth

#endif // DFENCE_SYNTH_SYNTHESIZER_H
