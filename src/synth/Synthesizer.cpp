//===- Synthesizer.cpp - Algorithm 1 --------------------------------------===//

#include "synth/Synthesizer.h"

#include "cache/ExecCache.h"
#include "exec/ExecPool.h"
#include "exec/RoundRunner.h"
#include "harness/Harness.h"
#include "obs/Convergence.h"
#include "obs/Obs.h"
#include "sat/MinimalModels.h"
#include "spec/Checkers.h"
#include "support/Diagnostics.h"
#include "support/StringUtils.h"
#include "synth/StaticBaseline.h"
#include "vm/Prepared.h"

#include <cassert>
#include <cctype>
#include <chrono>
#include <cstring>
#include <iterator>
#include <optional>
#include <set>
#include <span>
#include <unordered_map>

using namespace dfence;
using namespace dfence::synth;
using vm::OrderingPredicate;

const char *synth::specKindName(SpecKind K) {
  switch (K) {
  case SpecKind::MemorySafety:          return "memory-safety";
  case SpecKind::NoGarbage:             return "no-garbage";
  case SpecKind::SequentialConsistency: return "sequential-consistency";
  case SpecKind::Linearizability:       return "linearizability";
  }
  dfenceUnreachable("invalid spec kind");
}

const char *synth::synthStatusName(SynthStatus S) {
  switch (S) {
  case SynthStatus::Converged:   return "converged";
  case SynthStatus::Degraded:    return "degraded";
  case SynthStatus::Exhausted:   return "exhausted";
  case SynthStatus::CannotFix:   return "cannot-fix";
  case SynthStatus::ConfigError: return "config-error";
  }
  dfenceUnreachable("invalid synth status");
}

std::string SynthResult::fenceSummary() const {
  if (Fences.empty())
    return "0";
  std::vector<std::string> Parts;
  for (const InsertedFence &F : Fences)
    Parts.push_back(F.str());
  return join(Parts, " ");
}

namespace {

/// What checking one execution decided, before any description.
struct Judgement {
  bool Violating = false;
  /// The checker's search budget ran out and it accepted the history.
  bool OutOfBudget = false;
};

/// Judges \p R against \p Cfg's spec without describing a violation: the
/// per-execution hot path (K executions per round, and on some cells most
/// of them violate) neither formats nor copies the history.
/// Called concurrently by the round engine's workers; it only reads Cfg
/// and the checker's per-thread scratch.
Judgement judgeExecution(const vm::ExecResult &R, const SynthConfig &Cfg) {
  switch (R.Out) {
  case vm::Outcome::MemSafety:
  case vm::Outcome::AssertFail:
    return {true, false};
  case vm::Outcome::StepLimit:
  case vm::Outcome::Deadlock:
  case vm::Outcome::Timeout:
    return {}; // Discarded, never treated as a violation.
  case vm::Outcome::Completed:
    break;
  }
  switch (Cfg.Spec) {
  case SpecKind::MemorySafety:
    return {};
  case SpecKind::NoGarbage:
    return {!spec::checkNoGarbageTasks(R.Hist).empty(), false};
  case SpecKind::SequentialConsistency:
  case SpecKind::Linearizability: {
    if (!Cfg.Factory)
      return {true, false};
    // Work-stealing relaxation for linearizability: concurrent EMPTY
    // take/steal are aborts (spec::isConcurrentEmptyWsqOp); only
    // non-overlapping EMPTY answers must be justified by an empty queue
    // (the paper's Fig. 2c).
    spec::CheckResult C = spec::checkHistory(
        R.Hist, Cfg.Factory,
        Cfg.Spec == SpecKind::Linearizability
            ? spec::Criterion::RelaxedLinearizability
            : spec::Criterion::SequentialConsistency);
    return {!C.Ok, C.OutOfBudget};
  }
  }
  dfenceUnreachable("invalid spec kind");
}

/// The diagnostic of an execution judgeExecution found violating.
std::string describeViolation(const vm::ExecResult &R,
                              const SynthConfig &Cfg) {
  if (R.Out != vm::Outcome::Completed)
    return R.Message.empty() ? "memory safety violation" : R.Message;
  switch (Cfg.Spec) {
  case SpecKind::MemorySafety:
    break;
  case SpecKind::NoGarbage:
    return spec::checkNoGarbageTasks(R.Hist);
  case SpecKind::SequentialConsistency:
    if (!Cfg.Factory)
      return "configuration error: sequential-consistency checking "
             "requires a sequential specification";
    return "history is not sequentially consistent:\n" + R.Hist.str();
  case SpecKind::Linearizability:
    if (!Cfg.Factory)
      return "configuration error: linearizability checking requires a "
             "sequential specification";
    return "history is not linearizable:\n" + R.Hist.str();
  }
  dfenceUnreachable("described an execution that does not violate");
}

/// The duplicate-history table of one round: maps a history hash to the
/// first slot that carried it. Open addressing over arrays that keep their
/// capacity across rounds; reset() empties only the buckets it filled, so
/// the merge thread allocates nothing per slot.
class FirstSlotTable {
public:
  /// Empties the table and makes room for \p N insertions.
  void reset(size_t N) {
    for (uint32_t B : Used)
      Slots[B] = Empty;
    Used.clear();
    if (Slots.size() < 2 * N) {
      size_t Cap = 64;
      while (Cap < 2 * N)
        Cap *= 2;
      Hashes.assign(Cap, 0);
      Slots.assign(Cap, Empty);
    }
  }

  /// The slot first recorded under \p Hash; records \p Slot and returns
  /// it when there is none.
  uint32_t firstOrInsert(uint64_t Hash, uint32_t Slot) {
    size_t Mask = Slots.size() - 1;
    size_t B = static_cast<size_t>(vm::hashMix64(Hash)) & Mask;
    while (Slots[B] != Empty) {
      if (Hashes[B] == Hash)
        return Slots[B];
      B = (B + 1) & Mask;
    }
    Hashes[B] = Hash;
    Slots[B] = Slot;
    Used.push_back(static_cast<uint32_t>(B));
    return Slot;
  }

private:
  static constexpr uint32_t Empty = ~0u;
  std::vector<uint64_t> Hashes;
  std::vector<uint32_t> Slots; ///< Empty marks a free bucket.
  std::vector<uint32_t> Used;  ///< Filled buckets, for reset().
};

/// Φ's predicate universe: the run's predicate <-> SAT variable numbering
/// in first-seen order, and a running fingerprint of it (part of every
/// round key, so a stored repair step is replayed only onto the numbering
/// it was solved under).
class PredicateUniverse {
public:
  /// The variable of \p P, numbering it next when it is new.
  sat::Var varOf(const OrderingPredicate &P) {
    auto [It, New] = Vars.try_emplace(P, static_cast<sat::Var>(Preds.size()));
    if (New)
      push(P);
    return It->second;
  }

  /// Numbers \p P, which a replayed step recorded as new.
  void append(const OrderingPredicate &P) {
    [[maybe_unused]] bool New =
        Vars.try_emplace(P, static_cast<sat::Var>(Preds.size())).second;
    assert(New && "a replayed step re-added a known predicate");
    push(P);
  }

  const std::vector<OrderingPredicate> &preds() const { return Preds; }
  size_t size() const { return Preds.size(); }
  uint64_t fingerprint() const { return Fp; }

private:
  void push(const OrderingPredicate &P) {
    Preds.push_back(P);
    Fp = cache::extendUniverseFingerprint(Fp, P);
  }

  std::unordered_map<OrderingPredicate, sat::Var> Vars;
  std::vector<OrderingPredicate> Preds; ///< Indexed by variable.
  uint64_t Fp = cache::EmptyUniverseFp;
};

} // namespace

std::string synth::checkExecution(const vm::ExecResult &R,
                                  const SynthConfig &Cfg) {
  return judgeExecution(R, Cfg).Violating ? describeViolation(R, Cfg)
                                          : std::string();
}

/// Plans round \p Round (1-based) of a run into \p Plan, reusing its
/// storage: one ExecPlan per slot, every per-slot knob derived from the
/// slot's *nominal* global execution index (Round-1)*K + I. Earlier code
/// derived these from the mutable TotalExecutions counter, so a
/// wall-clock-truncated round shifted the seed/client/flush streams of
/// every later round — a reproducibility wart on its own, and fatal for
/// parallel dispatch, which must know the whole plan before anything
/// runs. For untruncated runs the two schemes coincide (TotalExecutions
/// advances by exactly K per round).
static void planRound(const SynthConfig &Cfg, size_t NumClients,
                      unsigned Round, exec::RoundPlan &Plan) {
  Plan.Slots.resize(Cfg.ExecsPerRound);
  uint64_t First = static_cast<uint64_t>(Round - 1) * Cfg.ExecsPerRound;
  for (unsigned I = 0; I != Cfg.ExecsPerRound; ++I) {
    uint64_t G = First + I;
    exec::ExecPlan &P = Plan.Slots[I];
    P.ClientIdx = static_cast<uint32_t>(G % NumClients);
    vm::ExecConfig &EC = P.EC = vm::ExecConfig();
    EC.Model = Cfg.Model;
    EC.Seed = Cfg.BaseSeed + G;
    EC.MaxSteps = Cfg.MaxStepsPerExec;
    EC.CollectRepairs = true;
    EC.InterOpPredicates = Cfg.InterOpPredicates;
    EC.FlushProb = Cfg.FlushProbs.empty()
                       ? Cfg.FlushProb
                       : Cfg.FlushProbs[G % Cfg.FlushProbs.size()];
    EC.PartialOrderReduction = Cfg.PartialOrderReduction;
    // Bundle capture replays the recorded trace, so capturing runs
    // record one.
    EC.RecordTrace = Cfg.CaptureBundles;
    if (Cfg.Faults.enabled())
      EC.Faults = &Cfg.Faults;
  }
}

/// The run half of every round's cache key: everything besides the module
/// and the round's position that a round's slots — results and verdicts —
/// are a function of. Wall-clock watchdogs, fault plans and bundle
/// capture turn the cache off instead.
static uint64_t runFingerprint(const SynthConfig &Cfg,
                               const std::vector<vm::Client> &Clients) {
  auto Bits = [](double D) {
    uint64_t B;
    std::memcpy(&B, &D, sizeof B);
    return B;
  };
  uint64_t H = vm::hashCombine(0x9216d5d98979fb1bULL, Clients.size());
  for (const vm::Client &C : Clients)
    H = vm::hashCombine(H, cache::fingerprintClient(C));
  H = vm::hashCombine(H, Cfg.BaseSeed);
  H = vm::hashCombine(H, Bits(Cfg.FlushProb));
  H = vm::hashCombine(H, Cfg.FlushProbs.size());
  for (double P : Cfg.FlushProbs)
    H = vm::hashCombine(H, Bits(P));
  H = vm::hashCombine(H, Cfg.MaxStepsPerExec);
  H = vm::hashCombine(H, Cfg.Exec.ExecWallMs);
  H = vm::hashCombine(H, Cfg.Exec.MaxRetries);
  H = vm::hashCombine(H, Bits(Cfg.Exec.StepBudgetGrowth));
  H = vm::hashCombine(H, static_cast<uint64_t>(Cfg.Model));
  H = vm::hashCombine(H, Cfg.InterOpPredicates);
  H = vm::hashCombine(H, Cfg.PartialOrderReduction);
  H = vm::hashCombine(H, static_cast<uint64_t>(Cfg.Spec));
  return cache::fingerprintString(H, Cfg.SeqSpecName);
}

Json synth::roundStatsJson(const RoundStats &S) {
  Json O = Json::object();
  O.set("round", Json::number(static_cast<uint64_t>(S.Round)));
  O.set("executions", Json::number(S.Executions));
  O.set("violations", Json::number(S.Violations));
  O.set("newPredicates", Json::number(S.NewPredicates));
  O.set("distinctPredicates", Json::number(S.DistinctPredicates));
  O.set("fences", Json::number(static_cast<uint64_t>(S.FencesEnforced)));
  O.set("cleanStreak", Json::number(static_cast<uint64_t>(S.CleanStreak)));
  O.set("truncated", Json::boolean(S.Truncated));
  O.set("discarded", Json::number(S.Discarded));
  O.set("specCheckBudgetHits", Json::number(S.SpecCheckBudgetHits));
  O.set("stepLimitHits", Json::number(S.StepLimitHits));
  Json Cache = Json::object();
  Cache.set("checkHits", Json::number(S.CheckCacheHits));
  Cache.set("checkMisses", Json::number(S.CheckCacheMisses));
  Cache.set("execHits", Json::number(S.ExecCacheHits));
  Cache.set("execMisses", Json::number(S.ExecCacheMisses));
  Cache.set("repairHits", Json::number(S.RepairCacheHits));
  Cache.set("rejected", Json::number(S.ExecCacheRejected));
  O.set("cache", std::move(Cache));
  Json Sat = Json::object();
  Sat.set("clauses", Json::number(S.SatClauses));
  Sat.set("models", Json::number(S.SatModels));
  Sat.set("nodes", Json::number(S.SatNodes));
  Sat.set("truncated", Json::boolean(S.SatTruncated));
  Sat.set("solveUs", Json::number(S.SatSolveUs));
  O.set("sat", std::move(Sat));
  O.set("roundWallUs", Json::number(S.RoundWallUs));
  return O;
}

namespace {

/// A deterministic counter and its share of one finished round.
struct RoundCounter {
  const char *Name;
  uint64_t (*Of)(const RoundStats &);
};

/// The deterministic counters published from each finished round (apart
/// from cache_repair_hits and cache_exec_rejected, registered only with a
/// round cache, and the end-of-run counters). A round solved Φ iff it has
/// clauses; sat_models_total counts the rounds that enforced a repair.
constexpr RoundCounter RoundCounters[] = {
    {"synth_rounds_total", [](const RoundStats &) -> uint64_t { return 1; }},
    {"synth_executions_total",
     [](const RoundStats &S) { return S.Executions; }},
    {"synth_violations_total",
     [](const RoundStats &S) { return S.Violations; }},
    {"synth_discarded_total", [](const RoundStats &S) { return S.Discarded; }},
    {"synth_step_limit_hits_total",
     [](const RoundStats &S) { return S.StepLimitHits; }},
    {"vm_steps_total", [](const RoundStats &S) { return S.VmSteps; }},
    {"vm_flushes_total", [](const RoundStats &S) { return S.Vm.Flushes; }},
    {"vm_sched_steps_total",
     [](const RoundStats &S) { return S.Vm.SchedSteps; }},
    {"vm_sched_flushes_total",
     [](const RoundStats &S) { return S.Vm.SchedFlushes; }},
    {"vm_store_forwards_total",
     [](const RoundStats &S) { return S.Vm.StoreForwards; }},
    {"vm_buffered_stores_total",
     [](const RoundStats &S) { return S.Vm.BufferedStores; }},
    {"sat_solves_total",
     [](const RoundStats &S) -> uint64_t { return S.SatClauses != 0; }},
    {"sat_clauses_total", [](const RoundStats &S) { return S.SatClauses; }},
    {"sat_models_total", [](const RoundStats &S) { return S.SatModels; }},
    {"sat_nodes_total", [](const RoundStats &S) { return S.SatNodes; }},
    {"sat_truncated_total",
     [](const RoundStats &S) -> uint64_t { return S.SatTruncated; }},
    {"spec_check_budget_hits_total",
     [](const RoundStats &S) { return S.SpecCheckBudgetHits; }},
    {"cache_check_hits", [](const RoundStats &S) { return S.CheckCacheHits; }},
    {"cache_check_misses",
     [](const RoundStats &S) { return S.CheckCacheMisses; }},
    {"cache_exec_hits", [](const RoundStats &S) { return S.ExecCacheHits; }},
    {"cache_exec_misses",
     [](const RoundStats &S) { return S.ExecCacheMisses; }},
    {"harness_retries_total", [](const RoundStats &S) { return S.Retried; }},
    {"harness_timeouts_total", [](const RoundStats &S) { return S.TimedOut; }},
};

/// Derives \p R's totals from its round log.
void sumRoundLog(SynthResult &R) {
  R.Rounds = static_cast<unsigned>(R.RoundLog.size());
  for (const RoundStats &S : R.RoundLog) {
    R.TotalExecutions += S.Executions;
    R.ViolatingExecutions += S.Violations;
    R.DiscardedExecutions += S.Discarded;
    R.RetriedExecutions += S.Retried;
    R.TimedOutExecutions += S.TimedOut;
    R.SpecCheckBudgetHits += S.SpecCheckBudgetHits;
    R.StepLimitHits += S.StepLimitHits;
    R.SatTruncated += S.SatTruncated;
    R.CheckCacheHits += S.CheckCacheHits;
    R.CheckCacheMisses += S.CheckCacheMisses;
    R.ExecCacheHits += S.ExecCacheHits;
    R.ExecCacheMisses += S.ExecCacheMisses;
    R.RepairCacheHits += S.RepairCacheHits;
    R.ExecCacheRejected += S.ExecCacheRejected;
    if (R.FirstViolation.empty())
      R.FirstViolation = S.SampleViolation;
  }
}

/// The repro bundle of violating slot \p S, planned as \p P: the attempt
/// that ran (its seed and step budget, which retries may have changed),
/// described, and stamped with the run's spec, cache mode and request.
harness::ReproBundle captureBundle(const ir::Module &M, const vm::Client &C,
                                   const exec::ExecPlan &P,
                                   const exec::RoundSlot &S,
                                   const SynthConfig &Cfg) {
  vm::ExecConfig EC = P.EC;
  EC.Seed = S.SE.UsedSeed;
  EC.MaxSteps = S.SE.UsedMaxSteps;
  harness::ReproBundle B = harness::makeBundle(
      M, C, EC, S.SE.Result,
      S.Violation.empty() ? describeViolation(S.SE.Result, Cfg)
                          : S.Violation);
  B.SpecName = specKindName(Cfg.Spec);
  B.SeqSpecName = Cfg.SeqSpecName;
  B.CacheMode = Cfg.CacheEnabled ? "on" : "off";
  B.RequestId = Cfg.RequestTag;
  return B;
}

} // namespace

SynthResult synth::synthesize(const ir::Module &M,
                              const std::vector<vm::Client> &Clients,
                              const SynthConfig &Cfg) {
  SynthResult Result;
  auto ConfigError = [&](std::string Error) {
    Result.FencedModule = M;
    Result.Status = SynthStatus::ConfigError;
    Result.Error = std::move(Error);
    return std::move(Result);
  };
  if (Clients.empty())
    return ConfigError("synthesis needs at least one client");
  if ((Cfg.Spec == SpecKind::SequentialConsistency ||
       Cfg.Spec == SpecKind::Linearizability) &&
      !Cfg.Factory)
    return ConfigError(strformat("%s checking requires a sequential "
                                 "specification (SynthConfig::Factory)",
                                 specKindName(Cfg.Spec)));
  // The request's one copy of the module: the working program, moved
  // into the result at the end. Labels stay stable, and the copy carries
  // M's label indexes, which every mutation keeps current.
  ir::Module Cur = M;
  assert(Cur.indexesCurrent() && "module label indexes are stale");

  // Pre-resolved observability handles (all null when Cfg.Obs carries no
  // sink). The counters are published from each finished round's
  // RoundStats on the merge thread — that is what keeps their values
  // bit-identical at any Jobs.
  obs::TraceSink *Trace = obs::traceOrNull(Cfg.Obs);
  obs::Logger *Log = obs::logOrNull(Cfg.Obs);
  obs::Counter *RoundCountersC[std::size(RoundCounters)] = {};
  for (size_t C = 0; C != std::size(RoundCounters); ++C)
    RoundCountersC[C] = obs::counterOrNull(Cfg.Obs, RoundCounters[C].Name);
  obs::Gauge *BufHighG = obs::gaugeOrNull(Cfg.Obs, "vm_buf_high_water");
  // Flight recorder (optional). The round workers time each execution
  // and its check; the merge-thread phases (sat_solve, enforce, fold) and
  // the per-round remainder are observed below. Phase times are wall-clock
  // and live in histograms only — never counters — so the deterministic
  // counter snapshot stays byte-identical with the recorder on or off.
  obs::Profiler *Prof = obs::profilerOrNull(Cfg.Obs);

  OBS_SPAN(RunSpan, Trace, "synthesize", "synth", 0);
  RunSpan.arg("model", std::string(vm::memModelName(Cfg.Model)));
  RunSpan.arg("spec", std::string(specKindName(Cfg.Spec)));
  RunSpan.arg("k", static_cast<uint64_t>(Cfg.ExecsPerRound));

  harness::Stopwatch Watch;
  // The run-level deadline cancels slots that have not started and is
  // threaded into every in-flight execution (each attempt's watchdog is
  // capped at the time remaining), so the total budget cancels work
  // mid-round.
  harness::Deadline RunDL = harness::Deadline::after(Cfg.TotalWallMs);

  // Stable mapping predicate <-> SAT variable across the whole run
  // (statistics only need the universe size; the formula itself is reset
  // after every repair, following Algorithm 1 line 13).
  PredicateUniverse Universe;
  // The current round's repair disjunctions, one per violating slot with
  // a non-empty one, in slot order: views into the slice's slot storage
  // or the stored round, valid until the next round runs.
  std::vector<std::span<const OrderingPredicate>> RoundRepairs;

  // The degradation fallback restricts static fencing to the functions
  // implicated by some violation's repair candidates (fencing everything
  // when no violation was localized before the budget ran out —
  // conservative but safe). Every violating round that did not end the
  // run added its repairs to Φ's universe, so the implicated functions
  // are those of the universe and of the current round's repairs.
  auto Degrade = [&](std::string Reason) {
    Result.DegradeReason = std::move(Reason);
    if (!Cfg.DegradeToStatic)
      return;
    std::set<ir::FuncId> Implicated;
    auto Implicate = [&](const OrderingPredicate &Pr) {
      if (auto F = Cur.functionOfLabel(Pr.Before))
        Implicated.insert(*F);
    };
    for (const OrderingPredicate &Pr : Universe.preds())
      Implicate(Pr);
    for (std::span<const OrderingPredicate> Disj : RoundRepairs)
      for (const OrderingPredicate &Pr : Disj)
        Implicate(Pr);
    std::vector<ir::FuncId> Only(Implicated.begin(), Implicated.end());
    StaticBaselineResult SB = staticDelaySetFences(Cur, Cfg.Model, Only);
    Cur = std::move(SB.FencedModule);
    Result.StaticFallbackFences = SB.FencesInserted;
    Result.Status = SynthStatus::Degraded;
  };

  // The pool slice lives for the whole run; each round fans its K
  // executions across it and merges in execution-index order, so the
  // result is bit-identical to the sequential engine at any Jobs value
  // (and any slice width). A caller's slice (a serve dispatcher slot's)
  // is used as is; a caller-owned pool contributes its slice 0;
  // otherwise a private pool is built for this run. setObs is
  // per-slice, so concurrent synthesize() calls on different slices
  // never race on observability handles.
  std::optional<exec::ExecPool> OwnedPool;
  exec::PoolSlice *SliceP = Cfg.Slice;
  if (!SliceP) {
    if (!Cfg.Pool)
      OwnedPool.emplace(Cfg.Jobs);
    SliceP = Cfg.Pool ? &Cfg.Pool->slice(0) : &OwnedPool->slice(0);
  }
  exec::PoolSlice &Slice = *SliceP;
  Slice.setObs(Cfg.Obs);
  // Reported from the slice, not Cfg.Jobs: Jobs is ignored under
  // Pool/Slice, and Jobs = 0 means "hardware".
  RunSpan.arg("jobs", static_cast<uint64_t>(Slice.jobs()));
  if (Log)
    Log->info("synth",
              strformat("starting synthesis: model=%s spec=%s k=%u "
                        "max-rounds=%u jobs=%u",
                        vm::memModelName(Cfg.Model),
                        specKindName(Cfg.Spec), Cfg.ExecsPerRound,
                        Cfg.MaxRounds, Slice.jobs()));

  // Result caches (src/cache/). Duplicate Completed histories are only
  // counted (cache_check_*) for specs with a non-trivial history check.
  // Rounds are cached only in a caller-supplied ExecCache, and only when
  // a round is a pure function of its key — no wall-clock watchdog
  // (timeouts depend on machine load), no fault plan (the plan is keyed
  // by pointer, not content), and no bundle capture (stored slots carry
  // no history or trace to capture from).
  bool CountDupHists = Cfg.CacheEnabled &&
                       (Cfg.Spec == SpecKind::NoGarbage ||
                        Cfg.Spec == SpecKind::SequentialConsistency ||
                        Cfg.Spec == SpecKind::Linearizability);
  cache::ExecCache *ExecC =
      Cfg.CacheEnabled && !Cfg.CaptureBundles && !Cfg.Faults.enabled() &&
              Cfg.Exec.ExecWallMs == 0
          ? Cfg.ExecResultCache
          : nullptr;
  // Round keys: the module fingerprint is recomputed after every
  // enforcement (fences change the program), the universe fingerprint
  // grows with Φ's numbering, and the run half is fixed.
  uint64_t ModuleFp = ExecC ? cache::fingerprintModule(Cur) : 0;
  uint64_t RunFp = ExecC ? runFingerprint(Cfg, Clients) : 0;
  // Registered only with a round cache, so runs without one keep their
  // counter snapshot.
  obs::Counter *CacheRepairHitsC =
      ExecC ? obs::counterOrNull(Cfg.Obs, "cache_repair_hits") : nullptr;
  obs::Counter *CacheRejectedC =
      ExecC ? obs::counterOrNull(Cfg.Obs, "cache_exec_rejected") : nullptr;

  // The clients resolved against the working module; every execution of
  // a round runs from these tables. Built before the first round that
  // runs (a round the cache serves needs none) and dropped when fence
  // enforcement mutates Cur.
  std::optional<vm::PreparedProgram> Prepared;
  // Per-round scratch that keeps its storage across rounds: the plan
  // (built only for rounds that run), the duplicate-history table and
  // Φ's clauses.
  exec::RoundPlan Plan;
  FirstSlotTable SeenHists;
  sat::MonotoneCnf F;

  unsigned RepairRounds = 0;
  unsigned CleanRounds = 0;
  for (unsigned Round = 1; Round <= Cfg.MaxRounds; ++Round) {
    RoundStats Stats;
    Stats.Round = Round;
    // Flight recorder bookkeeping: wall-clock bracket of the round and
    // the profiler's attribution watermark, so the round remainder
    // (round_other) can absorb whatever no phase claimed. Finalizes the
    // round's stats on every exit path of the loop body and publishes
    // them: counters, round log line, result's round log.
    auto RoundT0 = std::chrono::steady_clock::now();
    uint64_t ProfBase = Prof ? Prof->totalNs() : 0;
    auto FinishRound = [&](RoundStats &S) {
      S.RoundWallUs = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - RoundT0)
              .count());
      S.CleanStreak = CleanRounds;
      S.DistinctPredicates = Universe.size();
      if (Prof) {
        uint64_t WallNs = S.RoundWallUs * 1000;
        uint64_t Attr = Prof->totalNs() - ProfBase;
        // At --jobs > 1 worker phases overlap the wall clock and Attr
        // can exceed it; the remainder is then simply zero.
        Prof->observePhaseNs(obs::Phase::RoundOther,
                             WallNs > Attr ? WallNs - Attr : 0);
      }
      for (size_t C = 0; C != std::size(RoundCounters); ++C)
        OBS_COUNT(RoundCountersC[C], RoundCounters[C].Of(S));
      OBS_COUNT(CacheRepairHitsC, S.RepairCacheHits);
      OBS_COUNT(CacheRejectedC, S.ExecCacheRejected);
      if (BufHighG)
        BufHighG->max(S.Vm.BufHighWater);
      if (Cfg.RoundLog)
        Cfg.RoundLog->write(roundStatsJson(S));
      Result.RoundLog.push_back(std::move(S));
    };
    harness::Deadline RoundDL = harness::Deadline::sooner(
        RunDL, harness::Deadline::after(Cfg.RoundWallMs));
    OBS_SPAN(RoundSpan, Trace, "round", "synth", 0);
    RoundSpan.arg("round", static_cast<uint64_t>(Round));

    // One round: K executions against the current program, planned up
    // front (seed/client/flush-prob derive from the round-local index),
    // dispatched across the pool, each run under the harness (watchdog +
    // retry escalation for discards) with the spec check on the worker.
    // A cached round is folded from its stored records exactly as a fresh
    // one, without planning it or touching the pool.
    const size_t K = Cfg.ExecsPerRound;
    cache::RoundKey Key{ModuleFp, RunFp, static_cast<uint64_t>(Round - 1) * K,
                        Cfg.ExecsPerRound, Universe.fingerprint()};
    const cache::StoredRound *Hit = ExecC ? ExecC->lookup(Key) : nullptr;
    std::span<exec::RoundSlot> Fresh;
    size_t Ran;
    if (Hit) {
      RoundSpan.arg("cache", std::string("exec-hit"));
      Ran = Hit->Slots.size();
    } else {
      planRound(Cfg, Clients.size(), Round, Plan);
      if (!Prepared)
        Prepared.emplace(Cur, Clients);
      std::function<bool()> StopFn;
      if (RoundDL.armed())
        StopFn = [&] { return RoundDL.expired(); };
      // Workers only judge. Slot spans of a traced run carry the
      // violation text, so those describe on the worker too.
      bool DescribeOnWorker = Trace != nullptr;
      exec::RoundResult RR = exec::runRound(
          Slice, *Prepared, Plan, Cfg.Exec,
          [&Cfg, DescribeOnWorker](const vm::ExecResult &R,
                                   exec::RoundSlot &S) {
            Judgement J = judgeExecution(R, Cfg);
            S.Rec.Violating = J.Violating;
            S.Rec.CheckOutOfBudget = J.OutOfBudget;
            if (J.Violating && DescribeOnWorker)
              S.Violation = describeViolation(R, Cfg);
          },
          StopFn, Cfg.Obs, RoundDL);
      Fresh = RR.Slots;
      Ran = RR.Ran;
    }
    // Budget expiry cancels the slots that had not started; the executed
    // prefix [0, Ran) truncates at a deterministic index boundary,
    // exactly where a sequential loop breaking on the budget would.
    bool Truncated = Ran < K;
    if (Truncated && RunDL.expired())
      Result.TimedOut = true;
    if (Hit)
      Stats.ExecCacheHits = Ran;
    else if (ExecC)
      Stats.ExecCacheMisses = Ran;

    // Deterministic aggregation: fold the slot records in execution-index
    // order into the round's stats, captured bundles (lowest-index
    // violations up to MaxBundles) and repair formula, in the same order
    // the sequential engine produced them. It reads the same records
    // from a fresh round and from a stored one.
    RoundRepairs.clear();
    // Duplicate-history accounting (the cache_check_* statistics): the
    // first slot carrying each distinct Completed history this round is
    // a miss, every later duplicate a hit. A hash match counts only after
    // a full history compare with that first slot, so a 64-bit collision
    // is a miss. Folded in index order, so the counts are jobs-invariant.
    bool CountDups = CountDupHists && !Hit;
    if (CountDups)
      SeenHists.reset(Ran);
    const OrderingPredicate *StoredRepairs =
        Hit ? Hit->Repairs.data() : nullptr;
    auto FoldT0 = std::chrono::steady_clock::now();
    OBS_SPAN(FoldSpan, Trace, "fold", "synth", 0);
    for (size_t I = 0; I != Ran; ++I) {
      const exec::SlotRecord &Rec = Hit ? Hit->Slots[I] : Fresh[I].Rec;
      std::span<const OrderingPredicate> Repairs;
      if (Hit) {
        Repairs = {StoredRepairs, Rec.NumRepairs};
        StoredRepairs += Rec.NumRepairs;
      } else {
        Repairs = {Fresh[I].SE.Result.Repairs.data(), Rec.NumRepairs};
      }
      ++Stats.Executions;
      Stats.Retried += Rec.Attempts - 1;
      Stats.TimedOut += Rec.TimedOut;
      Stats.VmSteps += Rec.Steps;
      Stats.Vm.Flushes += Rec.Stats.Flushes;
      Stats.Vm.SchedSteps += Rec.Stats.SchedSteps;
      Stats.Vm.SchedFlushes += Rec.Stats.SchedFlushes;
      Stats.Vm.StoreForwards += Rec.Stats.StoreForwards;
      Stats.Vm.BufferedStores += Rec.Stats.BufferedStores;
      Stats.Vm.BufHighWater =
          std::max(Stats.Vm.BufHighWater, Rec.Stats.BufHighWater);
      if (CountDups && !Rec.Discarded && Rec.Out == vm::Outcome::Completed) {
        const vm::History &H = Fresh[I].SE.Result.Hist;
        uint32_t First =
            SeenHists.firstOrInsert(H.Hash, static_cast<uint32_t>(I));
        if (First != I && Fresh[First].SE.Result.Hist == H)
          ++Stats.CheckCacheHits;
        else
          ++Stats.CheckCacheMisses;
      }

      if (Rec.Discarded) {
        ++Stats.Discarded;
        Stats.StepLimitHits += Rec.Out == vm::Outcome::StepLimit;
        continue;
      }
      Stats.SpecCheckBudgetHits += Rec.CheckOutOfBudget;
      if (!Rec.Violating)
        continue;
      if (++Stats.Violations == 1) {
        if (Trace) {
          Json A = Json::object();
          A.set("round", Json::number(static_cast<uint64_t>(Round)));
          A.set("index", Json::number(static_cast<uint64_t>(I)));
          Trace->instant("first_violation", "synth", 0, std::move(A));
        }
        // The round's first violation is the only one a result reports,
        // so it is the one described; a stored round keeps the text
        // (stored slots carry no history to describe from).
        if (Hit)
          Stats.SampleViolation = Hit->FirstViolation;
        else if (Fresh[I].Violation.empty())
          Stats.SampleViolation = describeViolation(Fresh[I].SE.Result, Cfg);
        else
          Stats.SampleViolation = Fresh[I].Violation;
        assert(!Stats.SampleViolation.empty() &&
               "stored round lost its first violation's text");
      }
      // The run's one capture site, for VM-level and spec-level
      // violations alike: the attempt that actually ran, described only
      // when a bundle keeps it. Capturing runs keep no cache, so their
      // slots are always fresh.
      if (Cfg.CaptureBundles && Result.Bundles.size() < Cfg.MaxBundles) {
        assert(!Hit && "a capturing run folded a stored round");
        const exec::ExecPlan &P = Plan.Slots[I];
        Result.Bundles.push_back(
            captureBundle(Cur, Clients[P.ClientIdx], P, Fresh[I], Cfg));
      }
      // An empty disjunction means avoid() returned false for this
      // execution: no reordering can explain it. Repairable violations
      // may still exist in the same round; abort only when a whole round
      // is unrepairable.
      if (!Repairs.empty())
        RoundRepairs.push_back(Repairs);
    }
    FoldSpan.arg("ran", static_cast<uint64_t>(Ran));
    FoldSpan.end();
    // Store a fresh round only when it is what an unbounded run would
    // have produced: every slot ran and none was cut by a deadline. It is
    // compacted here and inserted once the round's verdict is known, with
    // its repair step when it repaired the program.
    std::optional<cache::StoredRound> ToStore;
    if (ExecC && !Hit && !Truncated && Stats.TimedOut == 0)
      ToStore = cache::StoredRound::fromSlots(Fresh.first(Ran),
                                              Stats.SampleViolation);
    auto Store = [&](std::optional<cache::RepairStep> Step) {
      if (!ToStore)
        return;
      ToStore->Step = std::move(Step);
      if (ExecC->insert(Key, std::move(*ToStore)) ==
          cache::ExecCache::Insert::Full)
        Stats.ExecCacheRejected = Ran;
    };
    Stats.Truncated = Truncated;
    if (Prof)
      Prof->observePhaseNs(obs::Phase::Fold, obs::nsSince(FoldT0));
    RoundSpan.arg("executions", Stats.Executions);
    RoundSpan.arg("violations", Stats.Violations);
    if (Log)
      Log->debug("synth",
                 strformat("round %u: %llu executions, %llu violations",
                           Round,
                           static_cast<unsigned long long>(
                               Stats.Executions),
                           static_cast<unsigned long long>(
                               Stats.Violations)));

    if (Result.TimedOut) {
      Stats.FencesEnforced =
          static_cast<unsigned>(collectSynthesizedFences(Cur).size());
      FinishRound(Stats);
      break;
    }

    if (Stats.Violations == 0) {
      Stats.FencesEnforced =
          static_cast<unsigned>(collectSynthesizedFences(Cur).size());
      // A cut-short round with no violations proves nothing; do not let
      // it count toward (or keep) a convergence streak. The streak is
      // updated before FinishRound so the round log line reports it.
      if (Truncated)
        CleanRounds = 0;
      else
        ++CleanRounds;
      Store(std::nullopt);
      FinishRound(Stats);
      if (!Truncated &&
          CleanRounds >= std::max(1u, Cfg.CleanRoundsRequired)) {
        Result.Status = SynthStatus::Converged;
        break;
      }
      continue;
    }
    CleanRounds = 0;
    if (RoundRepairs.empty()) {
      // Every violation this round had an empty repair disjunction: the
      // misbehaviour is not caused by reordering ("cannot be fixed").
      Result.Status = SynthStatus::CannotFix;
      Store(std::nullopt);
      FinishRound(Stats);
      break;
    }
    // A round that ends the run here is not stored: a run with a larger
    // budget would need the repair step it never solved.
    if (RepairRounds >= Cfg.MaxRepairRounds) {
      FinishRound(Stats);
      Degrade(strformat("repair budget of %u rounds exhausted with "
                        "violations remaining",
                        Cfg.MaxRepairRounds));
      break;
    }

    // Build Φ = conjunction of the per-execution disjunctions and find a
    // minimal satisfying assignment — or, for a stored round, replay the
    // step solved under the same universe (its key pins the numbering):
    // number its new predicates and take its model and effort as they
    // were, with no clause built and no solve run.
    size_t PredsBefore = Universe.size();
    sat::SolveStats SS;
    bool Unsat = false;
    std::vector<OrderingPredicate> ChosenPreds;
    if (Hit) {
      assert(Hit->Step && "a stored repair round lost its step");
      const cache::RepairStep &Step = *Hit->Step;
      for (const OrderingPredicate &P : Step.NewPredicates)
        Universe.append(P);
      ChosenPreds = Step.Chosen;
      SS.Clauses = Step.SatClauses;
      SS.Models = Step.SatModels;
      SS.Nodes = Step.SatNodes;
      SS.Truncated = Step.SatTruncated;
      Stats.RepairCacheHits = 1;
    } else {
      // Clauses keep slot order and variables their first-seen numbering;
      // F's clause vectors are reused.
      F.Clauses.resize(RoundRepairs.size());
      for (size_t C = 0; C != RoundRepairs.size(); ++C) {
        std::vector<sat::Var> &Clause = F.Clauses[C];
        Clause.clear();
        for (const OrderingPredicate &P : RoundRepairs[C])
          Clause.push_back(Universe.varOf(P));
      }
      F.NumVars = static_cast<unsigned>(Universe.size());
      OBS_SPAN(SatSpan, Trace, "sat_solve", "sat", 0);
      std::vector<sat::Var> Chosen = sat::minimumModel(F, Unsat, &SS);
      SatSpan.arg("clauses", SS.Clauses);
      SatSpan.arg("vars", SS.Vars);
      SatSpan.arg("models", SS.Models);
      SatSpan.arg("nodes", SS.Nodes);
      SatSpan.end();
      if (Prof)
        Prof->observePhaseNs(obs::Phase::SatSolve, SS.SolveNs);
      ChosenPreds.reserve(Chosen.size());
      for (sat::Var V : Chosen)
        ChosenPreds.push_back(Universe.preds()[V]);
    }
    Stats.NewPredicates = Universe.size() - PredsBefore;
    Stats.SatClauses = SS.Clauses;
    Stats.SatModels = SS.Models;
    Stats.SatNodes = SS.Nodes;
    Stats.SatTruncated = SS.Truncated;
    Stats.SatSolveUs = SS.SolveNs / 1000;
    if (Unsat) {
      // A positive CNF with non-empty clauses is always satisfiable, so
      // this is a solver defect — degrade rather than enforce garbage.
      FinishRound(Stats);
      Degrade("SAT solver reported a positive repair formula "
              "unsatisfiable (solver defect)");
      break;
    }
    if (ToStore) {
      const std::vector<OrderingPredicate> &All = Universe.preds();
      Store(cache::RepairStep{
          {All.begin() + static_cast<ptrdiff_t>(PredsBefore), All.end()},
          ChosenPreds,
          SS.Clauses,
          SS.Models,
          SS.Nodes,
          SS.Truncated});
    }

    {
      auto EnforceT0 = std::chrono::steady_clock::now();
      OBS_SPAN(EnforceSpan, Trace, "enforce", "synth", 0);
      EnforceSpan.arg("predicates",
                      static_cast<uint64_t>(ChosenPreds.size()));
      enforcePredicates(Cur, ChosenPreds, Cfg.Mode);
      if (Cfg.MergeFences)
        mergeRedundantFences(Cur);
      // Fence insertion changes no FuncId, name, arity or register
      // count, but the prepared program points into Cur — drop it so the
      // next round that runs prepares the fenced bodies afresh, and
      // refresh the module fingerprint so round keys of the fenced
      // program can never match pre-enforcement entries.
      Prepared.reset();
      if (ExecC)
        ModuleFp = cache::fingerprintModule(Cur);
      if (Prof)
        Prof->observePhaseNs(obs::Phase::Enforce, obs::nsSince(EnforceT0));
    }
    ++RepairRounds;
    Stats.FencesEnforced =
        static_cast<unsigned>(collectSynthesizedFences(Cur).size());
    RoundSpan.arg("fences", static_cast<uint64_t>(Stats.FencesEnforced));
    if (Log)
      Log->info("synth",
                strformat("round %u: enforced %zu predicates "
                          "(%u fences total after merge)",
                          Round, ChosenPreds.size(),
                          Stats.FencesEnforced));
    FinishRound(Stats);
  }

  sumRoundLog(Result);
  if (Result.TimedOut)
    Degrade(strformat("total wall-clock budget of %u ms exhausted "
                      "after %llu executions",
                      Cfg.TotalWallMs,
                      static_cast<unsigned long long>(
                          Result.TotalExecutions)));
  // MaxRounds ran out (or a truncated-round stall) without a verdict.
  else if (Result.Status == SynthStatus::Exhausted &&
           Result.DegradeReason.empty())
    Degrade(strformat("round budget of %u rounds exhausted without "
                      "convergence",
                      Cfg.MaxRounds));

  Result.FencedModule = std::move(Cur);
  Result.Fences = collectSynthesizedFences(Result.FencedModule);
  Result.DistinctPredicates = Universe.size();

  // End-of-run counters (added exactly once, on the merge thread) and the
  // bundle metrics snapshot. The snapshot is the deterministic counter
  // subset only, so captured bundles stay byte-identical at any Jobs.
  if (Cfg.Obs && Cfg.Obs->Metrics) {
    obs::Registry &Reg = *Cfg.Obs->Metrics;
    Reg.counter("synth_fences_total").add(Result.Fences.size());
    Reg.counter("synth_predicates_distinct")
        .add(Result.DistinctPredicates);
    Reg.counter("synth_static_fallback_fences_total")
        .add(Result.StaticFallbackFences);
    if (ExecC) {
      Reg.gauge("cache_exec_entries")
          .set(static_cast<double>(ExecC->size()));
      Reg.gauge("cache_exec_bytes").set(static_cast<double>(ExecC->bytes()));
    }
    // Per-model execution throughput of this run. Wall-clock derived, so
    // a gauge (jobs-variant; stays out of countersJson and the bundle
    // snapshot), named by the run's model so a mixed-model service
    // exposes one series per model.
    if (uint64_t Ms = Watch.elapsedMs(); Ms > 0 && Result.TotalExecutions) {
      std::string Model = vm::memModelName(Cfg.Model);
      for (char &C : Model)
        C = static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
      Reg.gauge("exec_execs_per_sec_" + Model)
          .set(static_cast<double>(Result.TotalExecutions) * 1000.0 /
               static_cast<double>(Ms));
    }
    Json Snap = Reg.countersJson();
    for (harness::ReproBundle &B : Result.Bundles)
      B.Metrics = Snap;
  }
  RunSpan.arg("status", std::string(synthStatusName(Result.Status)));
  RunSpan.arg("rounds", static_cast<uint64_t>(Result.Rounds));
  RunSpan.arg("fences", static_cast<uint64_t>(Result.Fences.size()));
  if (Log) {
    std::string Msg = strformat(
        "%s after %u rounds: %llu executions, %llu violating, %zu fences",
        synthStatusName(Result.Status), Result.Rounds,
        static_cast<unsigned long long>(Result.TotalExecutions),
        static_cast<unsigned long long>(Result.ViolatingExecutions),
        Result.Fences.size());
    if (Result.Status == SynthStatus::Converged)
      Log->info("synth", Msg);
    else
      Log->warn("synth", Msg, {{"reason", Result.DegradeReason}});
  }
  return Result;
}
