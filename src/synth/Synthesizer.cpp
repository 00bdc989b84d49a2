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

#include <cctype>
#include <chrono>
#include <cstring>
#include <map>
#include <optional>
#include <set>
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

std::string synth::checkExecution(const vm::ExecResult &R,
                                  const SynthConfig &Cfg) {
  switch (R.Out) {
  case vm::Outcome::MemSafety:
  case vm::Outcome::AssertFail:
    return R.Message.empty() ? "memory safety violation" : R.Message;
  case vm::Outcome::StepLimit:
  case vm::Outcome::Deadlock:
  case vm::Outcome::Timeout:
    return std::string(); // Discarded, never treated as a violation.
  case vm::Outcome::Completed:
    break;
  }

  // The accept path below is the per-execution hot path (K executions per
  // round, the overwhelming majority clean): it must return before any
  // diagnostic string or history copy is built. This function is called
  // concurrently by the round engine's workers; it only reads Cfg and
  // builds checker-local state.
  switch (Cfg.Spec) {
  case SpecKind::MemorySafety:
    return std::string();
  case SpecKind::NoGarbage:
    return spec::checkNoGarbageTasks(R.Hist);
  case SpecKind::SequentialConsistency:
    if (!Cfg.Factory)
      return "configuration error: sequential-consistency checking "
             "requires a sequential specification";
    if (spec::isSequentiallyConsistent(R.Hist, Cfg.Factory))
      return std::string();
    return "history is not sequentially consistent:\n" + R.Hist.str();
  case SpecKind::Linearizability: {
    if (!Cfg.Factory)
      return "configuration error: linearizability checking requires a "
             "sequential specification";
    // Work-stealing relaxation: concurrent EMPTY take/steal are aborts
    // (see relaxConcurrentEmptyOps); only non-overlapping EMPTY answers
    // must be justified by an empty queue (the paper's Fig. 2c). The
    // relaxation is the identity on histories without EMPTY take/steal
    // answers — the common case — so skip the copy for those.
    bool HasEmptyWsqOp = false;
    for (const vm::OpRecord &Op : R.Hist.Ops)
      if ((Op.Func == "take" || Op.Func == "steal") && Op.Completed &&
          Op.Ret == vm::EmptyVal) {
        HasEmptyWsqOp = true;
        break;
      }
    bool Ok = HasEmptyWsqOp
                  ? spec::isLinearizable(
                        spec::relaxConcurrentEmptyOps(R.Hist), Cfg.Factory)
                  : spec::isLinearizable(R.Hist, Cfg.Factory);
    if (Ok)
      return std::string();
    return "history is not linearizable:\n" + R.Hist.str();
  }
  }
  dfenceUnreachable("invalid spec kind");
}

/// Plans round \p Round (1-based) of a run: one ExecPlan per slot, every
/// per-slot knob derived from the slot's *nominal* global execution index
/// (Round-1)*K + I. Earlier code derived these from the mutable
/// TotalExecutions counter, so a wall-clock-truncated round shifted the
/// seed/client/flush streams of every later round — a reproducibility
/// wart on its own, and fatal for parallel dispatch, which must know the
/// whole plan before anything runs. For untruncated runs the two schemes
/// coincide (TotalExecutions advances by exactly K per round).
static exec::RoundPlan planRound(const SynthConfig &Cfg,
                                 size_t NumClients, unsigned Round) {
  exec::RoundPlan Plan;
  Plan.Slots.resize(Cfg.ExecsPerRound);
  uint64_t First = static_cast<uint64_t>(Round - 1) * Cfg.ExecsPerRound;
  for (unsigned I = 0; I != Cfg.ExecsPerRound; ++I) {
    uint64_t G = First + I;
    exec::ExecPlan &P = Plan.Slots[I];
    P.ClientIdx = static_cast<uint32_t>(G % NumClients);
    vm::ExecConfig &EC = P.EC;
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
  return Plan;
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
  H = vm::hashCombine(H, Cfg.Exec.RetrySeedSalt);
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
  Json Cache = Json::object();
  Cache.set("checkHits", Json::number(S.CheckCacheHits));
  Cache.set("checkMisses", Json::number(S.CheckCacheMisses));
  Cache.set("execHits", Json::number(S.ExecCacheHits));
  Cache.set("execMisses", Json::number(S.ExecCacheMisses));
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

SynthResult synth::synthesize(const ir::Module &M,
                              const std::vector<vm::Client> &Clients,
                              const SynthConfig &Cfg) {
  SynthResult Result;
  Result.FencedModule = M;
  if (Clients.empty()) {
    Result.Status = SynthStatus::ConfigError;
    Result.Error = "synthesis needs at least one client";
    return Result;
  }
  if ((Cfg.Spec == SpecKind::SequentialConsistency ||
       Cfg.Spec == SpecKind::Linearizability) &&
      !Cfg.Factory) {
    Result.Status = SynthStatus::ConfigError;
    Result.Error = strformat("%s checking requires a sequential "
                             "specification (SynthConfig::Factory)",
                             specKindName(Cfg.Spec));
    return Result;
  }
  ir::Module Cur = M; // Work on a copy; labels stay stable.
  Cur.buildIndexes();

  // Pre-resolved observability handles: every instrumentation site below
  // is a branch on one of these (all null when Cfg.Obs carries no sink).
  // Counters are only bumped here on the merge thread, in execution-index
  // order — that is what keeps their values bit-identical at any Jobs.
  obs::TraceSink *Trace = obs::traceOrNull(Cfg.Obs);
  obs::Logger *Log = obs::logOrNull(Cfg.Obs);
  obs::Counter *ExecsC = obs::counterOrNull(Cfg.Obs, "synth_executions_total");
  obs::Counter *ViolationsC =
      obs::counterOrNull(Cfg.Obs, "synth_violations_total");
  obs::Counter *DiscardedC =
      obs::counterOrNull(Cfg.Obs, "synth_discarded_total");
  obs::Counter *RoundsC = obs::counterOrNull(Cfg.Obs, "synth_rounds_total");
  obs::Counter *RepairRoundsC =
      obs::counterOrNull(Cfg.Obs, "synth_repair_rounds_total");
  obs::Counter *VmStepsC = obs::counterOrNull(Cfg.Obs, "vm_steps_total");
  obs::Counter *VmFlushesC = obs::counterOrNull(Cfg.Obs, "vm_flushes_total");
  obs::Counter *VmSchedStepsC =
      obs::counterOrNull(Cfg.Obs, "vm_sched_steps_total");
  obs::Counter *VmSchedFlushesC =
      obs::counterOrNull(Cfg.Obs, "vm_sched_flushes_total");
  obs::Counter *VmFwdC =
      obs::counterOrNull(Cfg.Obs, "vm_store_forwards_total");
  obs::Counter *VmBufStoresC =
      obs::counterOrNull(Cfg.Obs, "vm_buffered_stores_total");
  obs::Gauge *BufHighG = obs::gaugeOrNull(Cfg.Obs, "vm_buf_high_water");
  obs::Counter *SatSolvesC = obs::counterOrNull(Cfg.Obs, "sat_solves_total");
  obs::Counter *SatClausesC =
      obs::counterOrNull(Cfg.Obs, "sat_clauses_total");
  obs::Counter *SatModelsC = obs::counterOrNull(Cfg.Obs, "sat_models_total");
  obs::Counter *SatNodesC = obs::counterOrNull(Cfg.Obs, "sat_nodes_total");
  obs::Counter *SatTruncatedC =
      obs::counterOrNull(Cfg.Obs, "sat_truncated_total");
  // Cache counters count merge-thread events only (see the fold loop), so
  // they are jobs-invariant like every other counter.
  obs::Counter *CacheCheckHitsC =
      obs::counterOrNull(Cfg.Obs, "cache_check_hits");
  obs::Counter *CacheCheckMissesC =
      obs::counterOrNull(Cfg.Obs, "cache_check_misses");
  obs::Counter *CacheExecHitsC =
      obs::counterOrNull(Cfg.Obs, "cache_exec_hits");
  obs::Counter *CacheExecMissesC =
      obs::counterOrNull(Cfg.Obs, "cache_exec_misses");
  // Flight recorder (optional). Exec-side phases accumulate on the round
  // workers; the merge-thread phases (sat_solve, enforce, fold) and the
  // per-round remainder are observed below. Phase times are wall-clock
  // and live in histograms only — never counters — so the deterministic
  // counter snapshot stays byte-identical with the recorder on or off.
  obs::Profiler *Prof = obs::profilerOrNull(Cfg.Obs);

  OBS_SPAN(RunSpan, Trace, "synthesize", "synth", 0);
  RunSpan.arg("model", std::string(vm::memModelName(Cfg.Model)));
  RunSpan.arg("spec", std::string(specKindName(Cfg.Spec)));
  RunSpan.arg("k", static_cast<uint64_t>(Cfg.ExecsPerRound));

  harness::Supervisor Sup(Cfg.Exec);
  if (Cfg.CaptureBundles)
    Sup.enableBundleCapture(Cfg.MaxBundles);
  Sup.setSpecInfo(specKindName(Cfg.Spec), Cfg.SeqSpecName);
  Sup.setCacheInfo(Cfg.CacheEnabled ? "on" : "off");
  Sup.setRequestInfo(Cfg.RequestTag);
  harness::Stopwatch Watch;
  // The run-level deadline cancels slots that have not started and is
  // threaded into every in-flight execution (each attempt's watchdog is
  // capped at the time remaining), so the total budget cancels work
  // mid-round.
  harness::Deadline RunDL = harness::Deadline::after(Cfg.TotalWallMs);

  // Functions implicated by some violation's repair candidates; the
  // degradation fallback restricts static fencing to these (fencing
  // everything when no violation was localized before the budget ran
  // out — conservative but safe).
  std::set<ir::FuncId> Implicated;
  auto Degrade = [&](std::string Reason) {
    Result.DegradeReason = std::move(Reason);
    if (!Cfg.DegradeToStatic)
      return;
    std::vector<ir::FuncId> Only(Implicated.begin(), Implicated.end());
    StaticBaselineResult SB = staticDelaySetFences(Cur, Cfg.Model, Only);
    Cur = std::move(SB.FencedModule);
    Result.StaticFallbackFences = SB.FencesInserted;
    Result.Status = SynthStatus::Degraded;
  };

  // Stable mapping predicate <-> SAT variable across the whole run
  // (statistics only need the universe size; the formula itself is reset
  // after every repair, following Algorithm 1 line 13).
  std::map<OrderingPredicate, sat::Var> PredVar;
  std::vector<OrderingPredicate> VarPred;

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
  // enforcement (fences change the program); the run half is fixed.
  uint64_t ModuleFp = ExecC ? cache::fingerprintModule(Cur) : 0;
  uint64_t RunFp = ExecC ? runFingerprint(Cfg, Clients) : 0;

  // Resolve the clients against the working module once up front; every
  // execution of every round runs from these tables. Rebuilt below after
  // fence enforcement mutates Cur (cheap: a handful of name lookups).
  std::optional<vm::PreparedProgram> Prepared;
  Prepared.emplace(Cur, Clients);

  unsigned RepairRounds = 0;
  unsigned CleanRounds = 0;
  bool OutOfTime = false;
  for (unsigned Round = 1; Round <= Cfg.MaxRounds; ++Round) {
    Result.Rounds = Round;
    RoundStats Stats;
    Stats.Round = Round;
    // Flight recorder bookkeeping: wall-clock bracket of the round and
    // the profiler's attribution watermark, so the round remainder
    // (round_other) can absorb whatever no phase claimed. Finalizes and
    // publishes the round's stats on every exit path of the loop body.
    auto RoundT0 = std::chrono::steady_clock::now();
    uint64_t ProfBase = Prof ? Prof->totalNs() : 0;
    auto FinishRound = [&](RoundStats &S) {
      S.RoundWallUs = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - RoundT0)
              .count());
      S.CleanStreak = CleanRounds;
      S.DistinctPredicates = VarPred.size();
      if (Prof) {
        uint64_t WallNs = S.RoundWallUs * 1000;
        uint64_t Attr = Prof->totalNs() - ProfBase;
        // At --jobs > 1 worker phases overlap the wall clock and Attr
        // can exceed it; the remainder is then simply zero.
        Prof->observePhaseNs(obs::Phase::RoundOther,
                             WallNs > Attr ? WallNs - Attr : 0);
      }
      if (Cfg.RoundLog)
        Cfg.RoundLog->write(roundStatsJson(S));
      Result.RoundLog.push_back(std::move(S));
    };
    harness::Deadline RoundDL = harness::Deadline::sooner(
        RunDL, harness::Deadline::after(Cfg.RoundWallMs));
    OBS_COUNT(RoundsC, 1);
    OBS_SPAN(RoundSpan, Trace, "round", "synth", 0);
    RoundSpan.arg("round", static_cast<uint64_t>(Round));

    // One round: K executions against the current program, planned up
    // front (seed/client/flush-prob derive from the round-local index),
    // dispatched across the pool, each run under the harness (watchdog +
    // retry escalation for discards) with the spec check on the worker.
    exec::RoundPlan Plan = planRound(Cfg, Clients.size(), Round);
    // A cached round is folded from its stored slots exactly as a fresh
    // one, without touching the pool.
    cache::RoundKey Key{ModuleFp, RunFp,
                        static_cast<uint64_t>(Round - 1) * Cfg.ExecsPerRound,
                        Cfg.ExecsPerRound};
    const std::vector<exec::RoundSlot> *Hit =
        ExecC ? ExecC->lookup(Key) : nullptr;
    exec::RoundResult RR;
    if (Hit) {
      RoundSpan.arg("cache", std::string("exec-hit"));
    } else {
      std::function<bool()> StopFn;
      if (RoundDL.armed())
        StopFn = [&] { return RoundDL.expired(); };
      RR = exec::runRound(
          Slice, *Prepared, Plan, Cfg.Exec,
          [&Cfg](const vm::ExecResult &R) { return checkExecution(R, Cfg); },
          StopFn, Cfg.Obs, RoundDL);
    }
    const std::vector<exec::RoundSlot> &Slots = Hit ? *Hit : RR.Slots;
    size_t Ran = Hit ? Hit->size() : RR.Ran;
    // Budget expiry cancels the slots that had not started; the executed
    // prefix [0, Ran) truncates at a deterministic index boundary,
    // exactly where a sequential loop breaking on the budget would.
    bool Truncated = Ran < Plan.Slots.size();
    if (Truncated && RunDL.expired())
      OutOfTime = true;
    if (Hit) {
      Result.ExecCacheHits += Ran;
      Stats.ExecCacheHits += Ran;
      OBS_COUNT(CacheExecHitsC, Ran);
    } else if (ExecC) {
      Result.ExecCacheMisses += Ran;
      Stats.ExecCacheMisses += Ran;
      OBS_COUNT(CacheExecMissesC, Ran);
    }

    // Deterministic aggregation: fold the slots in execution-index order.
    // Every SynthResult field — counters, round log, first violation,
    // captured bundles (lowest-index violations up to MaxBundles),
    // implicated functions, repair formula — comes out of this loop in
    // the same order the sequential engine produced it.
    std::vector<std::vector<OrderingPredicate>> ViolationRepairs;
    // Duplicate-history accounting (the cache_check_* statistics): the
    // first slot carrying each distinct Completed history this round is
    // a miss, every later duplicate a hit. A hash match counts only after
    // a full history compare, so a 64-bit collision is a miss. Folded in
    // index order, so the counts are jobs-invariant.
    std::unordered_map<uint64_t, size_t> SeenHists;
    bool AnyTimedOut = false;
    auto FoldT0 = std::chrono::steady_clock::now();
    OBS_SPAN(FoldSpan, Trace, "fold", "synth", 0);
    for (size_t I = 0; I != Ran; ++I) {
      const exec::ExecPlan &P = Plan.Slots[I];
      const vm::Client &Client = Clients[P.ClientIdx];
      const harness::SupervisedExec &SE = Slots[I].SE;
      const vm::ExecResult &R = SE.Result;
      Sup.fold(Cur, Client, P.EC, SE);
      AnyTimedOut |= SE.TimedOut;
      ++Result.TotalExecutions;
      ++Stats.Executions;
      OBS_COUNT(ExecsC, 1);
      OBS_COUNT(VmStepsC, R.Steps);
      OBS_COUNT(VmFlushesC, R.Stats.Flushes);
      OBS_COUNT(VmSchedStepsC, R.Stats.SchedSteps);
      OBS_COUNT(VmSchedFlushesC, R.Stats.SchedFlushes);
      OBS_COUNT(VmFwdC, R.Stats.StoreForwards);
      OBS_COUNT(VmBufStoresC, R.Stats.BufferedStores);
      if (BufHighG)
        BufHighG->max(R.Stats.BufHighWater);
      if (CountDupHists && !Hit && !SE.Discarded &&
          R.Out == vm::Outcome::Completed) {
        auto [It, New] = SeenHists.try_emplace(R.Hist.Hash, I);
        if (!New && Slots[It->second].SE.Result.Hist == R.Hist) {
          ++Result.CheckCacheHits;
          ++Stats.CheckCacheHits;
          OBS_COUNT(CacheCheckHitsC, 1);
        } else {
          ++Result.CheckCacheMisses;
          ++Stats.CheckCacheMisses;
          OBS_COUNT(CacheCheckMissesC, 1);
        }
      }

      if (SE.Discarded) {
        ++Result.DiscardedExecutions;
        OBS_COUNT(DiscardedC, 1);
        continue;
      }
      const std::string &Violation = Slots[I].Violation;
      if (Violation.empty())
        continue;
      ++Result.ViolatingExecutions;
      ++Stats.Violations;
      OBS_COUNT(ViolationsC, 1);
      if (Trace && Stats.Violations == 1) {
        Json A = Json::object();
        A.set("round", Json::number(static_cast<uint64_t>(Round)));
        A.set("index", Json::number(static_cast<uint64_t>(I)));
        Trace->instant("first_violation", "synth", 0, std::move(A));
      }
      if (Stats.SampleViolation.empty())
        Stats.SampleViolation = Violation;
      if (Result.FirstViolation.empty())
        Result.FirstViolation = Violation;
      // Spec-level violations complete normally in the VM, so the
      // supervisor cannot capture them on its own (it captures VM-level
      // violations); do it here, with the attempt that actually ran.
      if (Sup.capturing() && R.Out == vm::Outcome::Completed) {
        vm::ExecConfig CapEC = P.EC;
        CapEC.Seed = SE.UsedSeed;
        CapEC.MaxSteps = SE.UsedMaxSteps;
        Sup.capture(Cur, Client, CapEC, R, Violation);
      }
      for (const OrderingPredicate &Pr : R.Repairs)
        if (auto F = Cur.functionOfLabel(Pr.Before))
          Implicated.insert(*F);
      if (R.Repairs.empty()) {
        // avoid() returned false for this execution: no reordering can
        // explain it. Repairable violations may still exist in the same
        // round; abort only when a whole round is unrepairable.
        continue;
      }
      ViolationRepairs.push_back(R.Repairs);
    }
    FoldSpan.arg("ran", static_cast<uint64_t>(Ran));
    FoldSpan.end();
    // Store a fresh round only when it is what an unbounded run would
    // have produced: every slot ran and none was cut by a deadline.
    if (ExecC && !Hit && !Truncated && !AnyTimedOut) {
      for (exec::RoundSlot &S : RR.Slots) {
        S.SE.Result.Hist = {};
        S.SE.Result.Trace = {};
      }
      ExecC->insert(Key, std::move(RR.Slots));
    }
    Stats.Truncated = Truncated;
    if (Prof)
      Prof->observePhaseNs(
          obs::Phase::Fold,
          obs::ProfilerShard::elapsedNs(
              FoldT0, std::chrono::steady_clock::now()));
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

    if (OutOfTime) {
      Stats.FencesEnforced =
          static_cast<unsigned>(collectSynthesizedFences(Cur).size());
      FinishRound(Stats);
      Result.TimedOut = true;
      Degrade(strformat("total wall-clock budget of %u ms exhausted "
                        "after %llu executions",
                        Cfg.TotalWallMs,
                        static_cast<unsigned long long>(
                            Result.TotalExecutions)));
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
      FinishRound(Stats);
      if (!Truncated &&
          CleanRounds >= std::max(1u, Cfg.CleanRoundsRequired)) {
        Result.Status = SynthStatus::Converged;
        break;
      }
      continue;
    }
    CleanRounds = 0;
    if (ViolationRepairs.empty()) {
      // Every violation this round had an empty repair disjunction: the
      // misbehaviour is not caused by reordering ("cannot be fixed").
      Result.Status = SynthStatus::CannotFix;
      FinishRound(Stats);
      break;
    }
    if (RepairRounds >= Cfg.MaxRepairRounds) {
      FinishRound(Stats);
      Degrade(strformat("repair budget of %u rounds exhausted with "
                        "violations remaining",
                        Cfg.MaxRepairRounds));
      break;
    }

    // Build Φ = conjunction of the per-execution disjunctions and find a
    // minimal satisfying assignment.
    size_t PredsBefore = VarPred.size();
    sat::MonotoneCnf F;
    for (const std::vector<OrderingPredicate> &Disj : ViolationRepairs) {
      std::vector<sat::Var> Clause;
      for (const OrderingPredicate &P : Disj) {
        auto It = PredVar.find(P);
        if (It == PredVar.end()) {
          sat::Var V = static_cast<sat::Var>(VarPred.size());
          It = PredVar.emplace(P, V).first;
          VarPred.push_back(P);
        }
        Clause.push_back(It->second);
      }
      F.Clauses.push_back(std::move(Clause));
    }
    F.NumVars = static_cast<unsigned>(VarPred.size());
    Result.DistinctPredicates = VarPred.size();
    Stats.NewPredicates = VarPred.size() - PredsBefore;

    bool Unsat = false;
    sat::SolveStats SS;
    OBS_SPAN(SatSpan, Trace, "sat_solve", "sat", 0);
    std::vector<sat::Var> Chosen = sat::minimumModel(F, Unsat, &SS);
    SatSpan.arg("clauses", SS.Clauses);
    SatSpan.arg("vars", SS.Vars);
    SatSpan.arg("models", SS.Models);
    SatSpan.arg("nodes", SS.Nodes);
    SatSpan.end();
    OBS_COUNT(SatSolvesC, 1);
    OBS_COUNT(SatClausesC, SS.Clauses);
    OBS_COUNT(SatModelsC, SS.Models);
    OBS_COUNT(SatNodesC, SS.Nodes);
    OBS_COUNT(SatTruncatedC, SS.Truncated);
    Stats.SatClauses = SS.Clauses;
    Stats.SatModels = SS.Models;
    Stats.SatNodes = SS.Nodes;
    Stats.SatTruncated = SS.Truncated;
    Stats.SatSolveUs = SS.SolveNs / 1000;
    Result.SatTruncated += SS.Truncated;
    if (Prof)
      Prof->observePhaseNs(obs::Phase::SatSolve, SS.SolveNs);
    if (Unsat) {
      // A positive CNF with non-empty clauses is always satisfiable, so
      // this is a solver defect — degrade rather than enforce garbage.
      FinishRound(Stats);
      Degrade("SAT solver reported a positive repair formula "
              "unsatisfiable (solver defect)");
      break;
    }

    std::vector<OrderingPredicate> ChosenPreds;
    ChosenPreds.reserve(Chosen.size());
    for (sat::Var V : Chosen)
      ChosenPreds.push_back(VarPred[V]);
    {
      auto EnforceT0 = std::chrono::steady_clock::now();
      OBS_SPAN(EnforceSpan, Trace, "enforce", "synth", 0);
      EnforceSpan.arg("predicates",
                      static_cast<uint64_t>(ChosenPreds.size()));
      enforcePredicates(Cur, ChosenPreds, Cfg.Mode);
      if (Cfg.MergeFences)
        mergeRedundantFences(Cur);
      // Fence insertion changes no FuncId, name, arity or register
      // count, but the prepared program points into Cur — rebuild so the
      // next round runs against the fenced bodies with fresh tables, and
      // refresh the module fingerprint so round keys of the fenced
      // program can never match pre-enforcement entries.
      Prepared.emplace(Cur, Clients);
      if (ExecC)
        ModuleFp = cache::fingerprintModule(Cur);
      if (Prof)
        Prof->observePhaseNs(
            obs::Phase::Enforce,
            obs::ProfilerShard::elapsedNs(
                EnforceT0, std::chrono::steady_clock::now()));
    }
    ++RepairRounds;
    OBS_COUNT(RepairRoundsC, 1);
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

  // MaxRounds ran out (or a truncated-round stall) without a verdict.
  if (Result.Status == SynthStatus::Exhausted &&
      Result.DegradeReason.empty())
    Degrade(strformat("round budget of %u rounds exhausted without "
                      "convergence",
                      Cfg.MaxRounds));

  Result.FencedModule = std::move(Cur);
  Result.Fences = collectSynthesizedFences(Result.FencedModule);
  Result.DistinctPredicates = VarPred.size();
  Result.RetriedExecutions = Sup.stats().Retries;
  Result.TimedOutExecutions = Sup.stats().TimedOut;
  Result.Bundles = Sup.takeBundles();

  // End-of-run totals (added exactly once, on the merge thread) and the
  // bundle metrics snapshot. The snapshot is the deterministic counter
  // subset only, so captured bundles stay byte-identical at any Jobs.
  if (Cfg.Obs && Cfg.Obs->Metrics) {
    obs::Registry &Reg = *Cfg.Obs->Metrics;
    Reg.counter("synth_fences_total").add(Result.Fences.size());
    Reg.counter("synth_predicates_distinct")
        .add(Result.DistinctPredicates);
    Reg.counter("synth_static_fallback_fences_total")
        .add(Result.StaticFallbackFences);
    Reg.counter("harness_retries_total").add(Sup.stats().Retries);
    Reg.counter("harness_discarded_total").add(Sup.stats().Discarded);
    Reg.counter("harness_timeouts_total").add(Sup.stats().TimedOut);
    if (ExecC)
      Reg.gauge("cache_exec_entries")
          .set(static_cast<double>(ExecC->size()));
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
