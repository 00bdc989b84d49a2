//===- CacheDifferentialTest.cpp - cache=on ≡ cache=off, at any jobs ------===//
//
// The result caches' headline contract (docs/ALGORITHM.md §12): caching
// is an execution-plan optimization, never an observable one. For every
// benchmark in the synthesis suite, a run with the caches on must produce
// a SynthResult byte-identical to the run with them off — same fences,
// same per-round violation counts, same first-violation diagnostics, same
// harness accounting — at jobs=1 and jobs=8 alike, and the deterministic
// metrics counter snapshot must match after stripping the cache_* keys
// (the only counters allowed to differ, since they describe the caches
// themselves). The execution cache's full-key compare is what makes
// this pinnable as equality rather than approximation.
//
//===----------------------------------------------------------------------===//

#include "cache/ExecCache.h"
#include "frontend/Compiler.h"
#include "ir/Printer.h"
#include "obs/Obs.h"
#include "programs/Benchmark.h"
#include "serve/Protocol.h"
#include "support/Rng.h"
#include "synth/Synthesizer.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace dfence;
using namespace dfence::programs;
using namespace dfence::synth;
using vm::MemModel;

namespace {

SpecKind strictestSpec(const Benchmark &B) {
  if (B.UseNoGarbage)
    return SpecKind::NoGarbage;
  return B.Factory ? SpecKind::Linearizability : SpecKind::MemorySafety;
}

SynthResult run(const Benchmark &B, MemModel Model, bool CacheOn,
                unsigned Jobs, obs::Registry *Reg = nullptr,
                cache::ExecCache *Shared = nullptr) {
  auto CR = frontend::compileMiniC(B.Source);
  EXPECT_TRUE(CR.Ok) << B.Name << ": " << CR.Error;
  SynthConfig Cfg;
  Cfg.Model = Model;
  Cfg.Spec = strictestSpec(B);
  Cfg.Factory = B.Factory;
  Cfg.ExecsPerRound = 150;
  Cfg.MaxRounds = 8;
  Cfg.MaxRepairRounds = 8;
  Cfg.MaxStepsPerExec = 20000;
  Cfg.FlushProb = Model == MemModel::TSO ? 0.1 : 0.5;
  if (Model == MemModel::PSO)
    Cfg.FlushProbs = {0.5, 0.1};
  Cfg.BaseSeed = deriveSeed(0x5eed, B.Name);
  Cfg.Jobs = Jobs;
  Cfg.CacheEnabled = CacheOn;
  Cfg.ExecResultCache = Shared;
  obs::ObsContext Obs;
  if (Reg) {
    Obs.Metrics = Reg;
    Cfg.Obs = &Obs;
  }
  return synthesize(CR.Module, B.Clients, Cfg);
}

/// Every observable SynthResult field — everything except the four
/// cache-statistics fields, which describe the caches themselves.
void expectEquivalent(const SynthResult &A, const SynthResult &B,
                      const std::string &What) {
  EXPECT_EQ(A.Status, B.Status) << What;
  EXPECT_EQ(A.DegradeReason, B.DegradeReason) << What;
  EXPECT_EQ(A.Error, B.Error) << What;
  EXPECT_EQ(A.fenceSummary(), B.fenceSummary()) << What;
  EXPECT_EQ(A.Rounds, B.Rounds) << What;
  EXPECT_EQ(A.TotalExecutions, B.TotalExecutions) << What;
  EXPECT_EQ(A.ViolatingExecutions, B.ViolatingExecutions) << What;
  EXPECT_EQ(A.DiscardedExecutions, B.DiscardedExecutions) << What;
  EXPECT_EQ(A.RetriedExecutions, B.RetriedExecutions) << What;
  EXPECT_EQ(A.TimedOutExecutions, B.TimedOutExecutions) << What;
  EXPECT_EQ(A.DistinctPredicates, B.DistinctPredicates) << What;
  EXPECT_EQ(A.StaticFallbackFences, B.StaticFallbackFences) << What;
  EXPECT_EQ(A.FirstViolation, B.FirstViolation) << What;
  EXPECT_EQ(ir::printModule(A.FencedModule),
            ir::printModule(B.FencedModule))
      << What;
  ASSERT_EQ(A.RoundLog.size(), B.RoundLog.size()) << What;
  for (size_t I = 0; I != A.RoundLog.size(); ++I) {
    EXPECT_EQ(A.RoundLog[I].Round, B.RoundLog[I].Round) << What;
    EXPECT_EQ(A.RoundLog[I].Executions, B.RoundLog[I].Executions)
        << What << " round " << I;
    EXPECT_EQ(A.RoundLog[I].Violations, B.RoundLog[I].Violations)
        << What << " round " << I;
    EXPECT_EQ(A.RoundLog[I].FencesEnforced, B.RoundLog[I].FencesEnforced)
        << What << " round " << I;
    EXPECT_EQ(A.RoundLog[I].SampleViolation,
              B.RoundLog[I].SampleViolation)
        << What << " round " << I;
  }
  ASSERT_EQ(A.Bundles.size(), B.Bundles.size()) << What;
  for (size_t I = 0; I != A.Bundles.size(); ++I)
    EXPECT_EQ(A.Bundles[I].toJson().dump(), B.Bundles[I].toJson().dump())
        << What << " bundle " << I;
}

/// The registry's deterministic counter snapshot without the keys that
/// start with one of \p Prefixes.
std::string countersWithout(obs::Registry &Reg,
                            std::initializer_list<std::string> Prefixes) {
  Json Doc = Reg.countersJson();
  const Json *Counters = Doc.find("counters");
  if (!Counters)
    return "{}";
  Json Out = Json::object();
  for (const auto &[Key, Val] : Counters->members())
    if (std::none_of(Prefixes.begin(), Prefixes.end(),
                     [&](const std::string &P) {
                       return Key.rfind(P, 0) == 0;
                     }))
      Out.set(Key, Val);
  return Out.dump();
}

/// The snapshot minus the cache_* keys, which describe the caches.
std::string countersMinusCache(obs::Registry &Reg) {
  return countersWithout(Reg, {"cache_"});
}

} // namespace

class CacheDifferentialTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(CacheDifferentialTest, OnAndOffByteIdenticalAtOneAndEightJobs) {
  const Benchmark &B = benchmarkByName(GetParam());
  for (MemModel Model : {MemModel::TSO, MemModel::PSO}) {
    obs::Registry RegOn1, RegOff1, RegOn8, RegOff8;
    SynthResult On1 = run(B, Model, /*CacheOn=*/true, 1, &RegOn1);
    SynthResult Off1 = run(B, Model, /*CacheOn=*/false, 1, &RegOff1);
    SynthResult On8 = run(B, Model, /*CacheOn=*/true, 8, &RegOn8);
    SynthResult Off8 = run(B, Model, /*CacheOn=*/false, 8, &RegOff8);
    std::string What =
        B.Name + std::string("/") + vm::memModelName(Model);
    expectEquivalent(On1, Off1, What + " on1-vs-off1");
    expectEquivalent(On1, On8, What + " on1-vs-on8");
    expectEquivalent(On1, Off8, What + " on1-vs-off8");

    // The deterministic counter snapshots agree after stripping the
    // cache-describing keys; with caching on they also agree *across
    // jobs* including those keys (cache counters are jobs-invariant).
    EXPECT_EQ(countersMinusCache(RegOn1), countersMinusCache(RegOff1))
        << What;
    EXPECT_EQ(countersMinusCache(RegOn8), countersMinusCache(RegOff8))
        << What;
    EXPECT_EQ(RegOn1.countersJson().dump(), RegOn8.countersJson().dump())
        << What;

    // The comparison must not be vacuous: for history-checked specs the
    // cache-on runs have to count real check traffic (the per-round
    // duplicate-history statistics).
    if (strictestSpec(B) != SpecKind::MemorySafety) {
      EXPECT_GT(On1.CheckCacheHits + On1.CheckCacheMisses, 0u) << What;
    }

    // Cache statistics must also be jobs-invariant in the SynthResult.
    EXPECT_EQ(On1.CheckCacheHits, On8.CheckCacheHits) << What;
    EXPECT_EQ(On1.CheckCacheMisses, On8.CheckCacheMisses) << What;
    EXPECT_EQ(On1.ExecCacheHits, On8.ExecCacheHits) << What;
    EXPECT_EQ(On1.ExecCacheMisses, On8.ExecCacheMisses) << What;
    // And the off runs must report no cache activity at all.
    EXPECT_EQ(Off1.CheckCacheHits + Off1.CheckCacheMisses +
                  Off1.ExecCacheHits + Off1.ExecCacheMisses,
              0u)
        << What;
  }
}

TEST_P(CacheDifferentialTest, WarmSharedCacheServesEveryRound) {
  const Benchmark &B = benchmarkByName(GetParam());
  for (MemModel Model : {MemModel::TSO, MemModel::PSO}) {
    cache::ExecCache Shared;
    obs::Registry RegCold, RegWarm;
    SynthResult Cold = run(B, Model, /*CacheOn=*/true, 1, &RegCold, &Shared);
    SynthResult Warm = run(B, Model, /*CacheOn=*/true, 1, &RegWarm, &Shared);
    std::string What =
        B.Name + std::string("/") + vm::memModelName(Model);
    expectEquivalent(Cold, Warm, What + " cold-vs-warm");
    // A stored round is folded without touching the pool, so the pool's
    // own counters are the other keys a hit may change.
    EXPECT_EQ(countersWithout(RegCold, {"cache_", "exec_pool_"}),
              countersWithout(RegWarm, {"cache_", "exec_pool_"}))
        << What;
    EXPECT_GT(RegCold.counter("exec_pool_claims_total").value(), 0u)
        << What;
    EXPECT_EQ(RegWarm.counter("exec_pool_claims_total").value(), 0u)
        << What;
    EXPECT_EQ(Cold.ExecCacheHits, 0u) << What;
    EXPECT_EQ(Warm.ExecCacheHits, Warm.TotalExecutions) << What;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, CacheDifferentialTest,
    ::testing::ValuesIn([] {
      std::vector<std::string> Names;
      for (const Benchmark &B : allBenchmarks())
        Names.push_back(B.Name);
      return Names;
    }()),
    [](const auto &Info) {
      std::string Name = Info.param;
      for (char &Ch : Name)
        if (Ch == ' ' || Ch == '-')
          Ch = '_';
      return Name;
    });

TEST(CacheDifferentialTest, SharedExecCacheAcceleratesReverification) {
  // The cross-run scenario the ExecCache exists for: synthesize once,
  // then re-verify the *fenced* result with the same knobs through a
  // shared cache. The second run's executions are all cache hits, and
  // its observable result is identical to a cold re-run.
  const Benchmark &B = benchmarkByName("Chase-Lev WSQ");
  auto CR = frontend::compileMiniC(B.Source);
  ASSERT_TRUE(CR.Ok);
  SynthConfig Cfg;
  Cfg.Model = MemModel::PSO;
  Cfg.Spec = SpecKind::SequentialConsistency;
  Cfg.Factory = B.Factory;
  Cfg.ExecsPerRound = 120;
  Cfg.MaxRounds = 2;
  Cfg.MaxRepairRounds = 0;
  Cfg.CleanRoundsRequired = 2;
  Cfg.BaseSeed = deriveSeed(0x5eed, B.Name);

  // First synthesize the fences, then verify the fenced module twice —
  // once cold, once against the shared cache warmed by the cold run.
  SynthConfig Synth = Cfg;
  Synth.MaxRounds = 8;
  Synth.MaxRepairRounds = 8;
  SynthResult Fenced = synthesize(CR.Module, B.Clients, Synth);
  ASSERT_EQ(Fenced.Status, SynthStatus::Converged) << Fenced.FirstViolation;

  cache::ExecCache Shared;
  Cfg.ExecResultCache = &Shared;
  SynthResult Cold = synthesize(Fenced.FencedModule, B.Clients, Cfg);
  EXPECT_EQ(Cold.ExecCacheHits, 0u);
  EXPECT_GT(Shared.size(), 0u);

  SynthResult Warm = synthesize(Fenced.FencedModule, B.Clients, Cfg);
  EXPECT_EQ(Warm.ExecCacheHits, Warm.TotalExecutions)
      << "an unchanged program re-verified with unchanged knobs must be "
         "served entirely from the shared cache";
  expectEquivalent(Cold, Warm, "cold vs warm re-verification");
}

TEST(CacheDifferentialTest, SpecIsPartOfTheRoundKey) {
  // A memory-safety run stores rounds judged against memory safety only;
  // a linearizability run of the same module, clients and seed on the
  // same cache must judge every round afresh, and come out byte for byte
  // as it does cold.
  const Benchmark &B = benchmarkByName("Chase-Lev WSQ");
  auto CR = frontend::compileMiniC(B.Source);
  ASSERT_TRUE(CR.Ok);
  SynthConfig Cfg;
  Cfg.Model = MemModel::PSO;
  Cfg.Factory = B.Factory;
  Cfg.ExecsPerRound = 300;
  Cfg.MaxRounds = 8;
  Cfg.MaxRepairRounds = 8;
  Cfg.FlushProbs = {0.5, 0.1};
  auto Run = [&](SpecKind Spec, cache::ExecCache &Cache) {
    SynthConfig C = Cfg;
    C.Spec = Spec;
    C.ExecResultCache = &Cache;
    return synthesize(CR.Module, B.Clients, C);
  };
  cache::ExecCache Fresh, Shared;
  SynthResult Cold = Run(SpecKind::Linearizability, Fresh);
  ASSERT_EQ(Cold.Status, SynthStatus::Converged);
  ASSERT_FALSE(Cold.Fences.empty());
  Run(SpecKind::MemorySafety, Shared);
  SynthResult Lin = Run(SpecKind::Linearizability, Shared);
  EXPECT_EQ(Lin.ExecCacheHits, 0u);
  EXPECT_EQ(serve::resultToJson(Lin).dump(), serve::resultToJson(Cold).dump());
}
