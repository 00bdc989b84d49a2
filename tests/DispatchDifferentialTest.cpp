//===- DispatchDifferentialTest.cpp - generic ≡ specialized dispatch ------===//
//
// The monomorphized interpreter's headline contract (docs/ALGORITHM.md
// §13): dispatch mode is a machine-code optimization, never an observable
// one. Generic (runtime model dispatch through the StoreBufferSet facade)
// and specialized (the policy-templated per-model loop with threaded
// opcode dispatch) are instantiations of one interpreter template, so for
// every benchmark in the synthesis suite a specialized run must produce a
// SynthResult byte-identical to the generic run — same fences, same
// per-round violation counts, same diagnostics, same printed module, same
// harness accounting — at jobs=1 and jobs=8 alike, with the caches on and
// off. Step counts are pinned through the deterministic counter snapshot
// (vm_steps_total et al.), which must match after stripping only the
// exec_dispatch_* keys — the counters that *name* the mode and therefore
// differ by construction.
//
//===----------------------------------------------------------------------===//

#include "frontend/Compiler.h"
#include "ir/Printer.h"
#include "obs/Obs.h"
#include "programs/Benchmark.h"
#include "support/Rng.h"
#include "synth/Synthesizer.h"

#include <gtest/gtest.h>

using namespace dfence;
using namespace dfence::programs;
using namespace dfence::synth;
using vm::DispatchMode;
using vm::MemModel;

namespace {

SpecKind strictestSpec(const Benchmark &B) {
  if (B.UseNoGarbage)
    return SpecKind::NoGarbage;
  return B.Factory ? SpecKind::Linearizability : SpecKind::MemorySafety;
}

SynthResult run(const Benchmark &B, MemModel Model, DispatchMode Dispatch,
                unsigned Jobs, bool CacheOn,
                obs::Registry *Reg = nullptr) {
  auto CR = frontend::compileMiniC(B.Source);
  EXPECT_TRUE(CR.Ok) << B.Name << ": " << CR.Error;
  SynthConfig Cfg;
  Cfg.Model = Model;
  Cfg.Spec = strictestSpec(B);
  Cfg.Factory = B.Factory;
  Cfg.Dispatch = Dispatch;
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
  obs::ObsContext Obs;
  if (Reg) {
    Obs.Metrics = Reg;
    Cfg.Obs = &Obs;
  }
  return synthesize(CR.Module, B.Clients, Cfg);
}

/// Every observable SynthResult field, cache statistics included (the
/// caches see identical executions under either dispatch mode, so even
/// those must agree when the cache setting matches).
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
  EXPECT_EQ(A.CheckCacheHits, B.CheckCacheHits) << What;
  EXPECT_EQ(A.CheckCacheMisses, B.CheckCacheMisses) << What;
  EXPECT_EQ(A.ExecCacheHits, B.ExecCacheHits) << What;
  EXPECT_EQ(A.ExecCacheMisses, B.ExecCacheMisses) << What;
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

/// The registry's deterministic counter snapshot with only the
/// exec_dispatch_* keys removed. vm_steps_total and every other counter
/// — the cache ones included — must agree between dispatch modes.
std::string countersMinusDispatch(obs::Registry &Reg) {
  Json Doc = Reg.countersJson();
  const Json *Counters = Doc.find("counters");
  if (!Counters)
    return "{}";
  Json Out = Json::object();
  for (const auto &[Key, Val] : Counters->members())
    if (Key.rfind("exec_dispatch_", 0) != 0)
      Out.set(Key, Val);
  return Out.dump();
}

/// The registry's value for counter \p Name, or 0 when absent.
uint64_t counterValue(obs::Registry &Reg, const char *Name) {
  Json Doc = Reg.countersJson();
  const Json *Counters = Doc.find("counters");
  if (!Counters)
    return 0;
  const Json *V = Counters->find(Name);
  return V ? V->asU64() : 0;
}

} // namespace

class DispatchDifferentialTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(DispatchDifferentialTest, GenericAndSpecializedByteIdentical) {
  const Benchmark &B = benchmarkByName(GetParam());
  for (MemModel Model : {MemModel::TSO, MemModel::PSO}) {
    obs::Registry RegSpec1, RegGen1, RegSpec8, RegGen8;
    SynthResult Spec1 =
        run(B, Model, DispatchMode::Specialized, 1, true, &RegSpec1);
    SynthResult Gen1 =
        run(B, Model, DispatchMode::Generic, 1, true, &RegGen1);
    SynthResult Spec8 =
        run(B, Model, DispatchMode::Specialized, 8, true, &RegSpec8);
    SynthResult Gen8 =
        run(B, Model, DispatchMode::Generic, 8, true, &RegGen8);
    std::string What =
        B.Name + std::string("/") + vm::memModelName(Model);
    expectEquivalent(Spec1, Gen1, What + " spec1-vs-gen1");
    expectEquivalent(Spec1, Spec8, What + " spec1-vs-spec8");
    expectEquivalent(Spec1, Gen8, What + " spec1-vs-gen8");

    // Counter snapshots (vm_steps_total — the per-execution step counts
    // summed on the merge thread — among them) agree after stripping
    // only the mode-naming exec_dispatch_* keys, at either jobs width.
    EXPECT_EQ(countersMinusDispatch(RegSpec1),
              countersMinusDispatch(RegGen1))
        << What;
    EXPECT_EQ(countersMinusDispatch(RegSpec8),
              countersMinusDispatch(RegGen8))
        << What;
    // The mode counters themselves: every execution of a run lands on
    // that run's mode counter, none on the other's, jobs-invariantly.
    EXPECT_EQ(counterValue(RegSpec1, "exec_dispatch_specialized"),
              Spec1.TotalExecutions)
        << What;
    EXPECT_EQ(counterValue(RegSpec1, "exec_dispatch_generic"), 0u)
        << What;
    EXPECT_EQ(counterValue(RegGen1, "exec_dispatch_generic"),
              Gen1.TotalExecutions)
        << What;
    EXPECT_EQ(counterValue(RegGen1, "exec_dispatch_specialized"), 0u)
        << What;
    EXPECT_EQ(RegSpec1.countersJson().dump(),
              RegSpec8.countersJson().dump())
        << What;

    // And the equivalence holds with the caches off too (the modes must
    // not lean on the cache to look identical).
    SynthResult SpecOff =
        run(B, Model, DispatchMode::Specialized, 1, false);
    SynthResult GenOff = run(B, Model, DispatchMode::Generic, 1, false);
    expectEquivalent(SpecOff, GenOff, What + " specOff-vs-genOff");
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, DispatchDifferentialTest,
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
