//===- ParallelDeterminismTest.cpp - Jobs=1 vs Jobs=N bit-equality --------===//
//
// The parallel round engine's contract: synthesize() merges per-execution
// results in execution-index order, so every observable field of the
// SynthResult — fences, counters, round log, first violation, captured
// bundles — is identical whether a round's K executions ran on one thread
// or many. These tests run the real seed benchmarks under TSO and PSO at
// Jobs=1 and Jobs=4 (an intentionally larger-than-core count on small
// machines: oversubscription shuffles completion order, which the ordered
// merge must absorb) and compare everything. They are the tier-1 gate for
// the engine and are meant to run under the tsan preset as well.
//
//===----------------------------------------------------------------------===//

#include "frontend/Compiler.h"
#include "obs/Obs.h"
#include "programs/Benchmark.h"
#include "synth/Synthesizer.h"

#include <gtest/gtest.h>

using namespace dfence;
using namespace dfence::synth;
using vm::MemModel;

namespace {

SynthResult runWithJobs(const programs::Benchmark &B, MemModel Model,
                        SpecKind Spec, unsigned Jobs,
                        bool CaptureBundles = false) {
  auto CR = frontend::compileMiniC(B.Source);
  EXPECT_TRUE(CR.Ok) << B.Name << ": " << CR.Error;
  SynthConfig Cfg;
  Cfg.Model = Model;
  Cfg.Spec = Spec;
  Cfg.Factory = B.Factory;
  Cfg.ExecsPerRound = 100;
  Cfg.MaxRounds = 6;
  Cfg.MaxRepairRounds = 6;
  Cfg.MaxStepsPerExec = 20000;
  Cfg.FlushProb = Model == MemModel::TSO ? 0.1 : 0.5;
  if (Model == MemModel::PSO)
    Cfg.FlushProbs = {0.5, 0.1};
  Cfg.Jobs = Jobs;
  Cfg.CaptureBundles = CaptureBundles;
  return synthesize(CR.Module, B.Clients, Cfg);
}

void expectIdentical(const SynthResult &A, const SynthResult &B,
                     const std::string &What) {
  EXPECT_EQ(A.Status, B.Status) << What;
  EXPECT_EQ(A.fenceSummary(), B.fenceSummary()) << What;
  EXPECT_EQ(A.Rounds, B.Rounds) << What;
  EXPECT_EQ(A.TotalExecutions, B.TotalExecutions) << What;
  EXPECT_EQ(A.ViolatingExecutions, B.ViolatingExecutions) << What;
  EXPECT_EQ(A.DiscardedExecutions, B.DiscardedExecutions) << What;
  EXPECT_EQ(A.RetriedExecutions, B.RetriedExecutions) << What;
  EXPECT_EQ(A.DistinctPredicates, B.DistinctPredicates) << What;
  EXPECT_EQ(A.FirstViolation, B.FirstViolation) << What;
  // Cache statistics are counted on the merge thread in execution-index
  // order, so they are jobs-invariant like every other field here.
  EXPECT_EQ(A.CheckCacheHits, B.CheckCacheHits) << What;
  EXPECT_EQ(A.CheckCacheMisses, B.CheckCacheMisses) << What;
  EXPECT_EQ(A.ExecCacheHits, B.ExecCacheHits) << What;
  EXPECT_EQ(A.ExecCacheMisses, B.ExecCacheMisses) << What;
  ASSERT_EQ(A.RoundLog.size(), B.RoundLog.size()) << What;
  for (size_t I = 0; I != A.RoundLog.size(); ++I) {
    const RoundStats &RA = A.RoundLog[I];
    const RoundStats &RB = B.RoundLog[I];
    EXPECT_EQ(RA.Round, RB.Round) << What << " round " << I;
    EXPECT_EQ(RA.Executions, RB.Executions) << What << " round " << I;
    EXPECT_EQ(RA.Violations, RB.Violations) << What << " round " << I;
    EXPECT_EQ(RA.FencesEnforced, RB.FencesEnforced)
        << What << " round " << I;
    EXPECT_EQ(RA.SampleViolation, RB.SampleViolation)
        << What << " round " << I;
  }
  ASSERT_EQ(A.Bundles.size(), B.Bundles.size()) << What;
  for (size_t I = 0; I != A.Bundles.size(); ++I) {
    // Bit-identical capture: same executions (lowest-index violations),
    // same recorded schedule, same diagnostics.
    EXPECT_EQ(A.Bundles[I].Seed, B.Bundles[I].Seed) << What;
    EXPECT_EQ(A.Bundles[I].Message, B.Bundles[I].Message) << What;
    EXPECT_EQ(A.Bundles[I].Trace.size(), B.Bundles[I].Trace.size())
        << What;
    EXPECT_EQ(A.Bundles[I].toJson().dump(), B.Bundles[I].toJson().dump())
        << What;
  }
}

struct Case {
  const char *Bench;
  SpecKind Spec;
};

// Print the bench and the spec, not the raw struct bytes: gtest's default
// dump of the `const char *` member is an address that moves with ASLR,
// and the printed value is part of the test name ctest discovers.
void PrintTo(const Case &C, std::ostream *OS) {
  *OS << '"' << C.Bench << "\" " << specKindName(C.Spec);
}

class ParallelDeterminismTest
    : public ::testing::TestWithParam<std::tuple<Case, MemModel>> {};

} // namespace

TEST_P(ParallelDeterminismTest, JobsOneAndFourBitIdentical) {
  const auto &[C, Model] = GetParam();
  const programs::Benchmark &B = programs::benchmarkByName(C.Bench);
  SynthResult Seq = runWithJobs(B, Model, C.Spec, 1);
  SynthResult Par = runWithJobs(B, Model, C.Spec, 4);
  expectIdentical(Seq, Par,
                  std::string(C.Bench) + "/" + vm::memModelName(Model));
  // The engine found real work to do on at least one of these subjects;
  // an accidentally-empty run would make the comparison vacuous.
  EXPECT_GT(Seq.TotalExecutions, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SeedBenchmarks, ParallelDeterminismTest,
    ::testing::Combine(
        ::testing::Values(
            Case{"Chase-Lev WSQ", SpecKind::SequentialConsistency},
            Case{"MSN Queue", SpecKind::SequentialConsistency},
            Case{"LIFO WSQ", SpecKind::Linearizability},
            Case{"FIFO iWSQ", SpecKind::NoGarbage}),
        ::testing::Values(MemModel::TSO, MemModel::PSO)),
    [](const auto &Info) {
      std::string Name = std::get<0>(Info.param).Bench;
      for (char &Ch : Name)
        if (Ch == ' ' || Ch == '-')
          Ch = '_';
      return Name + "_" +
             vm::memModelName(std::get<1>(Info.param));
    });

TEST(ParallelDeterminismTest, BundleCaptureIsOrderedAndIdentical) {
  // Chase-Lev under PSO/SC violates early and captures bundles; the
  // parallel engine must keep the lowest-index violations, so the bundle
  // set (and every byte in it) matches the sequential run.
  const programs::Benchmark &B = programs::benchmarkByName("Chase-Lev WSQ");
  SynthResult Seq = runWithJobs(B, MemModel::PSO,
                                SpecKind::SequentialConsistency, 1,
                                /*CaptureBundles=*/true);
  SynthResult Par = runWithJobs(B, MemModel::PSO,
                                SpecKind::SequentialConsistency, 4,
                                /*CaptureBundles=*/true);
  expectIdentical(Seq, Par, "Chase-Lev WSQ bundles");
  EXPECT_FALSE(Seq.Bundles.empty());
}

TEST(ParallelDeterminismTest, OddJobCountsAgreeToo) {
  // 3 is deliberately coprime with the slot count: every worker ends on
  // a ragged boundary and the merge still reads back in index order.
  const programs::Benchmark &B = programs::benchmarkByName("MSN Queue");
  SynthResult A =
      runWithJobs(B, MemModel::PSO, SpecKind::SequentialConsistency, 3);
  SynthResult C =
      runWithJobs(B, MemModel::PSO, SpecKind::SequentialConsistency, 8);
  expectIdentical(A, C, "MSN Queue jobs=3 vs jobs=8");
}

TEST(ParallelDeterminismTest, MetricsCountersIdenticalAcrossJobs) {
  // The observability layer extends the determinism contract to metrics:
  // every *counter* (the deterministic subset, Registry::countersJson) is
  // folded on the merge thread in execution-index order or counts
  // jobs-invariant events, so the exported counter map must be
  // byte-identical at any --jobs width. Gauges/histograms hold wall-clock
  // readings and are deliberately outside the comparison.
  const programs::Benchmark &B = programs::benchmarkByName("Chase-Lev WSQ");
  auto RunCounted = [&B](unsigned Jobs, obs::Registry &Reg) {
    auto CR = frontend::compileMiniC(B.Source);
    EXPECT_TRUE(CR.Ok) << CR.Error;
    obs::ObsContext Obs;
    Obs.Metrics = &Reg;
    SynthConfig Cfg;
    Cfg.Model = MemModel::PSO;
    Cfg.Spec = SpecKind::SequentialConsistency;
    Cfg.Factory = B.Factory;
    Cfg.ExecsPerRound = 100;
    Cfg.MaxRounds = 4;
    Cfg.MaxRepairRounds = 4;
    Cfg.Jobs = Jobs;
    Cfg.Obs = &Obs;
    return synthesize(CR.Module, B.Clients, Cfg);
  };
  obs::Registry RegSeq, RegPar;
  SynthResult Seq = RunCounted(1, RegSeq);
  SynthResult Par = RunCounted(8, RegPar);
  expectIdentical(Seq, Par, "Chase-Lev WSQ with metrics");
  EXPECT_EQ(RegSeq.countersJson().dump(), RegPar.countersJson().dump());

  // The counters must also agree with the run's own SynthResult — they
  // are a second bookkeeping of the same events, not an estimate.
  const Json Counters = *RegSeq.countersJson().find("counters");
  EXPECT_EQ(Counters.find("synth_executions_total")->asU64(),
            Seq.TotalExecutions);
  EXPECT_EQ(Counters.find("synth_violations_total")->asU64(),
            Seq.ViolatingExecutions);
  EXPECT_EQ(Counters.find("synth_rounds_total")->asU64(), Seq.Rounds);
  EXPECT_EQ(Counters.find("synth_fences_total")->asU64(),
            Seq.Fences.size());
  EXPECT_GT(Counters.find("vm_steps_total")->asU64(), 0u);
}

TEST(ParallelDeterminismTest, PooledContextPathJobsEightBitIdentical) {
  // Every pool slot owns one persistent vm::ExecContext reused across all
  // executions it claims, over all rounds of the run. Reuse must be
  // invisible: any state leaking from one execution into the next (a
  // stale buffer slot, a dirty arena, an unreset RNG) would desync the
  // comparison below, because jobs=8 hands each context a different and
  // timing-dependent subset of the slots while jobs=1 funnels every slot
  // through one context. Bundle capture is on so recorded schedules are
  // compared byte-for-byte too.
  const programs::Benchmark &B = programs::benchmarkByName("Cilk THE WSQ");
  auto RunCounted = [&B](unsigned Jobs, obs::Registry &Reg) {
    auto CR = frontend::compileMiniC(B.Source);
    EXPECT_TRUE(CR.Ok) << CR.Error;
    obs::ObsContext Obs;
    Obs.Metrics = &Reg;
    SynthConfig Cfg;
    Cfg.Model = MemModel::PSO;
    Cfg.Spec = SpecKind::Linearizability;
    Cfg.Factory = B.Factory;
    Cfg.ExecsPerRound = 100;
    Cfg.MaxRounds = 6;
    Cfg.MaxRepairRounds = 6;
    Cfg.Jobs = Jobs;
    Cfg.CaptureBundles = true;
    Cfg.Obs = &Obs;
    return synthesize(CR.Module, B.Clients, Cfg);
  };
  obs::Registry RegSeq, RegPar;
  SynthResult Seq = RunCounted(1, RegSeq);
  SynthResult Par = RunCounted(8, RegPar);
  expectIdentical(Seq, Par, "Cilk THE WSQ pooled contexts");
  EXPECT_EQ(RegSeq.countersJson().dump(), RegPar.countersJson().dump());
  // Both runs actually took the context-reuse path (the gauge is
  // jobs-variant, so only its positivity is asserted, never its value).
  EXPECT_GT(RegSeq.gauge("exec_pool_context_reuses").value(), 0.0);
  EXPECT_GT(RegPar.gauge("exec_pool_context_reuses").value(), 0.0);
}

TEST(ParallelDeterminismTest, TotalBudgetStarvationDegradesSafely) {
  // A 1 ms total budget cancels almost everything. The cut index is
  // timing-dependent (as it is sequentially), but the run must still end
  // in a coherent degraded state with prefix-consistent accounting.
  const programs::Benchmark &B = programs::benchmarkByName("Chase-Lev WSQ");
  auto CR = frontend::compileMiniC(B.Source);
  ASSERT_TRUE(CR.Ok);
  SynthConfig Cfg;
  Cfg.Model = MemModel::PSO;
  Cfg.Spec = SpecKind::SequentialConsistency;
  Cfg.Factory = B.Factory;
  Cfg.ExecsPerRound = 5000;
  Cfg.MaxRounds = 4;
  Cfg.TotalWallMs = 1;
  Cfg.Jobs = 4;
  SynthResult R = synthesize(CR.Module, B.Clients, Cfg);
  EXPECT_EQ(R.Status, SynthStatus::Degraded);
  EXPECT_FALSE(R.DegradeReason.empty());
  uint64_t Logged = 0;
  for (const RoundStats &S : R.RoundLog)
    Logged += S.Executions;
  EXPECT_EQ(Logged, R.TotalExecutions);
}
