//===- SuiteSweepTest.cpp - Whole-suite synthesis invariants --------------===//
//
// Runs fence synthesis for every benchmark under both relaxed models
// (strictest applicable specification) and asserts the paper's structural
// invariants hold on the measured data:
//
//   * every run converges (no benchmark is unfixable by fences),
//   * every repair selection is exact (no solve hits the node budget),
//   * PSO never needs fewer fences than TSO,
//   * the repaired program passes an independently-seeded verification
//     round,
//   * fully-locked algorithms need no fences anywhere.
//
//===----------------------------------------------------------------------===//

#include "frontend/Compiler.h"
#include "programs/Benchmark.h"
#include "support/Rng.h"
#include "synth/Synthesizer.h"

#include <gtest/gtest.h>

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

SynthConfig sweepConfig(const Benchmark &B, MemModel Model) {
  SynthConfig Cfg;
  Cfg.Model = Model;
  Cfg.Spec = strictestSpec(B);
  Cfg.Factory = B.Factory;
  Cfg.ExecsPerRound = 600;
  Cfg.MaxRounds = 16;
  Cfg.MaxRepairRounds = 16;
  Cfg.MaxStepsPerExec = 30000;
  Cfg.CleanRoundsRequired = 3;
  Cfg.FlushProb = Model == MemModel::TSO ? 0.1 : 0.5;
  if (Model == MemModel::PSO)
    Cfg.FlushProbs = {0.5, 0.1};
  // Per-subject seed streams (see DerivedSeedStreamIsPinned below);
  // every benchmark used to share the one default seed, so the whole
  // sweep explored a single schedule stream.
  Cfg.BaseSeed = deriveSeed(0x5eed, B.Name);
  return Cfg;
}

class SuiteSweepTest : public ::testing::TestWithParam<std::string> {};

} // namespace

TEST_P(SuiteSweepTest, ConvergesAndRespectsModelOrdering) {
  const Benchmark &B = benchmarkByName(GetParam());
  auto CR = frontend::compileMiniC(B.Source);
  ASSERT_TRUE(CR.Ok) << CR.Error;

  SynthResult Tso =
      synthesize(CR.Module, B.Clients, sweepConfig(B, MemModel::TSO));
  SynthResult Pso =
      synthesize(CR.Module, B.Clients, sweepConfig(B, MemModel::PSO));

  EXPECT_EQ(Tso.Status, SynthStatus::Converged)
      << B.Name << " TSO: " << Tso.FirstViolation;
  EXPECT_EQ(Pso.Status, SynthStatus::Converged)
      << B.Name << " PSO: " << Pso.FirstViolation;
  EXPECT_NE(Tso.Status, SynthStatus::CannotFix) << B.Name;
  EXPECT_NE(Pso.Status, SynthStatus::CannotFix) << B.Name;
  EXPECT_EQ(Tso.SatTruncated + Pso.SatTruncated, 0u)
      << B.Name << ": repair selection ran out of search nodes";
  EXPECT_GE(Pso.Fences.size(), Tso.Fences.size())
      << B.Name << ": PSO relaxes strictly more than TSO\n"
      << "TSO: " << Tso.fenceSummary() << "\nPSO: "
      << Pso.fenceSummary();

  // Independent verification with fresh seeds on the PSO result.
  SynthConfig Verify = sweepConfig(B, MemModel::PSO);
  Verify.BaseSeed = deriveSeed(0xfeedbeef, B.Name);
  Verify.MaxRounds = 1;
  Verify.MaxRepairRounds = 0;
  Verify.CleanRoundsRequired = 1;
  SynthResult Check =
      synthesize(Pso.FencedModule, B.Clients, Verify);
  EXPECT_EQ(Check.ViolatingExecutions, 0u)
      << B.Name << ": " << Check.FirstViolation;
}

TEST_P(SuiteSweepTest, SynthesisIsDeterministic) {
  const Benchmark &B = benchmarkByName(GetParam());
  auto CR = frontend::compileMiniC(B.Source);
  ASSERT_TRUE(CR.Ok);
  SynthConfig Cfg = sweepConfig(B, MemModel::PSO);
  Cfg.ExecsPerRound = 150; // Keep the double run cheap.
  SynthResult A = synthesize(CR.Module, B.Clients, Cfg);
  SynthResult B2 = synthesize(CR.Module, B.Clients, Cfg);
  EXPECT_EQ(A.fenceSummary(), B2.fenceSummary()) << B.Name;
  EXPECT_EQ(A.TotalExecutions, B2.TotalExecutions) << B.Name;
  EXPECT_EQ(A.ViolatingExecutions, B2.ViolatingExecutions) << B.Name;
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, SuiteSweepTest,
    ::testing::ValuesIn([] {
      std::vector<std::string> Names;
      for (const Benchmark &B : allBenchmarks())
        Names.push_back(B.Name);
      return Names;
    }()),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      std::string Name = Info.param;
      for (char &C : Name)
        if (!isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });

TEST(SuiteSweepTest, DerivedSeedStreamIsPinned) {
  // Golden values for the per-subject seed derivation. Every sweep and
  // extended-suite expectation (fence shapes, convergence) was validated
  // against exactly these streams; if deriveSeed changes, these fail
  // first with a readable diff instead of a distant fence-shape assert.
  EXPECT_EQ(deriveSeed(0x5eed, "Peterson Lock"),
            0x16dc016d98ac9a81ULL);
  EXPECT_EQ(deriveSeed(0x5eed, "Treiber Stack"),
            0x4c973b9cb8cffdadULL);
  EXPECT_EQ(deriveSeed(0x5eed, "MS2 Queue"), 0x4dce01ee2bb206adULL);
  EXPECT_EQ(deriveSeed(0xfeedbeef, "Peterson Lock"),
            0xade541f27fa24abaULL);
  // Distinct subjects must get distinct streams from the same base.
  EXPECT_NE(deriveSeed(0x5eed, "Peterson Lock"),
            deriveSeed(0x5eed, "Treiber Stack"));
}

TEST(SuiteSweepTest, FullyLockedAlgorithmsNeedNoFences) {
  for (const char *Name : {"MS2 Queue", "LazyList Set"}) {
    const Benchmark &B = benchmarkByName(Name);
    auto CR = frontend::compileMiniC(B.Source);
    ASSERT_TRUE(CR.Ok);
    SynthConfig Cfg = sweepConfig(B, MemModel::TSO);
    SynthResult R = synthesize(CR.Module, B.Clients, Cfg);
    EXPECT_EQ(R.Status, SynthStatus::Converged) << Name;
    EXPECT_EQ(R.Fences.size(), 0u)
        << Name << " on TSO: " << R.fenceSummary();
  }
}
