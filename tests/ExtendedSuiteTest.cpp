//===- ExtendedSuiteTest.cpp - The beyond-Table-2 algorithms --------------===//

#include "frontend/Compiler.h"
#include "programs/Benchmark.h"
#include "spec/Specs.h"
#include "support/Rng.h"
#include "synth/Synthesizer.h"
#include "vm/Interp.h"

#include <gtest/gtest.h>

using namespace dfence;
using namespace dfence::programs;
using namespace dfence::synth;
using vm::MemModel;

namespace {

SynthResult runSynth(const Benchmark &B, MemModel Model, SpecKind Spec,
                     unsigned K = 1000) {
  auto CR = frontend::compileMiniC(B.Source);
  EXPECT_TRUE(CR.Ok) << CR.Error;
  SynthConfig Cfg;
  Cfg.Model = Model;
  Cfg.Spec = Spec;
  Cfg.Factory = B.Factory;
  Cfg.ExecsPerRound = K;
  Cfg.MaxRounds = 16;
  Cfg.MaxRepairRounds = 16;
  Cfg.MaxStepsPerExec = 30000;
  Cfg.CleanRoundsRequired = 2;
  Cfg.FlushProb = Model == MemModel::TSO ? 0.1 : 0.5;
  if (Model == MemModel::PSO)
    Cfg.FlushProbs = {0.5, 0.1};
  // Per-subject seed streams: with the shared default every benchmark
  // re-ran the same schedule prefix, hiding order-sensitive bugs behind
  // one lucky constant. deriveSeed spreads subjects across the seed
  // space deterministically (golden-pinned in SuiteSweepTest).
  Cfg.BaseSeed = deriveSeed(0x5eed, B.Name);
  return synthesize(CR.Module, B.Clients, Cfg);
}

} // namespace

TEST(ExtendedSuiteTest, RegistryHasFourBenchmarks) {
  EXPECT_EQ(extendedBenchmarks().size(), 4u);
  EXPECT_EQ(benchmarkByName("Peterson Lock").Name, "Peterson Lock");
  EXPECT_EQ(benchmarkByName("Chase-Lev Full").InitFunc, "init");
}

TEST(ExtendedSuiteTest, AllCorrectUnderSC) {
  for (const Benchmark &B : extendedBenchmarks()) {
    auto CR = frontend::compileMiniC(B.Source);
    ASSERT_TRUE(CR.Ok) << B.Name << ": " << CR.Error;
    SynthConfig Check;
    Check.Model = MemModel::SC;
    Check.Spec = SpecKind::Linearizability;
    Check.Factory = B.Factory;
    for (const vm::Client &C : B.Clients) {
      for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
        vm::ExecConfig Cfg;
        Cfg.Model = MemModel::SC;
        Cfg.Seed = Seed;
        vm::ExecResult R = vm::runExecution(CR.Module, C, Cfg);
        ASSERT_EQ(R.Out, vm::Outcome::Completed)
            << B.Name << " seed " << Seed << ": " << R.Message;
        EXPECT_EQ(checkExecution(R, Check), "")
            << B.Name << " seed " << Seed << "\n"
            << R.Hist.str();
      }
    }
  }
}

TEST(ExtendedSuiteTest, PetersonNeedsStoreLoadFencesOnTso) {
  // The textbook result: Peterson's lock is broken by store buffering
  // alone; the flag store must commit before the other flag is read.
  const Benchmark &B = benchmarkByName("Peterson Lock");
  SynthResult R =
      runSynth(B, MemModel::TSO, SpecKind::Linearizability);
  EXPECT_EQ(R.Status, SynthStatus::Converged) << R.FirstViolation;
  EXPECT_GT(R.ViolatingExecutions, 0u)
      << "unfenced Peterson must admit double entry";
  ASSERT_GE(R.Fences.size(), 2u) << R.fenceSummary();
  unsigned StoreLoad = 0;
  for (const auto &F : R.Fences)
    if (F.Kind == ir::FenceKind::StoreLoad)
      ++StoreLoad;
  EXPECT_GE(StoreLoad, 2u)
      << "both roles need their store-load fence: " << R.fenceSummary();
}

TEST(ExtendedSuiteTest, TreiberPushFenceOnPsoOnly) {
  const Benchmark &B = benchmarkByName("Treiber Stack");
  SynthResult Tso =
      runSynth(B, MemModel::TSO, SpecKind::Linearizability);
  EXPECT_EQ(Tso.Status, SynthStatus::Converged) << Tso.FirstViolation;
  EXPECT_EQ(Tso.Fences.size(), 0u)
      << "CAS publication drains the TSO buffer: " << Tso.fenceSummary();

  SynthResult Pso =
      runSynth(B, MemModel::PSO, SpecKind::Linearizability);
  EXPECT_EQ(Pso.Status, SynthStatus::Converged) << Pso.FirstViolation;
  ASSERT_GE(Pso.Fences.size(), 1u);
  EXPECT_EQ(Pso.Fences[0].Function, "push") << Pso.fenceSummary();
}

TEST(ExtendedSuiteTest, LamportRingPublicationFenceOnPso) {
  const Benchmark &B = benchmarkByName("Lamport Ring");
  SynthResult Pso =
      runSynth(B, MemModel::PSO, SpecKind::SequentialConsistency);
  EXPECT_EQ(Pso.Status, SynthStatus::Converged) << Pso.FirstViolation;
  ASSERT_GE(Pso.Fences.size(), 1u);
  EXPECT_EQ(Pso.Fences[0].Function, "enqueue") << Pso.fenceSummary();

  SynthResult Tso =
      runSynth(B, MemModel::TSO, SpecKind::SequentialConsistency);
  EXPECT_EQ(Tso.Status, SynthStatus::Converged);
  EXPECT_EQ(Tso.Fences.size(), 0u)
      << "SPSC ring is SC-clean on TSO: " << Tso.fenceSummary();
}

TEST(ExtendedSuiteTest, ChaseLevFullMatchesSimplifiedShape) {
  const Benchmark &B = benchmarkByName("Chase-Lev Full");
  SynthResult R =
      runSynth(B, MemModel::TSO, SpecKind::SequentialConsistency);
  EXPECT_EQ(R.Status, SynthStatus::Converged) << R.FirstViolation;
  bool TakeFence = false;
  for (const auto &F : R.Fences)
    if (F.Function == "take" && F.Kind == ir::FenceKind::StoreLoad)
      TakeFence = true;
  EXPECT_TRUE(TakeFence) << "F1 as in the simplified deque: "
                         << R.fenceSummary();
}

TEST(ExtendedSuiteTest, PetersonCounterSpecSemantics) {
  spec::CounterSpec S;
  vm::OpRecord Inc;
  Inc.Func = "inc";
  Inc.Completed = true;
  Inc.Ret = 1;
  EXPECT_TRUE(S.apply(Inc));
  Inc.Ret = 2;
  EXPECT_TRUE(S.apply(Inc));
  Inc.Ret = 2; // Duplicate: mutual exclusion failed.
  EXPECT_FALSE(S.clone()->apply(Inc));
  Inc.Ret = 4; // Skip: lost update.
  EXPECT_FALSE(S.apply(Inc));
}

TEST(ExtendedSuiteTest, TreiberStackSpecSemantics) {
  spec::StackSpec S;
  auto Op = [](const char *F, vm::Word Arg, vm::Word Ret) {
    vm::OpRecord O;
    O.Func = F;
    if (std::string(F) == "push")
      O.Args = {Arg};
    O.Ret = Ret;
    O.Completed = true;
    return O;
  };
  EXPECT_TRUE(S.apply(Op("push", 1, 0)));
  EXPECT_TRUE(S.apply(Op("push", 2, 0)));
  EXPECT_TRUE(S.apply(Op("pop", 0, 2)));
  EXPECT_FALSE(S.clone()->apply(Op("pop", 0, 2))) << "LIFO order";
  EXPECT_TRUE(S.apply(Op("pop", 0, 1)));
  EXPECT_TRUE(S.apply(Op("pop", 0, vm::EmptyVal)));
}
