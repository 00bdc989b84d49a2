//===- IntegrationTest.cpp - End-to-end fence synthesis (Table 3 core) ----===//
//
// Runs the full DFENCE loop on key benchmarks and checks the paper's
// headline shapes: which algorithms need fences under which model and
// specification, and where the fences land.
//
//===----------------------------------------------------------------------===//

#include "frontend/Compiler.h"
#include "programs/Benchmark.h"
#include "synth/Synthesizer.h"

#include <gtest/gtest.h>

using namespace dfence;
using namespace dfence::programs;
using namespace dfence::synth;
using vm::MemModel;

namespace {

SynthResult runSynthesis(const std::string &Name, MemModel Model,
                         SpecKind Spec, unsigned K = 200) {
  const Benchmark &B = benchmarkByName(Name);
  auto CR = frontend::compileMiniC(B.Source);
  EXPECT_TRUE(CR.Ok) << CR.Error;
  SynthConfig Cfg;
  Cfg.Model = Model;
  Cfg.Spec = Spec;
  Cfg.Factory = B.Factory;
  Cfg.ExecsPerRound = K;
  Cfg.MaxRounds = 14;
  Cfg.MaxRepairRounds = 14;
  Cfg.MaxStepsPerExec = 30000;
  Cfg.FlushProb = Model == MemModel::TSO ? 0.1 : 0.5;
  if (Model == MemModel::PSO)
    Cfg.FlushProbs = {0.5, 0.1}; // Mixed delay regimes (see BenchUtil).
  return synthesize(CR.Module, B.Clients, Cfg);
}

bool hasFenceIn(const SynthResult &R, const std::string &Func) {
  for (const auto &F : R.Fences)
    if (F.Function == Func)
      return true;
  return false;
}

} // namespace

TEST(IntegrationTest, ChaseLevNeedsStoreLoadFenceOnTSO) {
  // The Fig. 2a duplicate fires in ~1% of unfenced executions, so rounds
  // must be large enough that a converging run cannot have missed it.
  SynthResult R = runSynthesis("Chase-Lev WSQ", MemModel::TSO,
                               SpecKind::SequentialConsistency, 1000);
  EXPECT_EQ(R.Status, SynthStatus::Converged) << R.FirstViolation;
  EXPECT_GT(R.ViolatingExecutions, 0u);
  ASSERT_GE(R.Fences.size(), 1u);
  EXPECT_TRUE(hasFenceIn(R, "take"))
      << "F1 lives in take (T store vs H load): " << R.fenceSummary();
}

TEST(IntegrationTest, ChaseLevNeedsMoreFencesOnPSO) {
  SynthResult Tso = runSynthesis("Chase-Lev WSQ", MemModel::TSO,
                                 SpecKind::SequentialConsistency);
  SynthResult Pso = runSynthesis("Chase-Lev WSQ", MemModel::PSO,
                                 SpecKind::SequentialConsistency);
  EXPECT_EQ(Pso.Status, SynthStatus::Converged) << Pso.FirstViolation;
  EXPECT_GE(Pso.Fences.size(), Tso.Fences.size())
      << "PSO relaxes more orders than TSO";
  EXPECT_TRUE(hasFenceIn(Pso, "put"))
      << "F2 (items store vs T store) lives in put: "
      << Pso.fenceSummary();
}

TEST(IntegrationTest, ChaseLevMemorySafetyFindsNothing) {
  // Paper: memory-safety alone is too weak for the WSQs (violations show
  // up as lost/duplicated items, not as bad accesses).
  SynthResult R = runSynthesis("Chase-Lev WSQ", MemModel::PSO,
                               SpecKind::MemorySafety);
  EXPECT_EQ(R.Status, SynthStatus::Converged);
  EXPECT_EQ(R.Fences.size(), 0u);
}

TEST(IntegrationTest, LinearizabilityRequiresAtLeastScFences) {
  SynthResult Sc = runSynthesis("Chase-Lev WSQ", MemModel::PSO,
                                SpecKind::SequentialConsistency);
  SynthResult Lin = runSynthesis("Chase-Lev WSQ", MemModel::PSO,
                                 SpecKind::Linearizability);
  EXPECT_GE(Lin.Fences.size(), Sc.Fences.size())
      << "linearizability is the stronger criterion";
}

TEST(IntegrationTest, LifoWsqCleanOnTsoFencedOnPso) {
  SynthResult Tso = runSynthesis("LIFO WSQ", MemModel::TSO,
                                 SpecKind::SequentialConsistency);
  EXPECT_EQ(Tso.Status, SynthStatus::Converged) << Tso.FirstViolation;
  EXPECT_EQ(Tso.Fences.size(), 0u)
      << "CAS publication drains the TSO buffer: " << Tso.fenceSummary();

  SynthResult Pso = runSynthesis("LIFO WSQ", MemModel::PSO,
                                 SpecKind::SequentialConsistency);
  EXPECT_EQ(Pso.Status, SynthStatus::Converged) << Pso.FirstViolation;
  ASSERT_GE(Pso.Fences.size(), 1u);
  EXPECT_TRUE(hasFenceIn(Pso, "put")) << Pso.fenceSummary();
}

TEST(IntegrationTest, MsnQueueEnqueueFenceOnPso) {
  SynthResult Tso = runSynthesis("MSN Queue", MemModel::TSO,
                                 SpecKind::SequentialConsistency);
  EXPECT_EQ(Tso.Status, SynthStatus::Converged);
  EXPECT_EQ(Tso.Fences.size(), 0u) << Tso.fenceSummary();

  SynthResult Pso = runSynthesis("MSN Queue", MemModel::PSO,
                                 SpecKind::SequentialConsistency);
  EXPECT_EQ(Pso.Status, SynthStatus::Converged) << Pso.FirstViolation;
  ASSERT_GE(Pso.Fences.size(), 1u);
  EXPECT_TRUE(hasFenceIn(Pso, "enqueue"))
      << "the paper's (enqueue, E3:E4): " << Pso.fenceSummary();
}

TEST(IntegrationTest, Ms2QueueNeedsNoFences) {
  for (MemModel Model : {MemModel::TSO, MemModel::PSO}) {
    SynthResult R =
        runSynthesis("MS2 Queue", Model, SpecKind::Linearizability);
    EXPECT_EQ(R.Status, SynthStatus::Converged) << R.FirstViolation;
    EXPECT_EQ(R.Fences.size(), 0u)
        << "fully-fenced locks cover both ends: " << R.fenceSummary();
  }
}

TEST(IntegrationTest, IwsqNoGarbagePsoFences) {
  SynthResult R =
      runSynthesis("LIFO iWSQ", MemModel::PSO, SpecKind::NoGarbage);
  EXPECT_EQ(R.Status, SynthStatus::Converged) << R.FirstViolation;
  ASSERT_GE(R.Fences.size(), 1u);
  EXPECT_TRUE(hasFenceIn(R, "put"))
      << "the tasks[t]/anchor store-store reorder: " << R.fenceSummary();
}

TEST(IntegrationTest, IwsqOwnerAvoidsStoreLoadFencesOnTso) {
  // The design goal of the idempotent WSQs: no store-load fence in the
  // owner's operations on TSO.
  for (const char *Name : {"FIFO iWSQ", "LIFO iWSQ", "Anchor iWSQ"}) {
    SynthResult R =
        runSynthesis(Name, MemModel::TSO, SpecKind::NoGarbage);
    EXPECT_EQ(R.Status, SynthStatus::Converged)
        << Name << ": " << R.FirstViolation;
    EXPECT_EQ(R.Fences.size(), 0u) << Name << ": " << R.fenceSummary();
  }
}

TEST(IntegrationTest, AllocatorMemorySafetyFencesOnPso) {
  SynthResult Tso = runSynthesis("Michael Allocator", MemModel::TSO,
                                 SpecKind::MemorySafety);
  EXPECT_EQ(Tso.Status, SynthStatus::Converged) << Tso.FirstViolation;
  EXPECT_EQ(Tso.Fences.size(), 0u) << Tso.fenceSummary();

  SynthResult Pso = runSynthesis("Michael Allocator", MemModel::PSO,
                                 SpecKind::MemorySafety, 300);
  EXPECT_EQ(Pso.Status, SynthStatus::Converged) << Pso.FirstViolation;
  ASSERT_GE(Pso.Fences.size(), 1u);
  EXPECT_TRUE(hasFenceIn(Pso, "MallocFromNewSB"))
      << "carving stores vs Active CAS: " << Pso.fenceSummary();
}

TEST(IntegrationTest, AllocatorLinearizabilityAddsFreeFence) {
  // The paper's key allocator observation: SC/linearizability adds one
  // fence in free (our release) beyond the memory-safety set.
  SynthResult Safety = runSynthesis("Michael Allocator", MemModel::PSO,
                                    SpecKind::MemorySafety, 1000);
  SynthResult Lin = runSynthesis("Michael Allocator", MemModel::PSO,
                                 SpecKind::Linearizability, 1000);
  EXPECT_EQ(Lin.Status, SynthStatus::Converged) << Lin.FirstViolation;
  EXPECT_GE(Lin.Fences.size(), Safety.Fences.size());
  EXPECT_TRUE(hasFenceIn(Lin, "release"))
      << "free-list link store vs anchor CAS: " << Lin.fenceSummary();
}

TEST(IntegrationTest, PointerClientMakesMemorySafetyEffective) {
  // The paper's §6.6 future-work experiment: with tasks that are heap
  // pointers freed after extraction, duplicate extraction becomes a
  // double free, so pure memory safety starts triggering on the WSQ
  // races that value clients can only catch through SC/linearizability.
  const programs::Benchmark &B = benchmarkByName("Chase-Lev WSQ");
  auto CR = frontend::compileMiniC(B.Source);
  ASSERT_TRUE(CR.Ok) << CR.Error;
  SynthConfig Cfg;
  Cfg.Model = MemModel::TSO;
  Cfg.Spec = SpecKind::MemorySafety;
  Cfg.ExecsPerRound = 1000;
  Cfg.MaxRounds = 14;
  Cfg.MaxRepairRounds = 14;
  Cfg.MaxStepsPerExec = 30000;
  Cfg.FlushProb = 0.1;
  SynthResult R =
      synthesize(CR.Module, programs::wsqPointerClients(), Cfg);
  EXPECT_EQ(R.Status, SynthStatus::Converged) << R.FirstViolation;
  EXPECT_GT(R.ViolatingExecutions, 0u)
      << "double frees must surface under the pointer client";
  EXPECT_GE(R.Fences.size(), 1u) << R.fenceSummary();
}

TEST(IntegrationTest, InterOpPredicatesAblation) {
  // Without the [store ≺ return] predicates, the Fig. 2c class of
  // linearizability violations has no repair and synthesis gives up.
  const programs::Benchmark &B = benchmarkByName("Chase-Lev WSQ");
  auto CR = frontend::compileMiniC(B.Source);
  ASSERT_TRUE(CR.Ok);
  SynthConfig Cfg;
  Cfg.Model = MemModel::TSO;
  Cfg.Spec = SpecKind::Linearizability;
  Cfg.Factory = B.Factory;
  Cfg.ExecsPerRound = 800;
  Cfg.MaxRounds = 14;
  Cfg.MaxRepairRounds = 14;
  Cfg.MaxStepsPerExec = 30000;
  Cfg.FlushProb = 0.1;
  Cfg.InterOpPredicates = false;
  SynthResult Without = synthesize(CR.Module, B.Clients, Cfg);
  Cfg.InterOpPredicates = true;
  SynthResult With = synthesize(CR.Module, B.Clients, Cfg);
  EXPECT_EQ(With.Status, SynthStatus::Converged) << With.FirstViolation;
  EXPECT_NE(Without.Status, SynthStatus::Converged)
      << "the ablated run should fail to converge cleanly";
}

TEST(IntegrationTest, FencedChaseLevSatisfiesLinearizabilityOnPso) {
  SynthResult R = runSynthesis("Chase-Lev WSQ", MemModel::PSO,
                               SpecKind::Linearizability);
  ASSERT_EQ(R.Status, SynthStatus::Converged) << R.FirstViolation;
  // Independent verification round with fresh seeds.
  const Benchmark &B = benchmarkByName("Chase-Lev WSQ");
  SynthConfig Cfg;
  Cfg.Model = MemModel::PSO;
  Cfg.Spec = SpecKind::Linearizability;
  Cfg.Factory = B.Factory;
  Cfg.ExecsPerRound = 300;
  Cfg.MaxRounds = 1;
  Cfg.MaxRepairRounds = 0;
  Cfg.BaseSeed = 0xabcdef;
  Cfg.FlushProb = 0.5;
  SynthResult V = synthesize(R.FencedModule, B.Clients, Cfg);
  EXPECT_EQ(V.Status, SynthStatus::Converged);
  EXPECT_EQ(V.ViolatingExecutions, 0u);
}
