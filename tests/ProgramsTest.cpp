//===- ProgramsTest.cpp - Benchmark suite sanity --------------------------===//
//
// Every Table-2 algorithm must (a) compile and verify, (b) behave
// correctly sequentially, and (c) satisfy its own specification on every
// client under SC across many schedules — otherwise fence synthesis would
// chase algorithmic bugs rather than memory-model bugs.
//
//===----------------------------------------------------------------------===//

#include "frontend/Compiler.h"
#include "ir/Verifier.h"
#include "programs/Benchmark.h"
#include "spec/Checkers.h"
#include "spec/Specs.h"
#include "synth/Synthesizer.h"
#include "vm/Interp.h"

#include <gtest/gtest.h>

using namespace dfence;
using namespace dfence::programs;
using vm::EmptyVal;
using vm::MemModel;

namespace {

std::vector<std::string> benchmarkNames() {
  std::vector<std::string> Names;
  for (const Benchmark &B : allBenchmarks())
    Names.push_back(B.Name);
  return Names;
}

vm::ExecResult runBenchClient(const Benchmark &B, const vm::Client &C,
                              MemModel Model, uint64_t Seed,
                              double FlushProb = 0.5) {
  auto CR = frontend::compileMiniC(B.Source);
  EXPECT_TRUE(CR.Ok) << B.Name << ": " << CR.Error;
  vm::ExecConfig Cfg;
  Cfg.Model = Model;
  Cfg.Seed = Seed;
  Cfg.FlushProb = FlushProb;
  Cfg.MaxSteps = 50000;
  return vm::runExecution(CR.Module, C, Cfg);
}

} // namespace

TEST(ProgramsTest, SuiteHasThirteenBenchmarks) {
  EXPECT_EQ(allBenchmarks().size(), 13u);
}

TEST(ProgramsTest, NoFencesShippedInSources) {
  // The sources are deliberately fence-free: DFENCE infers the fences.
  for (const Benchmark &B : allBenchmarks()) {
    EXPECT_EQ(B.Source.find("fence"), std::string::npos)
        << B.Name << " should not contain fences";
  }
}

TEST(ProgramsTest, BenchmarkByNameLookup) {
  EXPECT_EQ(benchmarkByName("Chase-Lev WSQ").Name, "Chase-Lev WSQ");
  EXPECT_EQ(benchmarkByName("Michael Allocator").Clients.size(), 2u);
}

class BenchmarkSuiteTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(BenchmarkSuiteTest, CompilesAndVerifies) {
  const Benchmark &B = benchmarkByName(GetParam());
  auto CR = frontend::compileMiniC(B.Source);
  ASSERT_TRUE(CR.Ok) << CR.Error;
  EXPECT_TRUE(ir::verifyModule(CR.Module).empty());
  EXPECT_GT(CR.Module.totalStoreCount(), 0u);
  EXPECT_FALSE(B.Clients.empty());
}

TEST_P(BenchmarkSuiteTest, ClientsSatisfySpecUnderSC) {
  const Benchmark &B = benchmarkByName(GetParam());
  synth::SynthConfig Check;
  Check.Model = MemModel::SC;
  Check.Spec = B.UseNoGarbage ? synth::SpecKind::NoGarbage
               : B.Factory    ? synth::SpecKind::Linearizability
                              : synth::SpecKind::MemorySafety;
  Check.Factory = B.Factory;
  for (const vm::Client &C : B.Clients) {
    for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
      vm::ExecResult R = runBenchClient(B, C, MemModel::SC, Seed);
      ASSERT_EQ(R.Out, vm::Outcome::Completed)
          << B.Name << "/" << C.Name << " seed " << Seed << ": "
          << R.Message;
      EXPECT_EQ(synth::checkExecution(R, Check), "")
          << B.Name << "/" << C.Name << " seed " << Seed << "\n"
          << R.Hist.str();
    }
  }
}

TEST_P(BenchmarkSuiteTest, ExecutionsCompleteUnderRelaxedModels) {
  // Under TSO/PSO the unfenced algorithms may return wrong values, but
  // executions must still terminate (discarded step-limit runs aside).
  const Benchmark &B = benchmarkByName(GetParam());
  for (MemModel Model : {MemModel::TSO, MemModel::PSO}) {
    int Completed = 0;
    for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
      vm::ExecResult R =
          runBenchClient(B, B.Clients[0], Model, Seed, 0.4);
      if (R.Out == vm::Outcome::Completed ||
          R.Out == vm::Outcome::MemSafety ||
          R.Out == vm::Outcome::AssertFail)
        ++Completed;
      EXPECT_NE(R.Out, vm::Outcome::Deadlock)
          << B.Name << " seed " << Seed;
    }
    EXPECT_GT(Completed, 10) << B.Name << " under "
                             << vm::memModelName(Model);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, BenchmarkSuiteTest,
    ::testing::ValuesIn(benchmarkNames()),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      std::string Name = Info.param;
      for (char &C : Name)
        if (!isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });

//===----------------------------------------------------------------------===//
// Sequential semantics per queue family
//===----------------------------------------------------------------------===//

namespace {

/// Runs put(1) put(2) put(3) then three consuming ops sequentially and
/// returns the consumed triple.
std::vector<vm::Word> consumeOrder(const std::string &Src,
                                   const char *Op1, const char *Op2,
                                   const char *Op3) {
  auto M = frontend::compileOrDie(Src);
  vm::Client C;
  vm::ThreadScript S;
  for (int V = 1; V <= 3; ++V) {
    vm::MethodCall P;
    P.Func = "put";
    P.Args = {vm::Arg(V)};
    S.Calls.push_back(P);
  }
  for (const char *Op : {Op1, Op2, Op3}) {
    vm::MethodCall MC;
    MC.Func = Op;
    S.Calls.push_back(MC);
  }
  C.Threads = {S};
  vm::ExecConfig Cfg;
  vm::ExecResult R = vm::runExecution(M, C, Cfg);
  EXPECT_EQ(R.Out, vm::Outcome::Completed) << R.Message;
  return {R.Hist.Ops[3].Ret, R.Hist.Ops[4].Ret, R.Hist.Ops[5].Ret};
}

} // namespace

TEST(ProgramsTest, ChaseLevSequentialSemantics) {
  auto V = consumeOrder(chaseLevSource(), "take", "steal", "take");
  EXPECT_EQ(V[0], 3u) << "take pops the tail";
  EXPECT_EQ(V[1], 1u) << "steal pops the head";
  EXPECT_EQ(V[2], 2u);
}

TEST(ProgramsTest, CilkTheSequentialSemantics) {
  auto V = consumeOrder(cilkTheSource(), "take", "steal", "take");
  EXPECT_EQ(V[0], 3u);
  EXPECT_EQ(V[1], 1u);
  EXPECT_EQ(V[2], 2u);
}

TEST(ProgramsTest, LifoVariantsPopTheTop) {
  for (const std::string &Src : {lifoIwsqSource(), lifoWsqSource()}) {
    auto V = consumeOrder(Src, "take", "steal", "take");
    EXPECT_EQ(V[0], 3u);
    EXPECT_EQ(V[1], 2u) << "LIFO steal also pops the top";
    EXPECT_EQ(V[2], 1u);
  }
}

TEST(ProgramsTest, FifoVariantsPopTheHead) {
  for (const std::string &Src : {fifoIwsqSource(), fifoWsqSource()}) {
    auto V = consumeOrder(Src, "take", "steal", "take");
    EXPECT_EQ(V[0], 1u);
    EXPECT_EQ(V[1], 2u);
    EXPECT_EQ(V[2], 3u);
  }
}

TEST(ProgramsTest, AnchorVariantsAreDeques) {
  for (const std::string &Src : {anchorIwsqSource(), anchorWsqSource()}) {
    auto V = consumeOrder(Src, "take", "steal", "take");
    EXPECT_EQ(V[0], 3u) << "take pops the tail";
    EXPECT_EQ(V[1], 1u) << "steal pops the head";
    EXPECT_EQ(V[2], 2u);
  }
}

TEST(ProgramsTest, EmptyReturnsEmpty) {
  for (const Benchmark &B : allBenchmarks()) {
    if (B.Name.find("WSQ") == std::string::npos &&
        B.Name.find("iWSQ") == std::string::npos)
      continue;
    auto M = frontend::compileOrDie(B.Source);
    EXPECT_EQ(vm::runSequential(M, "take", {}), EmptyVal) << B.Name;
    EXPECT_EQ(vm::runSequential(M, "steal", {}), EmptyVal) << B.Name;
  }
}

TEST(ProgramsTest, QueuesSequentialFifo) {
  for (const std::string &Src : {ms2QueueSource(), msnQueueSource()}) {
    auto M = frontend::compileOrDie(Src);
    vm::Client C;
    C.InitFunc = "init";
    vm::ThreadScript S;
    for (int V = 1; V <= 3; ++V) {
      vm::MethodCall E;
      E.Func = "enqueue";
      E.Args = {vm::Arg(V)};
      S.Calls.push_back(E);
    }
    for (int I = 0; I < 4; ++I) {
      vm::MethodCall D;
      D.Func = "dequeue";
      S.Calls.push_back(D);
    }
    C.Threads = {S};
    vm::ExecConfig Cfg;
    auto R = vm::runExecution(M, C, Cfg);
    ASSERT_EQ(R.Out, vm::Outcome::Completed) << R.Message;
    EXPECT_EQ(R.Hist.Ops[3].Ret, 1u);
    EXPECT_EQ(R.Hist.Ops[4].Ret, 2u);
    EXPECT_EQ(R.Hist.Ops[5].Ret, 3u);
    EXPECT_EQ(R.Hist.Ops[6].Ret, EmptyVal);
  }
}

TEST(ProgramsTest, SetsSequentialSemantics) {
  for (const std::string &Src : {lazyListSource(), harrisSetSource()}) {
    auto M = frontend::compileOrDie(Src);
    vm::Client C;
    C.InitFunc = "init";
    vm::ThreadScript S;
    auto Call = [](const char *F, int V) {
      vm::MethodCall MC;
      MC.Func = F;
      MC.Args = {vm::Arg(V)};
      return MC;
    };
    S.Calls = {Call("add", 5),      Call("add", 3),  Call("add", 5),
               Call("contains", 3), Call("remove", 3),
               Call("contains", 3), Call("remove", 3)};
    C.Threads = {S};
    vm::ExecConfig Cfg;
    auto R = vm::runExecution(M, C, Cfg);
    ASSERT_EQ(R.Out, vm::Outcome::Completed) << R.Message;
    EXPECT_EQ(R.Hist.Ops[0].Ret, 1u);
    EXPECT_EQ(R.Hist.Ops[1].Ret, 1u);
    EXPECT_EQ(R.Hist.Ops[2].Ret, 0u) << "duplicate add";
    EXPECT_EQ(R.Hist.Ops[3].Ret, 1u);
    EXPECT_EQ(R.Hist.Ops[4].Ret, 1u);
    EXPECT_EQ(R.Hist.Ops[5].Ret, 0u);
    EXPECT_EQ(R.Hist.Ops[6].Ret, 0u) << "double remove";
  }
}

TEST(ProgramsTest, AllocatorSequentialReuse) {
  auto M = frontend::compileOrDie(michaelAllocatorSource());
  vm::Client C;
  vm::ThreadScript S;
  vm::MethodCall A;
  A.Func = "alloc";
  vm::MethodCall F0;
  F0.Func = "release";
  F0.Args = {vm::Arg::resultOf(0)};
  vm::MethodCall A2;
  A2.Func = "alloc";
  S.Calls = {A, F0, A2};
  C.Threads = {S};
  vm::ExecConfig Cfg;
  auto R = vm::runExecution(M, C, Cfg);
  ASSERT_EQ(R.Out, vm::Outcome::Completed) << R.Message;
  EXPECT_NE(R.Hist.Ops[0].Ret, 0u);
  EXPECT_NE(R.Hist.Ops[2].Ret, 0u);
}

TEST(ProgramsTest, SourceLocMetricsAreReasonable) {
  for (const Benchmark &B : allBenchmarks()) {
    auto CR = frontend::compileMiniC(B.Source);
    ASSERT_TRUE(CR.Ok);
    EXPECT_GT(CR.SourceLines, 20u) << B.Name;
    EXPECT_GT(CR.Module.totalInstrCount(), CR.SourceLines / 2) << B.Name;
  }
}

//===----------------------------------------------------------------------===//
// The full Chase-Lev deque (circular buffer + expand)
//===----------------------------------------------------------------------===//

TEST(ChaseLevFullTest, GrowsPastInitialCapacity) {
  auto M = frontend::compileOrDie(chaseLevFullSource());
  vm::Client C;
  C.InitFunc = "init";
  vm::ThreadScript S;
  for (int V = 1; V <= 10; ++V) {
    vm::MethodCall P;
    P.Func = "put";
    P.Args = {vm::Arg(V)};
    S.Calls.push_back(P);
  }
  for (int I = 0; I < 11; ++I) {
    vm::MethodCall T;
    T.Func = "take";
    S.Calls.push_back(T);
  }
  C.Threads = {S};
  vm::ExecConfig Cfg;
  auto R = vm::runExecution(M, C, Cfg);
  ASSERT_EQ(R.Out, vm::Outcome::Completed) << R.Message;
  // LIFO from the tail: 10, 9, ..., 1, then EMPTY.
  for (int I = 0; I < 10; ++I)
    EXPECT_EQ(R.Hist.Ops[10 + I].Ret, static_cast<vm::Word>(10 - I));
  EXPECT_EQ(R.Hist.Ops[20].Ret, EmptyVal);
}

TEST(ChaseLevFullTest, StealsAcrossExpansion) {
  auto M = frontend::compileOrDie(chaseLevFullSource());
  vm::Client C;
  C.InitFunc = "init";
  vm::ThreadScript Owner, Thief;
  for (int V = 1; V <= 8; ++V) {
    vm::MethodCall P;
    P.Func = "put";
    P.Args = {vm::Arg(V)};
    Owner.Calls.push_back(P);
  }
  for (int I = 0; I < 8; ++I) {
    vm::MethodCall St;
    St.Func = "steal";
    Thief.Calls.push_back(St);
  }
  C.Threads = {Owner, Thief};
  synth::SynthConfig Check;
  Check.Model = vm::MemModel::SC;
  Check.Spec = synth::SpecKind::Linearizability;
  Check.Factory = spec::WsqSpec::factory();
  for (uint64_t Seed = 1; Seed <= 60; ++Seed) {
    vm::ExecConfig Cfg;
    Cfg.Model = vm::MemModel::SC;
    Cfg.Seed = Seed;
    auto R = vm::runExecution(M, C, Cfg);
    ASSERT_EQ(R.Out, vm::Outcome::Completed) << R.Message;
    EXPECT_EQ(synth::checkExecution(R, Check), "")
        << "seed " << Seed << "\n"
        << R.Hist.str();
  }
}

TEST(ChaseLevFullTest, SynthesisFindsTakeFenceOnTso) {
  auto M = frontend::compileOrDie(chaseLevFullSource());
  vm::Client C;
  C.InitFunc = "init";
  vm::ThreadScript Owner, Thief;
  auto Call = [](const char *F, std::vector<vm::Arg> A = {}) {
    vm::MethodCall MC;
    MC.Func = F;
    MC.Args = std::move(A);
    return MC;
  };
  Owner.Calls = {Call("put", {1}), Call("put", {2}), Call("take"),
                 Call("take"), Call("take")};
  Thief.Calls = {Call("steal"), Call("steal"), Call("steal"),
                 Call("steal"), Call("steal")};
  C.Threads = {Owner, Thief};
  synth::SynthConfig Cfg;
  Cfg.Model = vm::MemModel::TSO;
  Cfg.Spec = synth::SpecKind::SequentialConsistency;
  Cfg.Factory = spec::WsqSpec::factory();
  Cfg.ExecsPerRound = 1000;
  Cfg.MaxRounds = 12;
  Cfg.MaxRepairRounds = 12;
  Cfg.FlushProb = 0.1;
  auto R = synth::synthesize(M, {C}, Cfg);
  EXPECT_EQ(R.Status, synth::SynthStatus::Converged) << R.FirstViolation;
  bool TakeFence = false;
  for (const auto &F : R.Fences)
    if (F.Function == "take")
      TakeFence = true;
  EXPECT_TRUE(TakeFence) << R.fenceSummary();
}
