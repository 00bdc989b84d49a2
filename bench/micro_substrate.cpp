//===- micro_substrate.cpp - google-benchmark substrate microbenchmarks ---===//
//
// Not a paper table: performance health of the substrates (interpreter
// step rate, repair selection, history checking, compilation), so
// regressions in the infrastructure are visible.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "sat/MinimalModels.h"
#include "spec/Checkers.h"
#include "spec/Specs.h"
#include "support/Rng.h"

#include <benchmark/benchmark.h>

using namespace dfence;

namespace {

void BM_CompileChaseLev(benchmark::State &State) {
  const auto &Src = programs::chaseLevSource();
  for (auto _ : State) {
    auto R = frontend::compileMiniC(Src);
    benchmark::DoNotOptimize(R.Ok);
  }
}
BENCHMARK(BM_CompileChaseLev);

void BM_ExecuteChaseLevPso(benchmark::State &State) {
  const auto &B = programs::benchmarkByName("Chase-Lev WSQ");
  auto M = frontend::compileOrDie(B.Source);
  uint64_t Seed = 1;
  size_t Steps = 0;
  for (auto _ : State) {
    vm::ExecConfig Cfg;
    Cfg.Model = vm::MemModel::PSO;
    Cfg.Seed = Seed++;
    Cfg.FlushProb = 0.5;
    auto R = vm::runExecution(M, B.Clients[0], Cfg);
    Steps += R.Steps;
    benchmark::DoNotOptimize(R.Out);
  }
  State.SetItemsProcessed(static_cast<int64_t>(Steps));
  State.SetLabel("items = interpreter steps");
}
BENCHMARK(BM_ExecuteChaseLevPso);

void BM_ExecuteAllocatorPso(benchmark::State &State) {
  const auto &B = programs::benchmarkByName("Michael Allocator");
  auto M = frontend::compileOrDie(B.Source);
  uint64_t Seed = 1;
  for (auto _ : State) {
    vm::ExecConfig Cfg;
    Cfg.Model = vm::MemModel::PSO;
    Cfg.Seed = Seed++;
    Cfg.FlushProb = 0.5;
    auto R = vm::runExecution(M, B.Clients[0], Cfg);
    benchmark::DoNotOptimize(R.Out);
  }
}
BENCHMARK(BM_ExecuteAllocatorPso);

void BM_LinearizabilityCheck(benchmark::State &State) {
  // A 12-op concurrent WSQ history with overlaps.
  vm::History H;
  uint64_t T = 1;
  auto Op = [&](const char *F, vm::Word Arg, vm::Word Ret,
                uint32_t Thread, uint64_t Span) {
    vm::OpRecord O;
    O.Func = F;
    if (Arg)
      O.Args = {Arg};
    O.Ret = Ret;
    O.Thread = Thread;
    O.InvokeSeq = T;
    O.RespondSeq = T + Span;
    T += 2;
    O.Completed = true;
    H.Ops.push_back(O);
  };
  for (int I = 1; I <= 4; ++I)
    Op("put", static_cast<vm::Word>(I), 0, 0, 3);
  for (int I = 0; I < 4; ++I)
    Op("steal", 0, static_cast<vm::Word>(I + 1), 1, 5);
  for (int I = 0; I < 4; ++I)
    Op("take", 0, vm::EmptyVal, 0, 3);
  for (auto _ : State) {
    bool Ok = spec::isLinearizable(H, spec::WsqSpec::factory());
    benchmark::DoNotOptimize(Ok);
  }
}
BENCHMARK(BM_LinearizabilityCheck);

/// One random monotone Φ for the repair-selection benchmark below.
sat::MonotoneCnf selectionFormula() {
  sat::MonotoneCnf F;
  F.NumVars = 16;
  Rng R(7);
  for (int C = 0; C < 24; ++C) {
    std::vector<sat::Var> Clause;
    for (int K = 0; K < 3; ++K)
      Clause.push_back(static_cast<sat::Var>(R.nextBelow(16)));
    F.Clauses.push_back(Clause);
  }
  return F;
}

void BM_MinimumModelExact(benchmark::State &State) {
  sat::MonotoneCnf F = selectionFormula();
  for (auto _ : State) {
    bool Unsat = false;
    auto Model = sat::minimumModel(F, Unsat);
    benchmark::DoNotOptimize(Model.size());
  }
}
BENCHMARK(BM_MinimumModelExact);

void BM_FullSynthesisChaseLevTso(benchmark::State &State) {
  const auto &B = programs::benchmarkByName("Chase-Lev WSQ");
  auto M = frontend::compileOrDie(B.Source);
  for (auto _ : State) {
    auto Cfg = bench::makeConfig(
        vm::MemModel::TSO, synth::SpecKind::SequentialConsistency,
        B.Factory, 200);
    auto R = synth::synthesize(M, B.Clients, Cfg);
    benchmark::DoNotOptimize(R.Fences.size());
  }
}
BENCHMARK(BM_FullSynthesisChaseLevTso)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
