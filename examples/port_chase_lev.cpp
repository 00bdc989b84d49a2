//===- port_chase_lev.cpp - Porting a WSQ across memory models ------------===//
//
// The paper's motivating workflow: a designer ports the (fence-free)
// Chase-Lev work-stealing queue to TSO and then to PSO, under both
// operation-level sequential consistency and linearizability, and lets
// DFENCE derive the fences each combination requires — the F1/F2/F3 story
// of the paper's Fig. 1 and Fig. 2.
//
//===----------------------------------------------------------------------===//

#include "frontend/Compiler.h"
#include "programs/Benchmark.h"
#include "synth/Synthesizer.h"

#include <cstdio>

using namespace dfence;

namespace {

void port(const programs::Benchmark &B, vm::MemModel Model,
          synth::SpecKind Spec) {
  auto CR = frontend::compileMiniC(B.Source);
  if (!CR.Ok) {
    std::fprintf(stderr, "compile error: %s\n", CR.Error.c_str());
    return;
  }
  synth::SynthConfig Cfg;
  Cfg.Model = Model;
  Cfg.Spec = Spec;
  Cfg.Factory = B.Factory;
  Cfg.ExecsPerRound = 1000;
  Cfg.FlushProb = Model == vm::MemModel::TSO ? 0.1 : 0.5;
  if (Model == vm::MemModel::PSO)
    Cfg.FlushProbs = {0.5, 0.1};
  synth::SynthResult R = synth::synthesize(CR.Module, B.Clients, Cfg);

  std::printf("%-4s under %-22s: ", vm::memModelName(Model),
              synth::specKindName(Spec));
  if (R.Status != synth::SynthStatus::Converged) {
    std::printf("cannot be satisfied by fences alone\n");
    return;
  }
  if (R.Fences.empty()) {
    std::printf("no fences needed\n");
    return;
  }
  std::printf("%zu fence(s)\n", R.Fences.size());
  for (const synth::InsertedFence &F : R.Fences)
    std::printf("       %s\n", F.str().c_str());
}

} // namespace

int main() {
  const programs::Benchmark &B =
      programs::benchmarkByName("Chase-Lev WSQ");
  std::printf("Porting the fence-free Chase-Lev work-stealing queue\n");
  std::printf("(source: %zu bytes of MiniC; fences below are inferred, "
              "none are hand-written)\n\n", B.Source.size());

  for (vm::MemModel Model : {vm::MemModel::TSO, vm::MemModel::PSO}) {
    port(B, Model, synth::SpecKind::MemorySafety);
    port(B, Model, synth::SpecKind::SequentialConsistency);
    port(B, Model, synth::SpecKind::Linearizability);
    std::printf("\n");
  }

  std::printf("Compare with the paper's Fig. 1: F1 is the store-load "
              "fence in take (TSO and PSO);\nF2 the store-store fence in "
              "put (PSO); F3 the end-of-operation flush required only\n"
              "by linearizability.\n");
  return 0;
}
