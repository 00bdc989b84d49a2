//===- fig4_rounds.cpp - Reproduces Figure 4 (rounds vs executions) -------===//
//
// Figure 4 of the paper: the number of inferred fences for Cilk's THE
// algorithm (sequential consistency, PSO) as a function of the number of
// executions per round, for the multi-round strategy and for the one-shot
// ("one round") strategy. The paper's finding: with ~1000 executions per
// round and <= 4 rounds all required fences are found, while the one-shot
// strategy needs orders of magnitude more executions.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"

#include <cstdio>

using namespace dfence;
using namespace dfence::bench;
using synth::SpecKind;
using vm::MemModel;

int main() {
  const programs::Benchmark &B =
      programs::benchmarkByName("Cilk THE WSQ");
  auto CR = frontend::compileMiniC(B.Source);
  if (!CR.Ok)
    reportFatalError(CR.Error);

  std::printf("Figure 4: inferred fences vs executions per round\n");
  std::printf("Cilk THE WSQ, sequential consistency, PSO\n\n");

  std::printf("multi-round strategy (repair after every K executions):\n");
  std::printf("%10s %8s %8s %12s %10s\n", "K", "fences", "rounds",
              "total execs", "converged");
  for (unsigned K : {25u, 50u, 100u, 200u, 400u, 800u, 1600u}) {
    synth::SynthConfig Cfg = makeConfig(
        MemModel::PSO, SpecKind::SequentialConsistency, B.Factory, K);
    Cfg.MaxRounds = 24;
    Cfg.MaxRepairRounds = 24;
    synth::SynthResult R = synth::synthesize(CR.Module, B.Clients, Cfg);
    std::printf("%10u %8zu %8u %12llu %10s\n", K, R.Fences.size(),
                R.Rounds,
                static_cast<unsigned long long>(R.TotalExecutions),
                R.Status == synth::SynthStatus::Converged ? "yes" : "no");
  }

  std::printf("\none-round strategy (single repair after K executions, "
              "then one verification round):\n");
  std::printf("%10s %8s %12s %10s\n", "K", "fences", "total execs",
              "verified");
  for (unsigned K : {100u, 400u, 1600u, 6400u, 25600u}) {
    synth::SynthConfig Cfg = makeConfig(
        MemModel::PSO, SpecKind::SequentialConsistency, B.Factory, K);
    Cfg.MaxRounds = 2;           // gather+repair, then verify
    Cfg.MaxRepairRounds = 1;     // exactly one repair
    Cfg.CleanRoundsRequired = 1; // one verification round, as in paper
    synth::SynthResult R = synth::synthesize(CR.Module, B.Clients, Cfg);
    std::printf("%10u %8zu %12llu %10s\n", K, R.Fences.size(),
                static_cast<unsigned long long>(R.TotalExecutions),
                R.Status == synth::SynthStatus::Converged ? "yes" : "no");
  }

  std::printf("\nShape to compare with the paper: small per-round K with "
              "a few rounds finds all fences;\nthe one-round strategy "
              "needs a much larger K before its single repair covers "
              "them all.\n");
  return 0;
}
