//===- fig5_flushprob.cpp - Reproduces Figure 5 (flush probability) -------===//
//
// Figure 5 of the paper: how the number of synthesized fences for Cilk's
// THE WSQ (PSO, K=1000) varies with the scheduler's flush probability,
// plus the §6.5 observation that the useful flush probability on TSO is
// much lower (~0.1) than on PSO (~0.5). Low probabilities over-fence
// (redundant fences from noisy executions), high probabilities behave
// like SC and under-fence (violations stop appearing).
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"

#include <cstdio>

using namespace dfence;
using namespace dfence::bench;
using synth::SpecKind;
using vm::MemModel;

namespace {

void sweep(const programs::Benchmark &B, MemModel Model, unsigned K) {
  auto CR = frontend::compileMiniC(B.Source);
  if (!CR.Ok)
    reportFatalError(CR.Error);
  std::printf("%-6s %8s %12s %12s %10s %12s\n", "prob", "fences",
              "violations", "predicates", "rounds", "converged");
  for (double Prob : {0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8,
                      0.9, 0.98}) {
    synth::SynthConfig Cfg = makeConfig(
        Model, SpecKind::SequentialConsistency, B.Factory, K);
    Cfg.FlushProb = Prob;
    Cfg.FlushProbs.clear(); // Figure 5 sweeps a single probability.
    Cfg.MaxRounds = 16;
    Cfg.MaxRepairRounds = 16;
    synth::SynthResult R = synth::synthesize(CR.Module, B.Clients, Cfg);
    std::printf("%-6.2f %8zu %12llu %12llu %10u %12s\n", Prob,
                R.Fences.size(),
                static_cast<unsigned long long>(R.ViolatingExecutions),
                static_cast<unsigned long long>(R.DistinctPredicates),
                R.Rounds,
                R.Status == synth::SynthStatus::Converged ? "yes" : "no");
  }
}

} // namespace

int main() {
  const unsigned K = 1000;
  const programs::Benchmark &THE =
      programs::benchmarkByName("Cilk THE WSQ");

  std::printf("Figure 5: effect of flush probability (Cilk THE WSQ, SC "
              "spec, K=%u)\n\nPSO:\n", K);
  sweep(THE, MemModel::PSO, K);

  std::printf("\nTSO (the paper's §6.5: the optimum sits at much lower "
              "probabilities):\n");
  sweep(THE, MemModel::TSO, K);

  std::printf("\nShape to compare with the paper: very low probabilities "
              "inflate the fence count\n(redundant fences), very high "
              "probabilities miss violations (program behaves like SC);\n"
              "on TSO violations vanish at lower probabilities than on "
              "PSO.\n");
  return 0;
}
