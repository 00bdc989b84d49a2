//===- BenchUtil.h - Shared helpers for the reproduction benches -*- C++ -*-===//

#ifndef DFENCE_BENCH_BENCHUTIL_H
#define DFENCE_BENCH_BENCHUTIL_H

#include "frontend/Compiler.h"
#include "programs/Benchmark.h"
#include "support/Diagnostics.h"
#include "synth/Synthesizer.h"

#include <string>

namespace dfence::bench {

/// Standard synthesis configuration used by the reproduction benches:
/// flush probability 0.1 on TSO / 0.5 on PSO (the paper's §6.5 optima),
/// K executions per round.
inline synth::SynthConfig
makeConfig(vm::MemModel Model, synth::SpecKind Spec,
           const spec::SpecFactory &Factory, unsigned K = 400) {
  synth::SynthConfig Cfg;
  Cfg.Model = Model;
  Cfg.Spec = Spec;
  Cfg.Factory = Factory;
  Cfg.ExecsPerRound = K;
  Cfg.MaxRounds = 16;
  Cfg.MaxRepairRounds = 16;
  // Two consecutive clean rounds before declaring convergence: a single
  // clean round can be sampling luck on a low-rate residual violation.
  Cfg.CleanRoundsRequired = 2;
  Cfg.MaxStepsPerExec = 30000;
  Cfg.FlushProb = Model == vm::MemModel::TSO ? 0.1 : 0.5;
  // PSO runs mix in a low-probability regime so long store-load delays
  // (the F1-class races) surface as reliably as store-store ones.
  if (Model == vm::MemModel::PSO)
    Cfg.FlushProbs = {0.5, 0.1};
  return Cfg;
}

/// Runs synthesis for one benchmark under (Model, Spec).
inline synth::SynthResult runOne(const programs::Benchmark &B,
                                 vm::MemModel Model, synth::SpecKind Spec,
                                 unsigned K = 400) {
  auto CR = frontend::compileMiniC(B.Source);
  if (!CR.Ok)
    reportFatalError(B.Name + ": " + CR.Error);
  return synth::synthesize(CR.Module, B.Clients,
                           makeConfig(Model, Spec, B.Factory, K));
}

/// Formats a synthesis result the way Table 3 reports a cell: "0" when no
/// fences, "-" when the property cannot be satisfied, else the fence list.
inline std::string cell(const synth::SynthResult &R) {
  if (R.Status != synth::SynthStatus::Converged)
    return "-";
  if (R.Fences.empty())
    return "0";
  return R.fenceSummary();
}

} // namespace dfence::bench

#endif // DFENCE_BENCH_BENCHUTIL_H
