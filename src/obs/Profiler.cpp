//===- Profiler.cpp - Phase profiler of the flight recorder ---------------===//

#include "obs/Profiler.h"

#include <algorithm>

using namespace dfence;
using namespace dfence::obs;

const char *obs::phaseName(Phase P) {
  switch (P) {
  case Phase::Exec:       return "exec";
  case Phase::SpecCheck:  return "spec_check";
  case Phase::SatSolve:   return "sat_solve";
  case Phase::Enforce:    return "enforce";
  case Phase::Fold:       return "fold";
  case Phase::RoundOther: return "round_other";
  }
  return "unknown";
}

Profiler::Profiler(Registry &Reg, const std::vector<std::string> &OpNames) {
  for (unsigned I = 0; I != NumPhases; ++I)
    PhaseH[I] =
        &Reg.histogram(std::string("obs_phase_") +
                           phaseName(static_cast<Phase>(I)) + "_us",
                       Histogram::defaultTimeBoundsUs());
  for (const std::string &Name : OpNames)
    OpC.push_back(&Reg.counter("obs_op_" + Name + "_steps_total"));
  ExecsProfiledC = &Reg.counter("obs_execs_profiled_total");
}

void Profiler::flushExec(uint64_t ExecNs, uint64_t CheckNs,
                         std::span<const uint64_t> OpSteps,
                         unsigned Worker) {
  observePhaseNs(Phase::Exec, ExecNs);
  // Cached or discarded slots skip the check; observe it only when it
  // ran.
  if (CheckNs)
    observePhaseNs(Phase::SpecCheck, CheckNs);
  for (size_t I = 0, E = std::min(OpSteps.size(), OpC.size()); I != E; ++I)
    if (OpSteps[I])
      OpC[I]->add(OpSteps[I], Worker);
  ExecsProfiledC->add(1, Worker);
}

void Profiler::observePhaseNs(Phase P, uint64_t Ns) {
  PhaseH[static_cast<unsigned>(P)]->observe(static_cast<double>(Ns) /
                                            1000.0);
  TotalNs.fetch_add(Ns, std::memory_order_relaxed);
}
