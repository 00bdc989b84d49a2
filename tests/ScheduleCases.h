//===- ScheduleCases.h - Execution corpus for scheduler tests --*- C++ -*-===//
//
// The programs and fault plans the schedule pin and the view-consistency
// tests drive the interpreter over: every Table-2 and extended subject
// (unfenced, with its own clients) and every litmus shape (whose single
// client call spawns and joins the worker threads), plus fault plans
// that exercise the scheduler-level faults (flush storms, forced context
// switches) and bounded store buffers.
//
//===----------------------------------------------------------------------===//

#ifndef DFENCE_TESTS_SCHEDULECASES_H
#define DFENCE_TESTS_SCHEDULECASES_H

#include "driver/ClientDsl.h"
#include "frontend/Compiler.h"
#include "fuzz/LitmusCorpus.h"
#include "programs/Benchmark.h"
#include "support/Diagnostics.h"
#include "vm/Interp.h"

#include <string>
#include <vector>

namespace dfence::testcases {

/// One compiled program with the clients it runs.
struct Subject {
  std::string Name;
  ir::Module M;
  std::vector<vm::Client> Clients;
};

inline std::vector<Subject> suiteSubjects() {
  std::vector<Subject> Out;
  for (const auto *Suite :
       {&programs::allBenchmarks(), &programs::extendedBenchmarks()})
    for (const programs::Benchmark &B : *Suite)
      Out.push_back({B.Name, frontend::compileOrDie(B.Source), B.Clients});
  return Out;
}

inline std::vector<Subject> litmusSubjects() {
  std::vector<Subject> Out;
  for (const fuzz::LitmusShape &S : fuzz::litmusCorpus()) {
    std::string Error;
    auto C = driver::parseClientDsl(S.ClientDsl, Error);
    if (!C)
      reportFatalError("litmus client: " + Error);
    Out.push_back({"litmus-" + S.Name, frontend::compileOrDie(S.Source),
                   {*C}});
  }
  return Out;
}

/// Suite subjects followed by the litmus shapes.
inline std::vector<Subject> allSubjects() {
  std::vector<Subject> Out = suiteSubjects();
  for (Subject &S : litmusSubjects())
    Out.push_back(std::move(S));
  return Out;
}

/// The labels of every store in \p M, in function/body order.
inline std::vector<ir::InstrId> storeLabels(const ir::Module &M) {
  std::vector<ir::InstrId> Out;
  for (const ir::Function &F : M.Funcs)
    for (const ir::Instr &I : F.Body)
      if (I.Op == ir::Opcode::Store)
        Out.push_back(I.Id);
  return Out;
}

/// One named fault plan per scheduler-visible fault, built for \p M.
struct NamedPlan {
  std::string Name;
  vm::FaultPlan Plan;
};

inline std::vector<NamedPlan> faultPlans(const ir::Module &M) {
  std::vector<NamedPlan> Out(3);
  Out[0].Name = "storm";
  Out[0].Plan.FlushStormProb = 0.05;
  Out[1].Name = "switch";
  Out[1].Plan.SwitchBeforeLabels = storeLabels(M);
  Out[2].Name = "capacity";
  Out[2].Plan.BufferCapacity = 1;
  return Out;
}

/// The engine configuration both tests run at: repairs and the action
/// trace collected, the per-model default flush probability, and a step
/// bound small enough that spinning executions end quickly.
inline vm::ExecConfig baseConfig(vm::MemModel Model, uint64_t Seed) {
  vm::ExecConfig Cfg;
  Cfg.Model = Model;
  Cfg.Seed = Seed;
  Cfg.MaxSteps = 20000;
  Cfg.CollectRepairs = true;
  Cfg.RecordTrace = true;
  Cfg.FlushProb = Model == vm::MemModel::TSO ? 0.1 : 0.5;
  return Cfg;
}

} // namespace dfence::testcases

#endif // DFENCE_TESTS_SCHEDULECASES_H
