//===- Prepared.cpp - Pre-resolved program + clients ----------------------===//

#include "vm/Prepared.h"

#include "support/Diagnostics.h"

using namespace dfence;
using namespace dfence::vm;
using namespace dfence::ir;

std::string vm::checkClient(const Module &M, const Client &C) {
  if (!C.InitFunc.empty() && !M.findFunction(C.InitFunc))
    return "client calls unknown function: " + C.InitFunc;
  for (const ThreadScript &S : C.Threads)
    for (size_t CI = 0, CE = S.Calls.size(); CI != CE; ++CI) {
      const MethodCall &MC = S.Calls[CI];
      auto F = M.findFunction(MC.Func);
      if (!F)
        return "client calls unknown function: " + MC.Func;
      if (MC.Args.size() != M.Funcs[*F].NumParams)
        return "client call arity mismatch for " + MC.Func;
      // A thread's calls complete in script order, so call CI can only
      // reference the results of calls < CI.
      for (const Arg &A : MC.Args)
        if (A.Ref >= 0 && static_cast<size_t>(A.Ref) >= CI)
          return "client argument references a later call";
    }
  return std::string();
}

PreparedClient PreparedProgram::prepareClient(const Client &C) const {
  if (std::string Error = checkClient(*M, C); !Error.empty())
    reportFatalError(Error);
  PreparedClient PC;
  PC.C = &C;
  if (!C.InitFunc.empty()) {
    PC.Init = *M->findFunction(C.InitFunc);
    PC.HasInit = true;
  }
  PC.Threads.resize(C.Threads.size());
  for (size_t TI = 0, TE = C.Threads.size(); TI != TE; ++TI) {
    const ThreadScript &S = C.Threads[TI];
    PreparedThread &PT = PC.Threads[TI];
    PT.Calls.reserve(S.Calls.size());
    for (const MethodCall &MC : S.Calls)
      PT.Calls.push_back(*M->findFunction(MC.Func));
    PC.TotalCalls += S.Calls.size();
  }
  return PC;
}

void PreparedProgram::prepareModule() {
  FrameSizes.reserve(M->Funcs.size());
  Funcs.resize(M->Funcs.size());
  for (size_t FI = 0, FE = M->Funcs.size(); FI != FE; ++FI) {
    const Function &Fn = M->Funcs[FI];
    FrameSizes.push_back(Fn.NumRegs);
    PreparedFunc &PF = Funcs[FI];
    PF.Jump0.resize(Fn.Body.size());
    PF.Jump1.resize(Fn.Body.size());
    PF.OpIdx.resize(Fn.Body.size());
    for (size_t Ip = 0, IE = Fn.Body.size(); Ip != IE; ++Ip) {
      const Instr &I = Fn.Body[Ip];
      PF.OpIdx[Ip] = static_cast<uint8_t>(I.Op);
      if (I.Op == Opcode::Br || I.Op == Opcode::CondBr)
        PF.Jump0[Ip] = static_cast<uint32_t>(Fn.indexOf(I.Target0));
      if (I.Op == Opcode::CondBr)
        PF.Jump1[Ip] = static_cast<uint32_t>(Fn.indexOf(I.Target1));
    }
  }
}

PreparedProgram::PreparedProgram(const Module &M,
                                 const std::vector<Client> &Clients)
    : M(&M) {
  prepareModule();
  this->Clients.reserve(Clients.size());
  for (const Client &C : Clients)
    this->Clients.push_back(prepareClient(C));
}

PreparedProgram::PreparedProgram(const Module &M, const Client &C)
    : M(&M) {
  prepareModule();
  Clients.push_back(prepareClient(C));
}
