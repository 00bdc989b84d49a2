//===- Interp.cpp - Convenience entry points to the execution core --------===//
//
// The engine itself lives in ExecContext.cpp (a long-lived, reusable
// context) with name resolution in Prepared.cpp. runExecution is kept as
// the one-shot convenience wrapper: it prepares the single client and
// runs it in a transient context — same semantics, same determinism, used
// by tests, litmus sweeps and everything that does not batch executions.
//
//===----------------------------------------------------------------------===//

#include "vm/Interp.h"

#include "support/Diagnostics.h"
#include "support/StringUtils.h"
#include "vm/ExecContext.h"
#include "vm/Prepared.h"

using namespace dfence;
using namespace dfence::vm;
using namespace dfence::ir;

const char *vm::outcomeName(Outcome O) {
  switch (O) {
  case Outcome::Completed:  return "completed";
  case Outcome::StepLimit:  return "step-limit";
  case Outcome::MemSafety:  return "memory-safety";
  case Outcome::AssertFail: return "assert-failed";
  case Outcome::Deadlock:   return "deadlock";
  case Outcome::Timeout:    return "timeout";
  }
  dfenceUnreachable("invalid outcome");
}

std::string History::str() const {
  std::string S;
  for (const OpRecord &Op : Ops) {
    std::vector<std::string> Args;
    for (Word A : Op.Args)
      Args.push_back(std::to_string(static_cast<int64_t>(A)));
    S += strformat("T%u %s(%s)", Op.Thread, Op.Func.c_str(),
                   join(Args, ",").c_str());
    if (Op.Completed)
      S += strformat(" = %lld [%llu,%llu]",
                     static_cast<long long>(Op.Ret),
                     static_cast<unsigned long long>(Op.InvokeSeq),
                     static_cast<unsigned long long>(Op.RespondSeq));
    else
      S += " pending";
    S += "\n";
  }
  return S;
}

ExecResult vm::runExecution(const Module &M, const Client &Client,
                            const ExecConfig &Cfg) {
  PreparedProgram P(M, Client);
  ExecContext Ctx;
  ExecResult R;
  Ctx.run(P, 0, Cfg, R);
  return R;
}

Word vm::runSequential(const Module &M, const std::string &Func,
                       const std::vector<Word> &Args) {
  Client C;
  C.Name = "sequential";
  ThreadScript S;
  MethodCall MC;
  MC.Func = Func;
  for (Word A : Args)
    MC.Args.push_back(Arg(A));
  S.Calls.push_back(std::move(MC));
  C.Threads.push_back(std::move(S));
  ExecConfig Cfg;
  Cfg.Model = MemModel::SC;
  Cfg.Seed = 1;
  ExecResult R = runExecution(M, C, Cfg);
  if (R.Out != Outcome::Completed)
    reportFatalError("runSequential(" + Func +
                     ") did not complete: " + R.Message);
  assert(R.Hist.Ops.size() == 1 && R.Hist.Ops[0].Completed);
  return R.Hist.Ops[0].Ret;
}
