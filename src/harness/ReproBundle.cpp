//===- ReproBundle.cpp - Deterministic crash-repro bundles ----------------===//

#include "harness/ReproBundle.h"

#include "ir/Printer.h"
#include "ir/Reader.h"
#include "sched/ReplayScheduler.h"
#include "support/StringUtils.h"
#include "vm/ExecContext.h"
#include "vm/Prepared.h"

#include <fstream>
#include <sstream>

using namespace dfence;
using namespace dfence::harness;

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

static const char *modelName(vm::MemModel M) { return vm::memModelName(M); }

static std::optional<vm::MemModel> modelByName(const std::string &S) {
  for (vm::MemModel M :
       {vm::MemModel::SC, vm::MemModel::TSO, vm::MemModel::PSO})
    if (S == vm::memModelName(M))
      return M;
  return std::nullopt;
}

/// One trace action as compact text: "s3" steps thread 3, "f3" flushes
/// thread 3 positionally, "f3@17" flushes thread 3's buffer of var 17.
static std::string actionText(const sched::Action &A) {
  if (A.Kind == sched::Action::StepThread)
    return strformat("s%u", A.Tid);
  if (A.HasVar)
    return strformat("f%u@%llu", A.Tid,
                     static_cast<unsigned long long>(A.Var));
  return strformat("f%u", A.Tid);
}

static std::optional<sched::Action> actionFromText(const std::string &S) {
  if (S.size() < 2 || (S[0] != 's' && S[0] != 'f'))
    return std::nullopt;
  size_t At = S.find('@');
  char *End = nullptr;
  unsigned long long Tid = std::strtoull(S.c_str() + 1, &End, 10);
  if (End == S.c_str() + 1)
    return std::nullopt;
  if (S[0] == 's')
    return sched::Action::step(static_cast<uint32_t>(Tid));
  if (At == std::string::npos)
    return sched::Action::flush(static_cast<uint32_t>(Tid));
  unsigned long long Var = std::strtoull(S.c_str() + At + 1, nullptr, 10);
  return sched::Action::flushVar(static_cast<uint32_t>(Tid),
                                 static_cast<ir::Word>(Var));
}

static Json clientToJson(const vm::Client &C) {
  Json J = Json::object();
  J.set("name", Json::string(C.Name));
  J.set("init", Json::string(C.InitFunc));
  Json Threads = Json::array();
  for (const vm::ThreadScript &S : C.Threads) {
    Json Calls = Json::array();
    for (const vm::MethodCall &MC : S.Calls) {
      Json Call = Json::object();
      Call.set("func", Json::string(MC.Func));
      Json Args = Json::array();
      for (const vm::Arg &A : MC.Args) {
        Json Arg = Json::object();
        if (A.Ref >= 0)
          Arg.set("ref", Json::number(static_cast<int64_t>(A.Ref)));
        else
          Arg.set("lit", Json::number(static_cast<uint64_t>(A.Literal)));
        Args.push(std::move(Arg));
      }
      Call.set("args", std::move(Args));
      Calls.push(std::move(Call));
    }
    Threads.push(std::move(Calls));
  }
  J.set("threads", std::move(Threads));
  return J;
}

static vm::Client clientFromJson(const Json &J) {
  vm::Client C;
  if (const Json *N = J.find("name"))
    C.Name = N->asString();
  if (const Json *I = J.find("init"))
    C.InitFunc = I->asString();
  const Json *Threads = J.find("threads");
  if (!Threads || !Threads->isArray())
    return C;
  for (const Json &TJ : Threads->items()) {
    vm::ThreadScript S;
    if (TJ.isArray()) {
      for (const Json &CallJ : TJ.items()) {
        vm::MethodCall MC;
        if (const Json *F = CallJ.find("func"))
          MC.Func = F->asString();
        if (const Json *Args = CallJ.find("args"); Args && Args->isArray())
          for (const Json &AJ : Args->items()) {
            if (const Json *Ref = AJ.find("ref"))
              MC.Args.push_back(vm::Arg::resultOf(
                  static_cast<int>(Ref->asI64())));
            else if (const Json *Lit = AJ.find("lit"))
              MC.Args.push_back(vm::Arg(Lit->asU64()));
            else
              MC.Args.push_back(vm::Arg(ir::Word(0)));
          }
        S.Calls.push_back(std::move(MC));
      }
    }
    C.Threads.push_back(std::move(S));
  }
  return C;
}

Json harness::faultPlanToJson(const vm::FaultPlan &F) {
  Json J = Json::object();
  J.set("flushStormProb", Json::number(F.FlushStormProb));
  Json Labels = Json::array();
  for (ir::InstrId L : F.SwitchBeforeLabels)
    Labels.push(Json::number(static_cast<uint64_t>(L)));
  J.set("switchBeforeLabels", std::move(Labels));
  J.set("allocFailProb", Json::number(F.AllocFailProb));
  J.set("allocFailAfter", Json::number(F.AllocFailAfter));
  J.set("bufferCapacity",
        Json::number(static_cast<uint64_t>(F.BufferCapacity)));
  J.set("stallMs", Json::number(static_cast<uint64_t>(F.StallMs)));
  return J;
}

vm::FaultPlan harness::faultPlanFromJson(const Json &J) {
  vm::FaultPlan F;
  if (const Json *P = J.find("flushStormProb"))
    F.FlushStormProb = P->asDouble();
  if (const Json *L = J.find("switchBeforeLabels"); L && L->isArray())
    for (const Json &E : L->items())
      F.SwitchBeforeLabels.push_back(
          static_cast<ir::InstrId>(E.asU64()));
  if (const Json *P = J.find("allocFailProb"))
    F.AllocFailProb = P->asDouble();
  if (const Json *N = J.find("allocFailAfter"))
    F.AllocFailAfter = N->asU64();
  if (const Json *N = J.find("bufferCapacity"))
    F.BufferCapacity = static_cast<size_t>(N->asU64());
  if (const Json *N = J.find("stallMs"))
    F.StallMs = static_cast<uint32_t>(N->asU64());
  return F;
}

Json ReproBundle::toJson() const {
  Json J = Json::object();
  J.set("version", Json::number(static_cast<uint64_t>(FormatVersion)));
  J.set("outcome", Json::string(Outcome));
  J.set("message", Json::string(Message));
  if (!SpecName.empty())
    J.set("spec", Json::string(SpecName));
  if (!SeqSpecName.empty())
    J.set("seqSpec", Json::string(SeqSpecName));
  if (!CacheMode.empty())
    J.set("cache", Json::string(CacheMode));
  if (!RequestId.empty())
    J.set("requestId", Json::string(RequestId));
  J.set("model", Json::string(modelName(Model)));
  J.set("seed", Json::number(Seed));
  J.set("flushProb", Json::number(FlushProb));
  J.set("maxSteps", Json::number(static_cast<uint64_t>(MaxSteps)));
  J.set("interOpPredicates", Json::boolean(InterOpPredicates));
  J.set("partialOrderReduction", Json::boolean(PartialOrderReduction));
  if (Faults.enabled())
    J.set("faults", faultPlanToJson(Faults));
  J.set("client", clientToJson(Client));
  Json TraceJ = Json::array();
  for (const sched::Action &A : Trace)
    TraceJ.push(Json::string(actionText(A)));
  J.set("trace", std::move(TraceJ));
  J.set("module", Json::string(ModuleText));
  if (!Metrics.isNull())
    J.set("metrics", Metrics);
  return J;
}

std::optional<ReproBundle> ReproBundle::fromJson(const Json &J,
                                                 std::string &Error) {
  if (!J.isObject()) {
    Error = "bundle is not a JSON object";
    return std::nullopt;
  }
  const Json *Version = J.find("version");
  if (!Version || Version->asU64() != FormatVersion) {
    Error = strformat("unsupported bundle version (want %u)",
                      FormatVersion);
    return std::nullopt;
  }
  ReproBundle B;
  if (const Json *O = J.find("outcome"))
    B.Outcome = O->asString();
  if (const Json *M = J.find("message"))
    B.Message = M->asString();
  if (const Json *S = J.find("spec"))
    B.SpecName = S->asString();
  if (const Json *S = J.find("seqSpec"))
    B.SeqSpecName = S->asString();
  if (const Json *S = J.find("cache"))
    B.CacheMode = S->asString();
  if (const Json *S = J.find("requestId"))
    B.RequestId = S->asString();
  const Json *ModelJ = J.find("model");
  auto Model = modelByName(ModelJ ? ModelJ->asString() : "");
  if (!Model) {
    Error = "bundle has a missing or unknown memory model";
    return std::nullopt;
  }
  B.Model = *Model;
  if (const Json *S = J.find("seed"))
    B.Seed = S->asU64(1);
  if (const Json *P = J.find("flushProb"))
    B.FlushProb = P->asDouble(0.5);
  if (const Json *S = J.find("maxSteps"))
    B.MaxSteps = static_cast<size_t>(S->asU64(1 << 20));
  if (const Json *V = J.find("interOpPredicates"))
    B.InterOpPredicates = V->asBool(true);
  if (const Json *V = J.find("partialOrderReduction"))
    B.PartialOrderReduction = V->asBool(true);
  if (const Json *F = J.find("faults"))
    B.Faults = faultPlanFromJson(*F);
  if (const Json *C = J.find("client"))
    B.Client = clientFromJson(*C);
  if (const Json *T = J.find("trace"); T && T->isArray())
    for (const Json &A : T->items()) {
      auto Act = actionFromText(A.asString());
      if (!Act) {
        Error = "bundle trace contains an unparsable action: " +
                A.asString();
        return std::nullopt;
      }
      B.Trace.push_back(*Act);
    }
  const Json *Mod = J.find("module");
  if (!Mod) {
    Error = "bundle has no module text";
    return std::nullopt;
  }
  B.ModuleText = Mod->asString();
  if (const Json *Met = J.find("metrics"))
    B.Metrics = *Met;
  return B;
}

bool ReproBundle::saveFile(const std::string &Path,
                           std::string &Error) const {
  std::ofstream Out(Path);
  if (!Out) {
    Error = "cannot open " + Path + " for writing";
    return false;
  }
  Out << toJson().dump(2) << "\n";
  if (!Out.good()) {
    Error = "write to " + Path + " failed";
    return false;
  }
  return true;
}

std::optional<ReproBundle> ReproBundle::loadFile(const std::string &Path,
                                                 std::string &Error) {
  std::ifstream In(Path);
  if (!In) {
    Error = "cannot read " + Path;
    return std::nullopt;
  }
  std::ostringstream SS;
  SS << In.rdbuf();
  auto J = Json::parse(SS.str(), Error);
  if (!J)
    return std::nullopt;
  return fromJson(*J, Error);
}

//===----------------------------------------------------------------------===//
// Capture and replay
//===----------------------------------------------------------------------===//

ReproBundle harness::makeBundle(const ir::Module &M, const vm::Client &C,
                                const vm::ExecConfig &EC,
                                const vm::ExecResult &R,
                                const std::string &Message) {
  ReproBundle B;
  B.ModuleText = ir::printModule(M);
  B.Client = C;
  B.Model = EC.Model;
  B.Seed = EC.Seed;
  B.FlushProb = EC.FlushProb;
  B.MaxSteps = EC.MaxSteps;
  B.InterOpPredicates = EC.InterOpPredicates;
  B.PartialOrderReduction = EC.PartialOrderReduction;
  if (EC.Faults)
    B.Faults = *EC.Faults;
  B.Trace = R.Trace;
  B.Outcome = vm::outcomeName(R.Out);
  B.Message = Message.empty() ? R.Message : Message;
  return B;
}

std::optional<vm::ExecResult> harness::replayBundle(const ReproBundle &B,
                                                    std::string &Error) {
  auto M = ir::parseModule(B.ModuleText, Error);
  if (!M)
    return std::nullopt;
  sched::ReplayScheduler Replay(B.Trace, /*Strict=*/false);
  vm::FaultPlan Faults = B.Faults.replayView();
  vm::ExecConfig EC;
  EC.Model = B.Model;
  EC.Seed = B.Seed;
  EC.MaxSteps = B.MaxSteps;
  EC.InterOpPredicates = B.InterOpPredicates;
  EC.PartialOrderReduction = B.PartialOrderReduction;
  EC.FlushProb = B.FlushProb; // Unused under a replay scheduler.
  EC.Sched = &Replay;
  if (Faults.enabled())
    EC.Faults = &Faults;
  // Replays take the same prepared-program path the round engine runs, so
  // a bundle reproduces the exact code path that captured it.
  vm::PreparedProgram P(*M, B.Client);
  vm::ExecContext Ctx;
  vm::ExecResult R;
  Ctx.run(P, 0, EC, R);
  return R;
}
