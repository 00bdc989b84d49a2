//===- Protocol.cpp - dfence serve request/response schema ----------------===//

#include "serve/Protocol.h"

#include "driver/ClientDsl.h"
#include "driver/SpecRegistry.h"
#include "frontend/Compiler.h"
#include "harness/ReproBundle.h"
#include "ir/Printer.h"
#include "programs/Benchmark.h"
#include "support/StringUtils.h"
#include "vm/Interp.h"
#include "vm/Prepared.h"

using namespace dfence;
using namespace dfence::serve;

std::optional<vm::MemModel> serve::modelByName(const std::string &S) {
  if (S == "sc")
    return vm::MemModel::SC;
  if (S == "tso")
    return vm::MemModel::TSO;
  if (S == "pso")
    return vm::MemModel::PSO;
  return std::nullopt;
}

std::optional<synth::SpecKind> serve::specByFlag(const std::string &S) {
  if (S == "safety")
    return synth::SpecKind::MemorySafety;
  if (S == "nogarbage")
    return synth::SpecKind::NoGarbage;
  if (S == "sc")
    return synth::SpecKind::SequentialConsistency;
  if (S == "lin")
    return synth::SpecKind::Linearizability;
  return std::nullopt;
}

std::optional<ServeRequest> serve::parseRequest(const Json &J,
                                                std::string &Error) {
  if (!J.isObject()) {
    Error = "request is not a JSON object";
    return std::nullopt;
  }
  ServeRequest R;
  if (const Json *Id = J.find("id"))
    R.Id = Id->asString();
  const Json *Op = J.find("op");
  if (!Op) {
    Error = "request has no \"op\"";
    return std::nullopt;
  }
  const std::string &OpS = Op->asString();
  if (OpS == "synth")
    R.Kind = ServeRequest::Op::Synth;
  else if (OpS == "bench")
    R.Kind = ServeRequest::Op::Bench;
  else if (OpS == "ping")
    R.Kind = ServeRequest::Op::Ping;
  else if (OpS == "stats")
    R.Kind = ServeRequest::Op::Stats;
  else if (OpS == "status")
    R.Kind = ServeRequest::Op::Status;
  else if (OpS == "shutdown")
    R.Kind = ServeRequest::Op::Shutdown;
  else {
    Error = "unknown op '" + OpS + "'";
    return std::nullopt;
  }

  if (const Json *V = J.find("source"))
    R.Source = V->asString();
  if (const Json *V = J.find("client"))
    R.ClientDsl = V->asString();
  if (const Json *V = J.find("init"))
    R.InitFunc = V->asString();
  if (const Json *V = J.find("bench"))
    R.BenchName = V->asString();
  if (const Json *V = J.find("model"))
    R.Model = V->asString();
  if (const Json *V = J.find("spec"))
    R.Spec = V->asString();
  if (const Json *V = J.find("seqSpec"))
    R.SeqSpec = V->asString();
  if (const Json *V = J.find("enforce"))
    R.Enforce = V->asString();
  if (const Json *V = J.find("k"))
    R.K = static_cast<unsigned>(V->asU64(R.K));
  if (const Json *V = J.find("rounds"))
    R.Rounds = static_cast<unsigned>(V->asU64(R.Rounds));
  if (const Json *V = J.find("flush"))
    R.Flush = V->asDouble(-1.0);
  if (const Json *V = J.find("noMerge"))
    R.NoMerge = V->asBool(false);
  if (const Json *V = J.find("dump"))
    R.Dump = V->asBool(false);
  if (const Json *V = J.find("seed"))
    R.Seed = V->asU64(0);
  if (const Json *V = J.find("cache")) {
    std::string C = V->asString();
    if (C != "on" && C != "off") {
      Error = "unknown cache mode '" + C + "' (on|off)";
      return std::nullopt;
    }
    R.CacheOn = C == "on";
  }
  if (const Json *V = J.find("execMs"))
    R.ExecMs = static_cast<uint32_t>(V->asU64(0));
  if (const Json *V = J.find("retries"))
    R.Retries = static_cast<unsigned>(V->asU64(R.Retries));
  if (const Json *V = J.find("roundMs"))
    R.RoundMs = static_cast<uint32_t>(V->asU64(0));
  if (const Json *V = J.find("totalMs"))
    R.TotalMs = static_cast<uint32_t>(V->asU64(0));
  if (const Json *V = J.find("deadlineMs"))
    R.DeadlineMs = static_cast<uint32_t>(V->asU64(0));
  if (const Json *V = J.find("captureBundles"))
    R.CaptureBundles = V->asBool(false);
  if (const Json *V = J.find("maxBundles"))
    R.MaxBundles = static_cast<unsigned>(V->asU64(R.MaxBundles));
  if (const Json *V = J.find("faults")) {
    R.HasFaults = true;
    R.Faults = harness::faultPlanFromJson(*V);
  }
  if (const Json *V = J.find("priority")) {
    std::string P = V->asString();
    if (P == "high")
      R.HighPriority = true;
    else if (P != "normal" && !P.empty()) {
      Error = "unknown priority '" + P + "' (high|normal)";
      return std::nullopt;
    }
  }

  if (R.Kind == ServeRequest::Op::Synth && R.Source.empty()) {
    Error = "synth request has no \"source\"";
    return std::nullopt;
  }
  if (R.Kind == ServeRequest::Op::Synth && R.ClientDsl.empty()) {
    Error = "synth request has no \"client\"";
    return std::nullopt;
  }
  if (R.Kind == ServeRequest::Op::Bench && R.BenchName.empty()) {
    Error = "bench request has no \"bench\"";
    return std::nullopt;
  }
  return R;
}

/// Fills the shared synthesis knobs of \p Cfg from \p R. The one-shot
/// CLI resolves its flags through prepareJob too, so an accepted daemon
/// request and the equivalent CLI run build the same configuration.
static bool fillConfig(const ServeRequest &R, vm::MemModel Model,
                       synth::SpecKind Spec,
                       const spec::SpecFactory &Factory,
                       synth::SynthConfig &Cfg, std::string &Error) {
  Cfg.Model = Model;
  Cfg.Spec = Spec;
  Cfg.Factory = Factory;
  Cfg.ExecsPerRound = R.K;
  Cfg.MaxRounds = R.Rounds;
  Cfg.MaxRepairRounds = Cfg.MaxRounds;
  if (R.Flush >= 0) {
    Cfg.FlushProb = R.Flush;
  } else if (Model == vm::MemModel::TSO) {
    Cfg.FlushProb = vm::defaultFlushProb(Model);
  } else {
    Cfg.FlushProbs = {vm::defaultFlushProb(vm::MemModel::PSO),
                      vm::defaultFlushProb(vm::MemModel::TSO)};
  }
  if (R.Enforce == "cas")
    Cfg.Mode = synth::EnforceMode::CasDummy;
  else if (R.Enforce == "atomic")
    Cfg.Mode = synth::EnforceMode::AtomicSection;
  else if (R.Enforce != "fence") {
    Error = "unknown enforce mode '" + R.Enforce + "'";
    return false;
  }
  Cfg.MergeFences = !R.NoMerge;
  if (R.Seed != 0)
    Cfg.BaseSeed = R.Seed;
  Cfg.CacheEnabled = R.CacheOn;
  Cfg.Exec.ExecWallMs = R.ExecMs;
  Cfg.Exec.MaxRetries = R.Retries;
  Cfg.RoundWallMs = R.RoundMs;
  Cfg.TotalWallMs = R.TotalMs;
  Cfg.SeqSpecName = R.SeqSpec;
  Cfg.CaptureBundles = R.CaptureBundles;
  Cfg.MaxBundles = R.MaxBundles;
  if (R.HasFaults)
    Cfg.Faults = R.Faults;
  Cfg.RequestTag = R.Id;
  return true;
}

std::optional<SynthJob> serve::prepareJob(const ServeRequest &R,
                                          std::string &Error) {
  auto Model = modelByName(R.Model);
  if (!Model || *Model == vm::MemModel::SC) {
    Error = "model must be tso or pso for synthesis";
    return std::nullopt;
  }

  SynthJob Job;
  if (R.Kind == ServeRequest::Op::Synth) {
    frontend::CompileResult CR = frontend::compileMiniC(R.Source);
    if (!CR.Ok) {
      Error = "compile: " + CR.Error;
      return std::nullopt;
    }
    Job.M = std::move(CR.Module);
    std::string DslError;
    auto Client = driver::parseClientDsl(R.ClientDsl, DslError);
    if (!Client) {
      Error = "client: " + DslError;
      return std::nullopt;
    }
    Client->InitFunc = R.InitFunc;
    // The engine aborts on a client it cannot run; reject it here.
    if (std::string Bad = vm::checkClient(Job.M, *Client); !Bad.empty()) {
      Error = "client: " + Bad;
      return std::nullopt;
    }
    Job.Clients = {*Client};
    auto Spec = specByFlag(R.Spec.empty() ? "safety" : R.Spec);
    if (!Spec) {
      Error = "unknown spec '" + R.Spec + "'";
      return std::nullopt;
    }
    spec::SpecFactory Factory;
    if (*Spec == synth::SpecKind::SequentialConsistency ||
        *Spec == synth::SpecKind::Linearizability) {
      Factory = driver::specByName(R.SeqSpec);
      if (!Factory) {
        Error = "spec sc/lin needs seqSpec (one of " +
                join(driver::knownSpecNames(), ", ") + ")";
        return std::nullopt;
      }
    }
    if (!fillConfig(R, *Model, *Spec, Factory, Job.Cfg, Error))
      return std::nullopt;
    return Job;
  }

  // Bench: resolve by name in both suites without aborting on miss
  // (benchmarkByName aborts; a daemon must reject instead).
  const programs::Benchmark *Found = nullptr;
  for (const programs::Benchmark &B : programs::allBenchmarks())
    if (B.Name == R.BenchName)
      Found = &B;
  for (const programs::Benchmark &B : programs::extendedBenchmarks())
    if (B.Name == R.BenchName)
      Found = &B;
  if (!Found) {
    Error = "unknown benchmark '" + R.BenchName + "'";
    return std::nullopt;
  }
  frontend::CompileResult CR = frontend::compileMiniC(Found->Source);
  if (!CR.Ok) {
    Error = "compile: " + CR.Error;
    return std::nullopt;
  }
  Job.M = std::move(CR.Module);
  Job.Clients = Found->Clients;
  auto Spec = specByFlag(
      R.Spec.empty() ? (Found->UseNoGarbage ? "nogarbage" : "sc")
                     : R.Spec);
  if (!Spec) {
    Error = "unknown spec '" + R.Spec + "'";
    return std::nullopt;
  }
  if (!fillConfig(R, *Model, *Spec, Found->Factory, Job.Cfg, Error))
    return std::nullopt;
  return Job;
}

Json serve::makeHello() {
  Json J = Json::object();
  J.set("proto", Json::string(ProtoName));
  J.set("hello", Json::boolean(true));
  return J;
}

Json serve::makeErrorResponse(const std::string &Id,
                              const std::string &Reason) {
  Json J = Json::object();
  J.set("id", Json::string(Id));
  J.set("status", Json::string("error"));
  J.set("reason", Json::string(Reason));
  return J;
}

Json serve::makeRejectedResponse(const std::string &Id,
                                 const std::string &Reason) {
  Json J = Json::object();
  J.set("id", Json::string(Id));
  J.set("status", Json::string("rejected"));
  J.set("reason", Json::string(Reason));
  return J;
}

Json serve::makePongResponse(const std::string &Id) {
  Json J = Json::object();
  J.set("id", Json::string(Id));
  J.set("status", Json::string("ok"));
  J.set("pong", Json::boolean(true));
  J.set("proto", Json::string(ProtoName));
  return J;
}

Json serve::resultToJson(const synth::SynthResult &R, bool IncludeModule) {
  Json J = Json::object();
  J.set("status", Json::string(synth::synthStatusName(R.Status)));
  J.set("converged",
        Json::boolean(R.Status == synth::SynthStatus::Converged));
  J.set("cannotFix",
        Json::boolean(R.Status == synth::SynthStatus::CannotFix));
  J.set("degraded", Json::boolean(R.Status == synth::SynthStatus::Degraded));
  J.set("timedOut", Json::boolean(R.TimedOut));
  if (!R.DegradeReason.empty())
    J.set("degradeReason", Json::string(R.DegradeReason));
  J.set("rounds", Json::number(static_cast<uint64_t>(R.Rounds)));
  J.set("totalExecutions", Json::number(R.TotalExecutions));
  J.set("violatingExecutions", Json::number(R.ViolatingExecutions));
  J.set("discardedExecutions", Json::number(R.DiscardedExecutions));
  J.set("retriedExecutions", Json::number(R.RetriedExecutions));
  J.set("timedOutExecutions", Json::number(R.TimedOutExecutions));
  J.set("distinctPredicates", Json::number(R.DistinctPredicates));
  J.set("staticFallbackFences",
        Json::number(static_cast<uint64_t>(R.StaticFallbackFences)));
  Json Fences = Json::array();
  for (const synth::InsertedFence &F : R.Fences)
    Fences.push(Json::string(F.str()));
  J.set("fences", std::move(Fences));
  if (!R.FirstViolation.empty())
    J.set("firstViolation", Json::string(R.FirstViolation));
  Json Rounds = Json::array();
  for (const synth::RoundStats &S : R.RoundLog) {
    // Only the deterministic, cache-invariant subset of RoundStats may
    // appear here (canonical-result rule): wall-clock fields and cache
    // hit counts travel in the round log file / "cache" sibling instead.
    Json RJ = Json::object();
    RJ.set("round", Json::number(static_cast<uint64_t>(S.Round)));
    RJ.set("executions", Json::number(S.Executions));
    RJ.set("violations", Json::number(S.Violations));
    RJ.set("newPredicates", Json::number(S.NewPredicates));
    RJ.set("distinctPredicates", Json::number(S.DistinctPredicates));
    RJ.set("fences",
           Json::number(static_cast<uint64_t>(S.FencesEnforced)));
    RJ.set("cleanStreak",
           Json::number(static_cast<uint64_t>(S.CleanStreak)));
    RJ.set("truncated", Json::boolean(S.Truncated));
    Json Sat = Json::object();
    Sat.set("clauses", Json::number(S.SatClauses));
    Sat.set("models", Json::number(S.SatModels));
    Sat.set("nodes", Json::number(S.SatNodes));
    Sat.set("truncated", Json::boolean(S.SatTruncated));
    RJ.set("sat", std::move(Sat));
    Rounds.push(std::move(RJ));
  }
  J.set("roundLog", std::move(Rounds));
  if (IncludeModule)
    J.set("module", Json::string(ir::printModule(R.FencedModule)));
  return J;
}

Json serve::cacheStatsToJson(const synth::SynthResult &R) {
  Json J = Json::object();
  J.set("checkHits", Json::number(R.CheckCacheHits));
  J.set("checkMisses", Json::number(R.CheckCacheMisses));
  J.set("execHits", Json::number(R.ExecCacheHits));
  J.set("execMisses", Json::number(R.ExecCacheMisses));
  return J;
}

const char *serve::statusOfResult(const synth::SynthResult &R) {
  if (R.TimedOut)
    return "timeout";
  if (R.Status == synth::SynthStatus::Degraded)
    return "degraded";
  return "ok";
}
