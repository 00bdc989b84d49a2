//===- Campaign.cpp - Fuzz campaign over the normal synthesis path --------===//

#include "fuzz/Campaign.h"

#include "cache/ExecCache.h"
#include "obs/Obs.h"
#include "serve/Protocol.h"
#include "serve/Server.h"
#include "synth/Synthesizer.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <ostream>

using namespace dfence;
using namespace dfence::fuzz;

Json fuzz::requestJson(const Scenario &S, const CampaignConfig &Cfg) {
  Json J = Json::object();
  J.set("op", Json::string("synth"));
  J.set("id", Json::string(S.Name));
  J.set("source", Json::string(S.Source));
  J.set("client", Json::string(S.ClientDsl));
  if (!S.InitFunc.empty())
    J.set("init", Json::string(S.InitFunc));
  J.set("model", Json::string(Cfg.Model));
  J.set("spec", Json::string(S.SpecName));
  if (!S.SeqSpecName.empty())
    J.set("seqSpec", Json::string(S.SeqSpecName));
  J.set("k", Json::number(static_cast<uint64_t>(Cfg.K)));
  J.set("rounds", Json::number(static_cast<uint64_t>(Cfg.Rounds)));
  J.set("seed", Json::number(S.Seed));
  J.set("cache", Json::string(Cfg.CacheOn ? "on" : "off"));
  return J;
}

namespace {

/// Reduces a canonical result object (serve::resultToJson shape — the
/// one shape both paths produce) into the outcome record.
void outcomeFromResult(const Json &Result, ScenarioOutcome &O) {
  if (const Json *S = Result.find("status"))
    O.Status = S->asString();
  if (const Json *V = Result.find("violatingExecutions"))
    O.Violations = V->asU64();
  if (const Json *E = Result.find("totalExecutions"))
    O.Executions = E->asU64();
  if (const Json *R = Result.find("rounds"))
    O.Rounds = static_cast<unsigned>(R->asU64());
  if (const Json *F = Result.find("fences"))
    for (const Json &Fence : F->items())
      O.Fences.push_back(Fence.asString());
}

/// Direct path: resolve the request exactly like the daemon would, then
/// run it in-process.
ScenarioOutcome runDirect(const Scenario &S, const CampaignConfig &Cfg) {
  ScenarioOutcome O;
  O.Name = S.Name;
  O.Family = S.Family;
  O.Seed = S.Seed;

  Json Req = requestJson(S, Cfg);
  std::string Error;
  auto R = serve::parseRequest(Req, Error);
  if (!R) {
    O.Status = "rejected";
    O.Reason = Error;
    return O;
  }
  auto Job = serve::prepareJob(*R, Error);
  if (!Job) {
    O.Status = "rejected";
    O.Reason = Error;
    return O;
  }
  Job->Cfg.Jobs = Cfg.Jobs;
  if (Cfg.CacheOn && Cfg.SharedCache)
    Job->Cfg.ExecResultCache = Cfg.SharedCache;
  Job->Cfg.Obs = Cfg.Obs;
  synth::SynthResult SR =
      synth::synthesize(Job->M, Job->Clients, Job->Cfg);
  if (SR.Status == synth::SynthStatus::ConfigError) {
    O.Status = "rejected";
    O.Reason = SR.Error;
    return O;
  }
  outcomeFromResult(serve::resultToJson(SR), O);
  return O;
}

/// Serve path: fan every request line through an in-process daemon with
/// Cfg.ServeSlots dispatcher slots, throttled below queue capacity so
/// admission never sheds; collect responses by id.
std::map<std::string, Json>
runViaServe(const std::vector<Scenario> &Corpus,
            const CampaignConfig &Cfg) {
  serve::ServeConfig SC;
  SC.Jobs = Cfg.ServeJobs;
  SC.Slots = Cfg.ServeSlots;
  SC.QueueCapacity = std::max<size_t>(16, Cfg.ServeSlots * 4);
  SC.CacheEnabled = Cfg.CacheOn;
  SC.Obs = Cfg.Obs;
  serve::Server Server(SC);

  std::mutex Mu;
  std::condition_variable Cv;
  std::map<std::string, Json> Resps;
  size_t Outstanding = 0;

  for (const Scenario &S : Corpus) {
    {
      std::unique_lock<std::mutex> L(Mu);
      Cv.wait(L, [&] { return Outstanding < SC.QueueCapacity; });
      ++Outstanding;
    }
    Server.submit(requestJson(S, Cfg).dump(), [&](Json Resp) {
      std::string Id;
      if (const Json *I = Resp.find("id"))
        Id = I->asString();
      {
        std::lock_guard<std::mutex> L(Mu);
        Resps[Id] = std::move(Resp);
        --Outstanding;
      }
      Cv.notify_all();
    });
  }
  {
    std::unique_lock<std::mutex> L(Mu);
    Cv.wait(L, [&] { return Outstanding == 0; });
  }
  Server.drain();
  return Resps;
}

Json outcomeJson(const ScenarioOutcome &O) {
  Json J = Json::object();
  J.set("name", Json::string(O.Name));
  J.set("family", Json::string(O.Family));
  J.set("seed", Json::number(O.Seed));
  J.set("status", Json::string(O.Status));
  if (!O.Reason.empty())
    J.set("reason", Json::string(O.Reason));
  J.set("violations", Json::number(O.Violations));
  J.set("executions", Json::number(O.Executions));
  J.set("rounds", Json::number(static_cast<uint64_t>(O.Rounds)));
  Json Fences = Json::array();
  for (const std::string &F : O.Fences)
    Fences.push(Json::string(F));
  J.set("fences", std::move(Fences));
  if (!O.FingerprintHex.empty())
    J.set("fingerprint", Json::string(O.FingerprintHex));
  return J;
}

Json bucketJson(const FingerprintBucket &B) {
  Json J = Json::object();
  J.set("fingerprint", Json::string(B.Hex));
  J.set("count", Json::number(B.Count));
  J.set("family", Json::string(B.Family));
  J.set("status", Json::string(B.Status));
  J.set("exemplar", Json::string(B.Exemplar));
  Json Fences = Json::array();
  for (const std::string &F : B.Fences)
    Fences.push(Json::string(F));
  J.set("fences", std::move(Fences));
  return J;
}

} // namespace

Json CampaignResult::canonicalJson(const CampaignConfig &Cfg) const {
  Json J = Json::object();
  J.set("schema", Json::string("dfence-fuzz-v1"));
  J.set("model", Json::string(Cfg.Model));
  J.set("k", Json::number(static_cast<uint64_t>(Cfg.K)));
  J.set("maxRounds", Json::number(static_cast<uint64_t>(Cfg.Rounds)));
  Json Scen = Json::array();
  for (const ScenarioOutcome &O : Outcomes)
    Scen.push(outcomeJson(O));
  J.set("scenarios", std::move(Scen));
  Json Buckets = Json::array();
  for (const FingerprintBucket &B : Distinct)
    Buckets.push(bucketJson(B));
  J.set("fingerprints", std::move(Buckets));
  Json Totals = Json::object();
  Totals.set("scenarios", Json::number(Scenarios));
  Totals.set("rejected", Json::number(Rejected));
  Totals.set("violating", Json::number(Violating));
  Totals.set("distinct",
             Json::number(static_cast<uint64_t>(Distinct.size())));
  J.set("totals", std::move(Totals));
  return J;
}

CampaignResult fuzz::runCampaign(const std::vector<Scenario> &Corpus,
                                 const CampaignConfig &Cfg) {
  auto Start = std::chrono::steady_clock::now();
  CampaignResult Result;

  std::map<std::string, Json> ServeResps;
  if (Cfg.ServeSlots > 0)
    ServeResps = runViaServe(Corpus, Cfg);

  obs::Counter *ScenC = obs::counterOrNull(Cfg.Obs,
                                           "fuzz_scenarios_total");
  obs::Counter *ViolC = obs::counterOrNull(Cfg.Obs,
                                           "fuzz_violations_total");
  obs::Counter *RejC =
      obs::counterOrNull(Cfg.Obs, "fuzz_gen_rejected_total");

  // Merge in corpus order — the counters, the fingerprint table and the
  // report are deterministic however the serve path interleaved.
  std::map<uint64_t, size_t> BucketIndex;
  for (const Scenario &S : Corpus) {
    ScenarioOutcome O;
    if (Cfg.ServeSlots > 0) {
      O.Name = S.Name;
      O.Family = S.Family;
      O.Seed = S.Seed;
      auto It = ServeResps.find(S.Name);
      if (It == ServeResps.end()) {
        O.Status = "rejected";
        O.Reason = "no response";
      } else {
        const Json &Resp = It->second;
        const Json *St = Resp.find("status");
        const Json *Res = Resp.find("result");
        if (!St || St->asString() == "error" ||
            St->asString() == "rejected" || !Res) {
          O.Status = "rejected";
          if (const Json *Why = Resp.find("reason"))
            O.Reason = Why->asString();
        } else {
          outcomeFromResult(*Res, O);
        }
      }
    } else {
      O = runDirect(S, Cfg);
    }

    OBS_COUNT(ScenC, 1);
    ++Result.Scenarios;
    if (O.Status == "rejected") {
      OBS_COUNT(RejC, 1);
      ++Result.Rejected;
    } else if (O.Violations > 0) {
      OBS_COUNT(ViolC, 1);
      ++Result.Violating;
      Fingerprint FP =
          fingerprintOutcome(O.Family, O.Status, O.Fences);
      O.FingerprintHex = FP.hex();
      auto [It, Fresh] =
          BucketIndex.emplace(FP.Hash, Result.Distinct.size());
      if (Fresh) {
        FingerprintBucket B;
        B.Hex = FP.hex();
        B.Canon = FP.Canon;
        B.Family = O.Family;
        B.Status = O.Status;
        B.Exemplar = O.Name;
        B.Fences = O.Fences;
        std::sort(B.Fences.begin(), B.Fences.end());
        B.Fences.erase(std::unique(B.Fences.begin(), B.Fences.end()),
                       B.Fences.end());
        Result.Distinct.push_back(std::move(B));
      }
      ++Result.Distinct[It->second].Count;
    }
    Result.Outcomes.push_back(std::move(O));
  }

  std::sort(Result.Distinct.begin(), Result.Distinct.end(),
            [](const FingerprintBucket &A, const FingerprintBucket &B) {
              if (A.Count != B.Count)
                return A.Count > B.Count;
              return A.Hex < B.Hex;
            });

  if (obs::Gauge *G =
          obs::gaugeOrNull(Cfg.Obs, "fuzz_distinct_fingerprints"))
    G->set(static_cast<double>(Result.Distinct.size()));

  Result.ElapsedUs = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - Start)
          .count());

  if (Cfg.Report) {
    // JSONL mirror of the --round-log convention: one self-describing
    // line per scenario, then one summary line — the only line carrying
    // wall-clock fields, so same-seed reports differ in it alone.
    for (const ScenarioOutcome &O : Result.Outcomes) {
      Json Line = outcomeJson(O);
      Line.set("type", Json::string("scenario"));
      *Cfg.Report << Line.dump() << "\n";
    }
    Json Summary = Json::object();
    Summary.set("type", Json::string("summary"));
    Summary.set("schema", Json::string("dfence-fuzz-v1"));
    Summary.set("scenarios", Json::number(Result.Scenarios));
    Summary.set("rejected", Json::number(Result.Rejected));
    Summary.set("violating", Json::number(Result.Violating));
    Summary.set("distinct", Json::number(static_cast<uint64_t>(
                                Result.Distinct.size())));
    Json Buckets = Json::array();
    for (const FingerprintBucket &B : Result.Distinct)
      Buckets.push(bucketJson(B));
    Summary.set("fingerprints", std::move(Buckets));
    Summary.set("elapsedUs", Json::number(Result.ElapsedUs));
    *Cfg.Report << Summary.dump() << "\n";
  }
  return Result;
}
