//===- fuzz_campaign.cpp - Fuzz-campaign throughput and drift gate --------===//
//
// Drives one seeded fuzz corpus (src/fuzz/) through four campaign
// postures and reports scenarios/s for each:
//
//   * direct, cold cache — every scenario interpreted from scratch;
//   * direct, warm cache — the same corpus re-run through the shared
//     ExecCache the cold pass populated (the re-verification loop a
//     nightly fuzz sweep runs constantly);
//   * via-serve, 1 slot vs 4 slots — the same request lines fanned
//     through an in-process serve daemon, stressing the concurrent
//     dispatcher and its shared cache.
//
// Emits BENCH_fuzz.json (schema "dfence-fuzz-campaign-v1"). Pass a
// number to scale the generated-scenario count (default 150); pass
// "--smoke" for a tiny run that validates the pipeline. The binary
// re-reads the JSON it wrote, checks its structure, and hard-fails on
// ANY drift of the distinct-fingerprint set across the four postures or
// across a same-seed re-run — that invariant is deterministic, so it
// gates smoke runs too. Timing bars are full-run only.
//
//===----------------------------------------------------------------------===//

#include "cache/ExecCache.h"
#include "fuzz/Campaign.h"
#include "fuzz/Generator.h"
#include "fuzz/LitmusCorpus.h"
#include "support/Json.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace dfence;

namespace {

double scenariosPerSec(const fuzz::CampaignResult &R) {
  return R.ElapsedUs
             ? static_cast<double>(R.Scenarios) * 1e6 /
                   static_cast<double>(R.ElapsedUs)
             : 0;
}

Json postureJson(const char *Name, const fuzz::CampaignResult &R) {
  Json J = Json::object();
  J.set("posture", Json::string(Name));
  J.set("scenarios", Json::number(R.Scenarios));
  J.set("rejected", Json::number(R.Rejected));
  J.set("violating", Json::number(R.Violating));
  J.set("distinct",
        Json::number(static_cast<uint64_t>(R.Distinct.size())));
  J.set("elapsed_us", Json::number(R.ElapsedUs));
  J.set("scenarios_per_sec", Json::number(scenariosPerSec(R)));
  return J;
}

/// The drift gate compares canonical documents, which exclude every
/// wall-clock and cache-statistics field by construction.
std::string canon(const fuzz::CampaignResult &R,
                  const fuzz::CampaignConfig &Cfg) {
  return R.canonicalJson(Cfg).dump();
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned Count = 150;
  bool Smoke = false;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--smoke") == 0) {
      Smoke = true;
      Count = 10;
    } else {
      Count = static_cast<unsigned>(std::atoi(Argv[I]));
      if (Count == 0)
        Count = 1;
    }
  }

  fuzz::GeneratorOptions GO;
  GO.FuzzSeed = 0xf022;
  GO.Count = Count;
  std::vector<fuzz::Scenario> Corpus = fuzz::generateScenarios(GO);
  for (fuzz::Scenario &S : fuzz::litmusScenarios(GO.FuzzSeed))
    Corpus.push_back(std::move(S));

  fuzz::CampaignConfig Cfg;
  Cfg.Model = "pso";
  Cfg.K = Smoke ? 40 : 80;
  Cfg.Rounds = Smoke ? 4 : 8;

  std::printf("Fuzz-campaign throughput (%zu scenarios, PSO, K=%u)\n\n",
              Corpus.size(), Cfg.K);
  std::printf("%-18s %10s %9s %9s %12s\n", "posture", "scen/s",
              "violating", "distinct", "elapsed(ms)");

  auto Report = [&](const char *Name, const fuzz::CampaignResult &R) {
    std::printf("%-18s %10.1f %9llu %9zu %12.1f\n", Name,
                scenariosPerSec(R),
                static_cast<unsigned long long>(R.Violating),
                R.Distinct.size(), R.ElapsedUs / 1000.0);
  };

  // Direct path: cold populates the shared cache, warm replays from it.
  cache::ExecCache Shared;
  Cfg.SharedCache = &Shared;
  fuzz::CampaignResult Cold = fuzz::runCampaign(Corpus, Cfg);
  Report("direct-cold", Cold);
  fuzz::CampaignResult Warm = fuzz::runCampaign(Corpus, Cfg);
  Report("direct-warm", Warm);
  Cfg.SharedCache = nullptr;

  // Serve path: the same request lines through 1 and 4 dispatcher slots.
  Cfg.ServeSlots = 1;
  fuzz::CampaignResult Slots1 = fuzz::runCampaign(Corpus, Cfg);
  Report("serve-1-slot", Slots1);
  Cfg.ServeSlots = 4;
  fuzz::CampaignResult Slots4 = fuzz::runCampaign(Corpus, Cfg);
  Report("serve-4-slot", Slots4);
  Cfg.ServeSlots = 0;

  // Drift gate: the four postures (and a same-seed re-run, which `Warm`
  // already is relative to `Cold`) must agree on the canonical document
  // byte for byte — distinct-fingerprint drift across jobs, cache state
  // or execution path is a determinism regression.
  std::string Base = canon(Cold, Cfg);
  bool Drift = Base != canon(Warm, Cfg) || Base != canon(Slots1, Cfg) ||
               Base != canon(Slots4, Cfg);

  Json Doc = Json::object();
  Doc.set("schema", Json::string("dfence-fuzz-campaign-v1"));
  Doc.set("schema_version", Json::number(uint64_t(1)));
  Doc.set("fuzz_seed", Json::number(GO.FuzzSeed));
  Doc.set("count", Json::number(uint64_t(Corpus.size())));
  Doc.set("k", Json::number(uint64_t(Cfg.K)));
  Json Postures = Json::array();
  Postures.push(postureJson("direct-cold", Cold));
  Postures.push(postureJson("direct-warm", Warm));
  Postures.push(postureJson("serve-1-slot", Slots1));
  Postures.push(postureJson("serve-4-slot", Slots4));
  Doc.set("postures", std::move(Postures));
  Doc.set("warm_speedup",
          Json::number(Warm.ElapsedUs
                           ? static_cast<double>(Cold.ElapsedUs) /
                                 static_cast<double>(Warm.ElapsedUs)
                           : 0));
  Doc.set("slots_speedup",
          Json::number(Slots4.ElapsedUs
                           ? static_cast<double>(Slots1.ElapsedUs) /
                                 static_cast<double>(Slots4.ElapsedUs)
                           : 0));
  Doc.set("fingerprint_drift", Json::boolean(Drift));
  Json Fps = Json::array();
  for (const fuzz::FingerprintBucket &B : Cold.Distinct)
    Fps.push(Json::string(B.Hex));
  Doc.set("fingerprints", std::move(Fps));

  {
    std::ofstream Out("BENCH_fuzz.json");
    Out << Doc.dump(2) << "\n";
  }
  std::printf("\nwrote BENCH_fuzz.json%s\n", Smoke ? " (smoke)" : "");

  // Self-check: re-read the emitted document, validate its shape, and
  // enforce the deterministic invariants (drift gates smoke runs too).
  std::ifstream In("BENCH_fuzz.json");
  std::ostringstream SS;
  SS << In.rdbuf();
  std::string Error;
  auto Parsed = Json::parse(SS.str(), Error);
  if (!Parsed) {
    std::fprintf(stderr, "BENCH_fuzz.json is unparsable: %s\n",
                 Error.c_str());
    return 1;
  }
  const Json *Schema = Parsed->find("schema");
  const Json *Post = Parsed->find("postures");
  const Json *DriftJ = Parsed->find("fingerprint_drift");
  if (!Schema || Schema->asString() != "dfence-fuzz-campaign-v1" ||
      !Post || !Post->isArray() || Post->items().size() != 4 || !DriftJ) {
    std::fprintf(stderr, "BENCH_fuzz.json is malformed\n");
    return 1;
  }
  for (const Json &P : Post->items())
    if (!P.find("scenarios_per_sec") ||
        P.find("scenarios")->asU64() != Corpus.size()) {
      std::fprintf(stderr, "BENCH_fuzz.json has an inactive posture\n");
      return 1;
    }
  if (DriftJ->asBool()) {
    std::fprintf(stderr,
                 "distinct-fingerprint set drifted across postures\n");
    return 1;
  }
  if (Cold.Violating == 0) {
    std::fprintf(stderr, "campaign surfaced no violations — the corpus "
                         "or the scheduler regressed\n");
    return 1;
  }
  return 0;
}
