//===- FuzzDeterminismTest.cpp - Fuzzer determinism contracts -------------===//
//
// The fuzzer's core guarantee: one 64-bit fuzz seed fully determines the
// corpus AND the campaign's canonical outcome document — at any worker
// count, with the execution cache on or off, and regardless of whether a
// shared cross-scenario cache is warm. Also pins the
// rejected-generated-client path: a template referencing a missing API
// must be counted and skipped (fuzz_gen_rejected_total), never crash the
// campaign.
//
//===----------------------------------------------------------------------===//

#include "cache/ExecCache.h"
#include "fuzz/Campaign.h"
#include "fuzz/Generator.h"
#include "fuzz/LitmusCorpus.h"
#include "obs/Obs.h"
#include "support/Json.h"

#include "gtest/gtest.h"

#include <sstream>

using namespace dfence;
using namespace dfence::fuzz;

namespace {

GeneratorOptions smallOpts(uint64_t Seed = 0xd06, unsigned Count = 12) {
  GeneratorOptions O;
  O.FuzzSeed = Seed;
  O.Count = Count;
  return O;
}

CampaignConfig smallCfg() {
  CampaignConfig C;
  C.Model = "pso";
  C.K = 40;
  C.Rounds = 4;
  return C;
}

std::string corpusBytes(const std::vector<Scenario> &Corpus) {
  std::string S;
  for (const Scenario &Sc : Corpus) {
    S += Sc.Name + "\x1f" + Sc.Family + "\x1f" + Sc.Source + "\x1f" +
         Sc.ClientDsl + "\x1f" + Sc.InitFunc + "\x1f" + Sc.SpecName +
         "\x1f" + Sc.SeqSpecName + "\x1f" +
         std::to_string(Sc.Seed) + "\x1e";
  }
  return S;
}

TEST(FuzzGenerator, SameSeedByteIdenticalCorpus) {
  GeneratorOptions O = smallOpts(42, 50);
  std::vector<Scenario> A = generateScenarios(O);
  std::vector<Scenario> B = generateScenarios(O);
  ASSERT_EQ(A.size(), 50u);
  EXPECT_EQ(corpusBytes(A), corpusBytes(B));
}

TEST(FuzzGenerator, DifferentSeedDifferentCorpus) {
  std::vector<Scenario> A = generateScenarios(smallOpts(1, 20));
  std::vector<Scenario> B = generateScenarios(smallOpts(2, 20));
  EXPECT_NE(corpusBytes(A), corpusBytes(B));
}

TEST(FuzzGenerator, PrefixStability) {
  // Growing the corpus never perturbs earlier scenarios: scenario i's
  // Rng is private (deriveSeed(FuzzSeed, "scenario-i")).
  std::vector<Scenario> Small = generateScenarios(smallOpts(7, 10));
  std::vector<Scenario> Big = generateScenarios(smallOpts(7, 30));
  for (size_t I = 0; I != Small.size(); ++I) {
    EXPECT_EQ(Small[I].Source, Big[I].Source);
    EXPECT_EQ(Small[I].ClientDsl, Big[I].ClientDsl);
    EXPECT_EQ(Small[I].Seed, Big[I].Seed);
  }
}

TEST(FuzzGenerator, FamilyFilterHonored) {
  GeneratorOptions O = smallOpts(3, 25);
  O.Families = {"queue", "set"};
  for (const Scenario &S : generateScenarios(O))
    EXPECT_TRUE(S.Family == "queue" || S.Family == "set") << S.Family;
}

TEST(FuzzGenerator, ScenarioSeedsNeverZero) {
  // Seed 0 means "use the default" in fillConfig; a zero scenario seed
  // would silently collapse distinct scenarios onto one schedule stream.
  for (const Scenario &S : generateScenarios(smallOpts(9, 40)))
    EXPECT_NE(S.Seed, 0u);
}

TEST(FuzzCampaign, CanonicalJsonInvariantAcrossJobsAndCache) {
  std::vector<Scenario> Corpus = generateScenarios(smallOpts());
  for (Scenario &S : litmusScenarios(0xd06))
    Corpus.push_back(std::move(S));

  obs::Registry Metrics;
  obs::ObsContext Obs;
  Obs.Metrics = &Metrics;
  CampaignConfig C1 = smallCfg();
  C1.Jobs = 1;
  C1.Obs = &Obs;
  CampaignResult R1 = runCampaign(Corpus, C1);
  // Every repair formula of the corpus is solved exactly.
  EXPECT_GT(Metrics.counter("sat_solves_total").value(), 0u);
  EXPECT_EQ(Metrics.counter("sat_truncated_total").value(), 0u);

  CampaignConfig C8 = smallCfg();
  C8.Jobs = 8;
  CampaignResult R8 = runCampaign(Corpus, C8);

  CampaignConfig COff = smallCfg();
  COff.CacheOn = false;
  CampaignResult ROff = runCampaign(Corpus, COff);

  // Warm shared cache: cold run populates, second run replays.
  cache::ExecCache Shared;
  CampaignConfig CWarm = smallCfg();
  CWarm.SharedCache = &Shared;
  runCampaign(Corpus, CWarm);
  CampaignResult RWarm = runCampaign(Corpus, CWarm);

  std::string Base = R1.canonicalJson(C1).dump();
  EXPECT_EQ(Base, R8.canonicalJson(C1).dump());
  EXPECT_EQ(Base, ROff.canonicalJson(C1).dump());
  EXPECT_EQ(Base, RWarm.canonicalJson(C1).dump());
  EXPECT_GT(R1.Violating, 0u);
  EXPECT_FALSE(R1.Distinct.empty());
}

TEST(FuzzCampaign, RejectedTemplatesCountedAndSkipped) {
  // Every scenario wraps thread 0 into a template, and the injected
  // template calls an API the module does not define — the frontend
  // rejects those modules. The campaign must count them and keep going.
  GeneratorOptions O = smallOpts(0xbad, 10);
  O.TemplateProb = 1.0;
  O.ExtraTemplates.push_back(
      {"broken_mix", "int broken_mix(int n) {\n"
                     "  missing_api(n);\n"
                     "  return 0;\n"
                     "}\n"});
  std::vector<Scenario> Corpus = generateScenarios(O);

  obs::Registry Metrics;
  obs::ObsContext Obs;
  Obs.Metrics = &Metrics;
  CampaignConfig C = smallCfg();
  C.Obs = &Obs;
  CampaignResult R = runCampaign(Corpus, C);

  EXPECT_EQ(R.Scenarios, Corpus.size());
  EXPECT_GT(R.Rejected, 0u);
  uint64_t Rejected = 0, Reasons = 0;
  for (const ScenarioOutcome &Out : R.Outcomes)
    if (Out.Status == "rejected") {
      ++Rejected;
      if (!Out.Reason.empty())
        ++Reasons;
      EXPECT_TRUE(Out.FingerprintHex.empty());
    }
  EXPECT_EQ(Rejected, R.Rejected);
  EXPECT_EQ(Reasons, Rejected) << "rejections must carry a reason";
  EXPECT_EQ(Metrics.counter("fuzz_gen_rejected_total").value(),
            R.Rejected);
  EXPECT_EQ(Metrics.counter("fuzz_scenarios_total").value(),
            R.Scenarios);
}

TEST(FuzzCampaign, FingerprintCanonicalization) {
  // Order- and duplicate-insensitive over fences; sensitive to family
  // and status.
  Fingerprint A = fingerprintOutcome(
      "wsq", "converged", {"(put, 9:10) st-st", "(take, 3:4) st-ld"});
  Fingerprint B = fingerprintOutcome(
      "wsq", "converged",
      {"(take, 3:4) st-ld", "(put, 9:10) st-st", "(put, 9:10) st-st"});
  EXPECT_EQ(A.Hash, B.Hash);
  EXPECT_EQ(A.Canon, B.Canon);
  Fingerprint C = fingerprintOutcome(
      "queue", "converged", {"(put, 9:10) st-st", "(take, 3:4) st-ld"});
  EXPECT_NE(A.Hash, C.Hash);
  Fingerprint D = fingerprintOutcome(
      "wsq", "degraded", {"(put, 9:10) st-st", "(take, 3:4) st-ld"});
  EXPECT_NE(A.Hash, D.Hash);
}

TEST(FuzzCampaign, ReportMirrorsOutcomes) {
  std::vector<Scenario> Corpus = generateScenarios(smallOpts(5, 6));
  std::ostringstream Report;
  CampaignConfig C = smallCfg();
  C.Report = &Report;
  CampaignResult R = runCampaign(Corpus, C);
  // One JSONL line per scenario plus the summary line.
  size_t Lines = 0;
  std::istringstream In(Report.str());
  std::string Line, Last;
  while (std::getline(In, Line)) {
    ++Lines;
    Last = Line;
    std::string Error;
    auto J = Json::parse(Line, Error);
    ASSERT_TRUE(J) << Error;
    ASSERT_NE(J->find("type"), nullptr);
  }
  EXPECT_EQ(Lines, R.Scenarios + 1);
  std::string Error;
  auto Summary = Json::parse(Last, Error);
  ASSERT_TRUE(Summary);
  EXPECT_EQ(Summary->find("type")->asString(), "summary");
  EXPECT_NE(Summary->find("elapsedUs"), nullptr);
}

} // namespace
