//===- FuzzServeTest.cpp - Fuzz campaigns through the serve daemon --------===//
//
// The via-serve campaign path fans the same request lines through an
// in-process multi-slot serve::Server (the concurrent dispatcher and its
// shared cache). The daemon's canonical-result guarantee makes every
// per-scenario result equal to the direct path's, so the campaign's
// canonical document — outcomes, fingerprints, ranked table — must be
// byte-identical between the two paths. Rides the tsan preset
// (scripts/verify-all.cmake) like the other serve concurrency suites.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Campaign.h"
#include "fuzz/Generator.h"
#include "fuzz/LitmusCorpus.h"

#include "gtest/gtest.h"

using namespace dfence;
using namespace dfence::fuzz;

namespace {

std::vector<Scenario> testCorpus(unsigned Count) {
  GeneratorOptions O;
  O.FuzzSeed = 0x5e4e;
  O.Count = Count;
  std::vector<Scenario> Corpus = generateScenarios(O);
  for (Scenario &S : litmusScenarios(O.FuzzSeed))
    Corpus.push_back(std::move(S));
  return Corpus;
}

CampaignConfig baseCfg() {
  CampaignConfig C;
  C.Model = "pso";
  C.K = 40;
  C.Rounds = 4;
  return C;
}

TEST(FuzzServe, TwoSlotServeMatchesDirectByteForByte) {
  std::vector<Scenario> Corpus = testCorpus(10);

  CampaignConfig Direct = baseCfg();
  CampaignResult RD = runCampaign(Corpus, Direct);

  CampaignConfig Serve = baseCfg();
  Serve.ServeSlots = 2;
  CampaignResult RS = runCampaign(Corpus, Serve);

  EXPECT_EQ(RD.canonicalJson(Direct).dump(),
            RS.canonicalJson(Direct).dump());
  EXPECT_EQ(RD.Scenarios, RS.Scenarios);
  EXPECT_EQ(RD.Rejected, RS.Rejected);
  EXPECT_GT(RD.Violating, 0u);
}

TEST(FuzzServe, DistinctFingerprintSetsAgreeAcrossSlotCounts) {
  std::vector<Scenario> Corpus = testCorpus(8);
  std::vector<std::string> Sets;
  for (unsigned Slots : {0u, 1u, 4u}) {
    CampaignConfig C = baseCfg();
    C.ServeSlots = Slots;
    CampaignResult R = runCampaign(Corpus, C);
    std::string Set;
    for (const FingerprintBucket &B : R.Distinct)
      Set += B.Hex + ":" + std::to_string(B.Count) + ";";
    Sets.push_back(Set);
  }
  EXPECT_EQ(Sets[0], Sets[1]);
  EXPECT_EQ(Sets[0], Sets[2]);
}

TEST(FuzzServe, RejectionsSurviveTheServePath) {
  // Generated clients the frontend rejects must come back as counted
  // "rejected" outcomes through the daemon too — the server's error
  // response shape, not a dropped request.
  GeneratorOptions O;
  O.FuzzSeed = 0xbad5e4e;
  O.Count = 6;
  O.TemplateProb = 1.0;
  O.ExtraTemplates.push_back(
      {"broken_mix", "int broken_mix(int n) {\n"
                     "  missing_api(n);\n"
                     "  return 0;\n"
                     "}\n"});
  std::vector<Scenario> Corpus = generateScenarios(O);

  CampaignConfig Direct = baseCfg();
  CampaignResult RD = runCampaign(Corpus, Direct);
  CampaignConfig Serve = baseCfg();
  Serve.ServeSlots = 2;
  CampaignResult RS = runCampaign(Corpus, Serve);

  EXPECT_GT(RD.Rejected, 0u);
  EXPECT_EQ(RD.Rejected, RS.Rejected);
  EXPECT_EQ(RD.Scenarios, RS.Scenarios);
}

} // namespace
