//===- LitmusCorpusTest.cpp - Golden fence pins for the litmus corpus -----===//
//
// Each mined litmus shape (src/fuzz/LitmusCorpus.cpp) carries its known
// minimal fence placement per memory model; running the corpus through
// the normal synthesis path must reproduce those placements exactly:
//
//   SB    -> one st-ld fence per writer, under TSO and PSO;
//   MP    -> clean under TSO, one st-st fence in the writer under PSO;
//   LB, WRC, IRIW -> clean under both (store-buffer models cannot
//                    produce those outcomes).
//
// Also pins the dedup contract: the three SB variants (plain, doubled
// client, reseeded) all land in one fingerprint bucket, so the
// distinct-fingerprint count of a PSO corpus run is exactly 2 (SB + MP)
// and of a TSO run exactly 1 (SB).
//
//===----------------------------------------------------------------------===//

#include "fuzz/Campaign.h"
#include "fuzz/LitmusCorpus.h"
#include "obs/Obs.h"
#include "support/StringUtils.h"

#include "gtest/gtest.h"

#include <map>

using namespace dfence;
using namespace dfence::fuzz;

namespace {

CampaignConfig litmusCfg(const std::string &Model) {
  CampaignConfig C;
  C.Model = Model;
  // Litmus windows are narrow; give the demonic scheduler enough
  // samples that every observable outcome fires with margin.
  C.K = 300;
  C.Rounds = 10;
  return C;
}

std::map<std::string, ScenarioOutcome> runCorpus(const std::string &Model) {
  obs::Registry Metrics;
  obs::ObsContext Obs;
  Obs.Metrics = &Metrics;
  CampaignConfig Cfg = litmusCfg(Model);
  Cfg.Obs = &Obs;
  CampaignResult R = runCampaign(litmusScenarios(0x11717), Cfg);
  // Every repair formula of the corpus is solved exactly.
  EXPECT_GT(Metrics.counter("sat_solves_total").value(), 0u);
  EXPECT_EQ(Metrics.counter("sat_truncated_total").value(), 0u) << Model;
  std::map<std::string, ScenarioOutcome> ByName;
  for (const ScenarioOutcome &O : R.Outcomes)
    ByName[O.Name] = O;
  return ByName;
}

TEST(LitmusCorpus, ShapesAreWellFormed) {
  const std::vector<LitmusShape> &Corpus = litmusCorpus();
  ASSERT_GE(Corpus.size(), 7u);
  std::map<std::string, unsigned> Families;
  for (const LitmusShape &S : Corpus) {
    EXPECT_FALSE(S.Name.empty());
    EXPECT_FALSE(S.Source.empty());
    EXPECT_FALSE(S.ClientDsl.empty());
    ++Families[S.Family];
  }
  // The SB dedup variants share one family.
  EXPECT_EQ(Families["litmus-sb"], 3u);
}

TEST(LitmusCorpus, GoldenFencesUnderPso) {
  auto ByName = runCorpus("pso");
  for (const LitmusShape &S : litmusCorpus()) {
    const ScenarioOutcome &O = ByName.at("litmus-" + S.Name);
    EXPECT_EQ(O.Status, "converged") << S.Name << ": " << O.Reason;
    EXPECT_TRUE(fencesMatchGolden(O.Fences, S.MinPso))
        << S.Name << " PSO fences: " << join(O.Fences, "; ");
    if (S.MinPso.empty())
      EXPECT_EQ(O.Violations, 0u)
          << S.Name << " must be unobservable under PSO";
    else
      EXPECT_GT(O.Violations, 0u)
          << S.Name << " must be observable under PSO";
  }
}

TEST(LitmusCorpus, GoldenFencesUnderTso) {
  auto ByName = runCorpus("tso");
  for (const LitmusShape &S : litmusCorpus()) {
    const ScenarioOutcome &O = ByName.at("litmus-" + S.Name);
    EXPECT_EQ(O.Status, "converged") << S.Name << ": " << O.Reason;
    EXPECT_TRUE(fencesMatchGolden(O.Fences, S.MinTso))
        << S.Name << " TSO fences: " << join(O.Fences, "; ");
  }
}

TEST(LitmusCorpus, SbVariantsDedupToOneBucket) {
  CampaignResult Pso =
      runCampaign(litmusScenarios(0x11717), litmusCfg("pso"));
  // PSO: the three SB variants collapse into one bucket, MP adds one.
  ASSERT_EQ(Pso.Distinct.size(), 2u);
  EXPECT_EQ(Pso.Distinct[0].Family, "litmus-sb");
  EXPECT_EQ(Pso.Distinct[0].Count, 3u);
  EXPECT_EQ(Pso.Distinct[1].Family, "litmus-mp");
  EXPECT_EQ(Pso.Distinct[1].Count, 1u);

  CampaignResult Tso =
      runCampaign(litmusScenarios(0x11717), litmusCfg("tso"));
  // TSO: MP is unobservable, only the SB bucket remains.
  ASSERT_EQ(Tso.Distinct.size(), 1u);
  EXPECT_EQ(Tso.Distinct[0].Family, "litmus-sb");
  EXPECT_EQ(Tso.Distinct[0].Count, 3u);
}

TEST(LitmusCorpus, GoldenMatcherIsPositionIndependent) {
  std::vector<GoldenFence> G = {{"sb_t1", "st-ld"}, {"sb_t2", "st-ld"}};
  EXPECT_TRUE(fencesMatchGolden(
      {"(sb_t1, 6:7) st-ld", "(sb_t2, 11:12) st-ld"}, G));
  // Line numbers are free; order is free.
  EXPECT_TRUE(fencesMatchGolden(
      {"(sb_t2, 99:100) st-ld", "(sb_t1, 1:2) st-ld"}, G));
  // Kind and function are not.
  EXPECT_FALSE(fencesMatchGolden(
      {"(sb_t1, 6:7) st-st", "(sb_t2, 11:12) st-ld"}, G));
  EXPECT_FALSE(
      fencesMatchGolden({"(sb_t1, 6:7) st-ld"}, G));
  EXPECT_FALSE(fencesMatchGolden({}, G));
  EXPECT_TRUE(fencesMatchGolden({}, {}));
}

} // namespace
