//===- ServeProtocolTest.cpp - serve request/response schema tests --------===//
//
// The wire layer in isolation: request parsing and validation, response
// builders, the canonical-result rule (cache statistics never appear in
// the canonical result object), and prepareJob's defaulting, which the
// one-shot CLI resolves through too — including that unknown benchmarks
// and clients the engine cannot run are structured errors, never the
// abort of programs::benchmarkByName or of the engine's client tables.
//
//===----------------------------------------------------------------------===//

#include "serve/Protocol.h"

#include "frontend/Compiler.h"
#include "harness/ReproBundle.h"
#include "spec/Checkers.h"
#include "support/Json.h"
#include "vm/Prepared.h"

#include <gtest/gtest.h>

using namespace dfence;
using namespace dfence::serve;

namespace {

const char *PubSource = R"(global int FLAG = 0;
global int PTR = 0;
int writer() {
  int p = malloc(2);
  *p = 5;
  PTR = p;
  FLAG = 1;
  return 0;
}
int reader() {
  int f = FLAG;
  if (f == 1) {
    int p = PTR;
    return *p;
  }
  return 0;
}
)";

Json parseOrDie(const std::string &Text) {
  std::string Error;
  auto J = Json::parse(Text, Error);
  EXPECT_TRUE(J) << Error;
  return *J;
}

/// prepareJob's error for a synth request over \p Source with client
/// \p Client and the extra fields \p Extra (comma-led); empty when the
/// request is accepted.
std::string prepareError(const std::string &Source, const std::string &Client,
                         const std::string &Extra = "") {
  std::string Error;
  auto R = parseRequest(
      parseOrDie("{\"op\":\"synth\",\"source\":" +
                 Json::string(Source).dump() + ",\"client\":" +
                 Json::string(Client).dump() + Extra + "}"),
      Error);
  EXPECT_TRUE(R) << Error;
  if (!R)
    return Error;
  return prepareJob(*R, Error) ? std::string() : Error;
}

TEST(ServeProtocol, RejectsNonObjectAndMissingOp) {
  std::string Error;
  EXPECT_FALSE(parseRequest(parseOrDie("[1,2]"), Error));
  EXPECT_FALSE(Error.empty());
  EXPECT_FALSE(parseRequest(parseOrDie("{\"id\":\"x\"}"), Error));
  EXPECT_NE(Error.find("op"), std::string::npos);
  EXPECT_FALSE(parseRequest(parseOrDie("{\"op\":\"launder\"}"), Error));
  EXPECT_NE(Error.find("unknown op"), std::string::npos);
}

TEST(ServeProtocol, SynthNeedsSourceAndClient) {
  std::string Error;
  EXPECT_FALSE(parseRequest(parseOrDie("{\"op\":\"synth\"}"), Error));
  EXPECT_NE(Error.find("source"), std::string::npos);
  EXPECT_FALSE(parseRequest(
      parseOrDie("{\"op\":\"synth\",\"source\":\"int f() {}\"}"), Error));
  EXPECT_NE(Error.find("client"), std::string::npos);
  EXPECT_FALSE(parseRequest(parseOrDie("{\"op\":\"bench\"}"), Error));
  EXPECT_NE(Error.find("bench"), std::string::npos);
}

TEST(ServeProtocol, DefaultsMatchTheOneShotCli) {
  std::string Error;
  auto R = parseRequest(
      parseOrDie("{\"op\":\"synth\",\"id\":\"r1\",\"source\":\"x\","
                 "\"client\":\"f()\"}"),
      Error);
  ASSERT_TRUE(R) << Error;
  EXPECT_EQ(R->Id, "r1");
  EXPECT_EQ(R->Model, "pso");
  EXPECT_EQ(R->K, 1000u);
  EXPECT_EQ(R->Rounds, 16u);
  EXPECT_LT(R->Flush, 0.0); // Per-model portfolio, like the CLI.
  EXPECT_EQ(R->Enforce, "fence");
  EXPECT_TRUE(R->CacheOn);
  EXPECT_FALSE(R->NoMerge);
  EXPECT_EQ(R->Retries, 2u);
  EXPECT_EQ(R->DeadlineMs, 0u);
  EXPECT_FALSE(R->HasFaults);
}

TEST(ServeProtocol, CacheAcceptsOnlyOnOrOff) {
  auto Request = [](const std::string &Cache) {
    return parseOrDie("{\"op\":\"bench\",\"bench\":\"MS2 Queue\","
                      "\"cache\":" +
                      Cache + "}");
  };
  std::string Error;
  auto On = parseRequest(Request("\"on\""), Error);
  ASSERT_TRUE(On) << Error;
  EXPECT_TRUE(On->CacheOn);
  auto Off = parseRequest(Request("\"off\""), Error);
  ASSERT_TRUE(Off) << Error;
  EXPECT_FALSE(Off->CacheOn);
  // Any other value is a structured error, not a silent "on".
  for (const char *Bad : {"\"Off\"", "\"no\"", "\"\"", "false"}) {
    Error.clear();
    EXPECT_FALSE(parseRequest(Request(Bad), Error)) << Bad;
    EXPECT_NE(Error.find("cache"), std::string::npos) << Bad;
  }
}

TEST(ServeProtocol, UnknownKeysAreIgnored) {
  // "dispatch" chose between two interpreter loops; with one left it is
  // an unknown key like any other, whatever its value.
  for (const char *Extra : {",\"dispatch\":\"generic\"",
                            ",\"dispatch\":\"bogus\"",
                            ",\"noSuchKnob\":7"})
    EXPECT_EQ(prepareError(PubSource, "writer()|reader()", Extra), "")
        << Extra;
}

TEST(ServeProtocol, FaultPlanTravelsInBundleVocabulary) {
  std::string Error;
  auto R = parseRequest(
      parseOrDie("{\"op\":\"synth\",\"source\":\"x\",\"client\":\"f()\","
                 "\"faults\":{\"allocFailProb\":1.0,"
                 "\"bufferCapacity\":2}}"),
      Error);
  ASSERT_TRUE(R) << Error;
  EXPECT_TRUE(R->HasFaults);
  EXPECT_DOUBLE_EQ(R->Faults.AllocFailProb, 1.0);
  EXPECT_EQ(R->Faults.BufferCapacity, 2u);
  // Round-trip through the shared serializer.
  vm::FaultPlan Back =
      harness::faultPlanFromJson(harness::faultPlanToJson(R->Faults));
  EXPECT_DOUBLE_EQ(Back.AllocFailProb, 1.0);
  EXPECT_EQ(Back.BufferCapacity, 2u);
}

TEST(ServeProtocol, ResponseBuilders) {
  Json Rej = makeRejectedResponse("q1", "queue_full");
  EXPECT_EQ(Rej.find("status")->asString(), "rejected");
  EXPECT_EQ(Rej.find("reason")->asString(), "queue_full");
  EXPECT_EQ(Rej.find("id")->asString(), "q1");

  Json Err = makeErrorResponse("e1", "boom");
  EXPECT_EQ(Err.find("status")->asString(), "error");
  EXPECT_EQ(Err.find("reason")->asString(), "boom");

  Json Pong = makePongResponse("p1");
  EXPECT_EQ(Pong.find("status")->asString(), "ok");
  EXPECT_TRUE(Pong.find("pong")->asBool(false));
  EXPECT_EQ(Pong.find("proto")->asString(), ProtoName);

  Json Hello = makeHello();
  EXPECT_EQ(Hello.find("proto")->asString(), ProtoName);
}

TEST(ServeProtocol, CanonicalResultExcludesCacheStatistics) {
  synth::SynthResult R;
  R.Status = synth::SynthStatus::Converged;
  R.CheckCacheHits = 17;
  R.ExecCacheHits = 23;
  R.ExecCacheMisses = 5;
  R.RepairCacheHits = 3;
  std::string Canon = resultToJson(R).dump();
  // The canonical result must be warm/cold-invariant: no cache fields.
  EXPECT_EQ(Canon.find("checkHits"), std::string::npos);
  EXPECT_EQ(Canon.find("execHits"), std::string::npos);
  EXPECT_EQ(Canon.find("CacheHits"), std::string::npos);
  EXPECT_EQ(Canon.find("repairHits"), std::string::npos);
  // The sibling object carries them instead.
  Json CS = cacheStatsToJson(R);
  EXPECT_EQ(CS.find("checkHits")->asU64(0), 17u);
  EXPECT_EQ(CS.find("execHits")->asU64(0), 23u);
  EXPECT_EQ(CS.find("execMisses")->asU64(0), 5u);
  EXPECT_EQ(CS.find("repairHits")->asU64(0), 3u);
}

TEST(ServeProtocol, StatusOfResultMapping) {
  synth::SynthResult R;
  R.Status = synth::SynthStatus::Converged;
  EXPECT_STREQ(statusOfResult(R), "ok");
  R.Status = synth::SynthStatus::Degraded;
  EXPECT_STREQ(statusOfResult(R), "degraded");
  R.TimedOut = true; // Timeout wins over plain degradation.
  EXPECT_STREQ(statusOfResult(R), "timeout");
}

TEST(ServeProtocol, PrepareJobResolvesSynthLikeTheCli) {
  std::string Error;
  auto R = parseRequest(
      parseOrDie("{\"op\":\"synth\",\"id\":\"j1\",\"source\":" +
                 Json::string(PubSource).dump() +
                 ",\"client\":\"writer()|reader()\",\"spec\":\"safety\","
                 "\"k\":25,\"rounds\":3}"),
      Error);
  ASSERT_TRUE(R) << Error;
  auto Job = prepareJob(*R, Error);
  ASSERT_TRUE(Job) << Error;
  EXPECT_EQ(Job->Cfg.ExecsPerRound, 25u);
  EXPECT_EQ(Job->Cfg.MaxRounds, 3u);
  EXPECT_EQ(Job->Cfg.Model, vm::MemModel::PSO);
  EXPECT_EQ(Job->Cfg.Spec, synth::SpecKind::MemorySafety);
  EXPECT_EQ(Job->Cfg.RequestTag, "j1");
  EXPECT_EQ(Job->Clients.size(), 1u);
  // PSO with no explicit flush gets the CLI's two-regime portfolio.
  EXPECT_EQ(Job->Cfg.FlushProbs.size(), 2u);
}

TEST(ServeProtocol, PrepareJobErrorsAreStructuredNotFatal) {
  std::string Error;
  // Unknown benchmark: must be an error, not the CLI helper's abort.
  auto R = parseRequest(
      parseOrDie("{\"op\":\"bench\",\"bench\":\"No Such Queue\"}"),
      Error);
  ASSERT_TRUE(R) << Error;
  EXPECT_FALSE(prepareJob(*R, Error));
  EXPECT_NE(Error.find("unknown benchmark"), std::string::npos);

  // Compile errors surface with the compiler's message.
  R = parseRequest(parseOrDie("{\"op\":\"synth\",\"source\":\"int f( {\","
                              "\"client\":\"f()\"}"),
                   Error);
  ASSERT_TRUE(R) << Error;
  EXPECT_FALSE(prepareJob(*R, Error));
  EXPECT_NE(Error.find("compile"), std::string::npos);

  // sc/lin without a sequential spec is a config error.
  R = parseRequest(
      parseOrDie("{\"op\":\"synth\",\"source\":\"int f() { return 0; }\","
                 "\"client\":\"f()\",\"spec\":\"sc\"}"),
      Error);
  ASSERT_TRUE(R) << Error;
  EXPECT_FALSE(prepareJob(*R, Error));
  EXPECT_NE(Error.find("seqSpec"), std::string::npos);

  // SC is not a synthesis model (nothing to reorder).
  R = parseRequest(
      parseOrDie("{\"op\":\"synth\",\"source\":\"int f() { return 0; }\","
                 "\"client\":\"f()\",\"model\":\"sc\"}"),
      Error);
  ASSERT_TRUE(R) << Error;
  EXPECT_FALSE(prepareJob(*R, Error));
}

TEST(ServeProtocol, PrepareJobRejectsZeroK) {
  // K = 0 runs nothing, so the result would read "converged" on an
  // unfenced program that needs fences.
  std::string Error;
  auto R = parseRequest(
      parseOrDie("{\"op\":\"bench\",\"bench\":\"Chase-Lev WSQ\","
                 "\"model\":\"pso\",\"k\":0}"),
      Error);
  ASSERT_TRUE(R) << Error;
  EXPECT_FALSE(prepareJob(*R, Error));
  EXPECT_EQ(Error, "k must be at least 1");
  EXPECT_EQ(prepareError("int f() { return 0; }", "f()", ",\"k\":0"),
            "k must be at least 1");
  EXPECT_EQ(prepareError("int f() { return 0; }", "f()", ",\"k\":1"), "");
}

TEST(ServeProtocol, PrepareJobRejectsClientOverCheckerLimit) {
  // Every call is one history operation; the sc/lin checkers abort past
  // CheckerLimits::MaxOps, so the request must be refused up front.
  const char *Src = "int enqueue(int v) { return v; }";
  size_t Limit = spec::CheckerLimits().MaxOps;
  auto Client = [](size_t PerThread) {
    std::string T;
    for (size_t I = 0; I != PerThread; ++I)
      T += (I ? ";" : "") + std::string("enqueue(1)");
    return T + "|" + T;
  };
  std::string AtLimit = Client(Limit / 2), Over = Client(Limit / 2 + 1);
  for (const char *Spec : {"sc", "lin"}) {
    std::string Extra =
        std::string(",\"spec\":\"") + Spec + "\",\"seqSpec\":\"queue\"";
    EXPECT_EQ(prepareError(Src, AtLimit, Extra), "") << Spec;
    EXPECT_EQ(prepareError(Src, Over, Extra),
              "client: " + std::to_string(Limit + 2) +
                  " calls exceed the sc/lin checker limit of " +
                  std::to_string(Limit))
        << Spec;
  }
  // Specs that never sequentialize a history take any client size.
  EXPECT_EQ(prepareError(Src, Over, ",\"spec\":\"safety\""), "");
}

TEST(ServeProtocol, BenchJobUsesTheBenchmarksOwnSpec) {
  std::string Error;
  auto R = parseRequest(
      parseOrDie("{\"op\":\"bench\",\"bench\":\"MS2 Queue\",\"k\":10,"
                 "\"rounds\":2}"),
      Error);
  ASSERT_TRUE(R) << Error;
  auto Job = prepareJob(*R, Error);
  ASSERT_TRUE(Job) << Error;
  EXPECT_FALSE(Job->Clients.empty());
  // MS2 Queue defaults to operation-level SC, like `dfence bench`.
  EXPECT_EQ(Job->Cfg.Spec, synth::SpecKind::SequentialConsistency);
}

TEST(ServeProtocol, PrepareJobRejectsUnknownClientFunction) {
  const char *Src = "int f() { return 0; }";
  EXPECT_EQ(prepareError(Src, "f()"), "");
  EXPECT_EQ(prepareError(Src, "nosuch()"),
            "client: client calls unknown function: nosuch");
  EXPECT_EQ(prepareError(Src, "f()", ",\"init\":\"nosuch\""),
            "client: client calls unknown function: nosuch");
}

TEST(ServeProtocol, PrepareJobRejectsClientArityMismatch) {
  const char *Src = "int f(int a) { return a; }";
  EXPECT_EQ(prepareError(Src, "f(1)"), "");
  EXPECT_EQ(prepareError(Src, "f()"),
            "client: client call arity mismatch for f");
  EXPECT_EQ(prepareError(Src, "f(1);f(1,2)"),
            "client: client call arity mismatch for f");
}

TEST(ServeProtocol, PrepareJobRejectsForwardBackref) {
  const char *Src = "int f(int a) { return a; }";
  EXPECT_EQ(prepareError(Src, "f(1);f($0)"), "");
  // The DSL already refuses a backref to a later call...
  EXPECT_NE(prepareError(Src, "f($0)").find("client: "), std::string::npos);
  // ...and the engine-level check refuses one built by hand.
  auto CR = frontend::compileMiniC(Src);
  ASSERT_TRUE(CR.Ok) << CR.Error;
  vm::Client C;
  C.Threads.resize(1);
  C.Threads[0].Calls.push_back({"f", {vm::Arg::resultOf(1)}});
  C.Threads[0].Calls.push_back({"f", {vm::Arg::resultOf(0)}});
  EXPECT_EQ(vm::checkClient(CR.Module, C),
            "client argument references a later call");
}

} // namespace
