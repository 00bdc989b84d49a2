//===- SynthTest.cpp - Dynamic synthesis driver tests ---------------------===//

#include "exec/ExecPool.h"
#include "frontend/Compiler.h"
#include "obs/Obs.h"
#include "spec/Specs.h"
#include "synth/Synthesizer.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace dfence;
using namespace dfence::synth;
using vm::MemModel;

namespace {

// Message-passing publication: under PSO the pointer/flag stores reorder
// and the reader dereferences null — a pure memory-safety synthesis case.
const char *PublishSrc = R"(
global int FLAG = 0;
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

vm::Client publishClient() {
  vm::Client C;
  vm::ThreadScript W, R;
  vm::MethodCall MW;
  MW.Func = "writer";
  vm::MethodCall MR;
  MR.Func = "reader";
  W.Calls = {MW};
  R.Calls = {MR, MR};
  C.Threads = {W, R};
  return C;
}

SynthConfig baseConfig(MemModel Model, SpecKind Spec) {
  SynthConfig Cfg;
  Cfg.Model = Model;
  Cfg.Spec = Spec;
  Cfg.ExecsPerRound = 150;
  Cfg.MaxRounds = 12;
  Cfg.MaxRepairRounds = 12;
  Cfg.MaxStepsPerExec = 20000;
  Cfg.FlushProb = Model == MemModel::TSO ? 0.1 : 0.4;
  return Cfg;
}

} // namespace

TEST(SynthTest, InfersPublicationFenceUnderPSO) {
  auto M = frontend::compileOrDie(PublishSrc);
  SynthConfig Cfg = baseConfig(MemModel::PSO, SpecKind::MemorySafety);
  SynthResult R = synthesize(M, {publishClient()}, Cfg);
  EXPECT_EQ(R.Status, SynthStatus::Converged) << R.FirstViolation;
  EXPECT_NE(R.Status, SynthStatus::CannotFix);
  ASSERT_GE(R.Fences.size(), 1u);
  for (const auto &F : R.Fences)
    EXPECT_EQ(F.Function, "writer") << "all fences belong in the writer";
  EXPECT_GT(R.ViolatingExecutions, 0u)
      << "the unfenced program must actually misbehave";
}

TEST(SynthTest, NoFenceNeededUnderTSO) {
  // TSO preserves store-store order, so publication is already safe.
  auto M = frontend::compileOrDie(PublishSrc);
  SynthConfig Cfg = baseConfig(MemModel::TSO, SpecKind::MemorySafety);
  SynthResult R = synthesize(M, {publishClient()}, Cfg);
  EXPECT_EQ(R.Status, SynthStatus::Converged);
  EXPECT_EQ(R.Fences.size(), 0u);
  EXPECT_EQ(R.ViolatingExecutions, 0u);
}

TEST(SynthTest, FencedProgramPassesVerificationRound) {
  auto M = frontend::compileOrDie(PublishSrc);
  SynthConfig Cfg = baseConfig(MemModel::PSO, SpecKind::MemorySafety);
  SynthResult R1 = synthesize(M, {publishClient()}, Cfg);
  ASSERT_EQ(R1.Status, SynthStatus::Converged);
  // Re-running synthesis on the fenced program finds nothing new.
  Cfg.BaseSeed += 99991;
  SynthResult R2 = synthesize(R1.FencedModule, {publishClient()}, Cfg);
  EXPECT_EQ(R2.Status, SynthStatus::Converged);
  EXPECT_EQ(R2.ViolatingExecutions, 0u);
  EXPECT_EQ(R2.Fences.size(), R1.Fences.size());
}

TEST(SynthTest, AlgorithmicBugIsCannotFix) {
  // take() fabricates a value that was never put: no fence can repair
  // this, and under SC no ordering predicates exist at all.
  const char *Src = R"(
global int X = 0;
int put(int v) { X = v; return 0; }
int take() { return 99; }
)";
  auto M = frontend::compileOrDie(Src);
  vm::Client C;
  vm::ThreadScript S;
  vm::MethodCall P;
  P.Func = "put";
  P.Args = {vm::Arg(1)};
  vm::MethodCall T;
  T.Func = "take";
  S.Calls = {P, T};
  C.Threads = {S};
  SynthConfig Cfg = baseConfig(MemModel::SC, SpecKind::Linearizability);
  Cfg.Factory = spec::WsqSpec::factory();
  SynthResult R = synthesize(M, {C}, Cfg);
  EXPECT_EQ(R.Status, SynthStatus::CannotFix);
  EXPECT_NE(R.Status, SynthStatus::Converged);
}

TEST(SynthTest, OneShotStrategyNeedsMoreExecutions) {
  // Fig. 4's observation: repairing once after a big batch requires far
  // more executions than repairing in small rounds. Here we only check
  // that the one-shot mode converges when given a big enough batch.
  auto M = frontend::compileOrDie(PublishSrc);
  SynthConfig Cfg = baseConfig(MemModel::PSO, SpecKind::MemorySafety);
  Cfg.ExecsPerRound = 600;
  Cfg.MaxRepairRounds = 1;
  Cfg.MaxRounds = 2;
  SynthResult R = synthesize(M, {publishClient()}, Cfg);
  EXPECT_EQ(R.Status, SynthStatus::Converged)
      << "one repair round should fix publication";
  EXPECT_GE(R.Fences.size(), 1u);
}

TEST(SynthTest, CasEnforcementSemantics) {
  // Enforce [load-of-SB-pattern] with a dummy CAS after the first store
  // and check the semantics directly: on TSO any CAS drains the whole
  // buffer (so the enforcement works); on PSO it only drains the dummy's
  // buffer (so it does not — the paper calls CAS a TSO-only enforcement).
  const char *Src = R"(
global int DATA = 0;
global int FLAG = 0;
int writer() { DATA = 1; FLAG = 1; return 0; }
int reader() {
  int f = FLAG;
  int d = DATA;
  return f * 2 + d;
}
)";
  auto Observe = [&](MemModel Model) {
    auto M = frontend::compileOrDie(Src);
    // Predicate: DATA store before FLAG store, enforced with CasDummy.
    ir::InstrId DataStore = ir::InvalidInstrId;
    for (const auto &I : M.function(*M.findFunction("writer")).Body)
      if (I.Op == ir::Opcode::Store) {
        DataStore = I.Id;
        break;
      }
    vm::OrderingPredicate P{DataStore, DataStore, false};
    enforcePredicates(M, {P}, EnforceMode::CasDummy);

    vm::Client C;
    vm::ThreadScript W, R;
    vm::MethodCall MW;
    MW.Func = "writer";
    vm::MethodCall MR;
    MR.Func = "reader";
    W.Calls = {MW};
    R.Calls = {MR};
    C.Threads = {W, R};
    bool SawReorder = false;
    for (uint64_t Seed = 1; Seed <= 2000 && !SawReorder; ++Seed) {
      vm::ExecConfig EC;
      EC.Model = Model;
      EC.Seed = Seed;
      EC.FlushProb = 0.05;
      vm::ExecResult Res = vm::runExecution(M, C, EC);
      EXPECT_EQ(Res.Out, vm::Outcome::Completed);
      for (const auto &Op : Res.Hist.Ops)
        if (Op.Func == "reader" && Op.Ret == 2)
          SawReorder = true; // flag seen without data: reordering.
    }
    return SawReorder;
  };
  EXPECT_FALSE(Observe(MemModel::TSO))
      << "on TSO a dummy CAS drains the buffer and orders the stores";
  EXPECT_TRUE(Observe(MemModel::PSO))
      << "on PSO the dummy CAS leaves other variables' buffers pending";
}

TEST(SynthTest, CheckExecutionDiscardsStepLimit) {
  vm::ExecResult R;
  R.Out = vm::Outcome::StepLimit;
  SynthConfig Cfg;
  Cfg.Spec = SpecKind::MemorySafety;
  EXPECT_EQ(checkExecution(R, Cfg), "");
}

TEST(SynthTest, CheckExecutionReportsMemSafety) {
  vm::ExecResult R;
  R.Out = vm::Outcome::MemSafety;
  R.Message = "null dereference";
  SynthConfig Cfg;
  Cfg.Spec = SpecKind::MemorySafety;
  EXPECT_NE(checkExecution(R, Cfg), "");
}

TEST(SynthTest, CheckExecutionNoGarbage) {
  vm::ExecResult R;
  R.Out = vm::Outcome::Completed;
  vm::OpRecord Put;
  Put.Func = "put";
  Put.Args = {5};
  Put.Completed = true;
  vm::OpRecord Steal;
  Steal.Func = "steal";
  Steal.Ret = 77;
  Steal.Completed = true;
  R.Hist.Ops = {Put, Steal};
  SynthConfig Cfg;
  Cfg.Spec = SpecKind::NoGarbage;
  EXPECT_NE(checkExecution(R, Cfg), "") << "77 was never put";
}

TEST(SynthTest, DeterministicAcrossRuns) {
  auto M = frontend::compileOrDie(PublishSrc);
  SynthConfig Cfg = baseConfig(MemModel::PSO, SpecKind::MemorySafety);
  SynthResult A = synthesize(M, {publishClient()}, Cfg);
  SynthResult B = synthesize(M, {publishClient()}, Cfg);
  EXPECT_EQ(A.Fences.size(), B.Fences.size());
  EXPECT_EQ(A.Rounds, B.Rounds);
  EXPECT_EQ(A.TotalExecutions, B.TotalExecutions);
  EXPECT_EQ(A.ViolatingExecutions, B.ViolatingExecutions);
}

TEST(SynthTest, TraceAndLogReportThePoolWidth) {
  // Jobs is ignored when the caller supplies the pool, so the synthesize
  // span and the "starting synthesis" line must report the pool's width.
  auto M = frontend::compileOrDie(PublishSrc);
  SynthConfig Cfg = baseConfig(MemModel::PSO, SpecKind::MemorySafety);
  Cfg.Jobs = 1;
  exec::ExecPool Pool(3);
  Cfg.Pool = &Pool;
  obs::TraceSink Trace;
  FILE *LogFile = std::tmpfile();
  ASSERT_NE(LogFile, nullptr);
  obs::Logger Log(obs::LogLevel::Info, /*JsonLines=*/false, LogFile);
  obs::ObsContext Obs;
  Obs.Trace = &Trace;
  Obs.Log = &Log;
  Cfg.Obs = &Obs;
  synthesize(M, {publishClient()}, Cfg);

  const Json *Span = nullptr;
  Json Doc = Trace.toJson();
  for (const Json &E : Doc.find("traceEvents")->items())
    if (const Json *Name = E.find("name"))
      if (Name->asString() == "synthesize")
        Span = E.find("args");
  ASSERT_NE(Span, nullptr);
  ASSERT_NE(Span->find("jobs"), nullptr);
  EXPECT_EQ(Span->find("jobs")->asU64(), 3u);

  std::fflush(LogFile);
  std::rewind(LogFile);
  std::string Text;
  char Buf[512];
  while (std::fgets(Buf, sizeof Buf, LogFile))
    Text += Buf;
  std::fclose(LogFile);
  EXPECT_NE(Text.find("starting synthesis"), std::string::npos) << Text;
  EXPECT_NE(Text.find("jobs=3"), std::string::npos) << Text;
}

TEST(SynthTest, RoundLogIsConsistent) {
  auto M = frontend::compileOrDie(PublishSrc);
  SynthConfig Cfg = baseConfig(MemModel::PSO, SpecKind::MemorySafety);
  SynthResult R = synthesize(M, {publishClient()}, Cfg);
  ASSERT_EQ(R.Status, SynthStatus::Converged);
  ASSERT_FALSE(R.RoundLog.empty());
  uint64_t TotalViol = 0, TotalExecs = 0;
  for (size_t I = 0; I != R.RoundLog.size(); ++I) {
    const RoundStats &S = R.RoundLog[I];
    EXPECT_EQ(S.Round, I + 1);
    EXPECT_EQ(S.Executions, Cfg.ExecsPerRound);
    TotalViol += S.Violations;
    TotalExecs += S.Executions;
  }
  EXPECT_EQ(TotalViol, R.ViolatingExecutions);
  EXPECT_EQ(TotalExecs, R.TotalExecutions);
  EXPECT_EQ(R.RoundLog.back().Violations, 0u)
      << "the converging round is clean";
  EXPECT_EQ(R.RoundLog.back().FencesEnforced, R.Fences.size());
}

TEST(SynthTest, RepairsCollectedOnCorrectExecutionsToo) {
  // Paper §4.1: avoid() is independent of whether the execution violates
  // anything — the instrumented semantics records ordering predicates on
  // every run (recent work repairs *correct* executions). Verify the
  // collection works on a program with no violations at all.
  auto M = frontend::compileOrDie(R"(
global int X = 0;
global int Y = 0;
int w() { X = 1; Y = 2; return 0; }
)");
  vm::Client C;
  vm::ThreadScript S;
  vm::MethodCall MC;
  MC.Func = "w";
  S.Calls = {MC};
  C.Threads = {S};
  bool SawPredicates = false;
  for (uint64_t Seed = 1; Seed <= 100 && !SawPredicates; ++Seed) {
    vm::ExecConfig EC;
    EC.Model = vm::MemModel::PSO;
    EC.Seed = Seed;
    EC.FlushProb = 0.1;
    EC.CollectRepairs = true;
    vm::ExecResult R = vm::runExecution(M, C, EC);
    EXPECT_EQ(R.Out, vm::Outcome::Completed);
    if (!R.Repairs.empty())
      SawPredicates = true;
  }
  EXPECT_TRUE(SawPredicates)
      << "the X store should be pending at the Y store sometimes";
}

TEST(SynthTest, ConfigErrorOnMissingClients) {
  auto M = frontend::compileOrDie(PublishSrc);
  SynthConfig Cfg = baseConfig(MemModel::PSO, SpecKind::MemorySafety);
  SynthResult R = synthesize(M, {}, Cfg);
  EXPECT_EQ(R.Status, SynthStatus::ConfigError);
  EXPECT_FALSE(R.Error.empty());
  EXPECT_NE(R.Status, SynthStatus::Converged);
  EXPECT_EQ(R.TotalExecutions, 0u);
}

TEST(SynthTest, ConfigErrorOnMissingSequentialSpec) {
  auto M = frontend::compileOrDie(PublishSrc);
  SynthConfig Cfg =
      baseConfig(MemModel::PSO, SpecKind::SequentialConsistency);
  ASSERT_FALSE(Cfg.Factory);
  SynthResult R = synthesize(M, {publishClient()}, Cfg);
  EXPECT_EQ(R.Status, SynthStatus::ConfigError);
  EXPECT_NE(R.Error.find("sequential"), std::string::npos) << R.Error;
}

TEST(SynthTest, DiscardedExecutionsAreRetriedAndCounted) {
  // Every execution spins past the step budget; the harness retries each
  // one and finally discards it. Discard-only rounds are violation-free,
  // so the run converges trivially with full accounting.
  auto M = frontend::compileOrDie(R"(
global int X = 0;
int spin() {
  int i = 1;
  while (i == 1) { X = i; }
  return 0;
}
)");
  vm::Client C;
  vm::ThreadScript S;
  vm::MethodCall MC;
  MC.Func = "spin";
  S.Calls = {MC};
  C.Threads = {S};
  SynthConfig Cfg = baseConfig(MemModel::PSO, SpecKind::MemorySafety);
  Cfg.ExecsPerRound = 4;
  Cfg.MaxStepsPerExec = 300;
  Cfg.Exec.MaxRetries = 1;
  Cfg.Exec.StepBudgetGrowth = 1.0;
  SynthResult R = synthesize(M, {C}, Cfg);
  EXPECT_EQ(R.DiscardedExecutions, R.TotalExecutions);
  EXPECT_EQ(R.RetriedExecutions, R.TotalExecutions)
      << "one retry per discarded execution";
  EXPECT_EQ(R.ViolatingExecutions, 0u);
  EXPECT_EQ(R.Status, SynthStatus::Converged);
  EXPECT_TRUE(R.Fences.empty());
}

TEST(SynthTest, RepairBudgetExhaustionDegradesToStaticFences) {
  // With zero repair rounds allowed, the first violating round can only
  // degrade: conservative static fences on the implicated functions.
  auto M = frontend::compileOrDie(PublishSrc);
  SynthConfig Cfg = baseConfig(MemModel::PSO, SpecKind::MemorySafety);
  Cfg.MaxRepairRounds = 0;
  SynthResult R = synthesize(M, {publishClient()}, Cfg);
  EXPECT_EQ(R.Status, SynthStatus::Degraded);
  EXPECT_EQ(R.Status, SynthStatus::Degraded);
  EXPECT_NE(R.Status, SynthStatus::Converged);
  EXPECT_NE(R.DegradeReason.find("repair budget"), std::string::npos)
      << R.DegradeReason;
  EXPECT_GT(R.StaticFallbackFences, 0u);
  ASSERT_FALSE(R.Fences.empty());
  for (const auto &F : R.Fences)
    EXPECT_EQ(F.Function, "writer")
        << "degradation fences only the implicated function";

  // The degraded module must actually be safe: a fresh synthesis run on
  // it finds nothing left to fix.
  SynthConfig Verify = baseConfig(MemModel::PSO, SpecKind::MemorySafety);
  Verify.BaseSeed += 424243;
  SynthResult V = synthesize(R.FencedModule, {publishClient()}, Verify);
  EXPECT_EQ(V.Status, SynthStatus::Converged);
  EXPECT_EQ(V.ViolatingExecutions, 0u);
}

TEST(SynthTest, DegradationDisabledReportsExhausted) {
  auto M = frontend::compileOrDie(PublishSrc);
  SynthConfig Cfg = baseConfig(MemModel::PSO, SpecKind::MemorySafety);
  Cfg.MaxRepairRounds = 0;
  Cfg.DegradeToStatic = false;
  SynthResult R = synthesize(M, {publishClient()}, Cfg);
  EXPECT_EQ(R.Status, SynthStatus::Exhausted);
  EXPECT_NE(R.Status, SynthStatus::Degraded);
  EXPECT_EQ(R.StaticFallbackFences, 0u);
  EXPECT_FALSE(R.DegradeReason.empty());
}

TEST(SynthTest, TotalWallBudgetExhaustionDegrades) {
  auto M = frontend::compileOrDie(PublishSrc);
  SynthConfig Cfg = baseConfig(MemModel::PSO, SpecKind::MemorySafety);
  Cfg.ExecsPerRound = 100000; // Far more than 1 ms of work.
  Cfg.TotalWallMs = 1;
  SynthResult R = synthesize(M, {publishClient()}, Cfg);
  EXPECT_EQ(R.Status, SynthStatus::Degraded);
  EXPECT_NE(R.DegradeReason.find("wall-clock"), std::string::npos)
      << R.DegradeReason;
  EXPECT_LT(R.TotalExecutions, 100000u)
      << "the budget must cut the round short";
  ASSERT_FALSE(R.RoundLog.empty());
  EXPECT_EQ(R.RoundLog.back().Executions,
            R.TotalExecutions); // Truncated rounds log actual counts.
}

TEST(SynthTest, CannotFixStillWinsOverDegradation) {
  // A semantic bug is not repairable by fencing; degradation must not
  // mask the CannotFix verdict with useless static fences.
  const char *Src = R"(
global int X = 0;
int put(int v) { X = v; return 0; }
int take() { return 99; }
)";
  auto M = frontend::compileOrDie(Src);
  vm::Client C;
  vm::ThreadScript S;
  vm::MethodCall P;
  P.Func = "put";
  P.Args = {vm::Arg(1)};
  vm::MethodCall T;
  T.Func = "take";
  S.Calls = {P, T};
  C.Threads = {S};
  SynthConfig Cfg = baseConfig(MemModel::SC, SpecKind::Linearizability);
  Cfg.Factory = spec::WsqSpec::factory();
  SynthResult R = synthesize(M, {C}, Cfg);
  EXPECT_EQ(R.Status, SynthStatus::CannotFix);
  EXPECT_EQ(R.Status, SynthStatus::CannotFix);
  EXPECT_NE(R.Status, SynthStatus::Degraded);
  EXPECT_EQ(R.StaticFallbackFences, 0u);
}

TEST(SynthTest, CapturedBundlesReplayTheViolation) {
  auto M = frontend::compileOrDie(PublishSrc);
  SynthConfig Cfg = baseConfig(MemModel::PSO, SpecKind::MemorySafety);
  Cfg.CaptureBundles = true;
  Cfg.MaxBundles = 2;
  SynthResult R = synthesize(M, {publishClient()}, Cfg);
  ASSERT_EQ(R.Status, SynthStatus::Converged);
  ASSERT_GT(R.ViolatingExecutions, 0u);
  ASSERT_FALSE(R.Bundles.empty());
  EXPECT_LE(R.Bundles.size(), 2u);
  for (const harness::ReproBundle &B : R.Bundles) {
    std::string Error;
    auto Replayed = harness::replayBundle(B, Error);
    ASSERT_TRUE(Replayed) << Error;
    EXPECT_EQ(vm::outcomeName(Replayed->Out), B.Outcome);
    EXPECT_EQ(Replayed->Message, B.Message);
  }
}

TEST(SynthTest, FlushProbPortfolioCyclesAcrossExecutions) {
  // The portfolio must not change determinism: two identical runs agree.
  auto M = frontend::compileOrDie(PublishSrc);
  SynthConfig Cfg = baseConfig(MemModel::PSO, SpecKind::MemorySafety);
  Cfg.FlushProbs = {0.5, 0.1, 0.3};
  SynthResult A = synthesize(M, {publishClient()}, Cfg);
  SynthResult B = synthesize(M, {publishClient()}, Cfg);
  EXPECT_EQ(A.ViolatingExecutions, B.ViolatingExecutions);
  EXPECT_EQ(A.Fences.size(), B.Fences.size());
  EXPECT_EQ(A.Status, SynthStatus::Converged);
}

TEST(ConvergenceTest, RoundRecordJsonShapeIsPinned) {
  RoundStats R;
  R.Round = 3;
  R.Executions = 150;
  R.Violations = 4;
  R.NewPredicates = 2;
  R.DistinctPredicates = 11;
  R.FencesEnforced = 5;
  R.CleanStreak = 0;
  R.Truncated = false;
  R.CheckCacheHits = 10;
  R.CheckCacheMisses = 140;
  R.ExecCacheHits = 20;
  R.ExecCacheMisses = 130;
  R.SatClauses = 4;
  R.SatModels = 2;
  R.SatNodes = 9;
  R.SatTruncated = true;
  R.SatSolveUs = 120;
  R.RoundWallUs = 4500;
  EXPECT_EQ(
      roundStatsJson(R).dump(),
      "{\"round\":3,\"executions\":150,\"violations\":4,"
      "\"newPredicates\":2,\"distinctPredicates\":11,\"fences\":5,"
      "\"cleanStreak\":0,\"truncated\":false,"
      "\"cache\":{\"checkHits\":10,\"checkMisses\":140,"
      "\"execHits\":20,\"execMisses\":130},"
      "\"sat\":{\"clauses\":4,\"models\":2,\"nodes\":9,"
      "\"truncated\":true,\"solveUs\":120},"
      "\"roundWallUs\":4500}");
}
