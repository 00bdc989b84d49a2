//===- SynthTest.cpp - Dynamic synthesis driver tests ---------------------===//

#include "cache/ExecCache.h"
#include "exec/ExecPool.h"
#include "frontend/Compiler.h"
#include "harness/Harness.h"
#include "obs/Convergence.h"
#include "obs/Obs.h"
#include "programs/Benchmark.h"
#include "serve/Protocol.h"
#include "spec/Specs.h"
#include "support/StringUtils.h"
#include "synth/Synthesizer.h"
#include "vm/ExecContext.h"
#include "vm/Prepared.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

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

TEST(SynthTest, RoundLogReportsTheCapsEachRoundHit) {
  // A step budget too small for most publication executions and no
  // retries: rounds discard executions, and every round-log line says how
  // many, summing to the run's total. No config reaches the checker's
  // state budget, so specCheckBudgetHits reads what the result reports.
  auto M = frontend::compileOrDie(PublishSrc);
  SynthConfig Cfg = baseConfig(MemModel::PSO, SpecKind::MemorySafety);
  Cfg.MaxStepsPerExec = 12;
  Cfg.Exec.MaxRetries = 0;
  std::ostringstream OS;
  obs::RoundLogWriter Log(OS);
  Cfg.RoundLog = &Log;
  SynthResult R = synthesize(M, {publishClient()}, Cfg);
  ASSERT_GT(R.DiscardedExecutions, 0u);
  EXPECT_EQ(R.RetriedExecutions, 0u);

  std::istringstream In(OS.str());
  std::string Line;
  uint64_t Discarded = 0, BudgetHits = 0;
  size_t Lines = 0;
  while (std::getline(In, Line)) {
    std::string Error;
    std::optional<Json> J = Json::parse(Line, Error);
    ASSERT_TRUE(J) << Error;
    ASSERT_NE(J->find("discarded"), nullptr) << Line;
    ASSERT_NE(J->find("specCheckBudgetHits"), nullptr) << Line;
    EXPECT_EQ(J->find("discarded")->asU64(), R.RoundLog[Lines].Discarded);
    Discarded += J->find("discarded")->asU64();
    BudgetHits += J->find("specCheckBudgetHits")->asU64();
    ++Lines;
  }
  EXPECT_EQ(Lines, R.RoundLog.size());
  EXPECT_EQ(Discarded, R.DiscardedExecutions);
  EXPECT_EQ(BudgetHits, R.SpecCheckBudgetHits);
}

TEST(SynthTest, StepLimitHitsAreReported) {
  // The 12-step budget with no retries: every discard is an execution
  // whose only attempt hit the step limit, and the result, the serve
  // result, every round-log line and the counter say how many. A run
  // that never hits it keeps the serve bytes it had before the field
  // existed, and its counter is registered at 0.
  auto M = frontend::compileOrDie(PublishSrc);
  obs::Registry Reg, CleanReg;
  obs::ObsContext Obs{&Reg}, CleanObs{&CleanReg};
  SynthConfig Cfg = baseConfig(MemModel::PSO, SpecKind::MemorySafety);
  Cfg.MaxStepsPerExec = 12;
  Cfg.Exec.MaxRetries = 0;
  Cfg.Obs = &Obs;
  SynthResult R = synthesize(M, {publishClient()}, Cfg);
  ASSERT_GT(R.StepLimitHits, 0u);
  EXPECT_EQ(R.StepLimitHits, R.DiscardedExecutions);
  Json J = serve::resultToJson(R);
  ASSERT_NE(J.find("stepLimitHits"), nullptr);
  EXPECT_EQ(J.find("stepLimitHits")->asU64(), R.StepLimitHits);

  SynthConfig CleanCfg = baseConfig(MemModel::PSO, SpecKind::MemorySafety);
  CleanCfg.Obs = &CleanObs;
  SynthResult Clean = synthesize(M, {publishClient()}, CleanCfg);
  EXPECT_EQ(Clean.StepLimitHits, 0u);
  EXPECT_EQ(serve::resultToJson(Clean).find("stepLimitHits"), nullptr);

  for (auto [Run, Registry] :
       {std::pair{&R, &Reg}, std::pair{&Clean, &CleanReg}}) {
    uint64_t Logged = 0;
    for (const RoundStats &S : Run->RoundLog) {
      Json Line = roundStatsJson(S);
      const Json *Hits = Line.find("stepLimitHits");
      ASSERT_NE(Hits, nullptr);
      EXPECT_EQ(Hits->asU64(), S.StepLimitHits);
      Logged += Hits->asU64();
    }
    EXPECT_EQ(Logged, Run->StepLimitHits);
    Json Counters = Registry->countersJson();
    const Json *C =
        Counters.find("counters")->find("synth_step_limit_hits_total");
    ASSERT_NE(C, nullptr);
    EXPECT_EQ(C->asU64(), Run->StepLimitHits);
  }
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

namespace {

const programs::Benchmark &benchmark(const std::string &Name) {
  for (const programs::Benchmark &B : programs::allBenchmarks())
    if (B.Name == Name)
      return B;
  ADD_FAILURE() << "no benchmark " << Name;
  return programs::allBenchmarks().front();
}

SynthConfig linConfig(const programs::Benchmark &B, unsigned K) {
  SynthConfig Cfg;
  Cfg.Model = MemModel::PSO;
  Cfg.Spec = SpecKind::Linearizability;
  Cfg.Factory = B.Factory;
  Cfg.ExecsPerRound = K;
  Cfg.FlushProbs = {0.5, 0.1};
  return Cfg;
}

// The static fallback fences of two degraded subjects, as recorded before
// the implicated functions were collected lazily (from Φ's universe and
// the last round's repairs instead of every violating slot as it folded).
const char *ChaseLevFallback =
    "(put, 9:10) st-st (put, 10:11) st-st (take, 17:18) st-st "
    "(take, 20:21) st-st (take, 27:28) st-st";
const char *MichaelFallback =
    "(DescAlloc, 22:23) st-st (DescAlloc, 23:24) st-st (DescAlloc, 24:-) "
    "st-st (DescRetire, 38:39) st-st (MallocFromNewSB, 49:50) st-st "
    "(MallocFromNewSB, 53:54) st-st (MallocFromNewSB, 54:55) st-st "
    "(MallocFromNewSB, 57:58) st-st (release, 104:105) st-st";

} // namespace

TEST(SynthTest, RepairBudgetFallbackFencesArePinned) {
  for (auto [Name, Want] : {std::pair{"Chase-Lev WSQ", ChaseLevFallback},
                            std::pair{"Michael Allocator", MichaelFallback}}) {
    const programs::Benchmark &B = benchmark(Name);
    auto M = frontend::compileOrDie(B.Source);
    SynthConfig Cfg = linConfig(B, 300);
    Cfg.MaxRepairRounds = 0;
    SynthResult R = synthesize(M, B.Clients, Cfg);
    EXPECT_EQ(R.Status, SynthStatus::Degraded) << Name;
    EXPECT_EQ(R.fenceSummary(), Want) << Name;
    EXPECT_EQ(R.StaticFallbackFences, R.Fences.size()) << Name;
  }
}

TEST(SynthTest, TotalWallCutFallbackFencesArePinned) {
  // Every execution stalls 3 ms, so the 150 ms budget cuts round 1 after
  // a few dozen executions; their violations already implicate put and
  // take (and never steal), whatever the exact cut.
  const programs::Benchmark &B = benchmark("Chase-Lev WSQ");
  auto M = frontend::compileOrDie(B.Source);
  SynthConfig Cfg = linConfig(B, 1000);
  Cfg.Faults.StallMs = 3;
  Cfg.TotalWallMs = 150;
  SynthResult R = synthesize(M, B.Clients, Cfg);
  EXPECT_EQ(R.Status, SynthStatus::Degraded);
  EXPECT_TRUE(R.TimedOut);
  EXPECT_LT(R.TotalExecutions, 1000u);
  EXPECT_EQ(R.fenceSummary(), ChaseLevFallback);
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
  // Under the memory-safety spec every violation is one the VM detects
  // itself (a null dereference), and the fold captures it without a
  // history check's help.
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
    EXPECT_EQ(B.SpecName, "memory-safety");
    EXPECT_EQ(B.Outcome, vm::outcomeName(vm::Outcome::MemSafety));
    std::string Error;
    auto Replayed = harness::replayBundle(B, Error);
    ASSERT_TRUE(Replayed) << Error;
    EXPECT_EQ(vm::outcomeName(Replayed->Out), B.Outcome);
    EXPECT_EQ(Replayed->Message, B.Message);
  }
}

TEST(SynthTest, ResultTotalsAndCountersAreRoundLogSums) {
  // The fold counts each execution once, in its round's RoundStats: every
  // result total is the sum of the round log, and every deterministic
  // counter equals its total, whatever the run hit — repairs, a round
  // cache (cold and warm), duplicate histories, captured bundles, the
  // step limit, retries and a wall-clock cut.
  auto M = frontend::compileOrDie(PublishSrc);
  const programs::Benchmark &Lifo = benchmark("LIFO WSQ");
  auto LifoM = frontend::compileOrDie(Lifo.Source);
  cache::ExecCache Cache;
  struct Case {
    const char *Name;
    const ir::Module *M;
    std::vector<vm::Client> Clients;
    SynthConfig Cfg;
  };
  std::vector<Case> Cases;
  Cases.push_back({"clean", &M, {publishClient()},
                   baseConfig(MemModel::TSO, SpecKind::MemorySafety)});
  SynthConfig Repair = baseConfig(MemModel::PSO, SpecKind::MemorySafety);
  Repair.ExecResultCache = &Cache;
  Cases.push_back({"repair cold", &M, {publishClient()}, Repair});
  Cases.push_back({"repair warm", &M, {publishClient()}, Repair});
  SynthConfig Lin = linConfig(Lifo, 200);
  Lin.SeqSpecName = "lifo";
  Cases.push_back({"lin", &LifoM, Lifo.Clients, Lin});
  SynthConfig Capture = baseConfig(MemModel::PSO, SpecKind::MemorySafety);
  Capture.CaptureBundles = true;
  Cases.push_back({"capture", &M, {publishClient()}, Capture});
  SynthConfig Steps = baseConfig(MemModel::PSO, SpecKind::MemorySafety);
  Steps.MaxStepsPerExec = 12;
  Steps.Exec.MaxRetries = 1;
  Cases.push_back({"step limit", &M, {publishClient()}, Steps});
  SynthConfig Stalled = baseConfig(MemModel::PSO, SpecKind::MemorySafety);
  Stalled.Faults.StallMs = 3;
  Stalled.TotalWallMs = 60;
  Cases.push_back({"timeout", &M, {publishClient()}, Stalled});

  std::vector<SynthResult> Runs;
  for (Case &C : Cases) {
    SCOPED_TRACE(C.Name);
    obs::Registry Reg;
    obs::ObsContext Obs{&Reg};
    C.Cfg.Obs = &Obs;
    const SynthResult &R =
        Runs.emplace_back(synthesize(*C.M, C.Clients, C.Cfg));

    SynthResult Sum;
    vm::ExecStats Vm;
    uint64_t VmSteps = 0, SatSolves = 0;
    for (const RoundStats &S : R.RoundLog) {
      Sum.TotalExecutions += S.Executions;
      Sum.ViolatingExecutions += S.Violations;
      Sum.DiscardedExecutions += S.Discarded;
      Sum.RetriedExecutions += S.Retried;
      Sum.TimedOutExecutions += S.TimedOut;
      Sum.SpecCheckBudgetHits += S.SpecCheckBudgetHits;
      Sum.StepLimitHits += S.StepLimitHits;
      Sum.SatTruncated += S.SatTruncated;
      Sum.CheckCacheHits += S.CheckCacheHits;
      Sum.CheckCacheMisses += S.CheckCacheMisses;
      Sum.ExecCacheHits += S.ExecCacheHits;
      Sum.ExecCacheMisses += S.ExecCacheMisses;
      Sum.RepairCacheHits += S.RepairCacheHits;
      Sum.ExecCacheRejected += S.ExecCacheRejected;
      Vm.Flushes += S.Vm.Flushes;
      Vm.SchedSteps += S.Vm.SchedSteps;
      Vm.SchedFlushes += S.Vm.SchedFlushes;
      Vm.StoreForwards += S.Vm.StoreForwards;
      Vm.BufferedStores += S.Vm.BufferedStores;
      VmSteps += S.VmSteps;
      SatSolves += S.SatClauses != 0;
    }
    EXPECT_EQ(R.Rounds, R.RoundLog.size());
    EXPECT_EQ(R.TotalExecutions, Sum.TotalExecutions);
    EXPECT_EQ(R.ViolatingExecutions, Sum.ViolatingExecutions);
    EXPECT_EQ(R.DiscardedExecutions, Sum.DiscardedExecutions);
    EXPECT_EQ(R.RetriedExecutions, Sum.RetriedExecutions);
    EXPECT_EQ(R.TimedOutExecutions, Sum.TimedOutExecutions);
    EXPECT_EQ(R.SpecCheckBudgetHits, Sum.SpecCheckBudgetHits);
    EXPECT_EQ(R.StepLimitHits, Sum.StepLimitHits);
    EXPECT_EQ(R.SatTruncated, Sum.SatTruncated);
    EXPECT_EQ(R.CheckCacheHits, Sum.CheckCacheHits);
    EXPECT_EQ(R.CheckCacheMisses, Sum.CheckCacheMisses);
    EXPECT_EQ(R.ExecCacheHits, Sum.ExecCacheHits);
    EXPECT_EQ(R.ExecCacheMisses, Sum.ExecCacheMisses);
    EXPECT_EQ(R.RepairCacheHits, Sum.RepairCacheHits);
    EXPECT_EQ(R.ExecCacheRejected, Sum.ExecCacheRejected);

    Json Counters = *Reg.countersJson().find("counters");
    auto Counter = [&](const char *Name) -> uint64_t {
      const Json *V = Counters.find(Name);
      EXPECT_NE(V, nullptr) << Name;
      return V ? V->asU64() : ~uint64_t(0);
    };
    EXPECT_EQ(Counter("synth_rounds_total"), R.Rounds);
    EXPECT_EQ(Counter("synth_executions_total"), R.TotalExecutions);
    EXPECT_EQ(Counter("synth_violations_total"), R.ViolatingExecutions);
    EXPECT_EQ(Counter("synth_discarded_total"), R.DiscardedExecutions);
    EXPECT_EQ(Counter("synth_step_limit_hits_total"), R.StepLimitHits);
    EXPECT_EQ(Counter("harness_retries_total"), R.RetriedExecutions);
    EXPECT_EQ(Counter("harness_timeouts_total"), R.TimedOutExecutions);
    EXPECT_EQ(Counter("spec_check_budget_hits_total"),
              R.SpecCheckBudgetHits);
    EXPECT_EQ(Counter("sat_truncated_total"), R.SatTruncated);
    EXPECT_EQ(Counter("sat_solves_total"), SatSolves);
    EXPECT_EQ(Counter("cache_check_hits"), R.CheckCacheHits);
    EXPECT_EQ(Counter("cache_check_misses"), R.CheckCacheMisses);
    EXPECT_EQ(Counter("cache_exec_hits"), R.ExecCacheHits);
    EXPECT_EQ(Counter("cache_exec_misses"), R.ExecCacheMisses);
    if (C.Cfg.ExecResultCache) {
      EXPECT_EQ(Counter("cache_repair_hits"), R.RepairCacheHits);
      EXPECT_EQ(Counter("cache_exec_rejected"), R.ExecCacheRejected);
    } else {
      EXPECT_EQ(Counters.find("cache_repair_hits"), nullptr);
      EXPECT_EQ(Counters.find("cache_exec_rejected"), nullptr);
    }
    EXPECT_EQ(Counter("vm_steps_total"), VmSteps);
    EXPECT_EQ(Counter("vm_flushes_total"), Vm.Flushes);
    EXPECT_EQ(Counter("vm_sched_steps_total"), Vm.SchedSteps);
    EXPECT_EQ(Counter("vm_sched_flushes_total"), Vm.SchedFlushes);
    EXPECT_EQ(Counter("vm_store_forwards_total"), Vm.StoreForwards);
    EXPECT_EQ(Counter("vm_buffered_stores_total"), Vm.BufferedStores);
  }
  // What each case is there to reach.
  EXPECT_EQ(Runs[0].ViolatingExecutions, 0u);
  EXPECT_GT(Runs[1].ViolatingExecutions, 0u);
  EXPECT_GT(Runs[1].ExecCacheMisses, 0u);
  EXPECT_GT(Runs[2].ExecCacheHits, 0u);
  EXPECT_GT(Runs[2].RepairCacheHits, 0u);
  EXPECT_GT(Runs[3].CheckCacheHits, 0u);
  EXPECT_FALSE(Runs[4].Bundles.empty());
  EXPECT_GT(Runs[5].StepLimitHits, 0u);
  EXPECT_GT(Runs[5].RetriedExecutions, 0u);
  EXPECT_TRUE(Runs[6].TimedOut);
}

namespace {

/// What checkExecution says about the first violating execution of round
/// \p Round (1-based) of a run of \p Cfg, or "" when none violates. The
/// round's program is what synthesize() enforced in the rounds before it
/// (a run cut at Round - 1 rounds, without the static fallback), and its
/// executions are replayed through an ExecContext exactly as the round
/// plans them: slot I is global execution (Round - 1) * K + I.
std::string replayFirstViolation(const ir::Module &M,
                                 const std::vector<vm::Client> &Clients,
                                 SynthConfig Cfg, unsigned Round) {
  Cfg.Jobs = 1;
  Cfg.ExecResultCache = nullptr;
  ir::Module Cur = M;
  if (Round > 1) {
    SynthConfig Cut = Cfg;
    Cut.MaxRounds = Round - 1;
    Cut.DegradeToStatic = false;
    Cur = synthesize(M, Clients, Cut).FencedModule;
  }
  Cur.buildIndexes();
  vm::PreparedProgram P(Cur, Clients);
  vm::ExecContext Ctx;
  for (unsigned I = 0; I != Cfg.ExecsPerRound; ++I) {
    uint64_t G = static_cast<uint64_t>(Round - 1) * Cfg.ExecsPerRound + I;
    vm::ExecConfig EC;
    EC.Model = Cfg.Model;
    EC.Seed = Cfg.BaseSeed + G;
    EC.MaxSteps = Cfg.MaxStepsPerExec;
    EC.CollectRepairs = true;
    EC.InterOpPredicates = Cfg.InterOpPredicates;
    EC.FlushProb = Cfg.FlushProbs.empty()
                       ? Cfg.FlushProb
                       : Cfg.FlushProbs[G % Cfg.FlushProbs.size()];
    EC.PartialOrderReduction = Cfg.PartialOrderReduction;
    harness::SupervisedExec SE = harness::runSupervised(
        P, G % Clients.size(), Ctx, EC, Cfg.Exec);
    if (SE.Discarded)
      continue;
    std::string V = checkExecution(SE.Result, Cfg);
    if (!V.empty())
      return V;
  }
  return std::string();
}

} // namespace

TEST(SynthTest, ReportedViolationsAreCheckExecutionsText) {
  // Round workers judge without describing; the merge thread describes
  // each round's first violation, and a stored round keeps that text.
  // Whatever path produced it — cold at jobs 1 and 4, or folded from a
  // warm shared cache — the reported text must be the one checkExecution
  // gives for that execution, never a placeholder.
  struct Cell {
    const char *Bench;
    MemModel Model;
    SpecKind Spec;
  };
  for (const Cell &C :
       {Cell{"Peterson Lock", MemModel::TSO, SpecKind::SequentialConsistency},
        Cell{"Cilk THE WSQ", MemModel::PSO, SpecKind::Linearizability}}) {
    const programs::Benchmark &B = programs::benchmarkByName(C.Bench);
    auto CR = frontend::compileMiniC(B.Source);
    ASSERT_TRUE(CR.Ok) << CR.Error;
    SynthConfig Cfg = baseConfig(C.Model, C.Spec);
    Cfg.Factory = B.Factory;
    Cfg.ExecsPerRound = 200;
    std::string What = std::string(C.Bench) + "/" + vm::memModelName(C.Model);

    SynthResult First = synthesize(CR.Module, B.Clients, Cfg);
    std::vector<std::string> Expected;
    for (unsigned R = 1; R <= First.Rounds; ++R)
      Expected.push_back(
          replayFirstViolation(CR.Module, B.Clients, Cfg, R));
    ASSERT_FALSE(Expected.front().empty()) << What << ": round 1 is clean";

    auto ExpectTexts = [&](const SynthResult &R, const std::string &How) {
      ASSERT_EQ(R.RoundLog.size(), Expected.size()) << What << How;
      for (size_t I = 0; I != Expected.size(); ++I)
        EXPECT_EQ(R.RoundLog[I].SampleViolation, Expected[I])
            << What << How << " round " << I + 1;
      EXPECT_EQ(R.FirstViolation, Expected.front()) << What << How;
    };
    cache::ExecCache Shared;
    Cfg.ExecResultCache = &Shared;
    for (unsigned Jobs : {1u, 4u}) {
      Cfg.Jobs = Jobs;
      SynthResult R = synthesize(CR.Module, B.Clients, Cfg);
      std::string How = strformat(" jobs=%u", Jobs);
      if (Jobs == 1) {
        EXPECT_EQ(R.ExecCacheHits, 0u) << What << How;
        ExpectTexts(R, How + " cold");
      } else {
        // The jobs=1 run stored every round; this one folds them all.
        EXPECT_EQ(R.ExecCacheHits, R.TotalExecutions) << What << How;
        ExpectTexts(R, How + " warm");
      }
    }
    Cfg.ExecResultCache = nullptr;
    ExpectTexts(synthesize(CR.Module, B.Clients, Cfg), " jobs=4 cold");
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
  R.Discarded = 7;
  R.SpecCheckBudgetHits = 1;
  R.StepLimitHits = 6;
  R.CheckCacheHits = 10;
  R.CheckCacheMisses = 140;
  R.ExecCacheHits = 20;
  R.ExecCacheMisses = 130;
  R.RepairCacheHits = 1;
  R.ExecCacheRejected = 150;
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
      "\"discarded\":7,\"specCheckBudgetHits\":1,\"stepLimitHits\":6,"
      "\"cache\":{\"checkHits\":10,\"checkMisses\":140,"
      "\"execHits\":20,\"execMisses\":130,\"repairHits\":1,"
      "\"rejected\":150},"
      "\"sat\":{\"clauses\":4,\"models\":2,\"nodes\":9,"
      "\"truncated\":true,\"solveUs\":120},"
      "\"roundWallUs\":4500}");
}
