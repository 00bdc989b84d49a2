//===- HarnessTest.cpp - Resilient harness & crash-repro tests ------------===//
//
// Covers the robustness layer end to end: watchdog timeouts, retry
// escalation, fault injection (flush storms, forced switches, allocation
// failure), and the crash-repro bundle round trip — a recorded violating
// execution must replay with the identical outcome, message, and history.
//
//===----------------------------------------------------------------------===//

#include "frontend/Compiler.h"
#include "harness/Harness.h"
#include "harness/ReproBundle.h"
#include "sched/ReplayScheduler.h"
#include "synth/Synthesizer.h"
#include "vm/ExecContext.h"
#include "vm/Prepared.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace dfence;
using namespace dfence::harness;

namespace {

// Message-passing publication: misbehaves under PSO (reader dereferences
// a pointer whose publication overtook its initialization).
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

// Never terminates: exercises step limits and the wall-clock watchdog.
const char *SpinSrc = R"(
global int X = 0;
int spin() {
  int i = 1;
  while (i == 1) {
    X = i;
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

vm::Client oneCall(const std::string &Func, unsigned Times = 1) {
  vm::Client C;
  vm::ThreadScript S;
  vm::MethodCall MC;
  MC.Func = Func;
  for (unsigned I = 0; I != Times; ++I)
    S.Calls.push_back(MC);
  C.Threads = {S};
  return C;
}

/// Runs publication under PSO until a seed produces a memory-safety
/// violation, with trace recording on. Returns the violating seed.
uint64_t findViolatingSeed(const ir::Module &M, const vm::Client &C,
                           vm::ExecConfig &EC, vm::ExecResult &R) {
  EC.Model = vm::MemModel::PSO;
  EC.FlushProb = 0.4;
  EC.RecordTrace = true;
  for (uint64_t Seed = 1; Seed <= 20000; ++Seed) {
    EC.Seed = Seed;
    R = vm::runExecution(M, C, EC);
    if (R.Out == vm::Outcome::MemSafety)
      return Seed;
  }
  return 0;
}

} // namespace

//===----------------------------------------------------------------------===//
// Crash-repro bundles
//===----------------------------------------------------------------------===//

TEST(HarnessTest, RecordedViolationReplaysIdentically) {
  auto M = frontend::compileOrDie(PublishSrc);
  vm::Client C = publishClient();
  vm::ExecConfig EC;
  vm::ExecResult R;
  ASSERT_NE(findViolatingSeed(M, C, EC, R), 0u)
      << "publication must misbehave under PSO within the seed budget";

  ReproBundle B = makeBundle(M, C, EC, R);
  EXPECT_EQ(B.Outcome, "memory-safety");
  EXPECT_FALSE(B.Trace.empty());

  std::string Error;
  auto Replayed = replayBundle(B, Error);
  ASSERT_TRUE(Replayed) << Error;
  EXPECT_EQ(Replayed->Out, R.Out);
  EXPECT_EQ(Replayed->Message, R.Message);
  EXPECT_EQ(Replayed->Hist.str(), R.Hist.str());
}

TEST(HarnessTest, BundleSurvivesJsonRoundTrip) {
  auto M = frontend::compileOrDie(PublishSrc);
  vm::Client C = publishClient();
  vm::ExecConfig EC;
  vm::ExecResult R;
  ASSERT_NE(findViolatingSeed(M, C, EC, R), 0u);
  ReproBundle B = makeBundle(M, C, EC, R);
  B.SpecName = "memory-safety";
  B.Faults.FlushStormProb = 0.25;
  B.Faults.SwitchBeforeLabels = {3, 7};
  B.Faults.AllocFailAfter = 9;

  std::string Error;
  auto Parsed = Json::parse(B.toJson().dump(2), Error);
  ASSERT_TRUE(Parsed) << Error;
  auto B2 = ReproBundle::fromJson(*Parsed, Error);
  ASSERT_TRUE(B2) << Error;
  EXPECT_EQ(B2->ModuleText, B.ModuleText);
  EXPECT_EQ(B2->Model, B.Model);
  EXPECT_EQ(B2->Seed, B.Seed);
  EXPECT_EQ(B2->FlushProb, B.FlushProb);
  EXPECT_EQ(B2->MaxSteps, B.MaxSteps);
  EXPECT_EQ(B2->Outcome, B.Outcome);
  EXPECT_EQ(B2->Message, B.Message);
  EXPECT_EQ(B2->SpecName, B.SpecName);
  EXPECT_EQ(B2->Faults.FlushStormProb, B.Faults.FlushStormProb);
  EXPECT_EQ(B2->Faults.SwitchBeforeLabels, B.Faults.SwitchBeforeLabels);
  EXPECT_EQ(B2->Faults.AllocFailAfter, B.Faults.AllocFailAfter);
  ASSERT_EQ(B2->Trace.size(), B.Trace.size());
  for (size_t I = 0; I != B.Trace.size(); ++I) {
    EXPECT_EQ(B2->Trace[I].Kind, B.Trace[I].Kind);
    EXPECT_EQ(B2->Trace[I].Tid, B.Trace[I].Tid);
    EXPECT_EQ(B2->Trace[I].HasVar, B.Trace[I].HasVar);
  }
  EXPECT_EQ(B2->Client.Threads.size(), B.Client.Threads.size());
}

TEST(HarnessTest, BundleSurvivesFileRoundTripAndReplays) {
  auto M = frontend::compileOrDie(PublishSrc);
  vm::Client C = publishClient();
  vm::ExecConfig EC;
  vm::ExecResult R;
  ASSERT_NE(findViolatingSeed(M, C, EC, R), 0u);
  ReproBundle B = makeBundle(M, C, EC, R);

  std::string Path = testing::TempDir() + "harness_bundle_test.json";
  std::string Error;
  ASSERT_TRUE(B.saveFile(Path, Error)) << Error;
  auto Loaded = ReproBundle::loadFile(Path, Error);
  std::remove(Path.c_str());
  ASSERT_TRUE(Loaded) << Error;

  auto Replayed = replayBundle(*Loaded, Error);
  ASSERT_TRUE(Replayed) << Error;
  EXPECT_EQ(Replayed->Out, R.Out);
  EXPECT_EQ(Replayed->Message, R.Message);
}

TEST(HarnessTest, LoadFileRejectsGarbage) {
  std::string Path = testing::TempDir() + "harness_garbage_test.json";
  {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    ASSERT_NE(F, nullptr);
    std::fputs("{\"version\": 1, \"model\": \"XXX\"}", F);
    std::fclose(F);
  }
  std::string Error;
  auto B = ReproBundle::loadFile(Path, Error);
  std::remove(Path.c_str());
  EXPECT_FALSE(B);
  EXPECT_FALSE(Error.empty());
}

TEST(HarnessTest, LenientReplayFinishesTruncatedTrace) {
  auto M = frontend::compileOrDie(PublishSrc);
  vm::Client C = publishClient();
  vm::ExecConfig EC;
  vm::ExecResult R;
  ASSERT_NE(findViolatingSeed(M, C, EC, R), 0u);
  ReproBundle B = makeBundle(M, C, EC, R);
  ASSERT_GT(B.Trace.size(), 2u);
  B.Trace.resize(B.Trace.size() / 2); // Hand-truncated bundle.

  std::string Error;
  auto Replayed = replayBundle(B, Error);
  // Must terminate gracefully with *some* outcome — never crash or hang.
  ASSERT_TRUE(Replayed) << Error;
}

//===----------------------------------------------------------------------===//
// Watchdog and retry escalation
//===----------------------------------------------------------------------===//

TEST(HarnessTest, RetryGrowsStepBudgetUntilCompletion) {
  auto M = frontend::compileOrDie(PublishSrc);
  vm::Client C = oneCall("writer");
  vm::ExecConfig EC;
  EC.Model = vm::MemModel::SC;
  EC.MaxSteps = 1; // Hopelessly tight: the first attempt must discard.
  ExecPolicy Policy;
  Policy.MaxRetries = 3;
  Policy.StepBudgetGrowth = 100.0;

  vm::PreparedProgram P(M, C);
  vm::ExecContext Ctx;
  SupervisedExec SE = runSupervised(P, 0, Ctx, EC, Policy);
  EXPECT_FALSE(SE.Discarded);
  EXPECT_EQ(SE.Result.Out, vm::Outcome::Completed);
  EXPECT_GT(SE.Attempts, 1u);
  EXPECT_GT(SE.UsedMaxSteps, EC.MaxSteps);
  EXPECT_NE(SE.UsedSeed, EC.Seed) << "retries must reseed the schedule";
}

TEST(HarnessTest, RetryExhaustionCountsAsDiscarded) {
  auto M = frontend::compileOrDie(SpinSrc);
  vm::Client C = oneCall("spin");
  vm::ExecConfig EC;
  EC.Model = vm::MemModel::SC;
  EC.MaxSteps = 200;
  ExecPolicy Policy;
  Policy.MaxRetries = 2;
  Policy.StepBudgetGrowth = 1.0; // No growth: the spin never finishes.

  vm::PreparedProgram P(M, C);
  vm::ExecContext Ctx;
  SupervisedExec SE = runSupervised(P, 0, Ctx, EC, Policy);
  EXPECT_TRUE(SE.Discarded);
  EXPECT_EQ(SE.Attempts, Policy.MaxRetries + 1);
  EXPECT_EQ(SE.Result.Out, vm::Outcome::StepLimit);
}

TEST(HarnessTest, WatchdogTimesOutRunawayExecution) {
  auto M = frontend::compileOrDie(SpinSrc);
  vm::Client C = oneCall("spin");
  vm::ExecConfig EC;
  EC.Model = vm::MemModel::SC;
  EC.MaxSteps = size_t(1) << 40; // Step budget effectively unlimited.
  ExecPolicy Policy;
  Policy.ExecWallMs = 50;
  Policy.MaxRetries = 1;
  Policy.StepBudgetGrowth = 1.0;

  Stopwatch W;
  vm::PreparedProgram P(M, C);
  vm::ExecContext Ctx;
  SupervisedExec SE = runSupervised(P, 0, Ctx, EC, Policy);
  EXPECT_TRUE(SE.TimedOut);
  EXPECT_TRUE(SE.Discarded);
  EXPECT_EQ(SE.Result.Out, vm::Outcome::Timeout);
  EXPECT_LT(W.elapsedMs(), 5000u)
      << "two 50 ms watchdog attempts must not take seconds";
}

//===----------------------------------------------------------------------===//
// Fault injection
//===----------------------------------------------------------------------===//

TEST(HarnessTest, AllocationFaultReplaysIdentically) {
  auto M = frontend::compileOrDie(PublishSrc);
  vm::Client C = oneCall("writer");
  vm::FaultPlan Faults;
  Faults.AllocFailProb = 1.0; // Every allocation fails.
  vm::ExecConfig EC;
  EC.Model = vm::MemModel::SC;
  EC.Seed = 7;
  EC.RecordTrace = true;
  EC.Faults = &Faults;

  vm::ExecResult R = vm::runExecution(M, C, EC);
  ASSERT_EQ(R.Out, vm::Outcome::MemSafety)
      << "a failed malloc makes the writer store through null";

  // Engine-level faults re-fire on replay from the dedicated fault RNG;
  // the bundle carries the plan and the replay view keeps it.
  ReproBundle B = makeBundle(M, C, EC, R);
  std::string Error;
  auto Replayed = replayBundle(B, Error);
  ASSERT_TRUE(Replayed) << Error;
  EXPECT_EQ(Replayed->Out, R.Out);
  EXPECT_EQ(Replayed->Message, R.Message);
}

TEST(HarnessTest, FlushStormIsBakedIntoReplayTrace) {
  auto M = frontend::compileOrDie(PublishSrc);
  vm::Client C = publishClient();
  vm::FaultPlan Faults;
  Faults.FlushStormProb = 0.3;
  vm::ExecConfig EC;
  EC.Model = vm::MemModel::PSO;
  EC.FlushProb = 0.2;
  EC.RecordTrace = true;
  EC.Faults = &Faults;

  // Any outcome works; the invariant is that replaying the recorded
  // trace (with scheduler-level faults stripped) reproduces it exactly.
  for (uint64_t Seed = 1; Seed <= 25; ++Seed) {
    EC.Seed = Seed;
    vm::ExecResult R = vm::runExecution(M, C, EC);
    ReproBundle B = makeBundle(M, C, EC, R);
    EXPECT_EQ(B.Faults.replayView().FlushStormProb, 0.0)
        << "scheduler-level faults are stripped for replay";
    std::string Error;
    auto Replayed = replayBundle(B, Error);
    ASSERT_TRUE(Replayed) << Error;
    EXPECT_EQ(Replayed->Out, R.Out) << "seed " << Seed;
    EXPECT_EQ(Replayed->Hist.str(), R.Hist.str()) << "seed " << Seed;
  }
}

TEST(HarnessTest, ForcedSwitchFaultKeepsExecutionsTerminating) {
  auto M = frontend::compileOrDie(PublishSrc);
  vm::Client C = publishClient();
  // Mark every store in the writer as a forced-switch point.
  vm::FaultPlan Faults;
  for (const auto &I : M.function(*M.findFunction("writer")).Body)
    if (I.Op == ir::Opcode::Store)
      Faults.SwitchBeforeLabels.push_back(I.Id);
  ASSERT_FALSE(Faults.SwitchBeforeLabels.empty());

  for (uint64_t Seed = 1; Seed <= 50; ++Seed) {
    vm::ExecConfig EC;
    EC.Model = vm::MemModel::PSO;
    EC.Seed = Seed;
    EC.FlushProb = 0.3;
    EC.Faults = &Faults;
    vm::ExecResult R = vm::runExecution(M, C, EC);
    // The defer-once policy must not livelock: every run terminates
    // with a regular outcome well inside the step budget.
    EXPECT_NE(R.Out, vm::Outcome::StepLimit) << "seed " << Seed;
  }
}

TEST(HarnessTest, SynthesisUnderFaultInjectionNeverCrashes) {
  // The acceptance scenario: full synthesis with flush storms, forced
  // switches, and a tight buffer cap, under a 10-second total watchdog.
  // It must end Converged or Degraded — never crash, never hang.
  auto M = frontend::compileOrDie(PublishSrc);
  synth::SynthConfig Cfg;
  Cfg.Model = vm::MemModel::PSO;
  Cfg.Spec = synth::SpecKind::MemorySafety;
  Cfg.ExecsPerRound = 150;
  Cfg.MaxRounds = 12;
  Cfg.MaxRepairRounds = 12;
  Cfg.MaxStepsPerExec = 20000;
  Cfg.FlushProb = 0.4;
  Cfg.TotalWallMs = 10000;
  Cfg.Exec.ExecWallMs = 1000;
  Cfg.Faults.FlushStormProb = 0.05;
  Cfg.Faults.BufferCapacity = 2;
  for (const auto &I : M.function(*M.findFunction("writer")).Body)
    if (I.Op == ir::Opcode::Store)
      Cfg.Faults.SwitchBeforeLabels.push_back(I.Id);

  Stopwatch W;
  synth::SynthResult R = synth::synthesize(M, {publishClient()}, Cfg);
  EXPECT_LT(W.elapsedMs(), 60000u);
  EXPECT_TRUE(R.Status == synth::SynthStatus::Converged ||
              R.Status == synth::SynthStatus::Degraded)
      << "status: " << synth::synthStatusName(R.Status)
      << ", reason: " << R.DegradeReason;
  // Whatever the path, the result is a usable fenced module.
  EXPECT_GT(R.FencedModule.totalInstrCount(), 0u);
}
