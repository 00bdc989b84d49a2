//===- SchedTest.cpp - Scheduler unit tests -------------------------------===//

#include "sched/RandomFlushScheduler.h"
#include "sched/ReplayScheduler.h"
#include "sched/RoundRobinScheduler.h"

#include "frontend/Compiler.h"
#include "vm/Interp.h"

#include <gtest/gtest.h>

using namespace dfence;
using namespace dfence::sched;

namespace {

ThreadView makeView(uint32_t Tid, bool Runnable, size_t Pending,
                    bool Shared = true) {
  ThreadView V;
  V.Tid = Tid;
  V.Runnable = Runnable;
  V.PendingStores = Pending;
  V.NextIsShared = Shared;
  if (Pending)
    V.BufferedVars = {100 + Tid};
  return V;
}

} // namespace

TEST(SchedTest, PicksOnlySchedulableThreads) {
  RandomFlushScheduler S;
  Rng R(1);
  std::vector<ThreadView> Views = {
      makeView(0, false, 0), // Done, nothing pending: never pickable.
      makeView(1, true, 0),
      makeView(2, false, 3), // Done but pending flushes.
  };
  for (int I = 0; I < 200; ++I) {
    Action A = S.pick(Views, R);
    EXPECT_NE(A.Tid, 0u);
    if (A.Tid == 2) {
      EXPECT_EQ(A.Kind, Action::Flush)
          << "a finished thread can only flush";
    }
    if (A.Tid == 1) {
      EXPECT_EQ(A.Kind, Action::StepThread);
    }
  }
}

TEST(SchedTest, FlushProbabilityZeroNeverFlushesRunnable) {
  RandomFlushConfig Cfg;
  Cfg.FlushProb = 0.0;
  Cfg.PartialOrderReduction = false;
  RandomFlushScheduler S(Cfg);
  Rng R(2);
  std::vector<ThreadView> Views = {makeView(0, true, 5)};
  for (int I = 0; I < 100; ++I) {
    Action A = S.pick(Views, R);
    EXPECT_EQ(A.Kind, Action::StepThread);
  }
}

TEST(SchedTest, FlushProbabilityOneAlwaysFlushesPending) {
  RandomFlushConfig Cfg;
  Cfg.FlushProb = 1.0;
  Cfg.PartialOrderReduction = false;
  RandomFlushScheduler S(Cfg);
  Rng R(3);
  std::vector<ThreadView> Views = {makeView(0, true, 5)};
  for (int I = 0; I < 100; ++I) {
    Action A = S.pick(Views, R);
    EXPECT_EQ(A.Kind, Action::Flush);
    EXPECT_TRUE(A.HasVar);
  }
}

TEST(SchedTest, PartialOrderReductionKeepsLocalThread) {
  RandomFlushConfig Cfg;
  Cfg.PartialOrderReduction = true;
  RandomFlushScheduler S(Cfg);
  Rng R(4);
  std::vector<ThreadView> Views = {makeView(0, true, 0, /*Shared=*/false),
                                   makeView(1, true, 0, /*Shared=*/false)};
  Action First = S.pick(Views, R);
  // Once a thread is running local code, it keeps running (up to the
  // streak limit).
  for (int I = 0; I < 50; ++I) {
    Action A = S.pick(Views, R);
    EXPECT_EQ(A.Tid, First.Tid);
    EXPECT_EQ(A.Kind, Action::StepThread);
  }
}

TEST(SchedTest, StreakLimitForcesReschedule) {
  // A random pick opens a grant of exactly MaxLocalStreak local steps;
  // each granted pick spends one, and the pick after the last one is a
  // random pick again, which reopens the full grant.
  const uint32_t Cap = RandomFlushScheduler::MaxLocalStreak;
  ASSERT_EQ(Cap, 128u);
  RandomFlushScheduler S;
  Rng R(5);
  std::vector<ThreadView> Views = {makeView(0, true, 0, false),
                                   makeView(1, true, 0, false)};
  Action First = S.pick(Views, R);
  EXPECT_EQ(S.localGrant(), Cap);
  for (uint32_t I = 1; I <= Cap; ++I) {
    Action A = S.pick(Views, R);
    EXPECT_EQ(A.Tid, First.Tid);
    EXPECT_EQ(A.Kind, Action::StepThread);
    EXPECT_EQ(S.localGrant(), Cap - I);
  }
  (void)S.pick(Views, R);
  EXPECT_EQ(S.localGrant(), Cap);
  // tookLocal() spends the grant as granted picks do.
  S.tookLocal(Cap);
  EXPECT_EQ(S.localGrant(), 0u);
}

TEST(SchedTest, ResetClearsState) {
  RandomFlushScheduler S;
  Rng R(6);
  std::vector<ThreadView> Views = {makeView(0, true, 0, false),
                                   makeView(1, true, 0, false)};
  (void)S.pick(Views, R);
  S.reset();
  // After a reset no stale POR streak remains; picks still valid.
  Action A = S.pick(Views, R);
  EXPECT_LT(A.Tid, 2u);
}

TEST(SchedTest, DeterministicGivenRng) {
  RandomFlushScheduler S1, S2;
  Rng R1(7), R2(7);
  std::vector<ThreadView> Views = {makeView(0, true, 2),
                                   makeView(1, true, 0),
                                   makeView(2, true, 1)};
  for (int I = 0; I < 200; ++I) {
    Action A = S1.pick(Views, R1);
    Action B = S2.pick(Views, R2);
    EXPECT_EQ(A.Kind, B.Kind);
    EXPECT_EQ(A.Tid, B.Tid);
    EXPECT_EQ(A.Var, B.Var);
  }
}

//===----------------------------------------------------------------------===//
// Replay scheduler
//===----------------------------------------------------------------------===//

namespace {

const char *SbSrcSched = R"(
global int X = 0;
global int Y = 0;
int t1() { X = 1; return Y; }
int t2() { Y = 1; return X; }
)";

vm::Client sbClient() {
  vm::Client C;
  vm::ThreadScript S1, S2;
  vm::MethodCall M1;
  M1.Func = "t1";
  vm::MethodCall M2;
  M2.Func = "t2";
  S1.Calls = {M1};
  S2.Calls = {M2};
  C.Threads = {S1, S2};
  return C;
}

} // namespace

TEST(ReplaySchedulerTest, GrantsRepeatedStepsUpToTheTraceEnd) {
  // After each pick, the grant is the number of following entries that
  // repeat the returned step; a flush, and the last entry, grant nothing.
  std::vector<Action> Trace = {Action::step(0),  Action::step(0),
                               Action::step(0),  Action::flush(0),
                               Action::flush(0), Action::step(1),
                               Action::step(0),  Action::step(0)};
  const uint32_t Want[] = {2, 1, 0, 0, 0, 0, 1, 0};
  ReplayScheduler S(Trace, /*Strict=*/false);
  Rng R(1);
  std::vector<ThreadView> Views = {makeView(0, true, 1),
                                   makeView(1, true, 0)};
  EXPECT_EQ(S.localGrant(), 0u);
  for (uint32_t W : Want) {
    (void)S.pick(Views, R);
    EXPECT_EQ(S.localGrant(), W);
  }
  // The lenient fallback past the end grants nothing either.
  (void)S.pick(Views, R);
  EXPECT_EQ(S.localGrant(), 0u);

  // tookLocal() consumes the granted entries.
  S.reset();
  (void)S.pick(Views, R);
  S.tookLocal(S.localGrant());
  EXPECT_EQ(S.consumed(), 3u);
  EXPECT_EQ(S.pick(Views, R).Kind, Action::Flush);
}

TEST(ReplaySchedulerTest, ReproducesExecutionExactly) {
  auto M = frontend::compileOrDie(SbSrcSched);
  vm::Client C = sbClient();
  for (uint64_t Seed = 1; Seed <= 25; ++Seed) {
    vm::ExecConfig Rec;
    Rec.Model = vm::MemModel::PSO;
    Rec.Seed = Seed;
    Rec.FlushProb = 0.2;
    Rec.RecordTrace = true;
    vm::ExecResult Original = vm::runExecution(M, C, Rec);
    ASSERT_FALSE(Original.Trace.empty());

    ReplayScheduler Replay(Original.Trace);
    vm::ExecConfig Rep;
    Rep.Model = vm::MemModel::PSO;
    Rep.Seed = 999999; // Irrelevant: the trace drives everything.
    Rep.Sched = &Replay;
    vm::ExecResult Replayed = vm::runExecution(M, C, Rep);

    EXPECT_EQ(Replayed.Out, Original.Out);
    EXPECT_EQ(Replayed.Steps, Original.Steps);
    ASSERT_EQ(Replayed.Hist.Ops.size(), Original.Hist.Ops.size());
    for (size_t I = 0; I != Original.Hist.Ops.size(); ++I) {
      EXPECT_EQ(Replayed.Hist.Ops[I].Ret, Original.Hist.Ops[I].Ret);
      EXPECT_EQ(Replayed.Hist.Ops[I].InvokeSeq,
                Original.Hist.Ops[I].InvokeSeq);
      EXPECT_EQ(Replayed.Hist.Ops[I].RespondSeq,
                Original.Hist.Ops[I].RespondSeq);
    }
  }
}

TEST(ReplaySchedulerTest, StrictExhaustionEndsTheExecutionNotTheProcess) {
  // Replaying half of a recorded trace strictly runs out of decisions
  // while work remains: the execution ends as a Deadlock that says so,
  // and the test binary keeps running its other cases.
  auto M = frontend::compileOrDie(SbSrcSched);
  vm::Client C = sbClient();
  vm::ExecConfig Rec;
  Rec.Model = vm::MemModel::PSO;
  Rec.Seed = 7;
  Rec.FlushProb = 0.2;
  Rec.RecordTrace = true;
  vm::ExecResult Original = vm::runExecution(M, C, Rec);
  ASSERT_EQ(Original.Out, vm::Outcome::Completed);
  ASSERT_GE(Original.Trace.size(), 4u);

  std::vector<Action> Half(Original.Trace.begin(),
                           Original.Trace.begin() +
                               static_cast<ptrdiff_t>(
                                   Original.Trace.size() / 2));
  ReplayScheduler Replay(Half, /*Strict=*/true);
  vm::ExecConfig Rep;
  Rep.Model = vm::MemModel::PSO;
  Rep.Sched = &Replay;
  vm::ExecResult Cut = vm::runExecution(M, C, Rep);
  EXPECT_EQ(Cut.Out, vm::Outcome::Deadlock);
  EXPECT_NE(Cut.Message.find("replay trace exhausted"), std::string::npos)
      << Cut.Message;
  EXPECT_TRUE(Replay.exhausted());
}

TEST(ReplaySchedulerTest, ReproducesViolations) {
  // Find a seed whose execution violates memory safety, then replay it.
  const char *Src = R"(
global int FLAG = 0;
global int PTR = 0;
int writer() {
  int p = malloc(2);
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
  auto M = frontend::compileOrDie(Src);
  vm::Client C;
  vm::ThreadScript W, R;
  vm::MethodCall MW;
  MW.Func = "writer";
  vm::MethodCall MR;
  MR.Func = "reader";
  W.Calls = {MW};
  R.Calls = {MR};
  C.Threads = {W, R};

  bool Replayed = false;
  for (uint64_t Seed = 1; Seed <= 3000 && !Replayed; ++Seed) {
    vm::ExecConfig Rec;
    Rec.Model = vm::MemModel::PSO;
    Rec.Seed = Seed;
    Rec.FlushProb = 0.1;
    Rec.RecordTrace = true;
    vm::ExecResult Orig = vm::runExecution(M, C, Rec);
    if (Orig.Out != vm::Outcome::MemSafety)
      continue;
    ReplayScheduler Replay(Orig.Trace);
    vm::ExecConfig Rep;
    Rep.Model = vm::MemModel::PSO;
    Rep.Sched = &Replay;
    vm::ExecResult Again = vm::runExecution(M, C, Rep);
    EXPECT_EQ(Again.Out, vm::Outcome::MemSafety);
    EXPECT_EQ(Again.Message, Orig.Message);
    Replayed = true;
  }
  EXPECT_TRUE(Replayed) << "no violation found to replay";
}

//===----------------------------------------------------------------------===//
// Round-robin scheduler
//===----------------------------------------------------------------------===//

TEST(RoundRobinTest, FullyDeterministicWithoutSeeds) {
  auto M = frontend::compileOrDie(SbSrcSched);
  vm::Client C = sbClient();
  RoundRobinScheduler S1, S2;
  vm::ExecConfig Cfg1;
  Cfg1.Model = vm::MemModel::TSO;
  Cfg1.Seed = 1;
  Cfg1.Sched = &S1;
  vm::ExecConfig Cfg2 = Cfg1;
  Cfg2.Seed = 424242; // Different seed; same schedule regardless.
  Cfg2.Sched = &S2;
  vm::ExecResult A = vm::runExecution(M, C, Cfg1);
  vm::ExecResult B = vm::runExecution(M, C, Cfg2);
  EXPECT_EQ(A.Steps, B.Steps);
  ASSERT_EQ(A.Hist.Ops.size(), B.Hist.Ops.size());
  for (size_t I = 0; I != A.Hist.Ops.size(); ++I)
    EXPECT_EQ(A.Hist.Ops[I].Ret, B.Hist.Ops[I].Ret);
}

TEST(RoundRobinTest, CompletesLockedPrograms) {
  const char *Src = R"(
global int L = 0;
global int G = 0;
int bump() {
  lock(&L);
  G = G + 1;
  unlock(&L);
  return G;
}
)";
  auto M = frontend::compileOrDie(Src);
  vm::Client C;
  for (int T = 0; T < 3; ++T) {
    vm::ThreadScript S;
    vm::MethodCall MC;
    MC.Func = "bump";
    S.Calls = {MC, MC};
    C.Threads.push_back(S);
  }
  RoundRobinScheduler S;
  vm::ExecConfig Cfg;
  Cfg.Model = vm::MemModel::PSO;
  Cfg.Sched = &S;
  vm::ExecResult R = vm::runExecution(M, C, Cfg);
  EXPECT_EQ(R.Out, vm::Outcome::Completed) << R.Message;
  EXPECT_EQ(R.Hist.Ops.size(), 6u);
}

TEST(RoundRobinTest, WeakerThanDemonicAtExposingViolations) {
  // The deterministic baseline yields exactly one schedule, so it can
  // observe at most one outcome of the SB litmus; the demonic scheduler
  // observes several. (This motivates the flush-delaying scheduler.)
  auto M = frontend::compileOrDie(SbSrcSched);
  vm::Client C = sbClient();
  std::set<std::pair<vm::Word, vm::Word>> RrOutcomes, DemonicOutcomes;
  for (uint64_t Seed = 1; Seed <= 50; ++Seed) {
    RoundRobinScheduler S;
    vm::ExecConfig Cfg;
    Cfg.Model = vm::MemModel::PSO;
    Cfg.Seed = Seed;
    Cfg.Sched = &S;
    vm::ExecResult R = vm::runExecution(M, C, Cfg);
    vm::Word Rets[2] = {0, 0};
    for (const auto &Op : R.Hist.Ops)
      Rets[Op.Thread] = Op.Ret;
    RrOutcomes.insert({Rets[0], Rets[1]});

    vm::ExecConfig D;
    D.Model = vm::MemModel::PSO;
    D.Seed = Seed;
    D.FlushProb = 0.2;
    vm::ExecResult RD = vm::runExecution(M, C, D);
    vm::Word DRets[2] = {0, 0};
    for (const auto &Op : RD.Hist.Ops)
      DRets[Op.Thread] = Op.Ret;
    DemonicOutcomes.insert({DRets[0], DRets[1]});
  }
  EXPECT_EQ(RrOutcomes.size(), 1u);
  EXPECT_GT(DemonicOutcomes.size(), 1u);
}
