//===- LocalRunDifferentialTest.cpp - Local runs change nothing -----------===//
//
// Under its own flush-delaying scheduler the engine takes a thread's
// thread-local steps in one dispatch (a local run): after a step, while
// the next instruction is local and the partial-order reduction's grant
// lasts, it keeps stepping without a view refresh or a pick() (docs/
// ALGORITHM.md §13, "Local runs"). Handed an external scheduler, it asks
// pick() at every scheduling point. So the same RandomFlushScheduler
// behind a forwarding wrapper is the per-step reference: every field of
// every ExecResult must match the local-run engine's — outcome, message,
// Steps, ExecStats, repairs, history and action trace.
//
// Covered: the schedule corpus under SC, TSO and PSO (seeds 1–5) and
// under every fault plan; the reduction and trace
// recording switched off; a MaxSteps sweep that ends executions inside
// local runs; a local loop far longer than the 128-step streak cap. And
// the deadline: a run stops at every 1024-step tick, so a wall-clock
// budget still ends an execution at the first tick past it.
//
//===----------------------------------------------------------------------===//

#include "ScheduleCases.h"

#include "ir/Reader.h"
#include "vm/ExecContext.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace dfence;
using namespace dfence::testcases;
using vm::MemModel;

namespace {

/// The engine's own scheduler, configured as run() configures it, behind
/// the Scheduler interface.
class ForwardingScheduler final : public sched::Scheduler {
public:
  explicit ForwardingScheduler(const vm::ExecConfig &Cfg) {
    sched::RandomFlushConfig SC;
    SC.FlushProb = Cfg.FlushProb;
    SC.PartialOrderReduction = Cfg.PartialOrderReduction;
    Inner.configure(SC);
  }
  sched::Action pick(const std::vector<sched::ThreadView> &Views,
                     Rng &R) override {
    return Inner.pick(Views, R);
  }
  void reset() override { Inner.reset(); }

private:
  sched::RandomFlushScheduler Inner;
};

/// The first field in which \p A and \p B differ, or "" when none does.
std::string firstDifference(const vm::ExecResult &A,
                            const vm::ExecResult &B) {
  std::ostringstream OS;
  auto Field = [&](const char *Name, auto X, auto Y) {
    if (OS.tellp() == 0 && X != Y)
      OS << Name << ": " << X << " vs " << Y;
  };
  Field("outcome", static_cast<int>(A.Out), static_cast<int>(B.Out));
  Field("message", A.Message, B.Message);
  Field("steps", A.Steps, B.Steps);
  Field("sched steps", A.Stats.SchedSteps, B.Stats.SchedSteps);
  Field("sched flushes", A.Stats.SchedFlushes, B.Stats.SchedFlushes);
  Field("flushes", A.Stats.Flushes, B.Stats.Flushes);
  Field("buffered stores", A.Stats.BufferedStores, B.Stats.BufferedStores);
  Field("store forwards", A.Stats.StoreForwards, B.Stats.StoreForwards);
  Field("buffer high water", A.Stats.BufHighWater, B.Stats.BufHighWater);
  Field("history hash", A.Hist.Hash, B.Hist.Hash);
  Field("history", A.Hist == B.Hist, true);
  Field("repairs", A.Repairs.size(), B.Repairs.size());
  for (size_t I = 0; I != A.Repairs.size() && OS.tellp() == 0; ++I) {
    const vm::OrderingPredicate &X = A.Repairs[I], &Y = B.Repairs[I];
    Field("repair", X.Before, Y.Before);
    Field("repair", X.After, Y.After);
    Field("repair kind", X.AfterIsLoad, Y.AfterIsLoad);
  }
  Field("trace length", A.Trace.size(), B.Trace.size());
  for (size_t I = 0; I != A.Trace.size() && OS.tellp() == 0; ++I) {
    const sched::Action &X = A.Trace[I], &Y = B.Trace[I];
    if (X.Kind != Y.Kind || X.Tid != Y.Tid || X.HasVar != Y.HasVar ||
        X.Var != Y.Var)
      OS << "trace differs at action " << I;
  }
  return OS.str();
}

/// Runs client \p C of \p P at \p Cfg with local runs and through the
/// forwarding reference; fails unless the results are identical.
void expectSame(const vm::PreparedProgram &P, size_t C,
                const vm::ExecConfig &Cfg, const std::string &What) {
  vm::ExecContext Local, PerStep;
  vm::ExecResult Got, Want;
  Local.run(P, C, Cfg, Got);
  ForwardingScheduler Ref(Cfg);
  vm::ExecConfig RefCfg = Cfg;
  RefCfg.Sched = &Ref;
  PerStep.run(P, C, RefCfg, Want);
  std::string Diff = firstDifference(Got, Want);
  EXPECT_EQ(Diff, "") << What << " client " << C;
}

std::string label(const Subject &S, MemModel Model, uint64_t Seed) {
  return S.Name + "/" + vm::memModelName(Model) + "/seed" +
         std::to_string(Seed);
}

} // namespace

TEST(LocalRunDifferential, ScheduleCorpus) {
  for (const Subject &S : allSubjects()) {
    vm::PreparedProgram P(S.M, S.Clients);
    for (MemModel Model : {MemModel::SC, MemModel::TSO, MemModel::PSO})
      for (uint64_t Seed = 1; Seed <= 5; ++Seed)
        for (size_t C = 0; C != S.Clients.size(); ++C)
          expectSame(P, C, baseConfig(Model, Seed), label(S, Model, Seed));
  }
}

TEST(LocalRunDifferential, FaultPlans) {
  // Storms and forced switches keep the per-step path on both sides;
  // bounded buffers and failing allocations run locally.
  for (const Subject &S : allSubjects()) {
    vm::PreparedProgram P(S.M, S.Clients);
    std::vector<NamedPlan> Plans = faultPlans(S.M);
    Plans.push_back({"alloc", {}});
    Plans.back().Plan.AllocFailProb = 0.3;
    for (const NamedPlan &NP : Plans)
      for (MemModel Model : {MemModel::TSO, MemModel::PSO})
        for (uint64_t Seed = 1; Seed <= 3; ++Seed)
          for (size_t C = 0; C != S.Clients.size(); ++C) {
            vm::ExecConfig Cfg = baseConfig(Model, Seed);
            Cfg.Faults = &NP.Plan;
            expectSame(P, C, Cfg, label(S, Model, Seed) + "/" + NP.Name);
          }
  }
}

TEST(LocalRunDifferential, ReductionAndTraceSwitches) {
  for (const Subject &S : allSubjects()) {
    vm::PreparedProgram P(S.M, S.Clients);
    for (MemModel Model : {MemModel::TSO, MemModel::PSO})
      for (uint64_t Seed = 1; Seed <= 2; ++Seed)
        for (bool Por : {false, true})
          for (bool Trace : {false, true})
            for (size_t C = 0; C != S.Clients.size(); ++C) {
              vm::ExecConfig Cfg = baseConfig(Model, Seed);
              Cfg.PartialOrderReduction = Por;
              Cfg.RecordTrace = Trace;
              expectSame(P, C, Cfg,
                         label(S, Model, Seed) + (Por ? "/por" : "/no-por") +
                             (Trace ? "/trace" : "/no-trace"));
            }
  }
}

TEST(LocalRunDifferential, StepLimitInsideLocalRuns) {
  // Every bound from 1 to 400 ends some executions in the middle of a
  // local run, at the same step as the per-step path.
  size_t Swept = 0;
  for (const Subject &S : allSubjects()) {
    if (S.Name != "Chase-Lev WSQ" && S.Name != "MS2 Queue" &&
        S.Name != "litmus-sb")
      continue;
    ++Swept;
    vm::PreparedProgram P(S.M, S.Clients);
    for (MemModel Model : {MemModel::TSO, MemModel::PSO})
      for (size_t Max = 1; Max <= 400; ++Max) {
        vm::ExecConfig Cfg = baseConfig(Model, 1);
        Cfg.MaxSteps = Max;
        expectSame(P, 0, Cfg,
                   label(S, Model, 1) + "/max" + std::to_string(Max));
      }
  }
  EXPECT_EQ(Swept, 3u);
}

TEST(LocalRunDifferential, LocalLoopCrossesStreakCap) {
  // Each iteration of work's loop is local; work(300) is 2,700 local
  // steps in a row, so the 128-step grant runs out again and again.
  auto M = frontend::compileOrDie(R"(
global int X = 0;
int work(int n) {
  int s = 0;
  int i = 0;
  while (i < n) {
    s = s + i * 3;
    i = i + 1;
  }
  X = s;
  return s;
}
)");
  std::string Error;
  auto Client =
      driver::parseClientDsl("work(300)|work(200);work(150)", Error);
  ASSERT_TRUE(Client) << Error;
  vm::PreparedProgram P(M, {*Client});
  for (MemModel Model : {MemModel::SC, MemModel::TSO, MemModel::PSO})
    for (uint64_t Seed = 1; Seed <= 5; ++Seed) {
      vm::ExecConfig Cfg = baseConfig(Model, Seed);
      expectSame(P, 0, Cfg,
                 std::string("work/") + vm::memModelName(Model) + "/seed" +
                     std::to_string(Seed));
      for (size_t Max : {127, 128, 129, 130, 257, 1000})
        for (bool Trace : {false, true}) {
          Cfg.MaxSteps = Max;
          Cfg.RecordTrace = Trace;
          expectSame(P, 0, Cfg,
                     std::string("work/") + vm::memModelName(Model) +
                         "/max" + std::to_string(Max) +
                         (Trace ? "/trace" : "/no-trace"));
        }
    }

  // The premise: some thread really steps more than 128 times in a row.
  vm::ExecContext Ctx;
  vm::ExecResult R;
  Ctx.run(P, 0, baseConfig(MemModel::PSO, 1), R);
  ASSERT_EQ(R.Out, vm::Outcome::Completed);
  size_t Longest = 0, Streak = 0;
  for (size_t I = 0; I != R.Trace.size(); ++I) {
    bool Same = I > 0 && R.Trace[I].Tid == R.Trace[I - 1].Tid &&
                R.Trace[I].Kind == sched::Action::StepThread;
    Streak = Same ? Streak + 1 : 1;
    Longest = std::max(Longest, Streak);
  }
  EXPECT_GT(Longest, 128u);
}

TEST(LocalRunTest, DeadlineTickStaysExact) {
  // The engine checks the wall-clock budget when Steps reaches a multiple
  // of 1024, so a timeout ends there. In `all-local` each grant of 128
  // local steps follows one picked step, a 129-step cycle that lands on
  // a multiple of 1024 only every 132,096 steps. In `odd-ends` every run
  // starts at a load and ends at an odd step count (3, 7, 11, ...), so
  // without stopping at ticks the deadline would never be checked and
  // the spin would end at its step limit instead.
  auto AllLocal = frontend::compileOrDie(R"(
int spin() {
  int i = 1;
  while (i == 1) {
  }
  return 0;
}
)");
  std::string Error;
  auto OddEnds = ir::parseModule(R"(global @0 X[1] = 1
func spin(0 params, 3 regs) {
  %1: r0 = gaddr @0
  %2: nop
  %3: r1 = load [r0]
  %4: nop
  %5: nop
  %6: br %3
  %7: r2 = const 0
  %8: ret r2
}
)",
                                 Error);
  ASSERT_TRUE(OddEnds) << Error;
  auto Client = driver::parseClientDsl("spin()", Error);
  ASSERT_TRUE(Client) << Error;

  for (const auto &[Name, M] :
       {std::pair<const char *, const ir::Module *>{"all-local", &AllLocal},
        {"odd-ends", &*OddEnds}}) {
    vm::PreparedProgram P(*M, {*Client});
    for (MemModel Model : {MemModel::SC, MemModel::TSO, MemModel::PSO}) {
      vm::ExecConfig Cfg;
      Cfg.Model = Model;
      Cfg.MaxSteps = size_t(1) << 27;
      Cfg.WallClockMs = 1;
      vm::ExecContext Ctx;
      vm::ExecResult R;
      Ctx.run(P, 0, Cfg, R);
      EXPECT_EQ(R.Out, vm::Outcome::Timeout)
          << Name << "/" << vm::memModelName(Model) << ": " << R.Message;
      EXPECT_EQ(R.Steps % 1024, 0u)
          << Name << "/" << vm::memModelName(Model) << ": " << R.Steps;
    }
  }
}
