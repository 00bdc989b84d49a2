//===- ViewConsistencyTest.cpp - Scheduler views stay true to the VM ------===//
//
// The interpreter keeps one ThreadView per live thread across scheduling
// points and refreshes only the views an action can have changed. A view
// left stale would silently change what a scheduler decides (the
// round-robin scheduler reads BufferedVars.front() and PendingStores
// directly), so a checking wrapper asserts, at every pick, the
// invariants a freshly built view satisfies:
//
//  - Views.size() is the number of live threads: the client's thread
//    count at the first pick, growing by at most one (a Spawn) per
//    stepped action, and the run's thread high-water mark at the end of
//    an execution that ran to completion or to a failed assertion;
//  - Views[i].Tid == i;
//  - PendingStores == 0 exactly when BufferedVars is empty; under PSO
//    BufferedVars is strictly ascending, under TSO it is {0} exactly
//    when the buffer is non-empty;
//  - a thread that is not runnable has no next shared step and never
//    becomes runnable again.
//
// It is driven over the spawn/join litmus corpus and the fault-plan
// cases (flush storms, forced switches, bounded buffers), wrapping both
// the flush-delaying and the round-robin scheduler. A flush the VM
// rejects as "of an empty buffer" would also betray a stale view.
//
//===----------------------------------------------------------------------===//

#include "ScheduleCases.h"

#include "sched/RandomFlushScheduler.h"
#include "sched/RoundRobinScheduler.h"
#include "vm/ExecContext.h"

#include <gtest/gtest.h>

using namespace dfence;
using namespace dfence::testcases;
using sched::Action;
using sched::ThreadView;
using vm::MemModel;

namespace {

class CheckingScheduler final : public sched::Scheduler {
public:
  CheckingScheduler(sched::Scheduler &Inner, MemModel Model,
                    size_t ClientThreads)
      : Inner(Inner), Model(Model), ClientThreads(ClientThreads) {}

  Action pick(const std::vector<ThreadView> &Views, Rng &R) override {
    if (Picks++ == 0) {
      EXPECT_EQ(Views.size(), ClientThreads);
    } else {
      EXPECT_GE(Views.size(), LastSize);
      EXPECT_LE(Views.size(), LastSize + (LastWasStep ? 1 : 0));
    }
    LastSize = Views.size();
    Finished.resize(Views.size(), false);

    bool AnySchedulable = false;
    for (size_t I = 0; I != Views.size(); ++I) {
      const ThreadView &V = Views[I];
      EXPECT_EQ(V.Tid, I);
      EXPECT_EQ(V.PendingStores == 0, V.BufferedVars.empty()) << "tid " << I;
      if (Model == MemModel::PSO) {
        EXPECT_LE(V.BufferedVars.size(), V.PendingStores);
        for (size_t J = 1; J < V.BufferedVars.size(); ++J)
          EXPECT_LT(V.BufferedVars[J - 1], V.BufferedVars[J]) << "tid " << I;
      } else if (V.PendingStores > 0) {
        EXPECT_EQ(V.BufferedVars, std::vector<ir::Word>{0}) << "tid " << I;
      }
      if (!V.Runnable) {
        EXPECT_FALSE(V.NextIsShared) << "tid " << I;
        Finished[I] = true;
      } else {
        EXPECT_FALSE(Finished[I]) << "tid " << I << " ran again";
      }
      AnySchedulable |= V.Runnable || V.PendingStores > 0;
    }
    EXPECT_TRUE(AnySchedulable);

    Action A = Inner.pick(Views, R);
    LastWasStep = A.Kind == Action::StepThread;
    return A;
  }

  void reset() override {
    Inner.reset();
    Picks = 0;
    LastSize = 0;
    LastWasStep = false;
    Finished.clear();
  }

  size_t picks() const { return Picks; }
  size_t lastSize() const { return LastSize; }

private:
  sched::Scheduler &Inner;
  MemModel Model;
  size_t ClientThreads;
  size_t Picks = 0;
  size_t LastSize = 0;
  bool LastWasStep = false;
  std::vector<bool> Finished;
};

/// Runs every client of \p S at seeds [1, Seeds] under both models and
/// both wrapped schedulers, with fault plan \p Faults (may be null).
/// \p MustFinish: every execution ends completed or at a failed
/// assertion (the litmus shapes never spin, so a step limit or deadlock
/// there means a thread the scheduler never saw).
void driveSubject(const Subject &S, uint64_t Seeds,
                  const vm::FaultPlan *Faults, bool MustFinish,
                  const std::string &What) {
  vm::PreparedProgram P(S.M, S.Clients);
  for (MemModel Model : {MemModel::TSO, MemModel::PSO})
    for (uint64_t Seed = 1; Seed <= Seeds; ++Seed)
      for (size_t C = 0; C != S.Clients.size(); ++C) {
        vm::ExecConfig Cfg = baseConfig(Model, Seed);
        Cfg.Faults = Faults;
        sched::RandomFlushScheduler Random(
            sched::RandomFlushConfig{Cfg.FlushProb, true});
        sched::RoundRobinScheduler RoundRobin;
        for (sched::Scheduler *Inner :
             {static_cast<sched::Scheduler *>(&Random),
              static_cast<sched::Scheduler *>(&RoundRobin)}) {
          SCOPED_TRACE(What + " " + vm::memModelName(Model) + " seed " +
                       std::to_string(Seed) + " client " + std::to_string(C) +
                       (Inner == &Random ? " random" : " round-robin"));
          CheckingScheduler Check(*Inner, Model, S.Clients[C].Threads.size());
          Cfg.Sched = &Check;
          vm::ExecContext Ctx; // Fresh, so ThreadHighWater is this run's.
          vm::ExecResult R;
          Ctx.run(P, C, Cfg, R);
          EXPECT_GT(Check.picks(), 0u);
          EXPECT_EQ(R.Message.find("empty buffer"), std::string::npos)
              << R.Message;
          bool Finished = R.Out == vm::Outcome::Completed ||
                          R.Out == vm::Outcome::AssertFail;
          if (MustFinish) {
            EXPECT_TRUE(Finished) << vm::outcomeName(R.Out) << ": "
                                  << R.Message;
          }
          if (Finished) {
            EXPECT_EQ(Check.lastSize(), Ctx.stats().ThreadHighWater);
          }
          if (::testing::Test::HasFailure())
            return;
        }
      }
}

} // namespace

TEST(ViewConsistencyTest, LitmusCorpusSpawnAndJoin) {
  for (const Subject &S : litmusSubjects())
    driveSubject(S, /*Seeds=*/20, nullptr, /*MustFinish=*/true, S.Name);
}

TEST(ViewConsistencyTest, FaultPlans) {
  for (const Subject &S : allSubjects())
    for (const NamedPlan &NP : faultPlans(S.M))
      driveSubject(S, /*Seeds=*/3, &NP.Plan,
                   /*MustFinish=*/S.Name.rfind("litmus-", 0) == 0,
                   S.Name + " " + NP.Name);
}
