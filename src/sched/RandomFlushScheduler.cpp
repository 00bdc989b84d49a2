//===- RandomFlushScheduler.cpp -------------------------------------------===//

#include "sched/RandomFlushScheduler.h"

#include "support/Diagnostics.h"

using namespace dfence;
using namespace dfence::sched;

Scheduler::~Scheduler() = default;

RandomFlushScheduler::RandomFlushScheduler(RandomFlushConfig Cfg)
    : Cfg(Cfg) {}

RandomFlushScheduler::~RandomFlushScheduler() = default;

void RandomFlushScheduler::reset() {
  LastTid = ~0u;
  LocalStreak = 0;
}

Action
RandomFlushScheduler::pickRandom(const std::vector<ThreadView> &Threads,
                                 Rng &R) {
  LocalStreak = 0;

  // Candidates: runnable threads plus threads with pending stores (a
  // finished thread's buffer can still drain at any time). Draw the
  // index among them, then walk to it.
  auto Schedulable = [](const ThreadView &V) {
    return V.Runnable || V.PendingStores > 0;
  };
  uint64_t NumCandidates = 0;
  for (const ThreadView &V : Threads)
    NumCandidates += Schedulable(V);
  if (NumCandidates == 0)
    reportFatalError("scheduler invoked with no schedulable thread");
  uint64_t Skip = R.nextBelow(NumCandidates);
  const ThreadView *Chosen = Threads.data();
  while (!Schedulable(*Chosen) || Skip-- != 0)
    ++Chosen;
  const ThreadView &T = *Chosen;
  LastTid = T.Tid;

  if (T.PendingStores == 0)
    return Action::step(T.Tid);
  if (!T.Runnable || R.nextBool(Cfg.FlushProb)) {
    // Flush one entry; under PSO pick a random per-variable buffer.
    if (!T.BufferedVars.empty()) {
      ir::Word Var = T.BufferedVars[R.nextBelow(T.BufferedVars.size())];
      return Action::flushVar(T.Tid, Var);
    }
    return Action::flush(T.Tid);
  }
  return Action::step(T.Tid);
}
