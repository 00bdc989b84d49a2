//===- ReplayScheduler.cpp ------------------------------------------------===//

#include "sched/ReplayScheduler.h"

using namespace dfence;
using namespace dfence::sched;

ReplayScheduler::ReplayScheduler(std::vector<Action> Trace, bool Strict)
    : Trace(std::move(Trace)), Repeats(this->Trace.size()), Strict(Strict) {
  for (size_t I = Repeats.size(); I-- > 1;) {
    const Action &A = this->Trace[I - 1], &B = this->Trace[I];
    if (A.Kind == Action::StepThread && A.Kind == B.Kind && A.Tid == B.Tid &&
        A.HasVar == B.HasVar && A.Var == B.Var)
      Repeats[I - 1] = Repeats[I] + 1;
  }
}

ReplayScheduler::~ReplayScheduler() = default;

Action ReplayScheduler::pick(const std::vector<ThreadView> &Threads,
                             Rng &R) {
  (void)R;
  if (Pos < Trace.size())
    return Trace[Pos++];
  if (Strict)
    return Action::exhausted();
  // Lenient fallback past the recorded prefix: deterministic and simple.
  for (const ThreadView &V : Threads)
    if (V.Runnable)
      return Action::step(V.Tid);
  for (const ThreadView &V : Threads)
    if (V.PendingStores > 0)
      return Action::flush(V.Tid);
  // No schedulable work; the engine flags this as an invalid action.
  return Action::step(Threads.empty() ? 0 : Threads.front().Tid);
}
