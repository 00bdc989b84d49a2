//===- ReplayScheduler.h - Deterministic replay of a recorded run -*- C++ -*-===//
//
// The interpreter can record the action sequence of an execution
// (ExecConfig::RecordTrace); feeding it back through a ReplayScheduler
// reproduces the execution exactly — the debugging workflow for a
// violating execution found by the demonic scheduler.
//
//===----------------------------------------------------------------------===//

#ifndef DFENCE_SCHED_REPLAYSCHEDULER_H
#define DFENCE_SCHED_REPLAYSCHEDULER_H

#include "sched/Scheduler.h"

namespace dfence::sched {

class ReplayScheduler : public Scheduler {
public:
  /// \p Strict controls what happens when the trace runs out while work
  /// remains: strict replay treats it as a mismatch between the recorded
  /// and replayed program (the debugging default) and ends the execution
  /// as a Deadlock whose message says "replay trace exhausted"; lenient
  /// replay falls back to a simple deterministic policy (step the first
  /// runnable thread, else flush the first buffered one) so a truncated
  /// or hand-edited crash-repro bundle still finishes gracefully.
  explicit ReplayScheduler(std::vector<Action> Trace, bool Strict = true);
  ~ReplayScheduler() override;

  Action pick(const std::vector<ThreadView> &Threads, Rng &R) override;
  void reset() override { Pos = 0; }
  /// The entries right after the one just returned that repeat its step
  /// action: those are exactly what pick() would return next. Never past
  /// the end of the trace, so exhaustion happens at the same action.
  uint32_t localGrant() const override { return Pos ? Repeats[Pos - 1] : 0; }
  void tookLocal(uint32_t N) override { Pos += N; }

  /// True when the whole trace has been consumed.
  bool exhausted() const { return Pos >= Trace.size(); }

  /// Number of trace entries consumed so far.
  size_t consumed() const { return Pos; }

private:
  std::vector<Action> Trace;
  /// Repeats[I]: how many entries after I equal Trace[I], a step.
  std::vector<uint32_t> Repeats;
  size_t Pos = 0;
  bool Strict = true;
};

} // namespace dfence::sched

#endif // DFENCE_SCHED_REPLAYSCHEDULER_H
