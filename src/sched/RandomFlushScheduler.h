//===- RandomFlushScheduler.h - Flush-delaying demonic scheduler -*- C++ -*-===//
//
// The paper's scheduler (§5.2): at each scheduling point an enabled thread
// is selected at random; if the selected thread has pending buffered
// stores, the scheduler flushes one with probability FlushProb and
// otherwise lets the thread step. Small flush probabilities delay stores
// and expose relaxed behaviours. A partial-order reduction keeps a thread
// running while it only touches thread-local state.
//
//===----------------------------------------------------------------------===//

#ifndef DFENCE_SCHED_RANDOMFLUSHSCHEDULER_H
#define DFENCE_SCHED_RANDOMFLUSHSCHEDULER_H

#include "sched/Scheduler.h"

namespace dfence::sched {

/// Configuration of the flush-delaying demonic scheduler.
struct RandomFlushConfig {
  /// Probability that a selected thread with a non-empty buffer flushes
  /// one entry instead of stepping. The paper finds ~0.5 optimal for PSO
  /// and ~0.1 for TSO.
  double FlushProb = 0.5;
  /// Keep scheduling the same thread while it executes thread-local
  /// instructions (the paper's partial-order reduction).
  bool PartialOrderReduction = true;
};

class RandomFlushScheduler final : public Scheduler {
public:
  /// Safety valve: maximum consecutive local steps before a forced
  /// rescheduling point.
  static constexpr uint32_t MaxLocalStreak = 128;

  explicit RandomFlushScheduler(RandomFlushConfig Cfg = {});
  ~RandomFlushScheduler() override;

  /// Replaces the configuration (a reusable execution context owns one
  /// scheduler for its lifetime and reconfigures it per run). Call
  /// reset() afterwards, as before any execution.
  void configure(RandomFlushConfig NewCfg) { Cfg = NewCfg; }

  /// Inline so an engine that binds this final class statically keeps
  /// the common partial-order-reduction step out of any call.
  Action pick(const std::vector<ThreadView> &Threads, Rng &R) override {
    // Partial-order reduction: a thread executing purely local
    // instructions cannot interact with other threads, so keep running it.
    if (LastTid < Threads.size() && localGrant() > 0) {
      const ThreadView &T = Threads[LastTid];
      if (T.Runnable && !T.NextIsShared) {
        tookLocal(1);
        return Action::step(LastTid);
      }
    }
    return pickRandom(Threads, R);
  }
  void reset() override;

  /// How many more thread-local steps the partial-order reduction grants
  /// the thread that stepped last before it forces a random pick: 0 with
  /// the reduction off. This is the one POR rule — pick() follows it, and
  /// the engine uses it to run a thread through its local steps without
  /// calling pick() for each (every such step is one pick() would make).
  uint32_t localGrant() const override {
    return Cfg.PartialOrderReduction ? MaxLocalStreak - LocalStreak : 0;
  }
  void tookLocal(uint32_t N) override { LocalStreak += N; }

private:
  /// A random schedulable thread, and whether it steps or flushes.
  Action pickRandom(const std::vector<ThreadView> &Threads, Rng &R);

  RandomFlushConfig Cfg;
  uint32_t LastTid = ~0u;
  uint32_t LocalStreak = 0;
};

} // namespace dfence::sched

#endif // DFENCE_SCHED_RANDOMFLUSHSCHEDULER_H
