//===- RoundRunner.cpp - One fully pre-planned synthesis round ------------===//

#include "exec/RoundRunner.h"

#include "obs/Obs.h"
#include "vm/ExecContext.h"

#include <cassert>

using namespace dfence;
using namespace dfence::exec;

RoundResult exec::runRound(PoolSlice &Slice, const vm::PreparedProgram &P,
                           const RoundPlan &Plan,
                           const harness::ExecPolicy &Policy,
                           const SlotJudge &Judge,
                           const std::function<bool()> &Stop,
                           const obs::ObsContext *Obs,
                           const harness::Deadline &DL) {
  obs::TraceSink *Trace = obs::traceOrNull(Obs);
  obs::Profiler *Prof = obs::profilerOrNull(Obs);
  RoundResult RR;
  RR.Slots = Slice.roundSlots(Plan.Slots.size());
  RR.Ran = Slice.runOrdered(
      Plan.Slots.size(),
      [&](size_t I) {
        const ExecPlan &EP = Plan.Slots[I];
        assert(EP.ClientIdx < P.numClients());
        RoundSlot &S = RR.Slots[I];
        unsigned Worker = currentWorker();
        // Pool-global identity for anything shared across concurrently
        // running slices: trace tracks and profiler counter shards must
        // not collide between slices, while worker contexts stay
        // slice-relative.
        unsigned GWorker = Slice.base() + Worker;
        OBS_SPAN(SlotSpan, Trace, "slot", "exec", GWorker);
        // Each slot runs on its pool worker's persistent context; the
        // context carries the arenas across executions, so steady-state
        // slots are reset-and-go rather than build-and-tear-down. The
        // context outlives rounds, so every slot sets its step counting,
        // on or off.
        vm::ExecContext &EC = Slice.workerContext(Worker);
        EC.countOpSteps(Prof != nullptr);
        auto ExecT0 = Prof ? std::chrono::steady_clock::now()
                           : std::chrono::steady_clock::time_point{};
        harness::runSupervised(P, EP.ClientIdx, EC, EP.EC, Policy, DL,
                               S.SE);
        uint64_t ExecNs = Prof ? obs::nsSince(ExecT0) : 0;
        // The slot's storage is reused: reset what the judge may leave
        // unset.
        const vm::ExecResult &R = S.SE.Result;
        S.Rec.Violating = false;
        S.Rec.CheckOutOfBudget = false;
        S.Violation.clear();
        // Discarded executions are counted, never judged; everything else
        // is judged here so the (possibly exponential) spec check also
        // runs off the merge thread.
        uint64_t CheckNs = 0;
        if (!S.SE.Discarded && Judge) {
          auto CheckT0 = Prof ? std::chrono::steady_clock::now()
                              : std::chrono::steady_clock::time_point{};
          Judge(R, S);
          if (Prof)
            CheckNs = obs::nsSince(CheckT0);
        }
        SlotRecord &Rec = S.Rec;
        Rec.Stats = R.Stats;
        Rec.Steps = R.Steps;
        Rec.Attempts = S.SE.Attempts;
        Rec.NumRepairs = Rec.Violating && !S.SE.Discarded
                             ? static_cast<uint32_t>(R.Repairs.size())
                             : 0;
        Rec.Out = R.Out;
        Rec.Discarded = S.SE.Discarded;
        Rec.TimedOut = S.SE.TimedOut;
        if (Prof)
          Prof->flushExec(ExecNs, CheckNs, EC.opSteps(), GWorker);
        if (Trace) {
          SlotSpan.arg("index", static_cast<uint64_t>(I));
          SlotSpan.arg("seed", EP.EC.Seed);
          SlotSpan.arg("outcome", std::string(vm::outcomeName(R.Out)));
          SlotSpan.arg("steps", static_cast<uint64_t>(R.Steps));
          SlotSpan.arg("attempts", static_cast<uint64_t>(S.SE.Attempts));
          if (!S.Violation.empty())
            SlotSpan.arg("violation", S.Violation);
        }
      },
      Stop);
  // Slots past the cut did not run; clear what an earlier round left in
  // them.
  for (RoundSlot &S : RR.Slots.subspan(RR.Ran))
    S = RoundSlot();
  return RR;
}

RoundResult exec::runRound(PoolSlice &Slice, const vm::PreparedProgram &P,
                           const RoundPlan &Plan,
                           const harness::ExecPolicy &Policy,
                           const ViolationCheck &Check,
                           const std::function<bool()> &Stop,
                           const obs::ObsContext *Obs,
                           const harness::Deadline &DL) {
  SlotJudge Judge;
  if (Check)
    Judge = [&Check](const vm::ExecResult &R, RoundSlot &S) {
      S.Violation = Check(R);
      S.Rec.Violating = !S.Violation.empty();
    };
  return runRound(Slice, P, Plan, Policy, Judge, Stop, Obs, DL);
}
