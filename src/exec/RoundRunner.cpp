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
  RR.Slots.resize(Plan.Slots.size());
  RR.Ran = Slice.runOrdered(
      Plan.Slots.size(),
      [&](size_t I) {
        const ExecPlan &EP = Plan.Slots[I];
        assert(EP.ClientIdx < P.numClients());
        RoundSlot &S = RR.Slots[I];
        unsigned Worker = currentWorker();
        // Pool-global identity for anything shared across concurrently
        // running slices: profiler shards and trace tracks must not
        // collide between slices, while counter shards and worker
        // contexts stay slice-relative.
        unsigned GWorker = Slice.base() + Worker;
        OBS_SPAN(SlotSpan, Trace, "slot", "exec", GWorker);
        // Flight recorder: attach (or detach) this worker's phase shard
        // before every slot — the persistent context outlives rounds, so
        // a run without a profiler must clear a previously attached
        // shard. Exec wall time is measured here; the in-loop phases
        // accumulate inside run(), and ExecOther absorbs the remainder
        // at flush so the per-execution attribution is total.
        vm::ExecContext &EC = Slice.workerContext(Worker);
        obs::ProfilerShard *Shard =
            Prof ? &Prof->shard(GWorker) : nullptr;
        EC.setProfilerShard(Shard);
        std::chrono::steady_clock::time_point ProfT0{};
        if (Shard) {
          Shard->reset();
          ProfT0 = std::chrono::steady_clock::now();
        }
        // Each slot runs on its pool worker's persistent context; the
        // context carries the arenas across executions, so steady-state
        // slots are reset-and-go rather than build-and-tear-down.
        S.SE = harness::runSupervised(P, EP.ClientIdx, EC, EP.EC, Policy,
                                      DL);
        uint64_t ExecWallNs =
            Shard ? obs::ProfilerShard::elapsedNs(
                        ProfT0, std::chrono::steady_clock::now())
                  : 0;
        // Discarded executions are counted, never judged; everything else
        // is judged here so the (possibly exponential) spec check also
        // runs off the merge thread.
        if (!S.SE.Discarded && Judge) {
          std::chrono::steady_clock::time_point CheckT0{};
          if (Shard)
            CheckT0 = std::chrono::steady_clock::now();
          Judge(S.SE.Result, S);
          if (Shard)
            Shard->addNs(obs::Phase::SpecCheck,
                         obs::ProfilerShard::elapsedNs(
                             CheckT0, std::chrono::steady_clock::now()));
        }
        if (Shard)
          Prof->flushExec(*Shard, ExecWallNs, GWorker);
        if (Trace) {
          SlotSpan.arg("index", static_cast<uint64_t>(I));
          SlotSpan.arg("seed", EP.EC.Seed);
          SlotSpan.arg("outcome",
                       std::string(vm::outcomeName(S.SE.Result.Out)));
          SlotSpan.arg("steps",
                       static_cast<uint64_t>(S.SE.Result.Steps));
          SlotSpan.arg("attempts", static_cast<uint64_t>(S.SE.Attempts));
          if (!S.Violation.empty())
            SlotSpan.arg("violation", S.Violation);
        }
      },
      Stop);
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
      S.Violating = !S.Violation.empty();
    };
  return runRound(Slice, P, Plan, Policy, Judge, Stop, Obs, DL);
}
