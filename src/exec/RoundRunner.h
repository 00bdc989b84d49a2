//===- RoundRunner.h - One fully pre-planned synthesis round ----*- C++ -*-===//
//
// The bridge between the synthesis loop and the ExecPool. The synthesizer
// builds one vm::PreparedProgram per round (client names resolved, frame
// sizes precomputed) and plans the whole round up front — one ExecPlan per
// execution slot, with the seed, client and flush probability all derived
// from the slot's index before anything runs — and runRound fans the
// slots across the pool. Each worker runs its slots on the pool slot's
// persistent vm::ExecContext (harness::runSupervised's prepared overload;
// contexts are never shared between slots) plus the violation check (spec
// checking is a pure function of the execution result, and is often the
// most expensive per-execution step, so it belongs on the workers).
//
// Results land in the slice's slot storage, indexed by execution index.
// The storage belongs to the PoolSlice, next to its ExecContexts: it grows
// to the largest round the slice has run and is reused by every later
// round, so each slot's history, repair and trace buffers keep their
// capacity across rounds and requests, and nothing is freed on the merge
// thread. The caller merges the slots in index order, which makes the
// aggregate bit-identical to running the same plan sequentially: prefix
// cancellation (ExecPool) plus ordered merge is the engine's whole
// determinism contract.
//
//===----------------------------------------------------------------------===//

#ifndef DFENCE_EXEC_ROUNDRUNNER_H
#define DFENCE_EXEC_ROUNDRUNNER_H

#include "exec/ExecPool.h"
#include "harness/Harness.h"
#include "vm/Client.h"
#include "vm/Interp.h"
#include "vm/Prepared.h"

#include <functional>
#include <span>
#include <string>
#include <vector>

namespace dfence::exec {

/// Everything about one execution slot, decided before the round starts.
struct ExecPlan {
  vm::ExecConfig EC;
  uint32_t ClientIdx = 0; ///< Index into the round's client vector.
};

/// A whole round's worth of slots. Slot I of round R must be planned from
/// the *nominal* global execution index (R-1)*K + I — never from mutable
/// run state such as the number of executions that actually ran — so a
/// truncated round cannot shift the seed/client/flush streams of later
/// rounds.
struct RoundPlan {
  std::vector<ExecPlan> Slots;
};

/// The compact record of one executed slot: everything the synthesizer's
/// merge fold reads besides the slot's repair predicates and the text of a
/// violation. A fresh round's fold reads it from the slot; a stored round
/// (cache::ExecCache) keeps only these records, the repairs of its
/// violating slots and its first violation's text, and is folded from
/// exactly the same records.
struct SlotRecord {
  vm::ExecStats Stats;
  uint64_t Steps = 0;
  uint32_t Attempts = 1;
  /// Length of the slot's repair disjunction when it is a judged
  /// violation; 0 for every other slot, whose repairs nothing reads.
  uint32_t NumRepairs = 0;
  vm::Outcome Out = vm::Outcome::Completed;
  bool Discarded = false;
  bool TimedOut = false;
  /// The judge found a violation.
  bool Violating = false;
  /// The check's search ran out of its state budget and accepted the
  /// execution (spec::CheckResult::OutOfBudget).
  bool CheckOutOfBudget = false;

  bool operator==(const SlotRecord &) const = default;
};

/// What one slot produced.
struct RoundSlot {
  harness::SupervisedExec SE;
  /// Filled once the slot is judged; Violating and CheckOutOfBudget are
  /// the judge's, the rest is copied from SE.
  SlotRecord Rec;
  /// Violation diagnostics; empty when the execution was acceptable or
  /// discarded, and also for a violating slot whose judge left the
  /// description to the caller (see SlotJudge).
  std::string Violation;
};

struct RoundResult {
  /// The slice's slot storage, sized like the plan; only [0, Ran) hold
  /// results, the cancelled tail is reset. A view: valid until the next
  /// runRound on the same slice.
  std::span<RoundSlot> Slots;
  /// Executed prefix length: slots [0, Ran) ran, the rest were cancelled
  /// by the stop predicate before starting.
  size_t Ran = 0;
};

/// Judges one (non-discarded) execution result; returns violation
/// diagnostics or empty. Called concurrently from pool workers, so it
/// must be thread-safe (the synthesizer's checkExecution is: it only
/// reads the config and builds local checker state).
using ViolationCheck = std::function<std::string(const vm::ExecResult &)>;

/// Judges one (non-discarded) execution into its slot: sets Rec.Violating
/// and Rec.CheckOutOfBudget, and Violation only if it describes the violation
/// itself. The synthesizer's judge describes nothing on the workers (bar
/// traced runs, whose slot spans carry the text); its merge thread
/// describes the few violations a result reports. Same thread-safety
/// contract as ViolationCheck.
using SlotJudge = std::function<void(const vm::ExecResult &, RoundSlot &)>;

/// Runs \p Plan against prepared program \p P (read-only for the whole
/// round; its module and clients must stay alive and unmodified until
/// runRound returns) on pool slice \p Slice, which the caller must hold
/// exclusively for the duration (the one-shot path uses the pool's only
/// slice; the serve daemon gives each dispatcher slot its own). The
/// result's slots are the slice's storage (PoolSlice::roundSlots). \p Stop
/// may be null; when it fires, not-yet-started slots are cancelled and the
/// result is the executed prefix. When \p Obs carries a trace sink,
/// every slot emits a "slot" span on its worker's trace track
/// (tid = Slice.base() + currentWorker(), globally unique across
/// concurrently running slices) with the slot index, seed, outcome and
/// retry count as args.
///
/// \p DL is the round's wall-clock deadline. Unlike \p Stop (which only
/// cancels slots that have not started), an armed deadline is threaded
/// into every in-flight execution: each attempt's watchdog is capped at
/// the time remaining, so cancellation fires mid-round — a slot that is
/// already running times out instead of overrunning. Completed slots
/// stay bit-identical (the watchdog only decides timeout-vs-complete).
RoundResult runRound(PoolSlice &Slice, const vm::PreparedProgram &P,
                     const RoundPlan &Plan,
                     const harness::ExecPolicy &Policy,
                     const SlotJudge &Judge,
                     const std::function<bool()> &Stop = nullptr,
                     const obs::ObsContext *Obs = nullptr,
                     const harness::Deadline &DL = {});

/// runRound with a check that describes every violation it finds (a slot
/// is violating when its description is non-empty).
RoundResult runRound(PoolSlice &Slice, const vm::PreparedProgram &P,
                     const RoundPlan &Plan,
                     const harness::ExecPolicy &Policy,
                     const ViolationCheck &Check,
                     const std::function<bool()> &Stop = nullptr,
                     const obs::ObsContext *Obs = nullptr,
                     const harness::Deadline &DL = {});

} // namespace dfence::exec

#endif // DFENCE_EXEC_ROUNDRUNNER_H
