//===- Interp.h - The extended interpreter (paper §5) -----------*- C++ -*-===//
//
// Executes an IR module under a chosen memory model (SC/TSO/PSO, paper
// Semantics 1), a demonic scheduler, and always-on memory-safety checking.
// Optionally runs the instrumented semantics (paper Semantics 2) that
// collects the ordering predicates able to repair the execution.
//
// This is the reproduction's stand-in for the paper's extended LLVM
// interpreter `lli` (multi-threading, relaxed memory models, scheduler
// plug-ins, specification hooks).
//
//===----------------------------------------------------------------------===//

#ifndef DFENCE_VM_INTERP_H
#define DFENCE_VM_INTERP_H

#include "ir/Module.h"
#include "sched/Scheduler.h"
#include "support/Rng.h"
#include "vm/Client.h"
#include "vm/FaultPlan.h"
#include "vm/History.h"
#include "vm/Memory.h"
#include "vm/Repair.h"
#include "vm/StoreBuffer.h"

#include <memory>
#include <string>

namespace dfence::vm {

/// How one execution ended.
enum class Outcome : uint8_t {
  Completed,  ///< All scripts ran to completion, buffers drained.
  StepLimit,  ///< Execution exceeded MaxSteps (discarded by synthesis).
  MemSafety,  ///< Memory-safety violation (null/OOB/use-after-free).
  AssertFail, ///< An Assert instruction observed zero.
  Deadlock,   ///< No schedulable thread while work remains, or the
              ///< scheduler produced an invalid action (stale replay).
  Timeout,    ///< Wall-clock watchdog expired (discarded, like StepLimit).
};

const char *outcomeName(Outcome O);

/// The interpreter has one dispatch: the per-model instantiation of its
/// step loop. This one-value type and ExecConfig::Dispatch (and
/// synth::SynthConfig::Dispatch) remain only because perfbench/driver.cpp
/// assigns the field and changes only together with the benchmark; no
/// code reads either field.
enum class DispatchMode : uint8_t { Specialized };

/// Per-execution configuration.
struct ExecConfig {
  MemModel Model = DefaultMemModel;
  /// Unread; see DispatchMode.
  DispatchMode Dispatch = DispatchMode::Specialized;
  uint64_t Seed = 1;
  size_t MaxSteps = 1 << 20;
  /// Collect ordering predicates (instrumented semantics).
  bool CollectRepairs = false;
  /// Also emit [store ≺ return] predicates when a top-level method
  /// returns with buffered stores (yields the paper's inter-operation
  /// "(m, line:-)" fences; disable for ablation).
  bool InterOpPredicates = true;
  /// Scheduler to use; when null a RandomFlushScheduler with FlushProb is
  /// created internally.
  sched::Scheduler *Sched = nullptr;
  double FlushProb = 0.5;
  bool PartialOrderReduction = true;
  /// Record the scheduler action sequence into ExecResult::Trace so the
  /// execution can be reproduced with a ReplayScheduler.
  bool RecordTrace = false;
  /// Wall-clock budget for the execution in milliseconds; 0 = unlimited.
  /// Checked every couple thousand steps; expiry yields Outcome::Timeout.
  uint32_t WallClockMs = 0;
  /// Adversarial fault plan (see vm/FaultPlan.h). Not owned; may be null.
  const FaultPlan *Faults = nullptr;
};

/// Cheap always-on per-execution telemetry: plain counters the engine
/// maintains unconditionally (each is one increment on an operation that
/// already does real work, so the obs-off overhead is unmeasurable). The
/// synthesis loop folds these into the metrics registry in
/// execution-index order, which makes the aggregated values bit-identical
/// at any --jobs width (see src/obs/Metrics.h).
struct ExecStats {
  uint64_t SchedSteps = 0;     ///< Thread-step actions taken.
  uint64_t SchedFlushes = 0;   ///< Flush actions the scheduler chose
                               ///< (the flush-delay knob at work).
  uint64_t Flushes = 0;        ///< Buffered stores committed to memory
                               ///< (all paths: scheduled, fence/CAS
                               ///< drains, final drain, storms).
  uint64_t BufferedStores = 0; ///< Stores that entered a write buffer.
  uint64_t StoreForwards = 0;  ///< Loads answered from the own buffer
                               ///< (the LOAD-B rule firing).
  uint32_t BufHighWater = 0;   ///< Max per-thread buffer occupancy seen.

  bool operator==(const ExecStats &) const = default;
};

/// The result of one execution.
struct ExecResult {
  Outcome Out = Outcome::Completed;
  History Hist;
  ExecStats Stats;
  /// Predicates collected along the execution (the repair disjunction).
  RepairDisjunction Repairs;
  std::string Message; ///< Violation diagnostics.
  size_t Steps = 0;
  /// Scheduler actions (filled when ExecConfig::RecordTrace).
  std::vector<sched::Action> Trace;
};

/// Runs \p Client against \p M under \p Cfg and returns the result. The
/// module is not modified. Deterministic given (module, client, config).
ExecResult runExecution(const ir::Module &M, const Client &Client,
                        const ExecConfig &Cfg);

/// Convenience: runs function \p Func single-threaded under SC with the
/// given arguments and returns its return value. Asserts on violations.
/// Useful for tests and for sequential sanity checks of the benchmarks.
Word runSequential(const ir::Module &M, const std::string &Func,
                   const std::vector<Word> &Args);

} // namespace dfence::vm

#endif // DFENCE_VM_INTERP_H
