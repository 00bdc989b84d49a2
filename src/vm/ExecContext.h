//===- ExecContext.h - Long-lived, reusable execution engine ----*- C++ -*-===//
//
// The execution engine split for reuse: an ExecContext owns every piece of
// state one execution needs — the memory arena, the thread pool with a
// flat frame stack and a shared per-thread register arena, the store
// buffers, the repair and scheduler scratch vectors, the internal
// flush-delaying scheduler — and run() makes each execution a reset of
// that state instead of a rebuild. A context run K times allocates in its
// first few executions and then reaches a steady state where the hot loop
// allocates ~nothing (capacities are retained across runs).
//
// Determinism: run() is a pure function of (prepared program, client
// index, config) — the reuse is invisible in the result. Replay traces
// recorded by the previous per-run engine reproduce unchanged: scheduling
// and fault RNG streams, scheduler behavior and action validation are
// byte-for-byte the same.
//
// A context is single-threaded: callers running executions in parallel
// give each worker its own context (see exec::PoolSlice::workerContext).
//
//===----------------------------------------------------------------------===//

#ifndef DFENCE_VM_EXECCONTEXT_H
#define DFENCE_VM_EXECCONTEXT_H

#include "sched/RandomFlushScheduler.h"
#include "vm/Interp.h"
#include "vm/Prepared.h"

#include <chrono>
#include <memory>
#include <vector>

namespace dfence::obs {
struct ProfilerShard;
} // namespace dfence::obs

namespace dfence::vm {

/// Lifetime telemetry of one context; all values are reuse diagnostics
/// (jobs-variant — published as gauges, never counters).
struct ContextStats {
  uint64_t Executions = 0; ///< run() calls served by this context.
  uint64_t Reuses = 0;     ///< Executions after the first (reset, not built).
  size_t RegArenaHighWater = 0; ///< Max register-arena words of any thread.
  size_t ThreadHighWater = 0;   ///< Max live threads in any execution.
};

/// A reusable single-threaded execution engine.
class ExecContext {
public:
  ExecContext();
  ~ExecContext();
  ExecContext(const ExecContext &) = delete;
  ExecContext &operator=(const ExecContext &) = delete;

  /// Runs client \p ClientIdx of \p P under \p Cfg, filling \p Out (which
  /// is fully reset first; reusing one ExecResult keeps its capacities
  /// too). \p P must outlive the call; deterministic given the arguments.
  void run(const PreparedProgram &P, size_t ClientIdx,
           const ExecConfig &Cfg, ExecResult &Out);

  const ContextStats &stats() const { return CStats; }

  /// Attaches (or detaches, with null) the flight recorder's per-worker
  /// phase accumulator. Null — the default — keeps the hot loop free of
  /// clock reads (the recorder-off contract); non-null adds steady-clock
  /// phase attribution per scheduler iteration and one array increment
  /// per dispatched opcode. Profiling never changes an execution's
  /// observable result, and the shard is never part of any cache key.
  /// The shard must outlive every run() that observes it; the caller
  /// (exec::runRound) resets and flushes it around each execution.
  void setProfilerShard(obs::ProfilerShard *S) { PShard = S; }

private:
  struct Thread;

  // Per-run driver steps (the old per-execution engine, now operating on
  // reset-in-place state). The loops are templated over the memory model
  // `Model` (see ExecContext.cpp): every store-buffer call inlines against
  // the model's buffer class and every model comparison constant-folds.
  // run() binds the instantiation once per execution from Cfg.Model.
  template <MemModel Model> void runLoops();
  void layoutGlobals();
  /// Runs the client's init function alone, under SC.
  void runInit();
  void createClientThreads();
  template <MemModel Model> void mainLoopT();
  /// Re-reads Views[TI] from thread TI; true when the thread is
  /// schedulable (runnable or holding buffered stores).
  template <MemModel Model> bool refreshViewT(size_t TI);
  template <MemModel Model> void finalDrainT();
  void startNextCall(Thread &T);
  /// Steps \p T once, then takes up to \p Grant more of its steps while
  /// its next instruction is thread-local (a local run); each counts in
  /// Steps.
  template <MemModel Model> bool stepThreadT(Thread &T, uint32_t Grant = 0);
  template <MemModel Model> void flushOneT(Thread &T, bool HasVar, Word Var);
  template <MemModel Model> void drainForAtomicT(Thread &T, Word Addr);
  template <MemModel Model>
  void collectRepairsT(Thread &T, ir::InstrId K, Word Addr, bool IsLoad);
  bool deadlineExpired();
  bool allocFaultFires();
  template <MemModel Model> bool maybeFlushStormT();
  sched::Action applyForcedSwitch(sched::Action A);
  bool checkAddr(Word Addr, const char *What, ir::InstrId Label);
  void violate(Outcome O, std::string Msg);
  Thread &acquireThread(uint32_t Tid);

  /// The thread's buffer of model \p Model. Defined (and only used) in
  /// ExecContext.cpp.
  template <MemModel Model> static auto &bufOf(Thread &T);

  // Long-lived state, reset (not reallocated) per run.
  Memory Mem;
  std::vector<Word> GlobalAddrs;
  std::vector<std::unique_ptr<Thread>> Threads; ///< Pool; [0, LiveThreads) live.
  size_t LiveThreads = 0;
  std::unique_ptr<Thread> InitThread;
  std::vector<OrderingPredicate> Repairs; ///< Deduped at run end.
  std::vector<ir::InstrId> LabelScratch;
  std::vector<Word> ArgScratch;
  std::vector<sched::ThreadView> Views;
  /// Set at run start and by actions that change a thread other than the
  /// one taking them; the next iteration then re-reads every view.
  bool ViewsStale = true;
  std::vector<ir::InstrId> DeferredAt;
  sched::RandomFlushScheduler OwnedSched;
  ContextStats CStats;
  obs::ProfilerShard *PShard = nullptr; ///< Flight recorder; optional.

  // Per-run state (reinitialized by run()).
  const PreparedProgram *P = nullptr;
  const PreparedClient *PC = nullptr;
  ExecConfig Cfg;
  ExecResult *Result = nullptr;
  sched::Scheduler *Sched = nullptr;
  Rng R{0};
  Rng FaultR{0};
  uint64_t Seq = 0;
  size_t Steps = 0;
  uint64_t NoProgress = 0;
  bool Halted = false;
  uint64_t AllocAttempts = 0;
  std::chrono::steady_clock::time_point Deadline{};
};

} // namespace dfence::vm

#endif // DFENCE_VM_EXECCONTEXT_H
