//===- ExecPool.h - Partitionable worker pool for round execution -*- C++ -*-===//
//
// A synthesis round runs K independent executions (runExecution is
// deterministic given (module, client, config) and the module is read-only
// during a round), so the round is embarrassingly parallel. The ExecPool
// owns worker threads that live for a whole synthesis run (or daemon
// lifetime) and get handed one indexed batch of work per round.
//
// The pool is partitioned into one or more *slices* (PoolSlice): a
// contiguous subset of workers with its own claim counter, batch state
// and prefix-cancellation domain. A slice is the unit a single
// synthesize() call runs against — concurrent synthesize() calls each
// run on their own slice (the serve daemon gives slot I slice I), so
// nothing in the batch machinery is ever shared between concurrent
// requests. The single-slice pool (ExecPool(Jobs)) is the one-shot
// shape: callers run on slice(0).
//
// Each slice's one primitive, runOrdered, guarantees *prefix semantics*:
// indices are claimed in increasing order from the slice's counter, a
// claimed index always runs to completion, and cancellation only stops
// indices that have not been claimed yet. The set of executed indices is
// therefore always exactly [0, Cut) for the returned Cut — the same shape
// a sequential loop produces when it breaks on a budget check — which is
// what lets the synthesizer merge results in index order and stay
// bit-identical to the sequential engine at any thread count (and at any
// slicing: slice width only changes who runs an index, never which
// indices run or how they merge).
//
//===----------------------------------------------------------------------===//

#ifndef DFENCE_EXEC_EXECPOOL_H
#define DFENCE_EXEC_EXECPOOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace dfence::obs {
class Counter;
class Gauge;
class Histogram;
class TraceSink;
struct ObsContext;
} // namespace dfence::obs

namespace dfence::vm {
class ExecContext;
} // namespace dfence::vm

namespace dfence::exec {

class ExecPool;

/// Resolves a jobs request to a concrete worker count: 0 means "use the
/// hardware" (std::thread::hardware_concurrency, at least 1), any other
/// value is taken as-is.
unsigned resolveJobs(unsigned Requested);

/// Slice-relative index of the pool worker executing the current thread:
/// 0 for the runOrdered caller (and for any thread never owned by a
/// pool), 1..W-1 for the slice's spawned workers. Thread-local; valid
/// inside Body callbacks, where it picks the worker's counter shard and
/// persistent context.
unsigned currentWorker();

/// A contiguous partition of an ExecPool: its own worker threads, claim
/// counter, batch state and per-slot persistent vm::ExecContexts. One
/// slice serves one synthesize() call at a time; the slice owner is the
/// runOrdered caller (slice-relative worker 0).
class PoolSlice {
public:
  /// Slice parallelism, including the calling thread.
  unsigned jobs() const { return Width; }

  /// Position of this slice inside its pool (0-based).
  unsigned index() const { return SliceIndex; }

  /// Global index of this slice's worker 0 inside the pool: globally
  /// unique per-worker indices are base() + currentWorker(). Used where
  /// an identifier must not collide across concurrently running slices
  /// (profiler shards, trace thread ids).
  unsigned base() const { return WorkerBase; }

  /// Attaches (or detaches, with null) an observability context. Metric
  /// handles are resolved once here so the claim loop pays only a null
  /// check per event. The context must outlive the slice or the next
  /// setObs call. Per-slice: concurrent synthesize() calls on different
  /// slices never race on each other's handles. The claim counter is
  /// jobs-invariant (claims == the executed prefix); queue-wait /
  /// busy-time observations are wall-clock and live in gauges and
  /// histograms only.
  void setObs(const obs::ObsContext *O);

  /// Runs \p Body(I) for indices claimed in increasing order from
  /// [0, Count) across the slice's workers (the caller participates).
  /// When \p ShouldStop is non-null it is consulted before every claim;
  /// once it returns true no further index starts. Returns the cut index
  /// C: every I < C ran to completion before this call returned, no
  /// I >= C ran at all. \p Body and \p ShouldStop must be safe to call
  /// from multiple threads; all of Body's side effects are visible to
  /// the caller when runOrdered returns.
  size_t runOrdered(size_t Count, const std::function<void(size_t)> &Body,
                    const std::function<bool()> &ShouldStop = nullptr);

  /// The persistent execution context owned by slice slot \p Worker
  /// (slice-relative; 0 = the runOrdered caller). Inside a Body
  /// callback, workerContext(currentWorker()) is the context the current
  /// thread may use exclusively until Body returns — contexts are reused
  /// across every execution a slot claims over the pool's whole
  /// lifetime, so steady-state rounds allocate ~nothing. Never touch
  /// another slot's context from a Body.
  vm::ExecContext &workerContext(unsigned Worker);

  PoolSlice(const PoolSlice &) = delete;
  PoolSlice &operator=(const PoolSlice &) = delete;
  ~PoolSlice();

private:
  friend class ExecPool;
  PoolSlice(unsigned Width, unsigned SliceIndex, unsigned WorkerBase);

  /// Reuse telemetry: folds per-slot context stats into the gauges after
  /// a batch (jobs-variant values; gauges are excluded from the
  /// deterministic counter snapshot by design).
  void publishContextStats();

  void workerMain(unsigned Worker);
  void claimLoop(unsigned Worker);

  unsigned Width = 1;
  unsigned SliceIndex = 0;
  unsigned WorkerBase = 0;
  std::vector<std::thread> Workers; ///< Width - 1 threads.
  /// One persistent vm::ExecContext per slice slot, built in the
  /// constructor (construction is cheap — the arenas grow on first use)
  /// so Body callbacks can fetch theirs without synchronisation.
  std::vector<std::unique_ptr<vm::ExecContext>> Contexts;

  // Pre-resolved observability handles (all null when obs is off).
  obs::Counter *ClaimsC = nullptr;    ///< exec_pool_claims_total
  obs::Counter *BatchesC = nullptr;   ///< exec_pool_batches_total
  obs::Counter *CancelledC = nullptr; ///< exec_pool_cancelled_total
  obs::Gauge *BusyUsG = nullptr;      ///< exec_pool_busy_us (accumulated)
  obs::Gauge *WallUsG = nullptr;      ///< exec_pool_wall_us (accumulated)
  obs::Gauge *CtxReusesG = nullptr;   ///< exec_pool_context_reuses
  obs::Gauge *RegArenaHwG = nullptr;  ///< exec_pool_reg_arena_high_water
  obs::Histogram *QueueWaitH = nullptr; ///< exec_pool_queue_wait_us
  obs::TraceSink *Trace = nullptr;
  int64_t BatchStartUs = 0; ///< Trace timestamp of the current batch.

  std::mutex Mu;
  std::condition_variable WorkCv; ///< Wakes workers for a new batch.
  std::condition_variable DoneCv; ///< Wakes the caller when a batch ends.
  uint64_t Generation = 0;        ///< Batch counter; bumped per runOrdered.
  unsigned Busy = 0;              ///< Workers still inside this batch.
  bool ShuttingDown = false;

  // The current batch; written by the caller under Mu before workers are
  // woken, immutable until every worker reports done.
  size_t CurCount = 0;
  const std::function<void(size_t)> *CurBody = nullptr;
  const std::function<bool()> *CurStop = nullptr;
  std::atomic<size_t> Next{0};
  std::atomic<bool> Stopped{false};
};

/// A fixed partition of reusable worker threads into one or more
/// slices; each slice serves one caller at a time.
class ExecPool {
public:
  /// Creates a single-slice pool for \p Jobs-way parallelism (0 =
  /// hardware concurrency). Jobs == 1 spawns no threads at all:
  /// runOrdered then degenerates to an inline sequential loop on the
  /// caller's thread. This is the one-shot CLI / single-request shape.
  explicit ExecPool(unsigned Jobs);

  /// Creates a partitioned pool: \p Slices slices of \p JobsPerSlice
  /// workers each (both must be >= 1; no hardware resolution — the
  /// caller decides the partition). Total width is the product.
  ExecPool(unsigned Slices, unsigned JobsPerSlice);

  ExecPool(const ExecPool &) = delete;
  ExecPool &operator=(const ExecPool &) = delete;

  /// Total parallelism across all slices, including slice callers.
  unsigned jobs() const { return TotalJobs; }

  unsigned numSlices() const { return static_cast<unsigned>(Slices.size()); }

  PoolSlice &slice(unsigned I) { return *Slices[I]; }

private:
  unsigned TotalJobs = 1;
  std::vector<std::unique_ptr<PoolSlice>> Slices;
};

} // namespace dfence::exec

#endif // DFENCE_EXEC_EXECPOOL_H
