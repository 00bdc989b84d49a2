//===- Server.h - The dfence synthesis-as-a-service daemon core -*- C++ -*-===//
//
// A long-lived Server owns the expensive, warm state one-shot runs throw
// away — one partitioned exec::ExecPool (persistent workers + per-worker
// ExecContexts, split into one slice per slot), one sharded
// cross-request cache::ShardedExecCache, one metrics registry — and N
// dispatcher *slots*, each a thread that pops admitted requests off a
// two-level priority queue and runs them on its own pool slice (slot I
// on slice I). Requests overlap across slots; parallelism *within* a
// request still comes from the slice fanning each round's K executions
// across its workers.
//
// Concurrency model (see docs/SERVICE.md):
//   * one slice per slot — concurrent synthesize() calls never share
//     batch state, per-worker contexts, or observability handles;
//   * the execution cache is sharded by request content fingerprint; a
//     request holds its shard's mutex for its whole run, so the cache's
//     "never used by concurrent synthesize() calls" contract becomes a
//     per-shard invariant (same-shard requests serialize, repeat
//     requests always find their warm shard regardless of scheduling);
//   * determinism is unchanged: a request's canonical result is
//     byte-identical to the one-shot CLI run of the same request —
//     results are jobs-invariant and cache hits replay recorded results,
//     so neither slicing nor interleaving can move a byte.
//
// Robustness core (the reason this daemon exists):
//   * bounded admission with explicit shed — see Admission.h; priority
//     orders dispatch, never admission;
//   * per-request deadlines armed at admission, threaded into in-flight
//     rounds via harness::Deadline (mid-round cancellation), so no
//     request outlives its deadline by more than one execution attempt;
//   * per-slot crash isolation — a request that throws is retried with
//     backoff (transient faults), then falls back to conservative
//     static fencing and answers `degraded: static_fencing` with a
//     crash report on disk; the slot (and the daemon) never dies with
//     it;
//   * graceful drain — beginDrain() stops admission, queued work still
//     completes (or deadlines out), drain() joins every slot.
//
// Threading: submit() may be called from any one transport thread;
// responses for admitted work are delivered on the running slot's
// thread; inline ops (ping/stats/status/shutdown and every rejection)
// are answered on the submitting thread before submit() returns — which
// is what makes "status" usable as live introspection while requests
// run.
//
//===----------------------------------------------------------------------===//

#ifndef DFENCE_SERVE_SERVER_H
#define DFENCE_SERVE_SERVER_H

#include "cache/ExecCache.h"
#include "exec/ExecPool.h"
#include "obs/Obs.h"
#include "serve/Admission.h"
#include "serve/Protocol.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace dfence::serve {

struct ServeConfig {
  /// Total pool width budget; 0 = hardware concurrency. With the default
  /// single slot, a request's result is what the one-shot CLI produces
  /// at --jobs N (results are jobs-invariant, so this holds at any
  /// slicing).
  unsigned Jobs = 0;
  /// Concurrent dispatcher slots; each slot runs on its own pool slice.
  /// 1 = the serial dispatcher (the pre-partition daemon shape).
  unsigned Slots = 1;
  /// Pool-slice width per slot; 0 = divide the resolved Jobs budget
  /// evenly across slots (at least 1 per slot).
  unsigned JobsPerSlot = 0;
  /// Admission queue capacity; request N+1 while N are queued is shed
  /// with `rejected: queue_full`. Shared by both priority levels.
  size_t QueueCapacity = 16;
  /// Deadline applied to requests that do not carry their own
  /// "deadlineMs"; 0 = no default deadline.
  uint32_t DefaultDeadlineMs = 0;
  /// Crash-isolation retry budget: how many times a request that threw
  /// is re-run (transient faults) before degrading to static fencing.
  unsigned RequestRetries = 1;
  /// Backoff before retry attempt k: RetryBackoffMs << k milliseconds.
  uint32_t RetryBackoffMs = 50;
  /// Master switch for the shared cross-request execution cache
  /// (requests can individually opt out with "cache":"off").
  bool CacheEnabled = true;
  size_t CacheCapacity = 1 << 15; ///< Executions, split across shards.
  /// Directory for crash reports and captured repro bundles; empty
  /// disables the on-disk reports (responses still carry the status).
  std::string CrashDir;
  /// Start with every dispatcher slot held (tests use this to make
  /// overload, priority and drain scenarios deterministic); resume()
  /// releases them.
  bool StartPaused = false;
  /// Optional external observability context. Null: the server uses its
  /// own private metrics registry (reachable via registry()).
  const obs::ObsContext *Obs = nullptr;
  /// Slow-request threshold: a request whose end-to-end time (queue wait
  /// included) exceeds this emits one structured warn log line with the
  /// request id, op, slot, outcome and timing breakdown. 0 disables.
  uint32_t SlowMs = 0;
};

class Server {
public:
  explicit Server(const ServeConfig &C);
  ~Server(); ///< Drains (resuming if paused) and joins every slot.

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Handles one request line: parses, answers inline ops and every
  /// rejection synchronously via \p Respond, enqueues synth/bench work
  /// (whose response arrives later, on a dispatcher slot's thread). \p
  /// Respond must be callable from any of those threads; it is invoked
  /// exactly once per submit.
  void submit(const std::string &Line, std::function<void(Json)> Respond);

  /// Holds every dispatcher slot before it claims the next request /
  /// releases them. Pausing does not interrupt requests already running.
  void pause();
  void resume();

  /// Stops admitting new work; queued work still runs. Idempotent.
  void beginDrain();
  bool draining() const { return Queue.draining(); }

  /// beginDrain + resume + join all slots: returns once every admitted
  /// request has been answered. Idempotent.
  void drain();

  /// Daemon statistics snapshot (the "stats" op's payload), including
  /// per-shard execution-cache occupancy.
  Json statsJson() const;

  /// Live introspection snapshot (the "status" op's payload): queue
  /// depth/capacity, drain state, and a per-slot listing ("slots": one
  /// entry per dispatcher slot with its active request, elapsed
  /// milliseconds and priority). Answered inline on the submitting
  /// thread, so it works mid-request by construction.
  Json statusJson() const;

  /// The metrics registry serve_* metrics land in (the external one
  /// when ServeConfig::Obs carries a registry, else the private one) —
  /// the Prometheus endpoint scrapes this.
  obs::Registry &registry() { return Reg; }

  unsigned jobs() const { return Pool.jobs(); }
  unsigned slots() const { return NumSlots; }
  unsigned jobsPerSlot() const { return SlotJobs; }
  cache::ShardedExecCache &execCache() { return Cache; }

private:
  void dispatcherMain(unsigned Slot);
  void waitWhilePaused();
  /// Runs one admitted request on \p Slot with isolation, retries and
  /// deadline enforcement; returns the response object.
  Json runJob(Pending &P, unsigned Slot);
  /// Writes captured bundles / a crash report; returns the paths (empty
  /// when CrashDir is unset).
  std::vector<std::string>
  writeBundles(const std::string &RequestId,
               const std::vector<harness::ReproBundle> &Bundles);
  std::string writeCrashReport(const Pending &P, const std::string &Why);

  ServeConfig Cfg;
  obs::Registry OwnReg;           ///< Used when Cfg.Obs has no registry.
  obs::ObsContext OwnObs;         ///< {&OwnReg, null, null}.
  const obs::ObsContext *Obs;     ///< What requests run under.
  obs::Registry &Reg;             ///< Where serve_* metrics live.
  unsigned NumSlots;              ///< Resolved dispatcher slot count.
  unsigned SlotJobs;              ///< Resolved slice width per slot.
  exec::ExecPool Pool;            ///< NumSlots slices × SlotJobs workers.
  cache::ShardedExecCache Cache;  ///< One shard per slot's worth of work.
  AdmissionQueue Queue;

  // Pre-resolved serve metrics (always non-null; Reg outlives them).
  obs::Counter &RequestsC, &AdmittedC, &ShedC, &DrainRejC, &CompletedC,
      &TimeoutsC, &DegradedC, &ErrorsC, &CrashesC, &RetriesC,
      &SlotLeasesC, &ShardWaitsC, &AdmittedHighC;
  obs::Gauge &QueueDepthG, &InflightG, &SlotsBusyG;
  obs::Histogram &RequestUsH, &QueueWaitUsH;
  /// Per-outcome latency split: the registry has no label support, so
  /// the outcome rides in the metric name (serve_run_us_ok, ..._timeout,
  /// ..._degraded, ..._error; serve_e2e_us_* adds _shed/_draining for
  /// requests rejected before running). Resolved on first use.
  obs::Histogram &outcomeHistogram(const char *Kind, const char *Outcome);

  /// What each dispatcher slot is running right now. Read by
  /// statusJson() from the submitting thread, hence the mutex.
  struct ActiveInfo {
    uint64_t Seq = 0;
    std::string Id;
    const char *Op = "synth";
    bool High = false;
    std::chrono::steady_clock::time_point Start{};
  };
  mutable std::mutex ActiveMu;
  std::vector<std::optional<ActiveInfo>> Active; ///< Indexed by slot.
  unsigned BusySlots = 0; ///< Guarded by ActiveMu.

  std::mutex PauseMu;
  std::condition_variable PauseCv;
  bool Paused = false;

  std::atomic<uint64_t> Seq{0};
  std::vector<std::thread> Dispatchers; ///< One thread per slot.
  std::mutex JoinMu; ///< Serializes drain()/~Server join.
  bool Joined = false;
};

} // namespace dfence::serve

#endif // DFENCE_SERVE_SERVER_H
