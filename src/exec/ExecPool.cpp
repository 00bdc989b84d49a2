//===- ExecPool.cpp - Partitionable worker pool for round execution -------===//

#include "exec/ExecPool.h"

#include "exec/RoundRunner.h"
#include "obs/Obs.h"
#include "support/StringUtils.h"
#include "vm/ExecContext.h"

#include <algorithm>
#include <cassert>
#include <chrono>

using namespace dfence;
using namespace dfence::exec;

unsigned exec::resolveJobs(unsigned Requested) {
  if (Requested != 0)
    return Requested;
  unsigned HW = std::thread::hardware_concurrency();
  return HW == 0 ? 1 : HW;
}

namespace {

thread_local unsigned TlsWorker = 0;

/// Monotonic microseconds; only read when a timing sink is attached.
int64_t monoUs() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

} // namespace

unsigned exec::currentWorker() { return TlsWorker; }

vm::ExecContext &PoolSlice::workerContext(unsigned Worker) {
  assert(Worker < Contexts.size() && "not a slice worker index");
  return *Contexts[Worker];
}

std::span<RoundSlot> PoolSlice::roundSlots(size_t N) {
  if (RoundSlots.size() < N)
    RoundSlots.resize(N);
  return {RoundSlots.data(), N};
}

void PoolSlice::publishContextStats() {
  if (!CtxReusesG && !RegArenaHwG)
    return;
  uint64_t Reuses = 0;
  size_t RegHw = 0;
  for (const auto &C : Contexts) {
    Reuses += C->stats().Reuses;
    RegHw = std::max(RegHw, C->stats().RegArenaHighWater);
  }
  if (CtxReusesG)
    CtxReusesG->set(static_cast<double>(Reuses));
  if (RegArenaHwG)
    RegArenaHwG->max(static_cast<double>(RegHw));
}

PoolSlice::PoolSlice(unsigned Width, unsigned SliceIndex,
                     unsigned WorkerBase)
    : Width(Width), SliceIndex(SliceIndex), WorkerBase(WorkerBase) {
  assert(Width >= 1 && "a slice needs at least its caller");
  Contexts.reserve(Width);
  for (unsigned I = 0; I < Width; ++I)
    Contexts.push_back(std::make_unique<vm::ExecContext>());
  Workers.reserve(Width - 1);
  for (unsigned I = 1; I < Width; ++I)
    Workers.emplace_back([this, I] { workerMain(I); });
}

PoolSlice::~PoolSlice() {
  {
    std::lock_guard<std::mutex> L(Mu);
    ShuttingDown = true;
  }
  WorkCv.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void PoolSlice::setObs(const obs::ObsContext *O) {
  ClaimsC = obs::counterOrNull(O, "exec_pool_claims_total");
  BatchesC = obs::counterOrNull(O, "exec_pool_batches_total");
  CancelledC = obs::counterOrNull(O, "exec_pool_cancelled_total");
  BusyUsG = obs::gaugeOrNull(O, "exec_pool_busy_us");
  WallUsG = obs::gaugeOrNull(O, "exec_pool_wall_us");
  CtxReusesG = obs::gaugeOrNull(O, "exec_pool_context_reuses");
  RegArenaHwG = obs::gaugeOrNull(O, "exec_pool_reg_arena_high_water");
  QueueWaitH = obs::histogramOrNull(O, "exec_pool_queue_wait_us");
  Trace = obs::traceOrNull(O);
  if (Trace) {
    // Trace thread ids are pool-global (base + relative index) so
    // concurrently running slices get disjoint tracks. Slice 0 keeps the
    // pre-partition names.
    if (SliceIndex == 0)
      Trace->setThreadName(WorkerBase, "merge");
    else
      Trace->setThreadName(WorkerBase, strformat("s%u-merge", SliceIndex));
    for (unsigned I = 1; I < Width; ++I)
      Trace->setThreadName(WorkerBase + I,
                           SliceIndex == 0
                               ? strformat("worker-%u", I)
                               : strformat("s%u-worker-%u", SliceIndex, I));
  }
}

void PoolSlice::claimLoop(unsigned Worker) {
  TlsWorker = Worker;
  // One occupancy span per worker per batch: its extent is the worker's
  // active window in this batch, its args the work it actually did.
  OBS_SPAN(WorkerSpan, Trace, "worker", "pool", WorkerBase + Worker);
  const bool Timing = BusyUsG || QueueWaitH;
  uint64_t Claims = 0;
  for (;;) {
    // Check the sticky stop flag first so that after one worker observes
    // an expired budget the others stop claiming without re-reading the
    // clock themselves.
    if (Stopped.load(std::memory_order_acquire))
      break;
    if (CurStop && *CurStop && (*CurStop)()) {
      Stopped.store(true, std::memory_order_release);
      break;
    }
    // Claim-then-run: a handed-out index always executes, so the executed
    // set is a contiguous prefix of [0, Count) whatever the interleaving.
    size_t I = Next.fetch_add(1, std::memory_order_relaxed);
    if (I >= CurCount)
      break;
    ++Claims;
    if (ClaimsC)
      ClaimsC->add(1, WorkerBase + Worker);
    if (Timing) {
      int64_t T0 = monoUs();
      if (QueueWaitH)
        QueueWaitH->observe(static_cast<double>(T0 - BatchStartUs));
      (*CurBody)(I);
      if (BusyUsG)
        BusyUsG->add(static_cast<double>(monoUs() - T0));
    } else {
      (*CurBody)(I);
    }
  }
  WorkerSpan.arg("claims", Claims);
  TlsWorker = 0;
}

void PoolSlice::workerMain(unsigned Worker) {
  uint64_t SeenGen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> L(Mu);
      WorkCv.wait(L,
                  [&] { return ShuttingDown || Generation != SeenGen; });
      if (ShuttingDown)
        return;
      SeenGen = Generation;
    }
    claimLoop(Worker);
    {
      std::lock_guard<std::mutex> L(Mu);
      if (--Busy == 0)
        DoneCv.notify_one();
    }
  }
}

size_t PoolSlice::runOrdered(size_t Count,
                             const std::function<void(size_t)> &Body,
                             const std::function<bool()> &ShouldStop) {
  OBS_COUNT(BatchesC, 1);
  const bool Timing = BusyUsG || WallUsG || QueueWaitH;
  int64_t WallT0 = Timing ? monoUs() : 0;
  BatchStartUs = WallT0;
  if (Workers.empty()) {
    // Width == 1: the plain sequential loop, byte-for-byte the shape the
    // pre-pool synthesizer ran (plus at most a clock read per iteration
    // when timing sinks are attached).
    size_t I = 0;
    for (; I != Count; ++I) {
      if (ShouldStop && ShouldStop())
        break;
      if (ClaimsC)
        ClaimsC->add(1);
      if (QueueWaitH)
        QueueWaitH->observe(static_cast<double>(monoUs() - WallT0));
      Body(I);
    }
    OBS_COUNT(CancelledC, Count - I);
    if (Timing) {
      double Wall = static_cast<double>(monoUs() - WallT0);
      if (WallUsG)
        WallUsG->add(Wall);
      // Sequentially, the caller is busy for the whole batch.
      if (BusyUsG)
        BusyUsG->add(Wall);
    }
    publishContextStats();
    return I;
  }

  {
    std::lock_guard<std::mutex> L(Mu);
    CurCount = Count;
    CurBody = &Body;
    CurStop = &ShouldStop;
    Next.store(0, std::memory_order_relaxed);
    Stopped.store(false, std::memory_order_relaxed);
    Busy = static_cast<unsigned>(Workers.size());
    ++Generation;
  }
  WorkCv.notify_all();
  claimLoop(0); // The caller is a worker too.
  {
    std::unique_lock<std::mutex> L(Mu);
    DoneCv.wait(L, [&] { return Busy == 0; });
    CurBody = nullptr;
    CurStop = nullptr;
  }
  if (WallUsG)
    WallUsG->add(static_cast<double>(monoUs() - WallT0));
  // Every claim below Count ran; claims are consecutive, so the executed
  // prefix ends at the final counter value (workers overshoot past Count
  // or past the stop point, never below it).
  size_t Cut = std::min(Next.load(std::memory_order_relaxed), Count);
  OBS_COUNT(CancelledC, Count - Cut);
  publishContextStats();
  return Cut;
}

ExecPool::ExecPool(unsigned Jobs) : TotalJobs(resolveJobs(Jobs)) {
  Slices.push_back(std::unique_ptr<PoolSlice>(
      new PoolSlice(TotalJobs, /*SliceIndex=*/0, /*WorkerBase=*/0)));
}

ExecPool::ExecPool(unsigned NumSlices, unsigned JobsPerSlice) {
  assert(NumSlices >= 1 && JobsPerSlice >= 1 &&
         "partitioned pool needs explicit positive dimensions");
  TotalJobs = NumSlices * JobsPerSlice;
  Slices.reserve(NumSlices);
  for (unsigned I = 0; I < NumSlices; ++I)
    Slices.push_back(std::unique_ptr<PoolSlice>(
        new PoolSlice(JobsPerSlice, I, I * JobsPerSlice)));
}
