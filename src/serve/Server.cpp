//===- Server.cpp - The dfence synthesis-as-a-service daemon core ---------===//

#include "serve/Server.h"

#include "synth/StaticBaseline.h"
#include "vm/History.h"

#include <chrono>
#include <fstream>
#include <sys/stat.h>
#include <thread>

using namespace dfence;
using namespace dfence::serve;

namespace {

/// Request ids are caller-chosen; when they become file names (crash
/// reports, bundles) everything outside [A-Za-z0-9._-] flattens to '_'
/// so an id cannot escape the crash directory.
std::string sanitizeId(const std::string &Id) {
  std::string S = Id.empty() ? std::string("anonymous") : Id;
  for (char &C : S) {
    bool Ok = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
              (C >= '0' && C <= '9') || C == '.' || C == '_' || C == '-';
    if (!Ok)
      C = '_';
  }
  return S;
}

Json makeTimeoutResponse(const std::string &Id, const char *Where) {
  Json J = Json::object();
  J.set("id", Json::string(Id));
  J.set("status", Json::string("timeout"));
  J.set("reason", Json::string(Where));
  return J;
}

unsigned resolveSlots(const ServeConfig &C) {
  return C.Slots ? C.Slots : 1;
}

/// Slice width per slot: explicit, or the resolved Jobs budget divided
/// evenly across slots (at least 1 — a slot can always run width-1
/// sequentially).
unsigned resolveSlotJobs(const ServeConfig &C) {
  if (C.JobsPerSlot)
    return C.JobsPerSlot;
  unsigned Total = exec::resolveJobs(C.Jobs);
  unsigned Per = Total / resolveSlots(C);
  return Per ? Per : 1;
}

/// The content fingerprint that routes a request to its cache shard:
/// module + clients, which every round key of the request covers — so a
/// repeated request always lands on the shard holding its warm rounds,
/// independent of which slot runs it.
uint64_t requestFingerprint(const SynthJob &Job) {
  uint64_t Fp = cache::fingerprintModule(Job.M);
  for (const vm::Client &C : Job.Clients)
    Fp = vm::hashCombine(Fp, cache::fingerprintClient(C));
  return Fp;
}

} // namespace

Server::Server(const ServeConfig &C)
    : Cfg(C), OwnObs{&OwnReg, nullptr, nullptr},
      Obs(C.Obs ? C.Obs : &OwnObs),
      Reg((C.Obs && C.Obs->Metrics) ? *C.Obs->Metrics : OwnReg),
      NumSlots(resolveSlots(C)), SlotJobs(resolveSlotJobs(C)),
      Pool(NumSlots, SlotJobs), Cache(NumSlots, C.CacheCapacity),
      Queue(C.QueueCapacity),
      RequestsC(Reg.counter("serve_requests_total")),
      AdmittedC(Reg.counter("serve_admitted_total")),
      ShedC(Reg.counter("serve_shed_total")),
      DrainRejC(Reg.counter("serve_rejected_draining_total")),
      CompletedC(Reg.counter("serve_completed_total")),
      TimeoutsC(Reg.counter("serve_deadline_timeouts_total")),
      DegradedC(Reg.counter("serve_degraded_total")),
      ErrorsC(Reg.counter("serve_errors_total")),
      CrashesC(Reg.counter("serve_crashes_total")),
      RetriesC(Reg.counter("serve_request_retries_total")),
      SlotLeasesC(Reg.counter("serve_slot_leases_total")),
      ShardWaitsC(Reg.counter("cache_shard_waits_total")),
      AdmittedHighC(Reg.counter("serve_admitted_high_total")),
      QueueDepthG(Reg.gauge("serve_queue_depth")),
      InflightG(Reg.gauge("serve_inflight")),
      SlotsBusyG(Reg.gauge("serve_slots_busy")),
      RequestUsH(Reg.histogram("serve_request_duration_us")),
      QueueWaitUsH(Reg.histogram("serve_queue_wait_us")) {
  if (!Cfg.CrashDir.empty())
    ::mkdir(Cfg.CrashDir.c_str(), 0755); // EEXIST is fine.
  Paused = Cfg.StartPaused;
  Active.resize(NumSlots);
  Dispatchers.reserve(NumSlots);
  for (unsigned Slot = 0; Slot < NumSlots; ++Slot)
    Dispatchers.emplace_back(&Server::dispatcherMain, this, Slot);
}

Server::~Server() { drain(); }

void Server::pause() {
  std::lock_guard<std::mutex> L(PauseMu);
  Paused = true;
}

void Server::resume() {
  {
    std::lock_guard<std::mutex> L(PauseMu);
    Paused = false;
  }
  PauseCv.notify_all();
}

void Server::beginDrain() { Queue.beginDrain(); }

void Server::drain() {
  std::lock_guard<std::mutex> L(JoinMu);
  if (Joined)
    return;
  Queue.beginDrain();
  resume(); // A paused slot cannot drain.
  for (std::thread &D : Dispatchers)
    D.join();
  Joined = true;
}

void Server::waitWhilePaused() {
  std::unique_lock<std::mutex> L(PauseMu);
  PauseCv.wait(L, [&] { return !Paused; });
}

obs::Histogram &Server::outcomeHistogram(const char *Kind,
                                         const char *Outcome) {
  return Reg.histogram(std::string("serve_") + Kind + "_us_" + Outcome);
}

void Server::submit(const std::string &Line,
                    std::function<void(Json)> Respond) {
  RequestsC.add(1);
  std::string Error;
  auto J = Json::parse(Line, Error);
  if (!J) {
    ErrorsC.add(1);
    Respond(makeErrorResponse("", "parse: " + Error));
    return;
  }
  auto R = parseRequest(*J, Error);
  if (!R) {
    ErrorsC.add(1);
    std::string Id;
    if (const Json *IdJ = J->find("id"))
      Id = IdJ->asString();
    Respond(makeErrorResponse(Id, Error));
    return;
  }

  switch (R->Kind) {
  case ServeRequest::Op::Ping:
    Respond(makePongResponse(R->Id));
    return;
  case ServeRequest::Op::Stats: {
    Json Resp = Json::object();
    Resp.set("id", Json::string(R->Id));
    Resp.set("status", Json::string("ok"));
    Resp.set("stats", statsJson());
    Respond(std::move(Resp));
    return;
  }
  case ServeRequest::Op::Status: {
    // Answered inline on the submitting thread — never queued — so the
    // snapshot is available even while every slot is mid-request.
    Json Resp = Json::object();
    Resp.set("id", Json::string(R->Id));
    Resp.set("status", Json::string("ok"));
    Resp.set("server", statusJson());
    Respond(std::move(Resp));
    return;
  }
  case ServeRequest::Op::Shutdown: {
    beginDrain();
    Json Resp = Json::object();
    Resp.set("id", Json::string(R->Id));
    Resp.set("status", Json::string("ok"));
    Resp.set("draining", Json::boolean(true));
    Respond(std::move(Resp));
    return;
  }
  case ServeRequest::Op::Synth:
  case ServeRequest::Op::Bench:
    break;
  }

  Pending P;
  P.Req = std::move(*R);
  // Armed at admission: queue wait counts against the deadline, so a
  // request cannot hang past it just because the queue was long.
  uint32_t DeadlineMs =
      P.Req.DeadlineMs ? P.Req.DeadlineMs : Cfg.DefaultDeadlineMs;
  P.DL = harness::Deadline::after(DeadlineMs);
  P.Respond = std::move(Respond);
  P.Seq = Seq.fetch_add(1, std::memory_order_relaxed);
  P.High = P.Req.HighPriority;
  P.Enqueued = std::chrono::steady_clock::now();

  // push moves from P only on admission; on rejection P (and its
  // Respond) are still ours, so every shed is an explicit structured
  // response — never a silent drop. Rejected requests never run, so
  // their end-to-end latency (≈0) is recorded here, split by outcome.
  bool High = P.High;
  switch (Queue.push(P)) {
  case AdmissionQueue::Verdict::Admitted:
    AdmittedC.add(1);
    if (High)
      AdmittedHighC.add(1);
    QueueDepthG.set(static_cast<double>(Queue.depth()));
    return;
  case AdmissionQueue::Verdict::QueueFull:
    ShedC.add(1);
    outcomeHistogram("e2e", "shed").observe(0);
    P.Respond(makeRejectedResponse(P.Req.Id, "queue_full"));
    return;
  case AdmissionQueue::Verdict::Draining:
    DrainRejC.add(1);
    outcomeHistogram("e2e", "draining").observe(0);
    P.Respond(makeRejectedResponse(P.Req.Id, "draining"));
    return;
  }
}

void Server::dispatcherMain(unsigned Slot) {
  while (true) {
    // The pause gate sits BEFORE pop: a paused slot leaves the queue
    // untouched, so a paused server holds exactly QueueCapacity
    // requests and the overload test's shed count is deterministic
    // whatever the slot count.
    waitWhilePaused();
    std::optional<Pending> P = Queue.pop();
    if (!P)
      return; // Draining and empty: clean exit for this slot.
    QueueDepthG.set(static_cast<double>(Queue.depth()));
    {
      std::lock_guard<std::mutex> L(ActiveMu);
      Active[Slot] = ActiveInfo{P->Seq, P->Req.Id,
                                P->Req.Kind == ServeRequest::Op::Bench
                                    ? "bench"
                                    : "synth",
                                P->High, std::chrono::steady_clock::now()};
      ++BusySlots;
      InflightG.set(static_cast<double>(BusySlots));
      SlotsBusyG.set(static_cast<double>(BusySlots));
    }
    Json Resp = runJob(*P, Slot);
    {
      std::lock_guard<std::mutex> L(ActiveMu);
      Active[Slot].reset();
      --BusySlots;
      InflightG.set(static_cast<double>(BusySlots));
      SlotsBusyG.set(static_cast<double>(BusySlots));
    }
    P->Respond(std::move(Resp));
  }
}

Json Server::runJob(Pending &P, unsigned Slot) {
  auto Start = std::chrono::steady_clock::now();
  OBS_SPAN(S, obs::traceOrNull(Obs), "request", "serve", Slot);
  S.arg("id", P.Req.Id);
  S.arg("slot", static_cast<uint64_t>(Slot));

  // Queue wait is outcome-independent (the request had no outcome while
  // it waited); run and end-to-end time are split by outcome so tail
  // latency of healthy requests is not polluted by timeouts/degrades.
  double QueueUs = std::chrono::duration_cast<std::chrono::microseconds>(
                       Start - P.Enqueued)
                       .count();
  QueueWaitUsH.observe(QueueUs);

  auto Finish = [&](Json Resp, const char *Status) {
    auto End = std::chrono::steady_clock::now();
    double Us = std::chrono::duration_cast<std::chrono::microseconds>(
                    End - Start)
                    .count();
    double E2eUs = QueueUs + Us;
    RequestUsH.observe(Us);
    outcomeHistogram("run", Status).observe(Us);
    outcomeHistogram("e2e", Status).observe(E2eUs);
    Resp.set("elapsedMs", Json::number(static_cast<uint64_t>(Us / 1000)));
    CompletedC.add(1);
    S.arg("status", Status);
    if (Cfg.SlowMs && E2eUs / 1000.0 > Cfg.SlowMs) {
      if (obs::Logger *Log = obs::logOrNull(Obs))
        Log->warn(
            "serve", "slow request",
            {{"id", P.Req.Id},
             {"seq", std::to_string(P.Seq)},
             {"slot", std::to_string(Slot)},
             {"op", P.Req.Kind == ServeRequest::Op::Bench ? "bench"
                                                          : "synth"},
             {"priority", P.High ? "high" : "normal"},
             {"status", Status},
             {"queueMs",
              std::to_string(static_cast<uint64_t>(QueueUs / 1000))},
             {"runMs", std::to_string(static_cast<uint64_t>(Us / 1000))},
             {"thresholdMs", std::to_string(Cfg.SlowMs)}});
    }
    return Resp;
  };

  // Deadline already gone (the request aged out in the queue): answer
  // timeout without running anything.
  if (P.DL.armed() && P.DL.expired()) {
    TimeoutsC.add(1);
    return Finish(makeTimeoutResponse(P.Req.Id,
                                      "deadline expired while queued"),
                  "timeout");
  }

  std::string Error;
  auto Job = prepareJob(P.Req, Error);
  if (!Job) {
    ErrorsC.add(1);
    return Finish(makeErrorResponse(P.Req.Id, Error), "error");
  }

  // Stamp the server's execution environment. Semantic knobs came from
  // the request (prepareJob, as for the CLI); only the *where it runs*
  // part is ours: the slot's own pool slice, the fingerprint-routed
  // cache shard, observability, and the deadline cap on the total wall
  // budget. Capping TotalWallMs cannot change a run that finishes in
  // time (watchdog purity), which is what keeps daemon results
  // byte-identical to the one-shot CLI.
  SlotLeasesC.add(1);
  Job->Cfg.Slice = &Pool.slice(Slot);
  Job->Cfg.Obs = Obs;

  // Cache shard: routed by content fingerprint and held (its mutex) for
  // the whole run, so only this request's merge thread touches it.
  // Same-shard requests serialize here; the wait counter is the
  // contention signal.
  std::unique_lock<std::mutex> ShardLock;
  if (!(Cfg.CacheEnabled && Job->Cfg.CacheEnabled)) {
    Job->Cfg.CacheEnabled = false;
  } else {
    size_t Shard = Cache.shardIndex(requestFingerprint(*Job));
    ShardLock = std::unique_lock<std::mutex>(Cache.shardMutex(Shard),
                                             std::try_to_lock);
    if (!ShardLock.owns_lock()) {
      ShardWaitsC.add(1);
      ShardLock.lock();
    }
    Job->Cfg.ExecResultCache = &Cache.shard(Shard);
    S.arg("cacheShard", static_cast<uint64_t>(Shard));
  }
  if (P.DL.armed()) {
    uint32_t Rem = P.DL.remainingMs();
    if (Job->Cfg.TotalWallMs == 0 || Job->Cfg.TotalWallMs > Rem)
      Job->Cfg.TotalWallMs = Rem;
  }

  // Crash isolation, per slot: a request that throws is retried with
  // exponential backoff (transient faults — injected or real), then
  // degraded to conservative static fencing. Other slots keep serving;
  // the daemon survives either way.
  synth::SynthResult R;
  bool Crashed = false;
  std::string CrashWhy;
  for (unsigned Attempt = 0;; ++Attempt) {
    try {
      R = synth::synthesize(Job->M, Job->Clients, Job->Cfg);
      Crashed = false;
      break;
    } catch (const std::exception &E) {
      Crashed = true;
      CrashWhy = E.what();
    } catch (...) {
      Crashed = true;
      CrashWhy = "unknown exception";
    }
    CrashesC.add(1);
    if (Attempt >= Cfg.RequestRetries ||
        (P.DL.armed() && P.DL.expired()))
      break;
    RetriesC.add(1);
    std::this_thread::sleep_for(
        std::chrono::milliseconds(Cfg.RetryBackoffMs << Attempt));
  }

  if (Crashed) {
    DegradedC.add(1);
    std::string Report = writeCrashReport(P, CrashWhy);
    synth::StaticBaselineResult SB =
        synth::staticDelaySetFences(Job->M, Job->Cfg.Model);
    Json Resp = Json::object();
    Resp.set("id", Json::string(P.Req.Id));
    Resp.set("status", Json::string("degraded"));
    Resp.set("reason", Json::string("static_fencing"));
    Resp.set("error", Json::string(CrashWhy));
    Resp.set("staticFences",
             Json::number(static_cast<uint64_t>(SB.FencesInserted)));
    if (!Report.empty())
      Resp.set("crashReport", Json::string(Report));
    return Finish(std::move(Resp), "degraded");
  }

  if (R.Status == synth::SynthStatus::ConfigError) {
    ErrorsC.add(1);
    return Finish(makeErrorResponse(P.Req.Id, R.Error), "error");
  }

  const char *Status = statusOfResult(R);
  if (R.TimedOut)
    TimeoutsC.add(1);
  else if (R.Status == synth::SynthStatus::Degraded)
    DegradedC.add(1);
  Json Resp = Json::object();
  Resp.set("id", Json::string(P.Req.Id));
  Resp.set("status", Json::string(Status));
  Resp.set("result", resultToJson(R, P.Req.Dump));
  Resp.set("cache", cacheStatsToJson(R));
  std::vector<std::string> Reports = writeBundles(P.Req.Id, R.Bundles);
  if (!Reports.empty()) {
    Json Arr = Json::array();
    for (const std::string &Path : Reports)
      Arr.push(Json::string(Path));
    Resp.set("crashReports", std::move(Arr));
  }
  return Finish(std::move(Resp), Status);
}

std::vector<std::string>
Server::writeBundles(const std::string &RequestId,
                     const std::vector<harness::ReproBundle> &Bundles) {
  std::vector<std::string> Paths;
  if (Cfg.CrashDir.empty() || Bundles.empty())
    return Paths;
  std::string Base = Cfg.CrashDir + "/" + sanitizeId(RequestId);
  for (size_t I = 0; I != Bundles.size(); ++I) {
    std::string Path = Base + ".bundle" +
                       (I ? "." + std::to_string(I) : std::string()) +
                       ".json";
    std::string Error;
    if (Bundles[I].saveFile(Path, Error))
      Paths.push_back(Path);
  }
  return Paths;
}

std::string Server::writeCrashReport(const Pending &P,
                                     const std::string &Why) {
  if (Cfg.CrashDir.empty())
    return "";
  std::string Path =
      Cfg.CrashDir + "/" + sanitizeId(P.Req.Id) + ".crash.json";
  Json J = Json::object();
  J.set("requestId", Json::string(P.Req.Id));
  J.set("seq", Json::number(P.Seq));
  J.set("error", Json::string(Why));
  J.set("op", Json::string(P.Req.Kind == ServeRequest::Op::Bench
                               ? "bench"
                               : "synth"));
  if (P.Req.Kind == ServeRequest::Op::Bench)
    J.set("bench", Json::string(P.Req.BenchName));
  std::ofstream Out(Path);
  if (!Out)
    return "";
  Out << J.dump(2) << "\n";
  return Path;
}

Json Server::statusJson() const {
  Json J = Json::object();
  J.set("proto", Json::string(ProtoName));
  J.set("jobs", Json::number(static_cast<uint64_t>(Pool.jobs())));
  J.set("jobsPerSlot", Json::number(static_cast<uint64_t>(SlotJobs)));
  J.set("queueDepth",
        Json::number(static_cast<uint64_t>(Queue.depth())));
  J.set("queueCapacity",
        Json::number(static_cast<uint64_t>(Queue.capacity())));
  J.set("draining", Json::boolean(Queue.draining()));
  J.set("slowMs", Json::number(static_cast<uint64_t>(Cfg.SlowMs)));
  // Per-slot state: one entry per dispatcher slot, active or idle, so
  // callers see occupancy at a glance (and which priority level each
  // busy slot is serving).
  Json Arr = Json::array();
  unsigned Busy = 0;
  auto Now = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> L(ActiveMu);
    Busy = BusySlots;
    for (unsigned Slot = 0; Slot < NumSlots; ++Slot) {
      Json A = Json::object();
      A.set("slot", Json::number(static_cast<uint64_t>(Slot)));
      A.set("active", Json::boolean(Active[Slot].has_value()));
      if (Active[Slot]) {
        const ActiveInfo &I = *Active[Slot];
        A.set("seq", Json::number(I.Seq));
        A.set("id", Json::string(I.Id));
        A.set("op", Json::string(I.Op));
        A.set("priority", Json::string(I.High ? "high" : "normal"));
        uint64_t Ms = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                Now - I.Start)
                .count());
        A.set("elapsedMs", Json::number(Ms));
      }
      Arr.push(std::move(A));
    }
  }
  J.set("inflight", Json::number(static_cast<uint64_t>(Busy)));
  J.set("slots", std::move(Arr));
  return J;
}

Json Server::statsJson() const {
  Json J = Json::object();
  J.set("proto", Json::string(ProtoName));
  J.set("jobs", Json::number(static_cast<uint64_t>(Pool.jobs())));
  J.set("slots", Json::number(static_cast<uint64_t>(NumSlots)));
  J.set("jobsPerSlot", Json::number(static_cast<uint64_t>(SlotJobs)));
  J.set("queueDepth",
        Json::number(static_cast<uint64_t>(Queue.depth())));
  J.set("queueCapacity",
        Json::number(static_cast<uint64_t>(Queue.capacity())));
  J.set("draining", Json::boolean(Queue.draining()));
  J.set("requests", Json::number(RequestsC.value()));
  J.set("admitted", Json::number(AdmittedC.value()));
  J.set("admittedHigh", Json::number(AdmittedHighC.value()));
  J.set("shed", Json::number(ShedC.value()));
  J.set("rejectedDraining", Json::number(DrainRejC.value()));
  J.set("completed", Json::number(CompletedC.value()));
  J.set("deadlineTimeouts", Json::number(TimeoutsC.value()));
  J.set("degraded", Json::number(DegradedC.value()));
  J.set("errors", Json::number(ErrorsC.value()));
  J.set("crashes", Json::number(CrashesC.value()));
  J.set("requestRetries", Json::number(RetriesC.value()));
  J.set("slotLeases", Json::number(SlotLeasesC.value()));
  J.set("shardWaits", Json::number(ShardWaitsC.value()));
  cache::ExecCache::Stats CS = Cache.stats();
  Json C = Json::object();
  C.set("entries", Json::number(static_cast<uint64_t>(Cache.size())));
  C.set("capacity",
        Json::number(static_cast<uint64_t>(Cache.capacity())));
  C.set("lookups", Json::number(CS.Lookups));
  C.set("hits", Json::number(CS.Hits));
  C.set("inserts", Json::number(CS.Inserts));
  C.set("rejectedFull", Json::number(CS.RejectedFull));
  // Shard-level occupancy: which shards actually hold warm entries.
  Json Shards = Json::array();
  for (size_t I = 0; I < Cache.numShards(); ++I) {
    const cache::ExecCache &Sh = Cache.shard(I);
    Json SJ = Json::object();
    SJ.set("shard", Json::number(static_cast<uint64_t>(I)));
    SJ.set("entries", Json::number(static_cast<uint64_t>(Sh.size())));
    SJ.set("capacity",
           Json::number(static_cast<uint64_t>(Sh.capacity())));
    Shards.push(std::move(SJ));
  }
  C.set("shards", std::move(Shards));
  J.set("cache", std::move(C));
  return J;
}
