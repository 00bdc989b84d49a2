//===- ServerTest.cpp - serve daemon robustness-core tests ----------------===//
//
// In-process tests of serve::Server against the acceptance criteria:
//
//   * overload: with queue capacity Q and a paused dispatcher, exactly
//     the excess beyond Q is shed with `rejected: queue_full` — never a
//     silent drop, never an extra rejection;
//   * deadlines: queue wait counts (a request that ages out answers
//     `timeout` without running), and an in-flight request is canceled
//     mid-round through the harness deadline;
//   * drain: queued work admitted before beginDrain still completes and
//     every response is delivered; post-drain submits are rejected;
//   * determinism: an accepted request's canonical result is
//     byte-identical to a direct synthesize() at the same jobs, and
//     byte-identical warm (shared cache populated) vs cold, also when
//     the warm cache was filled by a request with another spec;
//   * crash reports: fault-injected requests with bundle capture write
//     replayable repro bundles stamped with the request id + cache mode.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "harness/ReproBundle.h"
#include "serve/Protocol.h"
#include "synth/Synthesizer.h"
#include "vm/Interp.h"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

using namespace dfence;
using namespace dfence::serve;

namespace {

const char *PubSource = R"(global int FLAG = 0;
global int PTR = 0;
int writer() {
  int p = malloc(2);
  *p = 5;
  PTR = p;
  FLAG = 1;
  return 0;
}
int reader() {
  int f = FLAG;
  if (f == 1) {
    int p = PTR;
    return *p;
  }
  return 0;
}
)";

/// A synth request over PubSource with caller-chosen id and extra knobs
/// (comma-led JSON fragment, e.g. ",\"k\":25").
std::string pubRequest(const std::string &Id, const std::string &Extra) {
  return "{\"op\":\"synth\",\"id\":\"" + Id +
         "\",\"source\":" + Json::string(PubSource).dump() +
         ",\"client\":\"writer()|reader();reader()\","
         "\"spec\":\"safety\"" +
         Extra + "}";
}

/// Thread-safe response sink shared between the submitting thread
/// (inline rejections) and the dispatcher (admitted work).
struct Collector {
  std::mutex Mu;
  std::condition_variable Cv;
  std::vector<Json> Resps;

  std::function<void(Json)> fn() {
    return [this](Json J) {
      {
        std::lock_guard<std::mutex> L(Mu);
        Resps.push_back(std::move(J));
      }
      Cv.notify_all();
    };
  }

  size_t count() {
    std::lock_guard<std::mutex> L(Mu);
    return Resps.size();
  }

  bool waitFor(size_t N, int Ms) {
    std::unique_lock<std::mutex> L(Mu);
    return Cv.wait_for(L, std::chrono::milliseconds(Ms),
                       [&] { return Resps.size() >= N; });
  }

  /// Responses with the given status, by snapshot.
  std::vector<Json> withStatus(const std::string &S) {
    std::lock_guard<std::mutex> L(Mu);
    std::vector<Json> Out;
    for (const Json &J : Resps)
      if (const Json *St = J.find("status"); St && St->asString() == S)
        Out.push_back(J);
    return Out;
  }

  Json byId(const std::string &Id) {
    std::lock_guard<std::mutex> L(Mu);
    for (const Json &J : Resps)
      if (const Json *I = J.find("id"); I && I->asString() == Id)
        return J;
    return Json();
  }
};

TEST(Server, OverloadShedsExactlyTheExcess) {
  ServeConfig C;
  C.Jobs = 2;
  C.QueueCapacity = 2;
  C.StartPaused = true; // Dispatcher held BEFORE pop: queue stays full.
  Server S(C);
  Collector Col;

  // 5 requests against capacity 2: exactly 3 structured rejections,
  // delivered synchronously (no hang, no silent drop).
  for (int I = 0; I != 5; ++I)
    S.submit(pubRequest("r" + std::to_string(I), ",\"k\":30,\"rounds\":8"),
             Col.fn());
  EXPECT_EQ(Col.count(), 3u);
  auto Rejected = Col.withStatus("rejected");
  ASSERT_EQ(Rejected.size(), 3u);
  for (const Json &R : Rejected)
    EXPECT_EQ(R.find("reason")->asString(), "queue_full");
  // FIFO admission: the first two requests got the two slots.
  EXPECT_TRUE(Col.byId("r0").isNull());
  EXPECT_TRUE(Col.byId("r1").isNull());
  EXPECT_FALSE(Col.byId("r2").isNull());

  // Releasing the dispatcher drains the two admitted requests.
  S.resume();
  S.drain();
  EXPECT_EQ(Col.count(), 5u);
  EXPECT_EQ(Col.byId("r0").find("status")->asString(), "ok");
  EXPECT_EQ(Col.byId("r1").find("status")->asString(), "ok");
}

TEST(Server, DrainCompletesQueuedWorkAndRejectsNewWork) {
  ServeConfig C;
  C.Jobs = 2;
  C.StartPaused = true;
  Server S(C);
  Collector Col;

  S.submit(pubRequest("q0", ",\"k\":30,\"rounds\":8"), Col.fn());
  S.submit(pubRequest("q1", ",\"k\":30,\"rounds\":8"), Col.fn());
  S.beginDrain();
  // Admission is closed the moment draining begins...
  S.submit(pubRequest("late", ",\"k\":30,\"rounds\":8"), Col.fn());
  Json Late = Col.byId("late");
  ASSERT_FALSE(Late.isNull());
  EXPECT_EQ(Late.find("status")->asString(), "rejected");
  EXPECT_EQ(Late.find("reason")->asString(), "draining");

  // ...but work admitted before it still completes during the drain.
  S.drain();
  EXPECT_EQ(Col.byId("q0").find("status")->asString(), "ok");
  EXPECT_EQ(Col.byId("q1").find("status")->asString(), "ok");
}

TEST(Server, DeadlineExpiresInQueue) {
  ServeConfig C;
  C.Jobs = 2;
  C.StartPaused = true; // Hold the request in the queue past its deadline.
  Server S(C);
  Collector Col;

  S.submit(pubRequest("aged", ",\"k\":30,\"rounds\":8,\"deadlineMs\":30"),
           Col.fn());
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  S.resume();
  S.drain();

  Json R = Col.byId("aged");
  ASSERT_FALSE(R.isNull());
  EXPECT_EQ(R.find("status")->asString(), "timeout");
  EXPECT_NE(R.find("reason")->asString().find("queued"),
            std::string::npos);
}

TEST(Server, DeadlineCancelsInFlightWork) {
  ServeConfig C;
  C.Jobs = 2;
  Server S(C);
  Collector Col;

  // Every execution stalls 5 ms (a fault plan), so the run's natural
  // duration is at least 50 s on any machine against a 150ms deadline: the
  // harness deadline cancels mid-round and the response reports a
  // partial, timed-out result — it must not hang anywhere near the run's
  // natural duration.
  S.submit("{\"op\":\"bench\",\"id\":\"dl\",\"bench\":\"MS2 Queue\","
           "\"k\":20000,\"rounds\":16,\"deadlineMs\":150,"
           "\"faults\":{\"stallMs\":5}}",
           Col.fn());
  ASSERT_TRUE(Col.waitFor(1, 15000)) << "request hung past its deadline";
  Json R = Col.byId("dl");
  ASSERT_FALSE(R.isNull());
  EXPECT_EQ(R.find("status")->asString(), "timeout");
  const Json *Res = R.find("result");
  ASSERT_NE(Res, nullptr);
  EXPECT_TRUE(Res->find("timedOut")->asBool(false));
  S.drain();
}

TEST(Server, CanonicalResultByteIdenticalToDirectRun) {
  const std::string Extra = ",\"k\":150,\"rounds\":6,\"model\":\"pso\"";
  ServeConfig C;
  C.Jobs = 2;
  Server S(C);
  Collector Col;
  S.submit(pubRequest("direct-cmp", Extra), Col.fn());
  ASSERT_TRUE(Col.waitFor(1, 60000));

  // The same request resolved and run directly, same jobs, cold cache.
  std::string Error;
  auto Req = parseRequest(
      *Json::parse(pubRequest("direct-cmp", Extra), Error), Error);
  ASSERT_TRUE(Req) << Error;
  auto Job = prepareJob(*Req, Error);
  ASSERT_TRUE(Job) << Error;
  Job->Cfg.Jobs = 2;
  synth::SynthResult Direct =
      synth::synthesize(Job->M, Job->Clients, Job->Cfg);

  Json Resp = Col.byId("direct-cmp");
  ASSERT_FALSE(Resp.isNull());
  ASSERT_EQ(Resp.find("status")->asString(), "ok");
  EXPECT_EQ(Resp.find("result")->dump(), resultToJson(Direct).dump());
  S.drain();
}

TEST(Server, WarmCacheKeepsCanonicalResultIdentical) {
  const std::string Extra = ",\"k\":100,\"rounds\":4";
  ServeConfig C;
  C.Jobs = 2;
  Server S(C);
  Collector Col;
  S.submit(pubRequest("cold", Extra), Col.fn());
  ASSERT_TRUE(Col.waitFor(1, 60000));
  S.submit(pubRequest("warm", Extra), Col.fn());
  ASSERT_TRUE(Col.waitFor(2, 60000));
  S.drain();

  Json Cold = Col.byId("cold"), Warm = Col.byId("warm");
  ASSERT_FALSE(Cold.isNull());
  ASSERT_FALSE(Warm.isNull());
  // Cache statistics may differ (that is the cache's whole point)...
  EXPECT_GT(Warm.find("cache")->find("execHits")->asU64(0), 0u)
      << "second identical request should hit the shared warm cache";
  // ...but the canonical result must be bit-for-bit the same.
  EXPECT_EQ(Cold.find("result")->dump(), Warm.find("result")->dump());
}

TEST(Server, SpecIsPartOfTheCacheKey) {
  // A memory-safety request stores rounds judged against memory safety
  // only; the linearizability request that follows runs the same module,
  // clients and seed, and must judge every round afresh.
  auto Bench = [](const std::string &Id, const std::string &Spec) {
    return "{\"op\":\"bench\",\"id\":\"" + Id +
           "\",\"bench\":\"Chase-Lev WSQ\",\"model\":\"pso\","
           "\"spec\":\"" +
           Spec + "\",\"k\":300,\"rounds\":8}";
  };
  ServeConfig C;
  C.Jobs = 2;
  Collector Col;
  {
    Server Cold(C);
    Cold.submit(Bench("cold", "lin"), Col.fn());
    ASSERT_TRUE(Col.waitFor(1, 120000));
    Cold.drain();
  }
  Server S(C);
  S.submit(Bench("safety", "safety"), Col.fn());
  S.submit(Bench("lin", "lin"), Col.fn());
  ASSERT_TRUE(Col.waitFor(3, 120000));
  S.drain();

  Json Cold = Col.byId("cold"), Lin = Col.byId("lin");
  ASSERT_EQ(Cold.find("status")->asString(), "ok");
  ASSERT_EQ(Lin.find("status")->asString(), "ok");
  EXPECT_FALSE(Cold.find("result")->find("fences")->items().empty());
  EXPECT_EQ(Lin.find("cache")->find("execHits")->asU64(1), 0u);
  EXPECT_EQ(Cold.find("result")->dump(), Lin.find("result")->dump());
}

TEST(Server, FaultInjectedBundleRoundTripsThroughReplay) {
  ServeConfig C;
  C.Jobs = 2;
  C.CrashDir = testing::TempDir() + "dfence_serve_crash";
  Server S(C);
  Collector Col;

  // Every allocation fails: each execution dereferences the null
  // allocation, so violating executions (and bundles) are guaranteed.
  S.submit(pubRequest("bundle-req",
                      ",\"k\":40,\"rounds\":2,\"cache\":\"off\","
                      "\"captureBundles\":true,\"maxBundles\":2,"
                      "\"faults\":{\"allocFailProb\":1.0}"),
           Col.fn());
  ASSERT_TRUE(Col.waitFor(1, 60000));
  S.drain();

  Json R = Col.byId("bundle-req");
  ASSERT_FALSE(R.isNull());
  const Json *Reports = R.find("crashReports");
  ASSERT_NE(Reports, nullptr) << R.dump();
  ASSERT_FALSE(Reports->items().empty());

  // The on-disk bundle names its origin: request id and cache mode.
  std::string Error;
  auto B = harness::ReproBundle::loadFile(
      Reports->items()[0].asString(), Error);
  ASSERT_TRUE(B) << Error;
  EXPECT_EQ(B->RequestId, "bundle-req");
  EXPECT_EQ(B->CacheMode, "off");
  EXPECT_DOUBLE_EQ(B->Faults.AllocFailProb, 1.0);
  EXPECT_FALSE(B->Outcome.empty());

  // And it replays: the deterministic re-execution reproduces the
  // recorded outcome (the fault RNG stream re-fires identically).
  auto Replayed = harness::replayBundle(*B, Error);
  ASSERT_TRUE(Replayed) << Error;
  EXPECT_EQ(vm::outcomeName(Replayed->Out), B->Outcome);
  EXPECT_EQ(Replayed->Message, B->Message);
}

TEST(Server, StatusAnswersInlineMidRequestWithSnapshot) {
  FILE *LogFile = std::tmpfile();
  ASSERT_NE(LogFile, nullptr);
  obs::Logger Log(obs::LogLevel::Warn, /*JsonLines=*/true, LogFile);
  obs::ObsContext Obs;
  Obs.Log = &Log;
  ServeConfig C;
  C.Jobs = 2;
  C.SlowMs = 1; // Everything is slow: the log line must fire.
  C.Obs = &Obs;
  Server S(C);
  Collector Col;

  // A deliberately heavy request, bounded by its own deadline so the
  // test cannot hang: it stays in flight long enough to observe.
  S.submit(pubRequest(
               "big", ",\"k\":20000,\"rounds\":64,\"deadlineMs\":1500"),
           Col.fn());

  // Poll status from this thread. It is answered inline (before submit
  // returns) even though the dispatcher is busy — that is the point.
  bool SawActive = false;
  for (int I = 0; I != 400 && !SawActive; ++I) {
    Collector StCol;
    S.submit("{\"op\":\"status\",\"id\":\"st\"}", StCol.fn());
    ASSERT_EQ(StCol.count(), 1u) << "status must answer inline";
    Json Resp = StCol.byId("st");
    ASSERT_FALSE(Resp.isNull());
    EXPECT_EQ(Resp.find("status")->asString(), "ok");
    const Json *Srv = Resp.find("server");
    ASSERT_NE(Srv, nullptr);
    ASSERT_NE(Srv->find("proto"), nullptr);
    ASSERT_NE(Srv->find("queueDepth"), nullptr);
    ASSERT_NE(Srv->find("queueCapacity"), nullptr);
    ASSERT_NE(Srv->find("draining"), nullptr);
    ASSERT_NE(Srv->find("inflight"), nullptr);
    const Json *Slots = Srv->find("slots");
    ASSERT_NE(Slots, nullptr);
    ASSERT_TRUE(Slots->isArray());
    // One entry per dispatcher slot, active or idle (default: 1 slot).
    ASSERT_EQ(Slots->items().size(), 1u);
    const Json &A = Slots->items()[0];
    ASSERT_NE(A.find("slot"), nullptr);
    ASSERT_NE(A.find("active"), nullptr);
    if (A.find("active")->asBool()) {
      SawActive = true;
      EXPECT_EQ(A.find("id")->asString(), "big");
      EXPECT_EQ(A.find("op")->asString(), "synth");
      EXPECT_EQ(A.find("priority")->asString(), "normal");
      ASSERT_NE(A.find("seq"), nullptr);
      ASSERT_NE(A.find("elapsedMs"), nullptr);
      EXPECT_EQ(Srv->find("inflight")->asU64(), 1u);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(SawActive) << "status never saw the request in flight";

  ASSERT_TRUE(Col.waitFor(1, 20000));
  S.drain();

  // After drain the listing is empty again...
  Json Final = S.statusJson();
  EXPECT_EQ(Final.find("inflight")->asU64(), 0u);
  for (const Json &Slot : Final.find("slots")->items())
    EXPECT_FALSE(Slot.find("active")->asBool());

  // ...the per-outcome latency split exists for the request's outcome
  // (timeout here — its deadline expired mid-flight), plus queue wait...
  std::string Prom = S.registry().toPrometheus();
  EXPECT_NE(Prom.find("dfence_serve_queue_wait_us_bucket"),
            std::string::npos);
  std::string Outcome = Col.byId("big").find("status")->asString();
  EXPECT_NE(Prom.find("dfence_serve_run_us_" + Outcome + "_bucket"),
            std::string::npos)
      << Outcome;
  EXPECT_NE(Prom.find("dfence_serve_e2e_us_" + Outcome + "_bucket"),
            std::string::npos)
      << Outcome;

  // ...and the 1ms slow threshold logged the structured warn line.
  std::fflush(LogFile);
  long Len = std::ftell(LogFile);
  std::rewind(LogFile);
  std::string LogText(static_cast<size_t>(Len), '\0');
  size_t Read = std::fread(LogText.data(), 1, LogText.size(), LogFile);
  LogText.resize(Read);
  std::fclose(LogFile);
  EXPECT_NE(LogText.find("slow request"), std::string::npos) << LogText;
  EXPECT_NE(LogText.find("big"), std::string::npos) << LogText;
}

TEST(Server, StatsAndPrometheusExposeServeMetrics) {
  ServeConfig C;
  C.Jobs = 2;
  Server S(C);
  Collector Col;
  S.submit("{\"op\":\"ping\",\"id\":\"p\"}", Col.fn());
  S.submit("this is not json", Col.fn());
  S.submit(pubRequest("m0", ",\"k\":30,\"rounds\":8"), Col.fn());
  ASSERT_TRUE(Col.waitFor(3, 60000));

  Json St = S.statsJson();
  EXPECT_EQ(St.find("proto")->asString(), ProtoName);
  EXPECT_EQ(St.find("requests")->asU64(0), 3u);
  EXPECT_EQ(St.find("admitted")->asU64(0), 1u);
  EXPECT_EQ(St.find("errors")->asU64(0), 1u);
  EXPECT_EQ(St.find("jobs")->asU64(0), 2u);
  ASSERT_NE(St.find("cache"), nullptr);

  std::string Prom = S.registry().toPrometheus();
  EXPECT_NE(Prom.find("serve_requests_total"), std::string::npos);
  EXPECT_NE(Prom.find("serve_queue_depth"), std::string::npos);
  EXPECT_NE(Prom.find("serve_request_duration_us"), std::string::npos);
  S.drain();
}

TEST(Server, MalformedAndUnpreparableRequestsAreIsolated) {
  ServeConfig C;
  C.Jobs = 2;
  Server S(C);
  Collector Col;
  // Parse error, schema error, prepare errors (including clients the
  // engine would abort on): all structured, all answered, daemon stays
  // up.
  S.submit("{{{", Col.fn());
  S.submit("{\"op\":\"warp\",\"id\":\"x\"}", Col.fn());
  S.submit("{\"op\":\"bench\",\"id\":\"b\",\"bench\":\"nope\"}",
           Col.fn());
  S.submit("{\"op\":\"synth\",\"id\":\"c\",\"source\":\"int f() { return 0; "
           "}\",\"client\":\"nosuch()\"}",
           Col.fn());
  S.submit("{\"op\":\"synth\",\"id\":\"a\",\"source\":\"int f(int a) { "
           "return a; }\",\"client\":\"f()\"}",
           Col.fn());
  ASSERT_TRUE(Col.waitFor(5, 60000));
  EXPECT_EQ(Col.withStatus("error").size(), 5u);
  // Still serving after the errors, inline and on the dispatcher.
  S.submit("{\"op\":\"ping\",\"id\":\"alive\"}", Col.fn());
  EXPECT_EQ(Col.byId("alive").find("status")->asString(), "ok");
  S.submit(pubRequest("next", ",\"k\":10,\"rounds\":1"), Col.fn());
  ASSERT_TRUE(Col.waitFor(7, 60000));
  EXPECT_EQ(Col.byId("next").find("status")->asString(), "ok");
  S.drain();
}

} // namespace
