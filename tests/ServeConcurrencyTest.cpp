//===- ServeConcurrencyTest.cpp - concurrent dispatcher tests -------------===//
//
// In-process tests of the partitioned serve dispatcher against the
// concurrency acceptance criteria:
//
//   * overload with N slots: a paused multi-slot server still sheds
//     exactly the excess beyond queue capacity — slot count never
//     changes admission accounting;
//   * priority: with the queue full, high-priority requests are
//     dispatched before earlier-admitted normal ones (FIFO within a
//     level), and a high request at a full queue is still shed —
//     priority orders dispatch, never admission;
//   * drain joins all slots: work spread across every slot completes
//     and is answered before drain() returns, and post-drain submits
//     are rejected;
//   * byte-identity under concurrency: distinct requests interleaved
//     across 4 slots return canonical results byte-identical to
//     sequential one-shot runs of the same requests — cold cache and
//     warm (second identical round through the shared cache);
//   * one shared cache, no request-wide lock: a cheap request for the
//     same program as a long-running one runs beside it on the other
//     slot instead of waiting for it.
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "serve/Protocol.h"
#include "synth/Synthesizer.h"

#include <gtest/gtest.h>

#include <condition_variable>
#include <map>
#include <mutex>
#include <string>
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

std::string pubRequest(const std::string &Id, const std::string &Extra) {
  return "{\"op\":\"synth\",\"id\":\"" + Id +
         "\",\"source\":" + Json::string(PubSource).dump() +
         ",\"client\":\"writer()|reader();reader()\","
         "\"spec\":\"safety\"" +
         Extra + "}";
}

/// Thread-safe response sink; Resps order is completion order, which is
/// what the priority test asserts on.
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

  /// Ids of completed (non-rejected) responses, in completion order.
  std::vector<std::string> completionOrder() {
    std::lock_guard<std::mutex> L(Mu);
    std::vector<std::string> Out;
    for (const Json &J : Resps)
      if (const Json *St = J.find("status");
          St && St->asString() != "rejected")
        Out.push_back(J.find("id")->asString());
    return Out;
  }
};

TEST(ServeConcurrency, PausedMultiSlotServerShedsExactlyTheExcess) {
  ServeConfig C;
  C.Jobs = 3;
  C.Slots = 3;
  C.QueueCapacity = 3;
  C.StartPaused = true; // No slot pops: the queue alone absorbs work.
  Server S(C);
  Collector Col;
  for (int I = 0; I != 7; ++I)
    S.submit(pubRequest("q" + std::to_string(I), ",\"k\":25"), Col.fn());
  // Exactly the 4 beyond capacity were rejected, inline, before resume.
  auto Shed = Col.withStatus("rejected");
  ASSERT_EQ(Shed.size(), 4u);
  for (const Json &R : Shed)
    EXPECT_EQ(R.find("reason")->asString(), "queue_full");
  S.resume();
  ASSERT_TRUE(Col.waitFor(7, 60000));
  EXPECT_EQ(Col.withStatus("ok").size(), 3u);
  S.drain();
}

TEST(ServeConcurrency, PriorityOrdersDispatchButNeverAdmission) {
  ServeConfig C;
  C.Jobs = 1;
  C.Slots = 1; // Serial dispatch makes completion order deterministic.
  C.QueueCapacity = 6;
  C.StartPaused = true;
  Server S(C);
  Collector Col;
  // Admission order: four normal, then two high (queue now full), then
  // one more high — shed despite its level.
  for (int I = 0; I != 4; ++I)
    S.submit(pubRequest("n" + std::to_string(I), ",\"k\":25"), Col.fn());
  S.submit(pubRequest("h0", ",\"k\":25,\"priority\":\"high\""), Col.fn());
  S.submit(pubRequest("h1", ",\"k\":25,\"priority\":\"high\""), Col.fn());
  S.submit(pubRequest("hshed", ",\"k\":25,\"priority\":\"high\""),
           Col.fn());
  Json Rej = Col.byId("hshed");
  ASSERT_FALSE(Rej.isNull()) << "full queue must shed, even high";
  EXPECT_EQ(Rej.find("status")->asString(), "rejected");
  EXPECT_EQ(Rej.find("reason")->asString(), "queue_full");

  S.resume();
  ASSERT_TRUE(Col.waitFor(7, 60000));
  S.drain();
  // High level drains first; FIFO within each level.
  std::vector<std::string> Want{"h0", "h1", "n0", "n1", "n2", "n3"};
  EXPECT_EQ(Col.completionOrder(), Want);
}

TEST(ServeConcurrency, DrainJoinsAllSlotsAndAnswersEverything) {
  ServeConfig C;
  C.Jobs = 4;
  C.Slots = 4; // Width-1 slices.
  Server S(C);
  EXPECT_EQ(S.slots(), 4u);
  EXPECT_EQ(S.jobsPerSlot(), 1u);
  Collector Col;
  for (int I = 0; I != 8; ++I)
    S.submit(pubRequest("d" + std::to_string(I), ",\"k\":40"), Col.fn());
  // drain() must not return before every admitted request is answered,
  // wherever it ran.
  S.drain();
  EXPECT_EQ(Col.count(), 8u);
  EXPECT_EQ(Col.withStatus("ok").size(), 8u);
  // Post-drain work is rejected, inline.
  S.submit(pubRequest("late", ",\"k\":25"), Col.fn());
  Json Late = Col.byId("late");
  ASSERT_FALSE(Late.isNull());
  EXPECT_EQ(Late.find("status")->asString(), "rejected");
  EXPECT_EQ(Late.find("reason")->asString(), "draining");
  S.drain(); // Idempotent.
}

TEST(ServeConcurrency, InterleavedResultsByteIdenticalToSequential) {
  // Four distinct requests (different K -> different round plans and,
  // under PSO, different fence sets are possible). Each is compared
  // against its own sequential one-shot run.
  const std::vector<std::string> Extras{
      ",\"k\":60,\"rounds\":4", ",\"k\":90,\"rounds\":4",
      ",\"k\":120,\"rounds\":4", ",\"k\":150,\"rounds\":4"};

  // Sequential reference: one fresh single-slot width-1 server per
  // request, nothing shared, cold cache.
  std::map<std::string, std::string> Want;
  for (size_t I = 0; I != Extras.size(); ++I) {
    ServeConfig C;
    C.Jobs = 1;
    Server Ref(C);
    Collector Col;
    std::string Id = "r" + std::to_string(I);
    Ref.submit(pubRequest(Id, Extras[I]), Col.fn());
    ASSERT_TRUE(Col.waitFor(1, 60000));
    Ref.drain();
    Json R = Col.byId(Id);
    ASSERT_EQ(R.find("status")->asString(), "ok") << R.dump();
    Want[Id] = R.find("result")->dump();
  }

  // Concurrent: all four interleaved across 4 slots — twice, so round
  // two runs against the warm shared cache.
  ServeConfig C;
  C.Jobs = 4;
  C.Slots = 4;
  Server S(C);
  Collector Cold, Warm;
  for (size_t I = 0; I != Extras.size(); ++I)
    S.submit(pubRequest("r" + std::to_string(I), Extras[I]), Cold.fn());
  ASSERT_TRUE(Cold.waitFor(Extras.size(), 120000));
  for (size_t I = 0; I != Extras.size(); ++I)
    S.submit(pubRequest("r" + std::to_string(I), Extras[I]), Warm.fn());
  ASSERT_TRUE(Warm.waitFor(Extras.size(), 120000));
  S.drain();

  bool SawWarmHit = false;
  for (size_t I = 0; I != Extras.size(); ++I) {
    std::string Id = "r" + std::to_string(I);
    Json RC = Cold.byId(Id), RW = Warm.byId(Id);
    ASSERT_EQ(RC.find("status")->asString(), "ok") << RC.dump();
    ASSERT_EQ(RW.find("status")->asString(), "ok") << RW.dump();
    // The canonical result may not move a byte: not across slots
    // (slice-width independence), not across interleavings, not warm
    // vs cold (cache hits replay recorded results bit-for-bit).
    EXPECT_EQ(RC.find("result")->dump(), Want[Id]) << Id << " (cold)";
    EXPECT_EQ(RW.find("result")->dump(), Want[Id]) << Id << " (warm)";
    SawWarmHit |= RW.find("cache")->find("execHits")->asU64(0) > 0;
  }
  EXPECT_TRUE(SawWarmHit)
      << "repeat round should hit the warm shared cache";
}

TEST(ServeConcurrency, SameProgramRequestsRunSideBySide) {
  // Two width-1 slots and two requests for one program and client. A
  // stalls 5 ms per execution (a fault plan, which also keeps its rounds
  // out of the cache), so it runs for about 1.5 s. B stalls 1 ms per
  // execution, a few tens of milliseconds in all, and must answer within
  // 500 ms of admission: it runs on the other slot while A is still
  // going. A request-wide cache lock would hold B until A finished, past
  // its deadline, and B would answer timeout.
  ServeConfig C;
  C.Jobs = 2;
  C.Slots = 2;
  Server S(C);
  Collector Col;
  S.submit(pubRequest("a", ",\"k\":300,\"rounds\":1,"
                           "\"faults\":{\"stallMs\":5}"),
           Col.fn());
  bool Running = false;
  for (int I = 0; I != 2000 && !Running; ++I) {
    Json Status = S.statusJson();
    for (const Json &Slot : Status.find("slots")->items())
      if (const Json *Id = Slot.find("id"); Id && Id->asString() == "a")
        Running = true;
    if (!Running)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(Running) << "request a never started";

  S.submit(pubRequest("b", ",\"k\":30,\"deadlineMs\":500,"
                           "\"faults\":{\"stallMs\":1}"),
           Col.fn());
  ASSERT_TRUE(Col.waitFor(2, 60000));
  S.drain();
  EXPECT_EQ(Col.byId("b").find("status")->asString(), "ok")
      << Col.byId("b").dump();
  EXPECT_EQ(Col.completionOrder().front(), "b");
}

} // namespace
