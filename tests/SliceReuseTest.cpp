//===- SliceReuseTest.cpp - Reused round slot storage across requests -----===//
//
// A pool slice keeps its round slot storage from one round and one request
// to the next (exec::PoolSlice::roundSlots). These tests run a sequence of
// different requests back to back on one slice — benchmark subjects and a
// source-level synth request under TSO and PSO, the lin, nogarbage and
// safety specs, the cache on (with a stored-round cache) and off, and one
// request whose round a stall fault plan cuts short — at widths 1 and 4,
// and check every request against the same request on a fresh pool:
// canonical result, counter snapshot (cache_check_* included) and stored
// rounds with their repair steps. The request that follows the truncated one shows that the slots
// the cut left behind are never folded, and the untraced requests that
// follow a traced one (whose workers describe every violation into its
// slot) that no such text leaks into a later result.
//
//===----------------------------------------------------------------------===//

#include "cache/ExecCache.h"
#include "exec/ExecPool.h"
#include "obs/Metrics.h"
#include "obs/Obs.h"
#include "obs/Trace.h"
#include "serve/Protocol.h"
#include "synth/Synthesizer.h"

#include <gtest/gtest.h>

using namespace dfence;

namespace {

const char *PubSource = R"(global int FLAG = 0;
global int PTR = 0;
int writer() { int p = malloc(2); *p = 5; PTR = p; FLAG = 1; return 0; }
int reader() { int f = FLAG; if (f == 1) { int p = PTR; return *p; } return 0; }
)";

struct Request {
  std::string Json; ///< A serve-protocol synth/bench request.
  bool Cache = true;
  bool Truncate = false; ///< Stall each execution and cut the run short.
  /// Record a trace: the workers then describe every violation into its
  /// slot, text a later untraced request must never see.
  bool Traced = false;
};

std::vector<Request> requests() {
  auto Bench = [](const char *Name, const char *Model, const char *Spec,
                  unsigned K) {
    return "{\"op\":\"bench\",\"id\":\"r\",\"bench\":\"" + std::string(Name) +
           "\",\"model\":\"" + Model + "\",\"spec\":\"" + Spec +
           "\",\"k\":" + std::to_string(K) + ",\"rounds\":6,\"seed\":11}";
  };
  std::string Pub = "{\"op\":\"synth\",\"id\":\"r\",\"source\":" +
                    Json::string(PubSource).dump() +
                    ",\"client\":\"writer()|reader();reader()\","
                    "\"model\":\"pso\",\"spec\":\"safety\",\"k\":120}";
  return {
      {Bench("Michael Allocator", "pso", "lin", 150), true, false, true},
      {Bench("Chase-Lev WSQ", "pso", "lin", 150), true, false},
      {Bench("FIFO iWSQ", "tso", "nogarbage", 100), false, false},
      {Pub, true, false},
      {Bench("Michael Allocator", "pso", "lin", 200), false, true},
      {Bench("LIFO iWSQ", "pso", "nogarbage", 120), true, false},
      {Bench("MS2 Queue", "tso", "safety", 80), true, false},
      {Bench("Harris Set", "pso", "lin", 100), false, false},
  };
}

struct Outcome {
  synth::SynthResult R;
  std::string Canon;
  std::string Counters;
  cache::ExecCache Cache;
};

/// Runs \p Req on \p Slice, with a private stored-round cache when the
/// request caches.
void run(const Request &Req, exec::PoolSlice &Slice, Outcome &Out) {
  std::string Err;
  std::optional<Json> J = Json::parse(Req.Json, Err);
  ASSERT_TRUE(J) << Err;
  std::optional<serve::ServeRequest> SR = serve::parseRequest(*J, Err);
  ASSERT_TRUE(SR) << Err;
  std::optional<serve::SynthJob> Job = serve::prepareJob(*SR, Err);
  ASSERT_TRUE(Job) << Err;
  obs::Registry Reg;
  obs::TraceSink Trace;
  obs::ObsContext Obs{&Reg, Req.Traced ? &Trace : nullptr, nullptr};
  synth::SynthConfig Cfg = Job->Cfg;
  Cfg.Slice = &Slice;
  Cfg.Obs = &Obs;
  Cfg.CacheEnabled = Req.Cache;
  if (Req.Cache)
    Cfg.ExecResultCache = &Out.Cache;
  if (Req.Truncate) {
    Cfg.Faults.StallMs = 2;
    Cfg.TotalWallMs = 40;
  }
  Out.R = synth::synthesize(Job->M, Job->Clients, Cfg);
  Out.Canon = serve::resultToJson(Out.R).dump();
  Out.Counters = Reg.countersJson().dump();
}

void sequenceMatchesFreshPools(unsigned Width) {
  exec::ExecPool Shared(Width);
  std::vector<Request> Reqs = requests();
  for (size_t I = 0; I != Reqs.size(); ++I) {
    const Request &Req = Reqs[I];
    std::string What = "width " + std::to_string(Width) + " request " +
                       std::to_string(I) + ": " + Req.Json.substr(0, 60);
    Outcome Reused;
    run(Req, Shared.slice(0), Reused);
    if (Req.Truncate) {
      // Where a deadline cuts is a matter of timing, so there is no fresh
      // twin to compare with; the next request checks what it left.
      ASSERT_FALSE(Reused.R.RoundLog.empty()) << What;
      EXPECT_TRUE(Reused.R.RoundLog.back().Truncated) << What;
      EXPECT_LT(Reused.R.TotalExecutions, Reused.R.Rounds * 200u) << What;
      continue;
    }
    exec::ExecPool Fresh(Width);
    Outcome Twin;
    run(Req, Fresh.slice(0), Twin);
    EXPECT_EQ(Reused.Canon, Twin.Canon) << What;
    EXPECT_EQ(Reused.Counters, Twin.Counters) << What;
    EXPECT_EQ(Reused.Cache.size(), Twin.Cache.size()) << What;
    EXPECT_EQ(Reused.Cache.bytes(), Twin.Cache.bytes()) << What;
    EXPECT_TRUE(Reused.Cache.rounds() == Twin.Cache.rounds()) << What;
    if (Req.Cache) {
      EXPECT_GT(Reused.Cache.size(), 0u) << What;
      // The comparison covers the repair steps: every solved round stored
      // one.
      size_t Steps = 0, Solved = 0;
      for (const auto &[Key, Round] : Reused.Cache.rounds())
        Steps += Round.Step.has_value();
      for (const synth::RoundStats &S : Reused.R.RoundLog)
        Solved += S.SatModels;
      EXPECT_EQ(Steps, Solved) << What;
    }
  }
}

} // namespace

TEST(SliceReuseTest, RequestSequenceMatchesFreshPoolsAtWidthOne) {
  sequenceMatchesFreshPools(1);
}

TEST(SliceReuseTest, RequestSequenceMatchesFreshPoolsAtWidthFour) {
  sequenceMatchesFreshPools(4);
}
