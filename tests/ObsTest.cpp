//===- ObsTest.cpp - Observability layer unit tests -----------------------===//
//
// Covers the src/obs/ building blocks in isolation: sharded counter
// merging (including genuinely concurrent increments), gauge semantics,
// histogram bucketing and percentile interpolation, registry export
// well-formedness (JSON and Prometheus), Chrome-trace JSON structure,
// null-sink safety of the Span/OBS_* helpers, the structured logger's
// level filter and JSON-lines shape, SAT solve-stats population, and the
// metrics snapshot riding inside crash-repro bundles.
//
//===----------------------------------------------------------------------===//

#include "harness/ReproBundle.h"
#include "obs/Convergence.h"
#include "obs/Obs.h"
#include "sat/MinimalModels.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace dfence;
using namespace dfence::obs;

namespace {

/// Runs \p Fn with a temporary FILE* and returns everything written.
template <class Fn> std::string captureFile(Fn &&F) {
  FILE *Tmp = std::tmpfile();
  EXPECT_NE(Tmp, nullptr);
  F(Tmp);
  std::fflush(Tmp);
  long Len = std::ftell(Tmp);
  std::rewind(Tmp);
  std::string Out(static_cast<size_t>(Len), '\0');
  size_t Read = std::fread(Out.data(), 1, Out.size(), Tmp);
  Out.resize(Read);
  std::fclose(Tmp);
  return Out;
}

Json parseOrFail(const std::string &Text) {
  std::string Error;
  std::optional<Json> J = Json::parse(Text, Error);
  EXPECT_TRUE(J.has_value()) << Error << "\nin: " << Text;
  return J ? *J : Json();
}

} // namespace

TEST(CounterTest, ShardsMergeInAnyDistribution) {
  Counter C;
  // The same total spread across different shards must read back as the
  // same merged value — this is the heart of the cross-jobs determinism
  // contract (shard choice encodes *where* an event was counted, never
  // *how many*).
  C.add(5, 0);
  C.add(7, 3);
  C.add(1, 31);
  C.add(2, 32); // Wraps to shard 0.
  EXPECT_EQ(C.value(), 15u);

  Counter D;
  D.add(15, 9);
  EXPECT_EQ(D.value(), C.value());
}

TEST(CounterTest, ConcurrentAddsAreLossless) {
  Counter C;
  constexpr unsigned Threads = 8;
  constexpr uint64_t PerThread = 20000;
  std::vector<std::thread> Ts;
  for (unsigned I = 0; I != Threads; ++I)
    Ts.emplace_back([&C, I] {
      for (uint64_t N = 0; N != PerThread; ++N)
        C.add(1, I);
    });
  for (std::thread &T : Ts)
    T.join();
  EXPECT_EQ(C.value(), Threads * PerThread);
}

TEST(GaugeTest, SetAddMax) {
  Gauge G;
  EXPECT_EQ(G.value(), 0.0);
  G.set(2.5);
  EXPECT_EQ(G.value(), 2.5);
  G.add(1.5);
  EXPECT_EQ(G.value(), 4.0);
  G.max(3.0); // Below current: no effect.
  EXPECT_EQ(G.value(), 4.0);
  G.max(10.0);
  EXPECT_EQ(G.value(), 10.0);
}

TEST(HistogramTest, BucketingRespectsUpperBounds) {
  Histogram H({1.0, 10.0, 100.0});
  ASSERT_EQ(H.numBuckets(), 4u); // Three edges plus overflow.
  H.observe(0.5);  // <= 1
  H.observe(1.0);  // <= 1 (edges are inclusive upper bounds)
  H.observe(5.0);  // <= 10
  H.observe(99.0); // <= 100
  H.observe(1e6);  // overflow
  EXPECT_EQ(H.bucketCount(0), 2u);
  EXPECT_EQ(H.bucketCount(1), 1u);
  EXPECT_EQ(H.bucketCount(2), 1u);
  EXPECT_EQ(H.bucketCount(3), 1u);
  EXPECT_EQ(H.count(), 5u);
  EXPECT_DOUBLE_EQ(H.minimum(), 0.5);
  EXPECT_DOUBLE_EQ(H.maximum(), 1e6);
  EXPECT_GT(H.sum(), 1e6 - 1);
}

TEST(HistogramTest, PercentileInterpolatesWithinBucket) {
  Histogram H({10.0, 20.0, 30.0});
  EXPECT_EQ(H.percentile(0.5), 0.0); // Empty histogram.
  for (int I = 0; I != 100; ++I)
    H.observe(15.0); // All mass in the (10, 20] bucket.
  double P50 = H.percentile(0.50);
  EXPECT_GE(P50, 10.0);
  EXPECT_LE(P50, 20.0);
  EXPECT_GE(H.percentile(0.99), P50);
}

TEST(HistogramTest, DefaultTimeBoundsAreStrictlyIncreasing) {
  std::vector<double> B = Histogram::defaultTimeBoundsUs();
  ASSERT_GE(B.size(), 2u);
  for (size_t I = 1; I != B.size(); ++I)
    EXPECT_LT(B[I - 1], B[I]) << "at index " << I;
}

TEST(RegistryTest, MetricsAreIdempotentByName) {
  Registry R;
  Counter &A = R.counter("x_total");
  Counter &B = R.counter("x_total");
  EXPECT_EQ(&A, &B);
  Gauge &G1 = R.gauge("g");
  Gauge &G2 = R.gauge("g");
  EXPECT_EQ(&G1, &G2);
  Histogram &H1 = R.histogram("h", {1.0, 2.0});
  Histogram &H2 = R.histogram("h", {9.0}); // Bounds ignored after creation.
  EXPECT_EQ(&H1, &H2);
  EXPECT_EQ(H2.bounds().size(), 2u);
}

TEST(RegistryTest, JsonExportsParseAndSort) {
  Registry R;
  // Registered intentionally out of order; exports must sort by name.
  R.counter("zeta_total").add(3);
  R.counter("alpha_total").add(1);
  R.gauge("util").set(0.5);
  R.histogram("lat_us", {10.0, 100.0}).observe(42.0);

  Json Full = parseOrFail(R.toJson().dump(2));
  ASSERT_NE(Full.find("schema"), nullptr);
  const Json *Counters = Full.find("counters");
  ASSERT_NE(Counters, nullptr);
  ASSERT_EQ(Counters->members().size(), 2u);
  EXPECT_EQ(Counters->members()[0].first, "alpha_total");
  EXPECT_EQ(Counters->members()[1].first, "zeta_total");
  EXPECT_EQ(Counters->members()[1].second.asU64(), 3u);
  ASSERT_NE(Full.find("gauges"), nullptr);
  ASSERT_NE(Full.find("histograms"), nullptr);

  // The deterministic subset holds counters only.
  Json Det = parseOrFail(R.countersJson().dump());
  ASSERT_NE(Det.find("counters"), nullptr);
  EXPECT_EQ(Det.find("gauges"), nullptr);
  EXPECT_EQ(Det.find("histograms"), nullptr);
}

TEST(RegistryTest, PrometheusExposition) {
  Registry R;
  R.counter("synth_rounds_total").add(4);
  R.gauge("vm_buf_high_water").set(6);
  R.histogram("queue_wait_us", {1.0, 10.0}).observe(3.0);
  std::string Text = R.toPrometheus();
  EXPECT_NE(Text.find("# TYPE dfence_synth_rounds_total counter"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("dfence_synth_rounds_total 4"), std::string::npos);
  EXPECT_NE(Text.find("# TYPE dfence_vm_buf_high_water gauge"),
            std::string::npos);
  EXPECT_NE(Text.find("dfence_queue_wait_us_bucket"), std::string::npos);
  EXPECT_NE(Text.find("dfence_queue_wait_us_count 1"), std::string::npos);
  EXPECT_NE(Text.find("le=\"+Inf\""), std::string::npos);
}

TEST(RegistryTest, PrometheusHistogramExpositionIsCumulative) {
  // The histogram exposition pinned byte-for-byte: cumulative _bucket
  // series with inclusive le edges, the +Inf overflow line equal to
  // _count, then _sum and _count. Scrapers rely on this exact shape.
  Registry R;
  Histogram &H = R.histogram("lat_us", {1.0, 10.0});
  H.observe(0.5);
  H.observe(5.0);
  H.observe(5.0);
  H.observe(100.0);
  EXPECT_EQ(R.toPrometheus(),
            "# TYPE dfence_lat_us histogram\n"
            "dfence_lat_us_bucket{le=\"1\"} 1\n"
            "dfence_lat_us_bucket{le=\"10\"} 3\n"
            "dfence_lat_us_bucket{le=\"+Inf\"} 4\n"
            "dfence_lat_us_sum 110.5\n"
            "dfence_lat_us_count 4\n");
}

TEST(RegistryTest, HistogramJsonCarriesPercentilesAndBuckets) {
  Registry R;
  Histogram &H = R.histogram("h_us", {1.0, 10.0, 100.0});
  for (int I = 0; I != 90; ++I)
    H.observe(5.0);
  for (int I = 0; I != 10; ++I)
    H.observe(50.0);
  Json Doc = parseOrFail(R.toJson().dump());
  const Json *HJ = Doc.find("histograms")->find("h_us");
  ASSERT_NE(HJ, nullptr);
  ASSERT_NE(HJ->find("p50"), nullptr);
  ASSERT_NE(HJ->find("p90"), nullptr);
  ASSERT_NE(HJ->find("p95"), nullptr);
  ASSERT_NE(HJ->find("p99"), nullptr);
  double P50 = HJ->find("p50")->asDouble(0);
  double P90 = HJ->find("p90")->asDouble(0);
  double P99 = HJ->find("p99")->asDouble(0);
  EXPECT_LE(P50, P90);
  EXPECT_LE(P90, P99);
  // 90% of the mass is in (1, 10], the rest in (10, 100]: p50 must
  // interpolate inside the second bucket, p99 inside the third.
  EXPECT_GT(P50, 1.0);
  EXPECT_LE(P50, 10.0);
  EXPECT_GT(P99, 10.0);
  EXPECT_LE(P99, 100.0);
  // Empty buckets are skipped: only the two populated ones appear.
  const Json *Buckets = HJ->find("buckets");
  ASSERT_NE(Buckets, nullptr);
  ASSERT_EQ(Buckets->items().size(), 2u);
  EXPECT_EQ(Buckets->items()[0].find("count")->asU64(), 90u);
  EXPECT_EQ(Buckets->items()[1].find("count")->asU64(), 10u);
}

TEST(TraceTest, ChromeTraceJsonIsWellFormed) {
  TraceSink Sink;
  Sink.setThreadName(0, "merge");
  Sink.setThreadName(1, "worker-1");
  {
    OBS_SPAN(Round, &Sink, "round", "synth", 0);
    Round.arg("round", uint64_t(1));
    OBS_SPAN(Slot, &Sink, "slot", "exec", 1);
    Slot.arg("index", uint64_t(17));
    Slot.arg("outcome", std::string("ok"));
  }
  Json Args = Json::object();
  Args.set("round", Json::number(uint64_t(1)));
  Sink.instant("first_violation", "synth", 0, std::move(Args));
  EXPECT_EQ(Sink.eventCount(), 3u); // Metadata events not counted.

  Json Doc = parseOrFail(Sink.toJson().dump());
  const Json *Events = Doc.find("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_TRUE(Events->isArray());
  // 3 real events + process_name + 2 thread_name metadata records.
  EXPECT_EQ(Events->items().size(), 6u);
  unsigned Complete = 0, Instant = 0, Meta = 0;
  bool SawSlotArgs = false;
  for (const Json &E : Events->items()) {
    const std::string &Ph = E.find("ph")->asString();
    if (Ph == "X") {
      ++Complete;
      ASSERT_NE(E.find("ts"), nullptr);
      ASSERT_NE(E.find("dur"), nullptr);
      if (E.find("name")->asString() == "slot") {
        const Json *A = E.find("args");
        ASSERT_NE(A, nullptr);
        EXPECT_EQ(A->find("index")->asU64(), 17u);
        EXPECT_EQ(A->find("outcome")->asString(), "ok");
        EXPECT_EQ(E.find("tid")->asU64(), 1u);
        SawSlotArgs = true;
      }
    } else if (Ph == "i") {
      ++Instant;
    } else if (Ph == "M") {
      ++Meta;
      const std::string &Name = E.find("name")->asString();
      EXPECT_TRUE(Name == "thread_name" || Name == "process_name")
          << Name;
    }
  }
  EXPECT_EQ(Complete, 2u);
  EXPECT_EQ(Instant, 1u);
  EXPECT_EQ(Meta, 3u);
  EXPECT_TRUE(SawSlotArgs);
}

TEST(TraceTest, SpanNestingOrdersTimestamps) {
  TraceSink Sink;
  {
    OBS_SPAN(Outer, &Sink, "outer", "t", 0);
    OBS_SPAN(Inner, &Sink, "inner", "t", 0);
  } // Inner closes first (reverse declaration order).
  Json Doc = parseOrFail(Sink.toJson().dump());
  std::vector<Json> Ev;
  for (const Json &E : Doc.find("traceEvents")->items())
    if (E.find("ph")->asString() == "X")
      Ev.push_back(E);
  ASSERT_EQ(Ev.size(), 2u);
  EXPECT_EQ(Ev[0].find("name")->asString(), "inner");
  EXPECT_EQ(Ev[1].find("name")->asString(), "outer");
  // The outer span must fully contain the inner one.
  uint64_t InS = Ev[0].find("ts")->asU64();
  uint64_t InE = InS + Ev[0].find("dur")->asU64();
  uint64_t OutS = Ev[1].find("ts")->asU64();
  uint64_t OutE = OutS + Ev[1].find("dur")->asU64();
  EXPECT_LE(OutS, InS);
  EXPECT_GE(OutE, InE);
}

TEST(TraceTest, ConcurrentSpansFromEightWorkersStayWellFormed) {
  // The sink's contract under --jobs 8: eight workers emitting nested
  // spans concurrently (as the exec pool does per slot) must produce a
  // parseable trace where every thread's inner span is contained in its
  // outer span and nothing is lost or interleaved across threads.
  TraceSink Sink;
  constexpr unsigned Workers = 8;
  constexpr unsigned SpansPerWorker = 50;
  std::vector<std::thread> Ts;
  for (unsigned W = 0; W != Workers; ++W)
    Ts.emplace_back([&Sink, W] {
      for (unsigned I = 0; I != SpansPerWorker; ++I) {
        OBS_SPAN(Outer, &Sink, "slot", "exec", W);
        Outer.arg("index", static_cast<uint64_t>(I));
        OBS_SPAN(Inner, &Sink, "check", "exec", W);
      }
    });
  for (std::thread &T : Ts)
    T.join();
  EXPECT_EQ(Sink.eventCount(), Workers * SpansPerWorker * 2);

  Json Doc = parseOrFail(Sink.toJson().dump());
  // Per thread: collect complete events in emission order (the sink
  // appends at span end, so inner precedes its outer), then check
  // pairwise containment and per-thread count.
  std::vector<std::vector<Json>> ByTid(Workers);
  for (const Json &E : Doc.find("traceEvents")->items()) {
    if (E.find("ph")->asString() != "X")
      continue;
    uint64_t Tid = E.find("tid")->asU64();
    ASSERT_LT(Tid, Workers);
    ByTid[Tid].push_back(E);
  }
  for (unsigned W = 0; W != Workers; ++W) {
    ASSERT_EQ(ByTid[W].size(), SpansPerWorker * 2) << "tid " << W;
    for (unsigned I = 0; I != SpansPerWorker; ++I) {
      const Json &Inner = ByTid[W][2 * I];
      const Json &Outer = ByTid[W][2 * I + 1];
      EXPECT_EQ(Inner.find("name")->asString(), "check");
      EXPECT_EQ(Outer.find("name")->asString(), "slot");
      uint64_t InS = Inner.find("ts")->asU64();
      uint64_t InE = InS + Inner.find("dur")->asU64();
      uint64_t OutS = Outer.find("ts")->asU64();
      uint64_t OutE = OutS + Outer.find("dur")->asU64();
      EXPECT_LE(OutS, InS) << "tid " << W << " span " << I;
      EXPECT_GE(OutE, InE) << "tid " << W << " span " << I;
    }
  }
}

TEST(TraceTest, NullSinkSpanAndCountersAreSafe) {
  // The disabled-observability path: every helper must be callable with
  // null sinks and do nothing.
  {
    OBS_SPAN(S, static_cast<TraceSink *>(nullptr), "x", "y", 0);
    S.arg("k", uint64_t(1));
    S.arg("d", 2.0);
    S.arg("s", std::string("v"));
    S.end();
    S.end(); // Idempotent on null too.
  }
  Counter *C = nullptr;
  OBS_COUNT(C, 5);
  ObsContext Empty;
  EXPECT_EQ(counterOrNull(nullptr, "a"), nullptr);
  EXPECT_EQ(counterOrNull(&Empty, "a"), nullptr);
  EXPECT_EQ(gaugeOrNull(&Empty, "a"), nullptr);
  EXPECT_EQ(histogramOrNull(&Empty, "a"), nullptr);
  EXPECT_EQ(traceOrNull(&Empty), nullptr);
  EXPECT_EQ(traceOrNull(nullptr), nullptr);
  EXPECT_EQ(logOrNull(&Empty), nullptr);
  EXPECT_EQ(profilerOrNull(&Empty), nullptr);
  EXPECT_EQ(profilerOrNull(nullptr), nullptr);
}

TEST(TraceTest, SpanEndIsIdempotent) {
  TraceSink Sink;
  {
    OBS_SPAN(S, &Sink, "once", "t", 0);
    S.end();
    S.end(); // Second end and the destructor must not re-emit.
  }
  EXPECT_EQ(Sink.eventCount(), 1u);
}

TEST(LogTest, LevelFilterAndPlainShape) {
  std::string Out = captureFile([](FILE *F) {
    Logger L(LogLevel::Warn, /*JsonLines=*/false, F);
    EXPECT_FALSE(L.enabled(LogLevel::Debug));
    EXPECT_TRUE(L.enabled(LogLevel::Error));
    L.debug("synth", "hidden");
    L.info("synth", "hidden too");
    L.warn("synth", "degraded", {{"reason", "budget"}});
  });
  EXPECT_EQ(Out.find("hidden"), std::string::npos);
  EXPECT_NE(Out.find("[warn]"), std::string::npos) << Out;
  EXPECT_NE(Out.find("synth"), std::string::npos);
  EXPECT_NE(Out.find("reason=budget"), std::string::npos) << Out;
}

TEST(LogTest, JsonLinesParseIndividually) {
  std::string Out = captureFile([](FILE *F) {
    Logger L(LogLevel::Debug, /*JsonLines=*/true, F);
    L.info("cli", "start", {{"model", "pso"}, {"k", "100"}});
    L.error("harness", "timeout", {{"exec", "12"}});
  });
  std::vector<std::string> Lines;
  size_t Pos = 0;
  while (Pos < Out.size()) {
    size_t Nl = Out.find('\n', Pos);
    if (Nl == std::string::npos)
      break;
    Lines.push_back(Out.substr(Pos, Nl - Pos));
    Pos = Nl + 1;
  }
  ASSERT_EQ(Lines.size(), 2u) << Out;
  Json First = parseOrFail(Lines[0]);
  EXPECT_EQ(First.find("level")->asString(), "info");
  EXPECT_EQ(First.find("component")->asString(), "cli");
  EXPECT_EQ(First.find("msg")->asString(), "start");
  EXPECT_EQ(First.find("model")->asString(), "pso");
  Json Second = parseOrFail(Lines[1]);
  EXPECT_EQ(Second.find("level")->asString(), "error");
  EXPECT_EQ(Second.find("exec")->asString(), "12");
}

TEST(LogTest, OffSuppressesEverythingAndNamesParse) {
  std::string Out = captureFile([](FILE *F) {
    Logger L(LogLevel::Off, false, F);
    L.error("synth", "even errors");
  });
  EXPECT_TRUE(Out.empty());
  EXPECT_EQ(logLevelByName("debug"), LogLevel::Debug);
  EXPECT_EQ(logLevelByName("warn"), LogLevel::Warn);
  EXPECT_EQ(logLevelByName("off"), LogLevel::Off);
  EXPECT_FALSE(logLevelByName("verbose").has_value());
}

TEST(ProfilerTest, PhaseNamesAreStable) {
  // Dashboard series names hang off these; renames are breaking.
  EXPECT_STREQ(phaseName(Phase::Exec), "exec");
  EXPECT_STREQ(phaseName(Phase::SpecCheck), "spec_check");
  EXPECT_STREQ(phaseName(Phase::SatSolve), "sat_solve");
  EXPECT_STREQ(phaseName(Phase::Enforce), "enforce");
  EXPECT_STREQ(phaseName(Phase::Fold), "fold");
  EXPECT_STREQ(phaseName(Phase::RoundOther), "round_other");
  EXPECT_EQ(NumPhases, 6u);
}

TEST(ProfilerTest, FlushExecAttributesRemainderAndCountsOps) {
  Registry Reg;
  Profiler P(Reg, {"const", "load"});
  const uint64_t Ops[] = {5, 7};
  P.flushExec(/*ExecNs=*/10000, /*CheckNs=*/2000, Ops, /*Worker=*/0);
  // A slot that was not judged (discarded) observes no spec_check.
  P.flushExec(/*ExecNs=*/3000, /*CheckNs=*/0, Ops, /*Worker=*/40);

  // Both times land in their histograms in microseconds, and the
  // watermark the round remainder (round_other) is computed from covers
  // them, so the per-round attribution stays total.
  EXPECT_EQ(Reg.histogram("obs_phase_exec_us").count(), 2u);
  EXPECT_DOUBLE_EQ(Reg.histogram("obs_phase_exec_us").sum(), 13.0);
  EXPECT_EQ(Reg.histogram("obs_phase_spec_check_us").count(), 1u);
  EXPECT_DOUBLE_EQ(Reg.histogram("obs_phase_spec_check_us").sum(), 2.0);
  EXPECT_EQ(P.totalNs(), 15000u);

  EXPECT_EQ(Reg.counter("obs_op_const_steps_total").value(), 10u);
  EXPECT_EQ(Reg.counter("obs_op_load_steps_total").value(), 14u);
  EXPECT_EQ(Reg.counter("obs_execs_profiled_total").value(), 2u);
}

TEST(ProfilerTest, ObservePhaseFeedsHistogramAndWatermark) {
  Registry Reg;
  Profiler P(Reg, {"nop"});
  uint64_t Before = P.totalNs();
  P.observePhaseNs(Phase::SatSolve, 2500);
  P.observePhaseNs(Phase::RoundOther, 500);
  EXPECT_EQ(Reg.histogram("obs_phase_sat_solve_us").count(), 1u);
  EXPECT_DOUBLE_EQ(Reg.histogram("obs_phase_sat_solve_us").sum(), 2.5);
  EXPECT_EQ(P.totalNs() - Before, 3000u);
}

TEST(ConvergenceTest, RoundLogWriterEmitsOneParseableLinePerRound) {
  std::ostringstream OS;
  RoundLogWriter W(OS);
  for (unsigned I = 1; I <= 3; ++I) {
    Json R = Json::object();
    R.set("round", Json::number(static_cast<uint64_t>(I)));
    R.set("executions", Json::number(static_cast<uint64_t>(100 * I)));
    W.write(R);
  }
  std::istringstream In(OS.str());
  std::string Line;
  unsigned Round = 0;
  while (std::getline(In, Line)) {
    ++Round;
    Json J = parseOrFail(Line);
    EXPECT_EQ(J.find("round")->asU64(), Round);
    EXPECT_EQ(J.find("executions")->asU64(), 100u * Round);
  }
  EXPECT_EQ(Round, 3u);
}

TEST(SolveStatsTest, MinimumModelFillsStats) {
  sat::MonotoneCnf F;
  F.NumVars = 4;
  F.Clauses = {{0, 1}, {1, 2}, {2, 3}};
  bool Unsat = false;
  sat::SolveStats SS;
  std::vector<sat::Var> Model = sat::minimumModel(F, Unsat, &SS);
  EXPECT_FALSE(Unsat);
  EXPECT_FALSE(Model.empty());
  EXPECT_EQ(SS.Vars, 4u);
  EXPECT_EQ(SS.Clauses, 3u);
  EXPECT_EQ(SS.Models, 1u);
  EXPECT_GE(SS.Nodes, 1u);
  EXPECT_FALSE(SS.Truncated);
  // A null stats pointer keeps working (the default call shape).
  std::vector<sat::Var> Same = sat::minimumModel(F, Unsat);
  EXPECT_EQ(Model, Same);
}

TEST(SolveStatsTest, UnsatStillReportsShape) {
  sat::MonotoneCnf F;
  F.NumVars = 2;
  F.Clauses = {{}}; // The empty clause: unsatisfiable.
  bool Unsat = false;
  sat::SolveStats SS;
  sat::minimumModel(F, Unsat, &SS);
  EXPECT_TRUE(Unsat);
  EXPECT_EQ(SS.Vars, 2u);
  EXPECT_EQ(SS.Clauses, 1u);
  EXPECT_EQ(SS.Models, 0u);
}

TEST(ReproBundleTest, MetricsSnapshotRoundTrips) {
  Registry R;
  R.counter("synth_executions_total").add(300);
  R.counter("synth_violations_total").add(18);

  harness::ReproBundle B;
  B.ModuleText = "";
  B.Metrics = R.countersJson();

  std::string Dumped = B.toJson().dump(2);
  Json Parsed = parseOrFail(Dumped);
  std::string Error;
  std::optional<harness::ReproBundle> Back =
      harness::ReproBundle::fromJson(Parsed, Error);
  ASSERT_TRUE(Back.has_value()) << Error;
  EXPECT_EQ(Back->Metrics.dump(), B.Metrics.dump());
  const Json *Counters = Back->Metrics.find("counters");
  ASSERT_NE(Counters, nullptr);
  EXPECT_EQ(Counters->find("synth_executions_total")->asU64(), 300u);
}

TEST(ReproBundleTest, MetricsFieldIsOptional) {
  // Bundles written before the metrics snapshot existed (or with
  // observability off) must load and re-save without a metrics key.
  harness::ReproBundle B;
  B.ModuleText = "";
  std::string Dumped = B.toJson().dump();
  EXPECT_EQ(Dumped.find("\"metrics\""), std::string::npos);
  Json Parsed = parseOrFail(Dumped);
  std::string Error;
  std::optional<harness::ReproBundle> Back =
      harness::ReproBundle::fromJson(Parsed, Error);
  ASSERT_TRUE(Back.has_value()) << Error;
  EXPECT_TRUE(Back->Metrics.isNull());
}
