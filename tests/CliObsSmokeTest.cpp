//===- CliObsSmokeTest.cpp - End-to-end CLI observability smoke -----------===//
//
// Drives the real `dfence` binary (path injected as DFENCE_BIN by CMake)
// on a Table 2 benchmark with --trace-out / --metrics-out and validates
// the artifacts: both files parse as JSON, the trace contains the
// round / slot / sat_solve span hierarchy, and the metrics counters are
// populated. Also pins down the CLI hardening contract: unknown flags
// exit 2 with a pointed message, and --help lists every observability
// flag; and `dfence bench` reports the same fences as `dfence serve` for
// the same request. Runs as part of tier 1 so the end-to-end path cannot
// rot.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>
#include <sys/wait.h>

using namespace dfence;

#ifndef DFENCE_BIN
#error "DFENCE_BIN must be defined to the dfence executable path"
#endif

namespace {

/// Runs \p Cmd through the shell; returns the exit status (-1 on spawn
/// failure) and leaves combined stdout+stderr in \p Output.
int runCommand(const std::string &Cmd, std::string &Output) {
  Output.clear();
  FILE *P = popen((Cmd + " 2>&1").c_str(), "r");
  if (!P)
    return -1;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), P)) > 0)
    Output.append(Buf, N);
  int Status = pclose(P);
  if (Status == -1)
    return -1;
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

Json parseOrFail(const std::string &Text, const std::string &What) {
  std::string Error;
  std::optional<Json> J = Json::parse(Text, Error);
  EXPECT_TRUE(J.has_value()) << What << ": " << Error;
  return J ? *J : Json();
}

} // namespace

TEST(CliObsSmokeTest, TraceAndMetricsArtifactsAreValid) {
  const std::string MetricsPath = "cli_obs_metrics.json";
  const std::string TracePath = "cli_obs_trace.json";
  std::string Out;
  int Exit = runCommand(std::string(DFENCE_BIN) +
                            " bench \"Chase-Lev WSQ\" --model pso"
                            " --spec sc --k 100 --rounds 4 --jobs 2"
                            " --metrics-out " + MetricsPath +
                            " --trace-out " + TracePath,
                        Out);
  ASSERT_EQ(Exit, 0) << Out;
  EXPECT_NE(Out.find("metrics: " + MetricsPath), std::string::npos) << Out;
  EXPECT_NE(Out.find("trace: " + TracePath), std::string::npos) << Out;

  // The metrics artifact: schema + populated counters that add up.
  Json Metrics = parseOrFail(readFile(MetricsPath), MetricsPath);
  ASSERT_NE(Metrics.find("schema"), nullptr);
  EXPECT_EQ(Metrics.find("schema")->asString(), "dfence-metrics-v1");
  const Json *Counters = Metrics.find("counters");
  ASSERT_NE(Counters, nullptr);
  ASSERT_NE(Counters->find("synth_executions_total"), nullptr);
  EXPECT_GT(Counters->find("synth_executions_total")->asU64(), 0u);
  ASSERT_NE(Counters->find("synth_rounds_total"), nullptr);
  EXPECT_GT(Counters->find("synth_rounds_total")->asU64(), 0u);
  ASSERT_NE(Counters->find("vm_steps_total"), nullptr);
  EXPECT_GT(Counters->find("vm_steps_total")->asU64(), 0u);
  EXPECT_NE(Metrics.find("gauges"), nullptr);
  EXPECT_NE(Metrics.find("histograms"), nullptr);

  // The trace artifact: Chrome trace-event JSON with the span hierarchy.
  Json Trace = parseOrFail(readFile(TracePath), TracePath);
  const Json *Events = Trace.find("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_TRUE(Events->isArray());
  std::set<std::string> Names;
  for (const Json &E : Events->items())
    Names.insert(E.find("name")->asString());
  EXPECT_TRUE(Names.count("synthesize")) << "missing synthesize span";
  EXPECT_TRUE(Names.count("round")) << "missing round spans";
  EXPECT_TRUE(Names.count("slot")) << "missing per-execution spans";
  // Chase-Lev under PSO/SC violates, so a repair (SAT solve + fence
  // enforcement) must appear in the trace.
  EXPECT_TRUE(Names.count("sat_solve")) << "missing sat_solve span";
  EXPECT_TRUE(Names.count("enforce")) << "missing enforce span";
  EXPECT_TRUE(Names.count("thread_name")) << "missing thread metadata";

  std::remove(MetricsPath.c_str());
  std::remove(TracePath.c_str());
}

TEST(CliObsSmokeTest, PrometheusExtensionSelectsTextFormat) {
  const std::string Path = "cli_obs_metrics.prom";
  std::string Out;
  int Exit = runCommand(std::string(DFENCE_BIN) +
                            " bench \"MSN Queue\" --model pso --spec sc"
                            " --k 50 --rounds 1 --metrics-out " + Path,
                        Out);
  ASSERT_EQ(Exit, 0) << Out;
  std::string Text = readFile(Path);
  EXPECT_NE(Text.find("# TYPE dfence_synth_executions_total counter"),
            std::string::npos)
      << Text.substr(0, 400);
  EXPECT_NE(Text.find("dfence_synth_executions_total 50"),
            std::string::npos);
  std::remove(Path.c_str());
}

TEST(CliObsSmokeTest, UnknownFlagExitsTwoWithPointedError) {
  std::string Out;
  int Exit = runCommand(std::string(DFENCE_BIN) +
                            " bench \"MSN Queue\" --bogus-flag 1",
                        Out);
  EXPECT_EQ(Exit, 2);
  EXPECT_NE(Out.find("unknown flag '--bogus-flag'"), std::string::npos)
      << Out;
  EXPECT_NE(Out.find("--help"), std::string::npos) << Out;
}

TEST(CliObsSmokeTest, MissingFlagValueExitsTwo) {
  std::string Out;
  int Exit = runCommand(std::string(DFENCE_BIN) +
                            " bench \"MSN Queue\" --metrics-out",
                        Out);
  EXPECT_EQ(Exit, 2);
  EXPECT_NE(Out.find("requires a value"), std::string::npos) << Out;
}

TEST(CliObsSmokeTest, HelpListsEveryObservabilityFlag) {
  std::string Out;
  int Exit = runCommand(std::string(DFENCE_BIN) + " --help", Out);
  EXPECT_EQ(Exit, 0);
  for (const char *Flag :
       {"--metrics-out", "--trace-out", "--log-level", "--log-json",
        "--jobs", "--repro", "--replay", "--k", "--rounds"})
    EXPECT_NE(Out.find(Flag), std::string::npos)
        << "help is missing " << Flag << "\n" << Out;
}

TEST(CliObsSmokeTest, InvalidLogLevelExitsTwo) {
  std::string Out;
  int Exit = runCommand(std::string(DFENCE_BIN) +
                            " bench \"MSN Queue\" --k 50 --rounds 1"
                            " --log-level loud",
                        Out);
  EXPECT_EQ(Exit, 2);
  EXPECT_NE(Out.find("log-level"), std::string::npos) << Out;
}

//===--- Flag-spelling contract: --key value and --key=value are -----------
//===--- interchangeable for every value flag, and boolean flags ----------
//===--- strictly reject an inline value with exit 2. ---------------------===//

TEST(CliObsSmokeTest, EqualsAndSpaceFlagSpellingsAgree) {
  // The same run spelled both ways must print identical results (the
  // parser normalizes the spelling before anything else sees it).
  std::string SpaceOut, EqOut;
  int SpaceExit = runCommand(std::string(DFENCE_BIN) +
                                 " bench \"MSN Queue\" --k 50"
                                 " --rounds 1 --jobs 2 --cache on",
                             SpaceOut);
  int EqExit = runCommand(std::string(DFENCE_BIN) +
                              " bench \"MSN Queue\" --k=50"
                              " --rounds=1 --jobs=2 --cache=on",
                          EqOut);
  EXPECT_EQ(SpaceExit, EqExit);
  EXPECT_EQ(SpaceOut, EqOut);
  EXPECT_NE(EqOut.find("result:"), std::string::npos) << EqOut;
}

TEST(CliObsSmokeTest, BooleanFlagRejectsInlineValue) {
  std::string Out;
  int Exit = runCommand(std::string(DFENCE_BIN) +
                            " bench \"MSN Queue\" --k 50 --rounds 1"
                            " --no-merge=1",
                        Out);
  EXPECT_EQ(Exit, 2);
  EXPECT_NE(Out.find("takes no value"), std::string::npos) << Out;
}

TEST(CliObsSmokeTest, ServeFlagsGoThroughTheSameParser) {
  // The serve command rides the same flag machinery: unknown flags and
  // missing values exit 2 before any daemon state is created.
  std::string Out;
  int Exit = runCommand(std::string(DFENCE_BIN) + " serve --bogus 1",
                        Out);
  EXPECT_EQ(Exit, 2);
  EXPECT_NE(Out.find("unknown flag '--bogus'"), std::string::npos)
      << Out;
  Exit = runCommand(std::string(DFENCE_BIN) + " serve --queue", Out);
  EXPECT_EQ(Exit, 2);
  EXPECT_NE(Out.find("requires a value"), std::string::npos) << Out;
  Exit =
      runCommand(std::string(DFENCE_BIN) + " serve --no-stdio=yes", Out);
  EXPECT_EQ(Exit, 2);
  EXPECT_NE(Out.find("takes no value"), std::string::npos) << Out;
  // Bad serve option values are caught before the server spins up.
  Exit = runCommand(std::string(DFENCE_BIN) + " serve --cache=maybe",
                    Out);
  EXPECT_EQ(Exit, 2);
  EXPECT_NE(Out.find("--cache"), std::string::npos) << Out;
}

TEST(CliObsSmokeTest, ContradictorySlotFlagsExitTwo) {
  // slots x jobs-per-slot must fit an explicit --jobs budget; a
  // contradiction is a hard error, not a silent re-partition.
  std::string Out;
  int Exit = runCommand(std::string(DFENCE_BIN) +
                            " serve --jobs 2 --slots 2 --jobs-per-slot 2",
                        Out);
  EXPECT_EQ(Exit, 2);
  EXPECT_NE(Out.find("exceeds"), std::string::npos) << Out;
  // Even without an explicit per-slot width: each slot needs at least
  // one worker from the budget.
  Exit = runCommand(std::string(DFENCE_BIN) + " serve --jobs 2 --slots 4",
                    Out);
  EXPECT_EQ(Exit, 2);
  EXPECT_NE(Out.find("exceeds"), std::string::npos) << Out;
  // Zero-width requests are nonsense.
  Exit = runCommand(std::string(DFENCE_BIN) + " serve --slots 0", Out);
  EXPECT_EQ(Exit, 2);
  EXPECT_NE(Out.find("--slots"), std::string::npos) << Out;
  Exit = runCommand(std::string(DFENCE_BIN) + " serve --jobs-per-slot 0",
                    Out);
  EXPECT_EQ(Exit, 2);
  EXPECT_NE(Out.find("--jobs-per-slot"), std::string::npos) << Out;
  // --slots belongs to serve alone; the strict per-command flag table
  // rejects it anywhere else.
  Exit = runCommand(std::string(DFENCE_BIN) +
                        " bench \"MSN Queue\" --k 50 --rounds 1 --slots 2",
                    Out);
  EXPECT_EQ(Exit, 2);
  EXPECT_NE(Out.find("unknown flag '--slots'"), std::string::npos) << Out;
}

TEST(CliObsSmokeTest, UnsignedFlagsRejectNegativeOversizedAndTrailingText) {
  // A flag that lands in an unsigned field is read strictly: "-1" must
  // not wrap to the field's maximum. Only flags that stay harmless if the
  // check ever regresses are exercised here (stdin is empty, so a daemon
  // that did start would exit at once).
  struct {
    const char *Args;
    const char *Needle;
  } Cases[] = {
      {" serve --queue -1", "--queue"},
      {" serve --queue 4x", "--queue"},
      {" serve --cache-capacity -1", "--cache-capacity"},
      {" serve --cache-capacity 18446744073709551616", "--cache-capacity"},
      {" serve --deadline-ms -1", "--deadline-ms"},
      {" serve --deadline-ms 4294967296", "--deadline-ms"},
      {" bench \"LIFO WSQ\" --k 20 --total-ms -1", "--total-ms"},
      {" bench \"LIFO WSQ\" --k 20 --total-ms=+5", "--total-ms"},
      {" litmus /dev/null --client \"f()\" --seeds -3", "--seeds"},
      {" fuzz --count 1 --k 5 --rounds 1 --no-litmus"
       " --threads 1-4294967297",
       "--threads"},
  };
  for (const auto &Case : Cases) {
    std::string Out;
    int Exit = runCommand(std::string(DFENCE_BIN) + Case.Args + " </dev/null",
                          Out);
    EXPECT_EQ(Exit, 2) << Case.Args << ": " << Out;
    EXPECT_NE(Out.find(Case.Needle), std::string::npos)
        << Case.Args << ": " << Out;
  }
}

//===--- Fuzz command: the strict parser covers its flags, bad values ------
//===--- exit 2 before any campaign state is created, and same-seed -------
//===--- runs are byte-identical at the CLI level. ------------------------===//

TEST(CliObsSmokeTest, FuzzFlagSpellingsAgreeAndRunsAreByteIdentical) {
  // Same campaign spelled --key value vs --key=value, run twice: all
  // four outputs must be identical bytes — the fuzz path prints no
  // wall-clock text, so same-seed determinism is visible at the shell.
  const std::string SpaceCmd = std::string(DFENCE_BIN) +
                               " fuzz --fuzz-seed 11 --count 6 --k 40"
                               " --rounds 3 --threads 2-3";
  const std::string EqCmd = std::string(DFENCE_BIN) +
                            " fuzz --fuzz-seed=11 --count=6 --k=40"
                            " --rounds=3 --threads=2-3";
  std::string A, B, C;
  ASSERT_EQ(runCommand(SpaceCmd, A), 0) << A;
  ASSERT_EQ(runCommand(SpaceCmd, B), 0) << B;
  ASSERT_EQ(runCommand(EqCmd, C), 0) << C;
  EXPECT_EQ(A, B) << "same-seed fuzz reruns must be byte-identical";
  EXPECT_EQ(A, C) << "flag spellings must not change the campaign";
  EXPECT_NE(A.find("distinct fingerprint"), std::string::npos) << A;
}

TEST(CliObsSmokeTest, FuzzBadValuesExitTwo) {
  struct {
    const char *Flags;
    const char *Needle;
  } Cases[] = {
      {"--count 0", "--count"},
      {"--k 0", "--k"},
      {"--threads 0", "--threads"},
      {"--ops 9-2", "--ops"},
      {"--via-serve 0", "--via-serve"},
      {"--model sc", "--model"},
      {"--cache maybe", "--cache"},
      {"--families wsq,frobnicator", "frobnicator"},
      {"--no-litmus=1", "takes no value"},
  };
  for (const auto &Case : Cases) {
    std::string Out;
    int Exit = runCommand(std::string(DFENCE_BIN) + " fuzz " + Case.Flags,
                          Out);
    EXPECT_EQ(Exit, 2) << Case.Flags << ": " << Out;
    EXPECT_NE(Out.find(Case.Needle), std::string::npos)
        << Case.Flags << ": " << Out;
  }
}

TEST(CliObsSmokeTest, FuzzSeedBelongsToFuzzAlone) {
  // --fuzz-seed is a fuzz flag; the strict per-command tables reject it
  // on every other command instead of silently ignoring it.
  for (const char *Cmd :
       {" bench \"MSN Queue\" --fuzz-seed 3", " serve --fuzz-seed 3"}) {
    std::string Out;
    int Exit = runCommand(std::string(DFENCE_BIN) + Cmd, Out);
    EXPECT_EQ(Exit, 2) << Cmd << ": " << Out;
    EXPECT_NE(Out.find("unknown flag '--fuzz-seed'"), std::string::npos)
        << Cmd << ": " << Out;
  }
}

TEST(CliObsSmokeTest, HelpDocumentsTheFuzzCommand) {
  std::string Out;
  int Exit = runCommand(std::string(DFENCE_BIN) + " --help", Out);
  EXPECT_EQ(Exit, 0);
  for (const char *Needle :
       {"fuzz", "--fuzz-seed", "--count", "--via-serve", "--families",
        "--no-litmus"})
    EXPECT_NE(Out.find(Needle), std::string::npos)
        << "help is missing " << Needle << "\n" << Out;
}

TEST(CliObsSmokeTest, FuzzMetricsArtifactCarriesFuzzCounters) {
  const std::string Path = "cli_fuzz_metrics.json";
  std::string Out;
  int Exit = runCommand(std::string(DFENCE_BIN) +
                            " fuzz --fuzz-seed 11 --count 4 --k 40"
                            " --rounds 3 --metrics-out " + Path,
                        Out);
  ASSERT_EQ(Exit, 0) << Out;
  Json Metrics = parseOrFail(readFile(Path), Path);
  const Json *Counters = Metrics.find("counters");
  ASSERT_NE(Counters, nullptr);
  ASSERT_NE(Counters->find("fuzz_scenarios_total"), nullptr);
  // 4 generated + 7 litmus shapes.
  EXPECT_EQ(Counters->find("fuzz_scenarios_total")->asU64(), 11u);
  ASSERT_NE(Counters->find("fuzz_violations_total"), nullptr);
  EXPECT_GT(Counters->find("fuzz_violations_total")->asU64(), 0u);
  const Json *Gauges = Metrics.find("gauges");
  ASSERT_NE(Gauges, nullptr);
  ASSERT_NE(Gauges->find("fuzz_distinct_fingerprints"), nullptr);
  EXPECT_GT(Gauges->find("fuzz_distinct_fingerprints")->asDouble(), 0.0);
  std::remove(Path.c_str());
}

TEST(CliObsSmokeTest, WallClockFlagReportsTimeoutWithPartialSummary) {
  std::string Out;
  int Exit = runCommand(std::string(DFENCE_BIN) +
                            " bench \"MS2 Queue\" --wall-clock=1"
                            " --k 400",
                        Out);
  // Timeout degrades to the static fallback, which counts as success.
  EXPECT_EQ(Exit, 0);
  EXPECT_NE(Out.find("result: timeout"), std::string::npos) << Out;
  EXPECT_NE(Out.find("wall-clock deadline"), std::string::npos) << Out;
  EXPECT_NE(Out.find("static fallback"), std::string::npos) << Out;

  // The legacy --total-ms spelling keeps its historical wording.
  Exit = runCommand(std::string(DFENCE_BIN) +
                        " bench \"MS2 Queue\" --total-ms=1 --k 400",
                    Out);
  EXPECT_EQ(Exit, 0);
  EXPECT_NE(Out.find("result: degraded"), std::string::npos) << Out;
}

// `dfence bench` resolves its flags through the daemon's request path, so
// the one-shot run and the same request sent to `dfence serve` must
// report the same fences. Chase-Lev gets two at this K under TSO.
TEST(CliObsSmokeTest, CliAndServeReportTheSameFences) {
  std::string Out;
  int Exit = runCommand(std::string(DFENCE_BIN) +
                            " bench \"Chase-Lev WSQ\" --model tso --k 200"
                            " --rounds 4 --jobs 1",
                        Out);
  ASSERT_EQ(Exit, 0) << Out;
  // Fence lines are the indented lines after "result: N enforcement(s)".
  std::vector<std::string> CliFences;
  std::istringstream Lines(Out);
  for (std::string Line; std::getline(Lines, Line);)
    if (Line.rfind("  ", 0) == 0)
      CliFences.push_back(Line.substr(2));
  ASSERT_FALSE(CliFences.empty()) << Out;

  Exit = runCommand(
      "printf '%s\\n' '{\"op\":\"bench\",\"id\":\"b\","
      "\"bench\":\"Chase-Lev WSQ\",\"model\":\"tso\",\"k\":200,"
      "\"rounds\":4}' | " +
          std::string(DFENCE_BIN) + " serve --jobs 1",
      Out);
  ASSERT_EQ(Exit, 0) << Out;
  std::vector<std::string> ServeFences;
  bool Answered = false;
  std::istringstream Resps(Out);
  for (std::string Line; std::getline(Resps, Line);) {
    Json J = parseOrFail(Line, "serve response");
    const Json *Id = J.find("id");
    if (!Id || Id->asString() != "b")
      continue;
    Answered = true;
    EXPECT_EQ(J.find("status")->asString(), "ok") << Line;
    const Json *Result = J.find("result");
    ASSERT_NE(Result, nullptr) << Line;
    for (const Json &F : Result->find("fences")->items())
      ServeFences.push_back(F.asString());
  }
  ASSERT_TRUE(Answered) << Out;
  EXPECT_EQ(CliFences, ServeFences);
}
