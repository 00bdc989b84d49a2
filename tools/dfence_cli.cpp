//===- dfence_cli.cpp - The dfence command-line tool ----------------------===//
//
// The reproduction's counterpart of the paper's DFENCE tool driver:
//
//   dfence compile <file.mc>
//       Compile MiniC and dump the IR.
//
//   dfence run <file.mc> --func NAME [--args 1,2,...]
//       Run one function sequentially (SC) and print its result.
//
//   dfence litmus <file.mc> --client DSL [--model sc|tso|pso]
//       [--seeds N] [--flush P]
//       Execute a concurrent client many times and print the histogram
//       of per-thread return tuples.
//
//   dfence synth <file.mc> --client DSL [--model tso|pso]
//       [--spec safety|nogarbage|sc|lin] [--seq-spec wsq|queue|...]
//       [--k N] [--rounds N] [--flush P] [--enforce fence|cas|atomic]
//       [--init FUNC] [--no-merge] [--dump]
//       Run dynamic fence synthesis and report the inferred fences.
//
//   dfence bench <benchmark-name> [--model ...] [--spec ...]
//       Synthesis for one of the built-in Table-2 benchmarks
//       ("list" prints their names).
//
//   dfence --replay <bundle.json>
//       Deterministically re-execute a crash-repro bundle captured with
//       --repro and check that the recorded violation reproduces.
//
//   dfence serve [--jobs N] [--slots N] [--queue N] [--listen PORT]
//       [--socket PATH] [--metrics-port PORT] [--no-stdio] ...
//       Long-lived synthesis daemon answering JSON-lines requests on
//       stdio and/or sockets (docs/SERVICE.md).
//
//   dfence fuzz [--fuzz-seed S] [--count N] [--families a,b]
//       [--via-serve N] [--report FILE] ...
//       Seeded scenario campaign, outcomes deduped by repair fingerprint
//       (docs/FUZZING.md).
//
// synth and bench fill a serve request from their flags and resolve it
// with serve::prepareJob, exactly as the daemon does.
//
// Synthesis resilience flags: --exec-ms N (per-execution watchdog),
// --retries N (discard retry budget), --round-ms N / --total-ms N (wall
// budgets; on exhaustion synthesis degrades to conservative static
// fencing), --repro PATH (write crash-repro bundles of violating
// executions).
//
// Synthesis performance: --jobs N runs each round's K executions on N
// worker threads (default: the machine's hardware concurrency). Results
// merge in execution-index order, so the output is bit-identical for any
// N — --jobs only changes the wall clock.
//
// Client DSL: "put(1);take()|steal();steal()" — threads separated by
// '|', calls by ';', '$N' references the thread's N-th return value.
//
//===----------------------------------------------------------------------===//

#include "driver/ClientDsl.h"
#include "driver/SpecRegistry.h"
#include "exec/ExecPool.h"
#include "frontend/Compiler.h"
#include "fuzz/Campaign.h"
#include "fuzz/Generator.h"
#include "fuzz/LitmusCorpus.h"
#include "harness/ReproBundle.h"
#include "ir/Instr.h"
#include "ir/Printer.h"
#include "obs/Convergence.h"
#include "obs/Obs.h"
#include "programs/Benchmark.h"
#include "serve/Protocol.h"
#include "serve/Server.h"
#include "serve/Transport.h"
#include "support/StringUtils.h"
#include "synth/Synthesizer.h"
#include "vm/Interp.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>

using namespace dfence;

namespace {

struct Options {
  std::string Command;
  std::string File;
  std::map<std::string, std::string> Flags;

  bool has(const std::string &K) const { return Flags.count(K) != 0; }
  std::string get(const std::string &K,
                  const std::string &Default = "") const {
    auto It = Flags.find(K);
    return It == Flags.end() ? Default : It->second;
  }
  long getInt(const std::string &K, long Default) const {
    auto It = Flags.find(K);
    return It == Flags.end() ? Default : std::stol(It->second);
  }
  double getDouble(const std::string &K, double Default) const {
    auto It = Flags.find(K);
    return It == Flags.end() ? Default : std::stod(It->second);
  }
};

void printHelp(FILE *Out) {
  std::fprintf(
      Out,
      "usage: dfence <command> <file|name> [flags]\n"
      "\n"
      "commands:\n"
      "  compile <file.mc>               compile MiniC and dump the IR\n"
      "  run     <file.mc>               run one function sequentially "
      "(SC)\n"
      "  litmus  <file.mc>               execute a concurrent client "
      "repeatedly\n"
      "  synth   <file.mc>               dynamic fence synthesis\n"
      "  bench   <name|list>             synthesis on a built-in Table-2 "
      "benchmark\n"
      "  replay  <bundle.json>           re-execute a crash-repro bundle "
      "(also: --replay)\n"
      "  serve                           long-lived synthesis daemon "
      "(JSON-lines)\n"
      "  fuzz                            seeded scenario campaign with "
      "fingerprint dedup\n"
      "  --help                          print this help\n"
      "\n"
      "run flags:\n"
      "  --func NAME         function to call (required)\n"
      "  --args 1,2          comma-separated integer arguments\n"
      "\n"
      "litmus flags:\n"
      "  --client DSL        client script: threads '|', calls ';', "
      "'$N' backrefs\n"
      "  --init FUNC         initialization function run before the "
      "threads\n"
      "  --model sc|tso|pso  memory model (default pso)\n"
      "  --seeds N           number of executions (default 1000)\n"
      "  --flush P           scheduler flush probability (default: "
      "0.1 tso, 0.5 otherwise)\n"
      "\n"
      "synth / bench flags:\n"
      "  --client DSL        client script (synth only; bench has "
      "built-in clients)\n"
      "  --init FUNC         initialization function (synth only)\n"
      "  --model tso|pso     memory model (default pso)\n"
      "  --spec KIND         safety|nogarbage|sc|lin\n"
      "  --seq-spec NAME     sequential spec, one of: %s\n"
      "  --k N               executions per round (default 1000)\n"
      "  --rounds N          maximum rounds (default 16)\n"
      "  --flush P           flush probability (default: per-model "
      "portfolio)\n"
      "  --enforce MODE      fence|cas|atomic (default fence)\n"
      "  --no-merge          keep redundant fences\n"
      "  --dump              print the fenced module\n"
      "  --jobs N            worker threads per round; 0 = hardware "
      "concurrency\n"
      "                      (default 0; the result is bit-identical at "
      "any N)\n"
      "  --cache on|off      the cache statistics (default on; results "
      "are\n"
      "                      byte-identical either way). A one-shot run "
      "keeps no\n"
      "                      execution cache, so its round-log "
      "execMisses read 0\n"
      "  --exec-ms N         per-execution wall-clock watchdog\n"
      "  --retries N         retry budget for discarded executions "
      "(default 2)\n"
      "  --round-ms N        wall-clock budget per round\n"
      "  --total-ms N        wall-clock budget for the whole run\n"
      "  --wall-clock N      hard deadline in ms: cancels mid-round and "
      "reports\n"
      "                      'result: timeout' with a partial-result "
      "summary\n"
      "  --repro PATH        write crash-repro bundles of violating "
      "executions\n"
      "\n"
      "serve flags:\n"
      "  --jobs N            total worker pool width (0 = hardware)\n"
      "  --slots N           concurrent dispatcher slots, each with "
      "its own\n"
      "                      pool slice (default 1 = serial dispatch)\n"
      "  --jobs-per-slot N   pool-slice width per slot (default: --jobs "
      "divided\n"
      "                      evenly across slots, at least 1). "
      "slots x jobs-per-slot\n"
      "                      must not exceed an explicit --jobs\n"
      "  --queue N           admission queue capacity (default 16); "
      "overflow is\n"
      "                      shed with a structured rejected response\n"
      "  --deadline-ms N     default per-request deadline incl. queue "
      "wait\n"
      "  --request-retries N crash-isolation retries before static "
      "fallback\n"
      "  --retry-backoff-ms N  base backoff between request retries "
      "(default 50)\n"
      "  --cache on|off      shared cross-request execution cache\n"
      "  --cache-capacity N  executions the shared cache stores "
      "(default 32768)\n"
      "  --crash-dir DIR     where crash reports and repro bundles are "
      "written\n"
      "  --listen PORT       accept JSON-lines connections on "
      "localhost TCP\n"
      "  --socket PATH       accept JSON-lines connections on a unix "
      "socket\n"
      "  --metrics-port PORT HTTP endpoint serving Prometheus metrics\n"
      "  --slow-ms N         warn-log any request whose end-to-end time "
      "(queue\n"
      "                      wait included) exceeds N ms (default 0 = "
      "off)\n"
      "  --no-stdio          do not serve on stdin/stdout (socket-only "
      "daemon)\n"
      "\n"
      "fuzz flags:\n"
      "  --fuzz-seed S       64-bit campaign seed (default 1; hex with "
      "0x); the\n"
      "                      whole campaign is deterministic from it\n"
      "  --count N           generated scenarios (default 100)\n"
      "  --ops A-B           per-thread operation count range (default "
      "1-6)\n"
      "  --threads A-B       thread count range (default 2-4; min 2)\n"
      "  --families a,b      generator families (default all: wsq, iwsq, "
      "queue,\n"
      "                      set, stack, allocator)\n"
      "  --no-litmus         skip the litmus corpus scenarios\n"
      "  --via-serve N       fan the campaign through an in-process "
      "serve daemon\n"
      "                      with N dispatcher slots (default: direct "
      "path)\n"
      "  --model tso|pso     memory model (default pso)\n"
      "  --k N               executions per round per scenario (default "
      "60)\n"
      "  --rounds N          max rounds per scenario (default 6)\n"
      "  --jobs N            worker threads (0 = hardware; results are\n"
      "                      bit-identical at any N)\n"
      "  --cache on|off      result caches (default on)\n"
      "  --report FILE       write the JSONL campaign report (one line "
      "per\n"
      "                      scenario plus a summary line)\n"
      "\n"
      "observability flags (synth / bench):\n"
      "  --metrics-out FILE  write run metrics; .prom/.txt gets "
      "Prometheus text,\n"
      "                      anything else JSON; '-' writes JSON to "
      "stdout\n"
      "                      (also enables the phase profiler: "
      "obs_phase_*\n"
      "                      histograms and obs_op_* step counters)\n"
      "  --round-log FILE    append one JSON line per synthesis round "
      "(violations,\n"
      "                      new predicates, cache hits, SAT effort, "
      "wall time)\n"
      "  --trace-out FILE    write Chrome trace-event JSON (open in "
      "chrome://tracing\n"
      "                      or https://ui.perfetto.dev)\n"
      "  --log-level LEVEL   debug|info|warn|error|off; enables "
      "structured logging\n"
      "  --log-json          emit log lines as JSON objects\n",
      join(driver::knownSpecNames(), "|").c_str());
}

int usage() {
  printHelp(stderr);
  return 2;
}

/// Flags each command accepts; everything else is rejected with exit 2.
/// A leading '=' marks a boolean flag (present/absent, no value).
const std::map<std::string, std::vector<const char *>> &knownFlags() {
  static const std::map<std::string, std::vector<const char *>> Table = {
      {"compile", {}},
      {"run", {"func", "args"}},
      {"litmus", {"client", "init", "model", "seeds", "flush"}},
      {"synth",
       {"client", "init", "model", "spec", "seq-spec", "k", "rounds",
        "flush", "enforce", "=no-merge", "=dump", "jobs", "cache",
        "exec-ms", "retries", "round-ms", "total-ms",
        "wall-clock", "repro", "metrics-out", "trace-out", "round-log",
        "log-level", "=log-json"}},
      {"bench",
       {"model", "spec", "seq-spec", "k", "rounds", "flush", "enforce",
        "=no-merge", "=dump", "jobs", "cache", "exec-ms",
        "retries", "round-ms", "total-ms", "wall-clock", "repro",
        "metrics-out", "trace-out", "round-log", "log-level",
        "=log-json"}},
      // replay knows "round-log" only to reject it with a specific
      // message: a replay runs no rounds, and silently writing an empty
      // log would look like a successful-but-empty run.
      {"replay", {"round-log"}},
      {"serve",
       {"jobs", "slots", "jobs-per-slot", "queue", "deadline-ms",
        "request-retries",
        "retry-backoff-ms", "cache", "cache-capacity", "crash-dir",
        "listen", "socket", "metrics-port", "=no-stdio", "metrics-out",
        "slow-ms", "log-level", "=log-json"}},
      // fuzz owns --fuzz-seed; the strict per-command tables are what
      // reject it on every other command (CliObsSmokeTest pins that).
      {"fuzz",
       {"fuzz-seed", "count", "ops", "threads", "families", "=no-litmus",
        "via-serve", "model", "k", "rounds", "jobs", "cache", "report",
        "metrics-out", "log-level", "=log-json"}},
  };
  return Table;
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

/// Writes \p Metrics to \p Path: .prom/.txt gets the Prometheus text
/// format, any other file the JSON document, and "-" streams the JSON to
/// stdout. A written file is confirmed with a "metrics: PATH" line on
/// \p Confirm. Returns false, after an error message, when the file
/// cannot be written.
bool writeMetrics(const obs::Registry &Metrics, const std::string &Path,
                  FILE *Confirm) {
  if (Path == "-") {
    std::printf("%s\n", Metrics.toJson().dump(2).c_str());
    return true;
  }
  std::ofstream Out(Path);
  if (!Out) {
    std::fprintf(stderr, "error: cannot write %s\n", Path.c_str());
    return false;
  }
  auto EndsWith = [&](const char *Suf) {
    size_t N = std::strlen(Suf);
    return Path.size() >= N && Path.compare(Path.size() - N, N, Suf) == 0;
  };
  if (EndsWith(".prom") || EndsWith(".txt"))
    Out << Metrics.toPrometheus();
  else
    Out << Metrics.toJson().dump(2) << "\n";
  std::fprintf(Confirm, "metrics: %s\n", Path.c_str());
  return true;
}

int cmdCompile(const Options &Opt) {
  std::string Src;
  if (!readFile(Opt.File, Src)) {
    std::fprintf(stderr, "error: cannot read %s\n", Opt.File.c_str());
    return 1;
  }
  frontend::CompileResult CR = frontend::compileMiniC(Src);
  if (!CR.Ok) {
    std::fprintf(stderr, "%s: error: %s\n", Opt.File.c_str(),
                 CR.Error.c_str());
    return 1;
  }
  std::printf("%s", ir::printModule(CR.Module).c_str());
  std::printf("; %u source lines, %u instructions, %u stores\n",
              CR.SourceLines, CR.Module.totalInstrCount(),
              CR.Module.totalStoreCount());
  return 0;
}

int cmdRun(const Options &Opt) {
  std::string Src;
  if (!readFile(Opt.File, Src)) {
    std::fprintf(stderr, "error: cannot read %s\n", Opt.File.c_str());
    return 1;
  }
  frontend::CompileResult CR = frontend::compileMiniC(Src);
  if (!CR.Ok) {
    std::fprintf(stderr, "%s: error: %s\n", Opt.File.c_str(),
                 CR.Error.c_str());
    return 1;
  }
  std::string Func = Opt.get("func");
  if (Func.empty() || !CR.Module.findFunction(Func)) {
    std::fprintf(stderr, "error: --func must name a function\n");
    return 1;
  }
  std::vector<ir::Word> Args;
  std::string ArgStr = Opt.get("args");
  if (!ArgStr.empty()) {
    std::stringstream SS(ArgStr);
    std::string Tok;
    while (std::getline(SS, Tok, ','))
      Args.push_back(
          static_cast<ir::Word>(static_cast<int64_t>(std::stoll(Tok))));
  }
  ir::Word R = vm::runSequential(CR.Module, Func, Args);
  std::printf("%s(...) = %lld\n", Func.c_str(),
              static_cast<long long>(R));
  return 0;
}

int cmdLitmus(const Options &Opt) {
  std::string Src;
  if (!readFile(Opt.File, Src)) {
    std::fprintf(stderr, "error: cannot read %s\n", Opt.File.c_str());
    return 1;
  }
  frontend::CompileResult CR = frontend::compileMiniC(Src);
  if (!CR.Ok) {
    std::fprintf(stderr, "%s: error: %s\n", Opt.File.c_str(),
                 CR.Error.c_str());
    return 1;
  }
  std::string Error;
  auto Client = driver::parseClientDsl(Opt.get("client"), Error);
  if (!Client) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  Client->InitFunc = Opt.get("init");
  auto Model = serve::modelByName(Opt.get("model", "pso"));
  if (!Model) {
    std::fprintf(stderr, "error: unknown --model\n");
    return 1;
  }
  long Seeds = Opt.getInt("seeds", 1000);
  // The paper's tuned flush-delay probabilities per model (§6.3); an
  // explicit --flush always wins.
  double Flush = Opt.has("flush") ? Opt.getDouble("flush", 0.5)
                                  : vm::defaultFlushProb(*Model);

  std::map<std::string, int> Hist;
  int Violations = 0;
  for (long Seed = 1; Seed <= Seeds; ++Seed) {
    vm::ExecConfig Cfg;
    Cfg.Model = *Model;
    Cfg.Seed = static_cast<uint64_t>(Seed);
    Cfg.FlushProb = Flush;
    vm::ExecResult R = vm::runExecution(CR.Module, *Client, Cfg);
    if (R.Out != vm::Outcome::Completed) {
      ++Violations;
      ++Hist["<" + std::string(vm::outcomeName(R.Out)) + "> " +
             R.Message];
      continue;
    }
    std::vector<std::string> Rets;
    for (const vm::OpRecord &Op : R.Hist.Ops)
      Rets.push_back(strformat("%s=%lld", Op.Func.c_str(),
                               static_cast<long long>(Op.Ret)));
    ++Hist[join(Rets, " ")];
  }
  for (const auto &[Key, Count] : Hist)
    std::printf("%6d  %s\n", Count, Key.c_str());
  std::printf("%ld executions under %s, %d non-completed\n", Seeds,
              vm::memModelName(*Model), Violations);
  return 0;
}

/// `dfence synth` / `dfence bench`: fills \p Req's knobs from the flags and
/// resolves it with serve::prepareJob, the daemon's request path, so the
/// one-shot run and the daemon build the same configuration. Only the
/// execution environment is the CLI's own: --jobs, --wall-clock, the
/// observability sinks and the round log.
int runSynthesis(const Options &Opt, serve::ServeRequest Req) {
  Req.ClientDsl = Opt.get("client");
  Req.InitFunc = Opt.get("init");
  Req.Model = Opt.get("model", Req.Model);
  Req.Spec = Opt.get("spec");
  Req.SeqSpec = Opt.get("seq-spec");
  Req.Enforce = Opt.get("enforce", Req.Enforce);
  Req.K = static_cast<unsigned>(Opt.getInt("k", Req.K));
  Req.Rounds = static_cast<unsigned>(Opt.getInt("rounds", Req.Rounds));
  Req.Flush = Opt.getDouble("flush", Req.Flush);
  Req.NoMerge = Opt.has("no-merge");
  std::string CacheMode = Opt.get("cache", "on");
  if (CacheMode != "on" && CacheMode != "off") {
    std::fprintf(stderr, "error: --cache must be 'on' or 'off'\n");
    return 1;
  }
  Req.CacheOn = CacheMode == "on";
  Req.ExecMs = static_cast<uint32_t>(Opt.getInt("exec-ms", Req.ExecMs));
  Req.Retries = static_cast<unsigned>(Opt.getInt("retries", Req.Retries));
  Req.RoundMs = static_cast<uint32_t>(Opt.getInt("round-ms", Req.RoundMs));
  Req.TotalMs = static_cast<uint32_t>(Opt.getInt("total-ms", Req.TotalMs));
  // --wall-clock is the hard-deadline spelling of the total budget: it
  // also threads into in-flight rounds (the harness caps each
  // execution's watchdog to the remaining time) and flips the report
  // below to an explicit timeout with a partial-result summary.
  if (uint32_t WC = static_cast<uint32_t>(Opt.getInt("wall-clock", 0)))
    if (Req.TotalMs == 0 || WC < Req.TotalMs)
      Req.TotalMs = WC;
  std::string ReproPath = Opt.get("repro");
  Req.CaptureBundles = !ReproPath.empty();

  std::string Error;
  std::optional<serve::SynthJob> Job = serve::prepareJob(Req, Error);
  if (!Job) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  synth::SynthConfig &Cfg = Job->Cfg;
  // Parallel round engine; 0 = hardware concurrency (the CLI default —
  // deterministic merge makes the result identical at any width).
  Cfg.Jobs = static_cast<unsigned>(Opt.getInt("jobs", 0));

  // Observability (src/obs/): each sink is attached only when requested,
  // so a plain run pays nothing but null checks in the engine.
  std::string MetricsOut = Opt.get("metrics-out");
  std::string TraceOut = Opt.get("trace-out");
  obs::Registry Metrics;
  obs::TraceSink Trace;
  auto Level = obs::logLevelByName(Opt.get("log-level", "warn"));
  if (!Level) {
    std::fprintf(stderr, "error: --log-level must be one of "
                         "debug|info|warn|error|off\n");
    return 2;
  }
  obs::Logger Log(*Level, Opt.has("log-json"));
  obs::ObsContext Obs;
  if (!MetricsOut.empty())
    Obs.Metrics = &Metrics;
  if (!TraceOut.empty())
    Obs.Trace = &Trace;
  if (Opt.has("log-level") || Opt.has("log-json"))
    Obs.Log = &Log;
  // The flight recorder's phase profiler rides on the metrics registry:
  // requesting metrics output turns it on, every other run keeps the
  // null-shard fast path (zero clock reads in the engine's hot loops).
  std::optional<obs::Profiler> Prof;
  if (Obs.Metrics) {
    std::vector<std::string> OpNames;
    for (unsigned I = 0; I <= static_cast<unsigned>(ir::Opcode::Nop); ++I)
      OpNames.push_back(ir::opcodeName(static_cast<ir::Opcode>(I)));
    Prof.emplace(Metrics, OpNames);
    Obs.Prof = &*Prof;
  }
  if (Obs.Metrics || Obs.Trace || Obs.Log || Obs.Prof)
    Cfg.Obs = &Obs;

  // Convergence telemetry: one JSON line per round, usable while the
  // run is still going (the writer flushes per line).
  std::string RoundLogPath = Opt.get("round-log");
  std::ofstream RoundLogFile;
  std::optional<obs::RoundLogWriter> RoundLog;
  if (!RoundLogPath.empty()) {
    RoundLogFile.open(RoundLogPath);
    if (!RoundLogFile) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   RoundLogPath.c_str());
      return 1;
    }
    RoundLog.emplace(RoundLogFile);
    Cfg.RoundLog = &*RoundLog;
  }

  synth::SynthResult R = synth::synthesize(Job->M, Job->Clients, Cfg);
  if (R.Status == synth::SynthStatus::ConfigError) {
    std::fprintf(stderr, "error: %s\n", R.Error.c_str());
    return 1;
  }
  std::printf("model: %s, spec: %s, K=%u, jobs=%u, cache=%s\n",
              vm::memModelName(Cfg.Model), synth::specKindName(Cfg.Spec),
              Cfg.ExecsPerRound, exec::resolveJobs(Cfg.Jobs),
              CacheMode.c_str());
  for (const synth::RoundStats &S : R.RoundLog)
    std::printf("round %u: %llu violating / %llu executions, %u "
                "enforcement(s) in program\n",
                S.Round, static_cast<unsigned long long>(S.Violations),
                static_cast<unsigned long long>(S.Executions),
                S.FencesEnforced);
  if (R.DiscardedExecutions || R.RetriedExecutions ||
      R.TimedOutExecutions)
    std::printf("harness: %llu discarded, %llu retried, %llu "
                "timed out\n",
                static_cast<unsigned long long>(R.DiscardedExecutions),
                static_cast<unsigned long long>(R.RetriedExecutions),
                static_cast<unsigned long long>(R.TimedOutExecutions));
  if (R.SatTruncated)
    std::printf("sat: %u repair solve(s) hit the search budget; their "
                "predicate sets are minimal, not necessarily minimum\n",
                R.SatTruncated);
  if (R.Status == synth::SynthStatus::CannotFix)
    std::printf("result: violations not caused by reordering — cannot "
                "be fixed with fences\nfirst violation: %s\n",
                R.FirstViolation.c_str());
  else if (R.TimedOut && Opt.has("wall-clock"))
    // The explicit-deadline spelling reports a timeout with what the
    // partial run established, instead of a bare failure. (--total-ms
    // keeps the historical "degraded" wording below.)
    std::printf("result: timeout — wall-clock deadline (%lld ms) "
                "expired after %u round(s), %llu execution(s) (%llu "
                "violating); partial program carries %zu "
                "enforcement(s), %u from the static fallback\n",
                static_cast<long long>(Opt.getInt("wall-clock", 0)),
                R.Rounds,
                static_cast<unsigned long long>(R.TotalExecutions),
                static_cast<unsigned long long>(R.ViolatingExecutions),
                R.Fences.size(), R.StaticFallbackFences);
  else if (R.Status == synth::SynthStatus::Degraded)
    std::printf("result: degraded — %s; fell back to conservative "
                "static fencing (%u fence(s) added)\n",
                R.DegradeReason.c_str(), R.StaticFallbackFences);
  else if (R.Status != synth::SynthStatus::Converged)
    std::printf("result: %s — %s\n", synth::synthStatusName(R.Status),
                R.DegradeReason.c_str());
  else if (R.Fences.empty())
    std::printf("result: no fences needed\n");
  else {
    std::printf("result: %zu enforcement(s)\n", R.Fences.size());
    for (const synth::InsertedFence &F : R.Fences)
      std::printf("  %s\n", F.str().c_str());
  }
  if (!ReproPath.empty()) {
    for (size_t I = 0; I != R.Bundles.size(); ++I) {
      std::string Path =
          I == 0 ? ReproPath : strformat("%s.%zu", ReproPath.c_str(), I);
      std::string Error;
      if (R.Bundles[I].saveFile(Path, Error))
        std::printf("repro bundle: %s\n", Path.c_str());
      else
        std::fprintf(stderr, "warning: %s\n", Error.c_str());
    }
    if (R.Bundles.empty())
      std::printf("repro bundle: none captured (no violating "
                  "executions)\n");
  }
  if (Opt.has("dump"))
    std::printf("%s", ir::printModule(R.FencedModule).c_str());

  if (!MetricsOut.empty() && !writeMetrics(Metrics, MetricsOut, stdout))
    return 1;
  if (!TraceOut.empty()) {
    std::string Error;
    if (!Trace.saveFile(TraceOut, Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
    std::printf("trace: %s (%zu events)\n", TraceOut.c_str(),
                Trace.eventCount());
  }
  if (!RoundLogPath.empty())
    std::printf("round log: %s (%zu round(s))\n", RoundLogPath.c_str(),
                R.RoundLog.size());
  // Degraded counts as success: the output program is conservatively
  // fenced and safe, which is the harness's whole point.
  bool Safe = R.Status == synth::SynthStatus::Converged ||
              R.Status == synth::SynthStatus::Degraded;
  return Safe || R.Fences.empty() ? 0 : 1;
}

int cmdSynth(const Options &Opt) {
  serve::ServeRequest Req;
  Req.Kind = serve::ServeRequest::Op::Synth;
  if (!readFile(Opt.File, Req.Source)) {
    std::fprintf(stderr, "error: cannot read %s\n", Opt.File.c_str());
    return 1;
  }
  return runSynthesis(Opt, std::move(Req));
}

std::optional<synth::SpecKind> specKindByName(const std::string &S) {
  for (synth::SpecKind K :
       {synth::SpecKind::MemorySafety, synth::SpecKind::NoGarbage,
        synth::SpecKind::SequentialConsistency,
        synth::SpecKind::Linearizability})
    if (S == synth::specKindName(K))
      return K;
  return std::nullopt;
}

int cmdReplay(const Options &Opt) {
  if (Opt.has("round-log")) {
    // A replay runs a single recorded execution, never synthesis rounds;
    // accepting the flag would silently write an empty log.
    std::fprintf(stderr, "error: --round-log does not apply to replay "
                         "(a replay runs no synthesis rounds); use it "
                         "with 'dfence synth' or 'dfence bench'\n");
    return 2;
  }
  std::string Error;
  auto B = harness::ReproBundle::loadFile(Opt.File, Error);
  if (!B) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  std::printf("bundle: model %s, seed %llu, %zu trace action(s)\n",
              vm::memModelName(B->Model),
              static_cast<unsigned long long>(B->Seed),
              B->Trace.size());
  std::printf("recorded: <%s> %s\n", B->Outcome.c_str(),
              B->Message.c_str());

  auto R = harness::replayBundle(*B, Error);
  if (!R) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }

  // Reconstruct the diagnostic the recording run saw: VM-level outcomes
  // carry their own message; a Completed history needs the bundle's
  // advisory spec metadata to re-run the checker.
  std::string Message = R->Message;
  if (R->Out == vm::Outcome::Completed && !B->SpecName.empty()) {
    auto Kind = specKindByName(B->SpecName);
    if (!Kind) {
      std::fprintf(stderr, "error: bundle names unknown spec '%s'\n",
                   B->SpecName.c_str());
      return 1;
    }
    synth::SynthConfig Check;
    Check.Spec = *Kind;
    if (!B->SeqSpecName.empty()) {
      Check.Factory = driver::specByName(B->SeqSpecName);
      if (!Check.Factory) {
        std::fprintf(stderr,
                     "error: bundle names unknown seq-spec '%s'\n",
                     B->SeqSpecName.c_str());
        return 1;
      }
    }
    Message = synth::checkExecution(*R, Check);
  }
  std::printf("replayed: <%s> %s\n", vm::outcomeName(R->Out),
              Message.c_str());

  bool OutcomeMatch = vm::outcomeName(R->Out) == B->Outcome;
  bool MessageMatch = Message == B->Message;
  if (OutcomeMatch && MessageMatch) {
    std::printf("replay: reproduced the recorded violation exactly\n");
    return 0;
  }
  std::printf("replay: MISMATCH (%s differ)\n",
              OutcomeMatch ? "messages" : "outcomes");
  return 1;
}

int cmdBench(const Options &Opt) {
  if (Opt.File == "list") {
    for (const programs::Benchmark &B : programs::allBenchmarks())
      std::printf("%-20s %s\n", B.Name.c_str(), B.Description.c_str());
    for (const programs::Benchmark &B : programs::extendedBenchmarks())
      std::printf("%-20s %s (extended suite)\n", B.Name.c_str(),
                  B.Description.c_str());
    return 0;
  }
  serve::ServeRequest Req;
  Req.Kind = serve::ServeRequest::Op::Bench;
  Req.BenchName = Opt.File;
  return runSynthesis(Opt, std::move(Req));
}

/// `dfence serve`: the long-lived synthesis-as-a-service daemon
/// (src/serve/). One warm worker pool and one shared execution cache
/// serve JSON-lines requests on stdio and/or sockets until SIGTERM,
/// stdin EOF or a shutdown request drains it.
int cmdServe(const Options &Opt) {
  serve::ServeConfig SC;
  SC.Jobs = static_cast<unsigned>(Opt.getInt("jobs", 0));
  SC.Slots = static_cast<unsigned>(Opt.getInt("slots", 1));
  SC.JobsPerSlot =
      static_cast<unsigned>(Opt.getInt("jobs-per-slot", 0));
  if (Opt.has("slots") && SC.Slots == 0) {
    std::fprintf(stderr, "error: --slots must be at least 1\n");
    return 2;
  }
  if (Opt.has("jobs-per-slot") && SC.JobsPerSlot == 0) {
    std::fprintf(stderr, "error: --jobs-per-slot must be at least 1\n");
    return 2;
  }
  // Contradictory widths are a hard error, not a silent re-partition: an
  // explicit --jobs budget must cover one slice per slot.
  if (Opt.has("jobs") && SC.Jobs) {
    unsigned Width =
        SC.Slots * (SC.JobsPerSlot ? SC.JobsPerSlot : 1);
    if (Width > SC.Jobs) {
      std::fprintf(stderr,
                   "error: --slots %u x --jobs-per-slot %u exceeds the "
                   "--jobs %u pool width\n",
                   SC.Slots, SC.JobsPerSlot ? SC.JobsPerSlot : 1,
                   SC.Jobs);
      return 2;
    }
  }
  SC.QueueCapacity = static_cast<size_t>(Opt.getInt("queue", 16));
  SC.DefaultDeadlineMs =
      static_cast<uint32_t>(Opt.getInt("deadline-ms", 0));
  SC.RequestRetries =
      static_cast<unsigned>(Opt.getInt("request-retries", 1));
  SC.RetryBackoffMs =
      static_cast<uint32_t>(Opt.getInt("retry-backoff-ms", 50));
  std::string CacheMode = Opt.get("cache", "on");
  if (CacheMode != "on" && CacheMode != "off") {
    std::fprintf(stderr, "error: --cache must be 'on' or 'off'\n");
    return 2;
  }
  SC.CacheEnabled = CacheMode == "on";
  SC.CacheCapacity =
      static_cast<size_t>(Opt.getInt("cache-capacity", 1 << 15));
  SC.CrashDir = Opt.get("crash-dir");
  SC.SlowMs = static_cast<uint32_t>(Opt.getInt("slow-ms", 0));

  std::string MetricsOut = Opt.get("metrics-out");
  obs::Registry Metrics;
  auto Level = obs::logLevelByName(Opt.get("log-level", "warn"));
  if (!Level) {
    std::fprintf(stderr, "error: --log-level must be one of "
                         "debug|info|warn|error|off\n");
    return 2;
  }
  obs::Logger Log(*Level, Opt.has("log-json"));
  obs::ObsContext Obs;
  Obs.Metrics = &Metrics; // serve_* metrics are always collected.
  if (Opt.has("log-level") || Opt.has("log-json"))
    Obs.Log = &Log;
  SC.Obs = &Obs;

  serve::TransportOptions TO;
  TO.Stdio = !Opt.has("no-stdio");
  TO.SocketPath = Opt.get("socket");
  TO.TcpPort = Opt.has("listen")
                   ? static_cast<int>(Opt.getInt("listen", -1))
                   : -1;
  TO.MetricsPort =
      Opt.has("metrics-port")
          ? static_cast<int>(Opt.getInt("metrics-port", -1))
          : -1;

  int Rc;
  {
    serve::Server S(SC);
    Rc = serve::runTransport(S, TO);
  } // Server drains before the metrics flush below.

  // Flushed after the server drained, so stdio transport responses and
  // a metrics document on stdout cannot interleave.
  if (!MetricsOut.empty() && !writeMetrics(Metrics, MetricsOut, stderr))
    return 1;
  return Rc;
}

/// Parses "N" or "A-B" (inclusive, 1-based). False on malformed input,
/// zero bounds, or an inverted range.
bool parseRange(const std::string &S, unsigned &Lo, unsigned &Hi) {
  try {
    size_t Dash = S.find('-');
    if (Dash == std::string::npos) {
      long V = std::stol(S);
      if (V < 1)
        return false;
      Lo = Hi = static_cast<unsigned>(V);
      return true;
    }
    long A = std::stol(S.substr(0, Dash));
    long B = std::stol(S.substr(Dash + 1));
    if (A < 1 || B < A)
      return false;
    Lo = static_cast<unsigned>(A);
    Hi = static_cast<unsigned>(B);
    return true;
  } catch (const std::exception &) {
    return false;
  }
}

/// `dfence fuzz`: a seeded scenario campaign (src/fuzz/) — generated
/// MiniC clients plus the litmus corpus, run through the normal
/// synthesis path (or an in-process serve daemon with --via-serve),
/// outcomes deduped by repair fingerprint. Stdout carries no wall-clock
/// fields: same seed, same bytes.
int cmdFuzz(const Options &Opt) {
  fuzz::GeneratorOptions GO;
  GO.FuzzSeed = std::stoull(Opt.get("fuzz-seed", "1"), nullptr, 0);
  GO.Count = static_cast<unsigned>(Opt.getInt("count", 100));
  if (GO.Count == 0) {
    std::fprintf(stderr, "error: --count must be at least 1\n");
    return 2;
  }
  if (Opt.has("ops") &&
      !parseRange(Opt.get("ops"), GO.MinOps, GO.MaxOps)) {
    std::fprintf(stderr,
                 "error: --ops must be N or A-B with 1 <= A <= B\n");
    return 2;
  }
  if (Opt.has("threads") &&
      !parseRange(Opt.get("threads"), GO.MinThreads, GO.MaxThreads)) {
    std::fprintf(stderr,
                 "error: --threads must be N or A-B with 1 <= A <= B\n");
    return 2;
  }
  if (Opt.has("families")) {
    std::vector<std::string> Known = fuzz::knownFamilyNames();
    std::stringstream SS(Opt.get("families"));
    std::string Tok;
    while (std::getline(SS, Tok, ',')) {
      if (std::find(Known.begin(), Known.end(), Tok) == Known.end()) {
        std::fprintf(stderr,
                     "error: unknown fuzz family '%s' (one of %s)\n",
                     Tok.c_str(), join(Known, ", ").c_str());
        return 2;
      }
      GO.Families.push_back(Tok);
    }
    if (GO.Families.empty()) {
      std::fprintf(stderr, "error: --families must name at least one "
                           "family\n");
      return 2;
    }
  }

  fuzz::CampaignConfig CC;
  CC.Model = Opt.get("model", "pso");
  auto Model = serve::modelByName(CC.Model);
  if (!Model || *Model == vm::MemModel::SC) {
    std::fprintf(stderr,
                 "error: --model must be tso or pso for fuzzing\n");
    return 2;
  }
  CC.K = static_cast<unsigned>(Opt.getInt("k", 60));
  CC.Rounds = static_cast<unsigned>(Opt.getInt("rounds", 6));
  CC.Jobs = static_cast<unsigned>(Opt.getInt("jobs", 0));
  std::string CacheMode = Opt.get("cache", "on");
  if (CacheMode != "on" && CacheMode != "off") {
    std::fprintf(stderr, "error: --cache must be 'on' or 'off'\n");
    return 2;
  }
  CC.CacheOn = CacheMode == "on";
  if (Opt.has("via-serve")) {
    long Slots = Opt.getInt("via-serve", 0);
    if (Slots < 1) {
      std::fprintf(stderr, "error: --via-serve must be at least 1\n");
      return 2;
    }
    CC.ServeSlots = static_cast<unsigned>(Slots);
    CC.ServeJobs = CC.Jobs;
  }

  // Observability: same sink-attachment pattern as runSynthesis.
  std::string MetricsOut = Opt.get("metrics-out");
  obs::Registry Metrics;
  auto Level = obs::logLevelByName(Opt.get("log-level", "warn"));
  if (!Level) {
    std::fprintf(stderr, "error: --log-level must be one of "
                         "debug|info|warn|error|off\n");
    return 2;
  }
  obs::Logger Log(*Level, Opt.has("log-json"));
  obs::ObsContext Obs;
  if (!MetricsOut.empty())
    Obs.Metrics = &Metrics;
  if (Opt.has("log-level") || Opt.has("log-json"))
    Obs.Log = &Log;
  if (Obs.Metrics || Obs.Log)
    CC.Obs = &Obs;

  std::ofstream ReportFile;
  std::string ReportPath = Opt.get("report");
  if (!ReportPath.empty()) {
    ReportFile.open(ReportPath);
    if (!ReportFile) {
      std::fprintf(stderr, "error: cannot write %s\n",
                   ReportPath.c_str());
      return 1;
    }
    CC.Report = &ReportFile;
  }

  std::vector<fuzz::Scenario> Corpus = fuzz::generateScenarios(GO);
  size_t Generated = Corpus.size();
  size_t Litmus = 0;
  if (!Opt.has("no-litmus")) {
    for (fuzz::Scenario &S : fuzz::litmusScenarios(GO.FuzzSeed)) {
      Corpus.push_back(std::move(S));
      ++Litmus;
    }
  }

  std::printf("fuzz: model %s, fuzz-seed %llu, %zu generated + %zu "
              "litmus scenario(s), K=%u, rounds=%u, cache=%s, path=%s\n",
              CC.Model.c_str(),
              static_cast<unsigned long long>(GO.FuzzSeed), Generated,
              Litmus, CC.K, CC.Rounds, CacheMode.c_str(),
              CC.ServeSlots
                  ? strformat("serve:%u-slot", CC.ServeSlots).c_str()
                  : "direct");

  fuzz::CampaignResult R = fuzz::runCampaign(Corpus, CC);

  std::printf("scenarios: %llu run, %llu rejected, %llu violating, "
              "%zu distinct fingerprint(s)\n",
              static_cast<unsigned long long>(R.Scenarios),
              static_cast<unsigned long long>(R.Rejected),
              static_cast<unsigned long long>(R.Violating),
              R.Distinct.size());
  if (!R.Distinct.empty()) {
    std::printf("rank  count  fingerprint       family        status      "
                "exemplar\n");
    for (size_t I = 0; I != R.Distinct.size(); ++I) {
      const fuzz::FingerprintBucket &B = R.Distinct[I];
      std::printf("%4zu  %5llu  %s  %-12s  %-10s  %s\n", I + 1,
                  static_cast<unsigned long long>(B.Count),
                  B.Hex.c_str(), B.Family.c_str(), B.Status.c_str(),
                  B.Exemplar.c_str());
      std::printf("      fences: %s\n",
                  B.Fences.empty() ? "(none)"
                                   : join(B.Fences, "; ").c_str());
    }
  }
  if (!ReportPath.empty())
    std::printf("report: %s (%llu line(s))\n", ReportPath.c_str(),
                static_cast<unsigned long long>(R.Scenarios + 1));

  if (!MetricsOut.empty() && !writeMetrics(Metrics, MetricsOut, stdout))
    return 1;
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc >= 2 && (std::strcmp(Argv[1], "--help") == 0 ||
                    std::strcmp(Argv[1], "help") == 0)) {
    printHelp(stdout);
    return 0;
  }
  if (Argc < 2)
    return usage();
  Options Opt;
  Opt.Command = Argv[1];
  // `dfence --replay <bundle>` reads naturally at a shell; accept it as
  // a spelling of the replay command.
  if (Opt.Command == "--replay")
    Opt.Command = "replay";
  auto CmdIt = knownFlags().find(Opt.Command);
  if (CmdIt == knownFlags().end()) {
    std::fprintf(stderr, "error: unknown command '%s'\n\n",
                 Opt.Command.c_str());
    return usage();
  }
  // Every command except serve and fuzz takes a positional file/name
  // argument.
  int FlagStart = 3;
  if (Opt.Command == "serve" || Opt.Command == "fuzz") {
    FlagStart = 2;
  } else {
    if (Argc < 3)
      return usage();
    Opt.File = Argv[2];
  }
  const std::vector<const char *> &Known = CmdIt->second;
  for (int I = FlagStart; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A.rfind("--", 0) != 0) {
      std::fprintf(stderr,
                   "error: unexpected argument '%s' (flags start with "
                   "--; see 'dfence --help')\n",
                   A.c_str());
      return 2;
    }
    std::string Key = A.substr(2);
    // Both value-flag spellings are accepted: "--cache off" and
    // "--cache=off".
    std::optional<std::string> Inline;
    if (size_t Eq = Key.find('='); Eq != std::string::npos) {
      Inline = Key.substr(Eq + 1);
      Key = Key.substr(0, Eq);
    }
    bool IsBool = false, IsValue = false;
    for (const char *K : Known) {
      if (K[0] == '=' && Key == K + 1)
        IsBool = true;
      else if (K[0] != '=' && Key == K)
        IsValue = true;
    }
    if (IsBool) {
      if (Inline) {
        std::fprintf(stderr, "error: flag '--%s' takes no value\n",
                     Key.c_str());
        return 2;
      }
      Opt.Flags[Key] = "1";
    } else if (IsValue) {
      if (Inline) {
        Opt.Flags[Key] = *Inline;
        continue;
      }
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: flag '--%s' requires a value\n",
                     Key.c_str());
        return 2;
      }
      Opt.Flags[Key] = Argv[++I];
    } else {
      std::fprintf(stderr,
                   "error: unknown flag '--%s' for command '%s' (see "
                   "'dfence --help')\n",
                   Key.c_str(), Opt.Command.c_str());
      return 2;
    }
  }

  try {
    if (Opt.Command == "compile")
      return cmdCompile(Opt);
    if (Opt.Command == "run")
      return cmdRun(Opt);
    if (Opt.Command == "litmus")
      return cmdLitmus(Opt);
    if (Opt.Command == "synth")
      return cmdSynth(Opt);
    if (Opt.Command == "bench")
      return cmdBench(Opt);
    if (Opt.Command == "replay")
      return cmdReplay(Opt);
    if (Opt.Command == "serve")
      return cmdServe(Opt);
    if (Opt.Command == "fuzz")
      return cmdFuzz(Opt);
  } catch (const std::exception &E) {
    // std::stol / std::stod throw on malformed numeric flag values.
    std::fprintf(stderr,
                 "error: invalid numeric flag value (%s); see "
                 "'dfence --help'\n",
                 E.what());
    return 2;
  }
  return usage();
}
