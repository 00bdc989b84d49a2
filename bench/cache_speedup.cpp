//===- cache_speedup.cpp - Result-cache round-loop speedup ----------------===//
//
// Measures what the execution cache (src/cache/) buys on cross-run
// re-verification: verify a fenced linearizability subject through a
// shared ExecCache twice. The cold pass populates the cache; the warm
// pass — the "re-verify the same program with the same knobs" loop that
// CI and the suite-sweep verification step run constantly — serves its
// entire round loop from the cache, skipping interpretation and checking
// both.
//
// Emits BENCH_cache.json (schema "dfence-cache-speedup-v2"). Pass a
// number to scale executions per round (default 2000); pass "--smoke"
// for a tiny run that validates the pipeline — the binary re-reads the
// JSON it wrote, checks its structure plus the deterministic invariants
// (full exec-cache hit rate on the warm pass), and exits nonzero on
// failure, which the bench_cache_smoke ctest entry asserts. The ≥1.3x
// round-loop-speedup acceptance bar is enforced on full runs only;
// smoke runs are too short to time reliably.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "cache/ExecCache.h"
#include "support/Json.h"
#include "support/Rng.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

using namespace dfence;
using vm::MemModel;

namespace {

synth::SynthConfig verifyConfig(const programs::Benchmark &B, unsigned K) {
  synth::SynthConfig Cfg =
      bench::makeConfig(MemModel::PSO, synth::SpecKind::Linearizability,
                        B.Factory, K);
  // Pure verification rounds: never enforce, never stop early, so both
  // timed passes run the identical number of executions.
  Cfg.MaxRounds = 3;
  Cfg.MaxRepairRounds = 0;
  Cfg.CleanRoundsRequired = 3;
  Cfg.BaseSeed = deriveSeed(0xfeedbeef, B.Name);
  return Cfg;
}

double seconds(std::chrono::steady_clock::time_point T0,
               std::chrono::steady_clock::time_point T1) {
  return std::chrono::duration<double>(T1 - T0).count();
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned ExecsPer = 2000;
  bool Smoke = false;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--smoke") == 0) {
      Smoke = true;
      ExecsPer = 100;
    } else {
      ExecsPer = static_cast<unsigned>(std::atoi(Argv[I]));
      if (ExecsPer == 0)
        ExecsPer = 1;
    }
  }

  Json Doc = Json::object();
  Doc.set("schema", Json::string("dfence-cache-speedup-v2"));
  Doc.set("schema_version", Json::number(uint64_t(2)));
  Doc.set("execs_per_round", Json::number(uint64_t(ExecsPer)));

  // Synthesize fences once, then verify the fenced module twice through
  // one shared ExecCache: cold populates, warm replays the whole round
  // loop from the cache.
  const programs::Benchmark &B = programs::benchmarkByName("MS2 Queue");
  auto CR = frontend::compileMiniC(B.Source);
  if (!CR.Ok)
    reportFatalError(B.Name + ": " + CR.Error);
  synth::SynthResult Fenced =
      bench::runOne(B, MemModel::PSO, synth::SpecKind::Linearizability,
                    Smoke ? 100 : 400);
  if (Fenced.Status != synth::SynthStatus::Converged)
    reportFatalError(B.Name + " did not converge: " +
                     Fenced.FirstViolation);

  synth::SynthConfig Cfg = verifyConfig(B, ExecsPer);
  cache::ExecCache Shared;
  Cfg.ExecResultCache = &Shared;
  auto T0 = std::chrono::steady_clock::now();
  synth::SynthResult Cold =
      synth::synthesize(Fenced.FencedModule, B.Clients, Cfg);
  auto T1 = std::chrono::steady_clock::now();
  synth::SynthResult Warm =
      synth::synthesize(Fenced.FencedModule, B.Clients, Cfg);
  auto T2 = std::chrono::steady_clock::now();

  double SecCold = seconds(T0, T1), SecWarm = seconds(T1, T2);
  double Speedup = SecWarm > 0 ? SecCold / SecWarm : 0;
  std::printf("Shared-cache re-verification (%s, %llu executions)\n",
              B.Name.c_str(),
              static_cast<unsigned long long>(Warm.TotalExecutions));
  std::printf("cold %.3fs -> warm %.3fs  round-loop speedup %.1fx "
              "(exec hits %llu/%llu)\n",
              SecCold, SecWarm, Speedup,
              static_cast<unsigned long long>(Warm.ExecCacheHits),
              static_cast<unsigned long long>(Warm.TotalExecutions));

  Json JRe = Json::object();
  JRe.set("subject", Json::string(B.Name));
  JRe.set("cold_seconds", Json::number(SecCold));
  JRe.set("warm_seconds", Json::number(SecWarm));
  JRe.set("executions", Json::number(Warm.TotalExecutions));
  JRe.set("exec_hits", Json::number(Warm.ExecCacheHits));
  JRe.set("round_loop_speedup", Json::number(Speedup));
  Doc.set("reverification", std::move(JRe));

  {
    std::ofstream Out("BENCH_cache.json");
    Out << Doc.dump(2) << "\n";
  }
  std::printf("\nwrote BENCH_cache.json%s\n", Smoke ? " (smoke)" : "");

  // Self-check: re-read the emitted document and validate its shape and
  // the deterministic invariants; the ≥1.3x bar applies to full runs.
  std::ifstream In("BENCH_cache.json");
  std::ostringstream SS;
  SS << In.rdbuf();
  std::string Error;
  auto Parsed = Json::parse(SS.str(), Error);
  if (!Parsed) {
    std::fprintf(stderr, "BENCH_cache.json is unparsable: %s\n",
                 Error.c_str());
    return 1;
  }
  const Json *Schema = Parsed->find("schema");
  const Json *Re = Parsed->find("reverification");
  if (!Schema || Schema->asString() != "dfence-cache-speedup-v2" || !Re) {
    std::fprintf(stderr, "BENCH_cache.json is malformed\n");
    return 1;
  }
  // The warm pass must be served entirely from the shared cache; this is
  // deterministic, so it gates smoke runs too.
  if (Re->find("exec_hits")->asU64() != Re->find("executions")->asU64() ||
      Re->find("executions")->asU64() == 0) {
    std::fprintf(stderr, "warm re-verification was not fully cached\n");
    return 1;
  }
  if (!Smoke && Re->find("round_loop_speedup")->asDouble() < 1.3) {
    std::fprintf(stderr, "round-loop speedup below the 1.3x bar\n");
    return 1;
  }
  return 0;
}
