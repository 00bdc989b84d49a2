//===- FlightRecorderDifferentialTest.cpp - profiler never observable -----===//
//
// The flight recorder's headline contract (docs/OBSERVABILITY.md): the
// phase profiler and the convergence telemetry are *read-only* — turning
// them on must not change a single observable bit of a synthesis run.
// For every benchmark in the suite, a run with the profiler attached (and
// a round-log sink draining every round) must produce
//
//   * a SynthResult whose canonical serialization (serve::resultToJson,
//     printed module included) is byte-identical to the profiler-off run,
//   * a deterministic counter snapshot identical after stripping only the
//     obs_* keys — the flight recorder's own series, which exist only
//     when it is on and (for the per-opcode step counters) are not
//     exec-cache-invariant, hence the dedicated prefix,
//
// at jobs 1 and 8, with the caches on and off. The obs_* counters
// themselves are jobs-invariant (the multiset of executed slots does not
// depend on the pool width), which the cache-off comparison pins at
// widths 8 and 33.
//
//===----------------------------------------------------------------------===//

#include "frontend/Compiler.h"
#include "ir/Instr.h"
#include "obs/Convergence.h"
#include "obs/Obs.h"
#include "programs/Benchmark.h"
#include "serve/Protocol.h"
#include "support/Rng.h"
#include "synth/Synthesizer.h"

#include <gtest/gtest.h>
#include <sstream>

using namespace dfence;
using namespace dfence::programs;
using namespace dfence::synth;
using vm::MemModel;

namespace {

SpecKind strictestSpec(const Benchmark &B) {
  if (B.UseNoGarbage)
    return SpecKind::NoGarbage;
  return B.Factory ? SpecKind::Linearizability : SpecKind::MemorySafety;
}

struct RunOutput {
  SynthResult R;
  std::string Counters;    ///< countersJson minus obs_* keys.
  std::string ObsCounters; ///< Only the obs_* keys.
  std::string RoundLogText;
};

RunOutput run(const Benchmark &B, MemModel Model, unsigned Jobs,
              bool CacheOn, bool Recorder) {
  auto CR = frontend::compileMiniC(B.Source);
  EXPECT_TRUE(CR.Ok) << B.Name << ": " << CR.Error;
  SynthConfig Cfg;
  Cfg.Model = Model;
  Cfg.Spec = strictestSpec(B);
  Cfg.Factory = B.Factory;
  Cfg.ExecsPerRound = 150;
  Cfg.MaxRounds = 8;
  Cfg.MaxRepairRounds = 8;
  Cfg.MaxStepsPerExec = 20000;
  Cfg.FlushProb = Model == MemModel::TSO ? 0.1 : 0.5;
  if (Model == MemModel::PSO)
    Cfg.FlushProbs = {0.5, 0.1};
  Cfg.BaseSeed = deriveSeed(0x0b5, B.Name);
  Cfg.Jobs = Jobs;
  Cfg.CacheEnabled = CacheOn;

  obs::Registry Reg;
  obs::ObsContext Obs;
  Obs.Metrics = &Reg;
  Cfg.Obs = &Obs;
  std::optional<obs::Profiler> Prof;
  std::ostringstream RoundLogOS;
  std::optional<obs::RoundLogWriter> RoundLog;
  if (Recorder) {
    Prof.emplace(Reg, ir::opcodeNames());
    Obs.Prof = &*Prof;
    RoundLog.emplace(RoundLogOS);
    Cfg.RoundLog = &*RoundLog;
  }

  RunOutput Out;
  Out.R = synthesize(CR.Module, B.Clients, Cfg);
  Json Doc = Reg.countersJson();
  const Json *Counters = Doc.find("counters");
  Json Plain = Json::object(), ObsOnly = Json::object();
  if (Counters)
    for (const auto &[Key, Val] : Counters->members()) {
      if (Key.rfind("obs_", 0) == 0)
        ObsOnly.set(Key, Val);
      else
        Plain.set(Key, Val);
    }
  Out.Counters = Plain.dump();
  Out.ObsCounters = ObsOnly.dump();
  Out.RoundLogText = RoundLogOS.str();
  return Out;
}

/// Canonical bytes: the daemon's resultToJson with the module embedded
/// is the strictest single serialization of a SynthResult.
std::string canonical(const SynthResult &R) {
  return serve::resultToJson(R, /*IncludeModule=*/true).dump();
}

void expectInvisible(const RunOutput &On, const RunOutput &Off,
                     const std::string &What) {
  EXPECT_EQ(canonical(On.R), canonical(Off.R)) << What;
  EXPECT_EQ(On.Counters, Off.Counters) << What;
  // The recorder-off run must not have grown any obs_* series at all.
  EXPECT_EQ(Off.ObsCounters, "{}") << What;
  EXPECT_NE(On.ObsCounters, "{}") << What;
}

} // namespace

class FlightRecorderDifferentialTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(FlightRecorderDifferentialTest, RecorderNeverChangesResults) {
  const Benchmark &B = benchmarkByName(GetParam());
  for (MemModel Model : {MemModel::TSO, MemModel::PSO}) {
    std::string What =
        B.Name + std::string("/") + vm::memModelName(Model);

    // Each axis of the matrix at least once: jobs 8, cache off — always
    // recorder-on against the same-config recorder-off.
    RunOutput On1 = run(B, Model, 1, true, true);
    RunOutput Off1 = run(B, Model, 1, true, false);
    expectInvisible(On1, Off1, What + " jobs1/cache-on");

    RunOutput On8 = run(B, Model, 8, true, true);
    RunOutput Off8 = run(B, Model, 8, true, false);
    expectInvisible(On8, Off8, What + " jobs8/cache-on");

    RunOutput OnNc = run(B, Model, 1, false, true);
    RunOutput OffNc = run(B, Model, 1, false, false);
    expectInvisible(OnNc, OffNc, What + " jobs1/cache-off");

    // The round log drains one line per round, recorder-on only, and
    // the recorder does not change how many rounds a run takes.
    size_t Lines = 0;
    for (char C : On1.RoundLogText)
      Lines += C == '\n';
    EXPECT_EQ(Lines, On1.R.RoundLog.size()) << What;
    EXPECT_TRUE(Off1.RoundLogText.empty()) << What;

    // Jobs-invariance of the recorder's own counters, pinned where the
    // exec cache cannot skew them (cache hits skip execution, and how
    // many accrue before a hit is jobs-independent only with the cache
    // off): the cache-off obs_* snapshot must not depend on pool width.
    // Width 33 is past any power-of-two table of 32 per-worker entries.
    for (unsigned Jobs : {8u, 33u}) {
      RunOutput OnNcW = run(B, Model, Jobs, false, true);
      EXPECT_EQ(OnNc.ObsCounters, OnNcW.ObsCounters)
          << What << " obs counters jobs-variant at jobs " << Jobs;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, FlightRecorderDifferentialTest,
    ::testing::ValuesIn([] {
      std::vector<std::string> Names;
      for (const Benchmark &B : allBenchmarks())
        Names.push_back(B.Name);
      return Names;
    }()),
    [](const auto &Info) {
      std::string Name = Info.param;
      for (char &Ch : Name)
        if (Ch == ' ' || Ch == '-')
          Ch = '_';
      return Name;
    });
