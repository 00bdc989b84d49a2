//===- obs_overhead.cpp - Flight-recorder overhead gate -------------------===//
//
// Measures what the observability layer costs the synthesis loop, in the
// three postures a run can be in:
//
//   base — no ObsContext at all (the library-embedding default),
//   off  — a metrics Registry attached but no Profiler: the engine's
//          counters tick, the VM counts no opcode steps and no execution
//          is timed (the null-sink contract),
//   on   — the full flight recorder: Profiler (two clock reads around
//          each execution and its check, per-opcode step counts) +
//          per-round convergence log draining into a sink.
//
// Every (subject, model) cell runs the identical deterministic synthesis
// under each posture at --jobs 1; execution counts must agree exactly
// (the recorder is read-only — FlightRecorderDifferentialTest pins the
// stronger byte-level claim). Emits BENCH_obs.json and enforces, in full
// mode only (timing bars are meaningless at smoke sizes):
//
//   * off-posture overhead <= 2% vs base — the price of leaving metrics
//     on in production must stay negligible;
//   * on-posture overhead <= 25% vs base — the recorder must stay cheap
//     enough that the phases it reports are the run's, not its own;
//   * the sum property: at jobs 1 the six obs_phase_*_us histogram sums
//     add up to the recorded round wall time (RoundOther absorbs the
//     remainder by construction; tolerance covers clock granularity).
//
// Pass a number to scale executions per round (default 400); pass
// "--smoke" for a small run that validates the pipeline and the emitted
// JSON — what the bench_obs_smoke ctest entry asserts.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "ir/Instr.h"
#include "obs/Convergence.h"
#include "obs/Obs.h"
#include "support/Json.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

using namespace dfence;
using vm::MemModel;

namespace {

enum class Posture { Base, Off, On };

// v2: six phases (exec, spec_check, sat_solve, enforce, fold,
// round_other) and the on-posture gate.
const char *const SchemaName = "dfence-obs-overhead-v2";

struct Subject {
  const char *Bench;
  MemModel Model;
};

// One TSO and one PSO cell: enough wall time for the 2% bar to sit above
// scheduler noise without turning the bench into a second table run.
const Subject Subjects[] = {
    {"Chase-Lev WSQ", MemModel::TSO},
    {"MSN Queue", MemModel::PSO},
};

synth::SpecKind strictestSpec(const programs::Benchmark &B) {
  if (B.UseNoGarbage)
    return synth::SpecKind::NoGarbage;
  return B.Factory ? synth::SpecKind::Linearizability
                   : synth::SpecKind::MemorySafety;
}

struct ModeRun {
  double Seconds = 0;
  uint64_t Execs = 0;
  double PhaseSumUs = 0;   ///< Sum over all obs_phase_*_us histograms.
  uint64_t RoundWallUs = 0; ///< Sum of RoundStats::RoundWallUs.
  size_t Rounds = 0;
};

/// One synthesis run of \p B under \p Posture. The timed region covers
/// exactly synthesize(); registry/profiler construction happens outside
/// it (a server builds those once, not per request).
ModeRun runPosture(const programs::Benchmark &B, MemModel Model,
                   unsigned K, Posture P) {
  auto CR = frontend::compileMiniC(B.Source);
  if (!CR.Ok)
    reportFatalError(std::string(B.Name) + ": " + CR.Error);
  synth::SynthConfig Cfg =
      bench::makeConfig(Model, strictestSpec(B), B.Factory, K);
  Cfg.Jobs = 1;

  obs::Registry Reg;
  obs::ObsContext Obs;
  std::optional<obs::Profiler> Prof;
  std::ostringstream RoundLogOS;
  std::optional<obs::RoundLogWriter> RoundLog;
  if (P != Posture::Base) {
    Obs.Metrics = &Reg;
    Cfg.Obs = &Obs;
  }
  if (P == Posture::On) {
    Prof.emplace(Reg, ir::opcodeNames());
    Obs.Prof = &*Prof;
    RoundLog.emplace(RoundLogOS);
    Cfg.RoundLog = &*RoundLog;
  }

  ModeRun M;
  auto T0 = std::chrono::steady_clock::now();
  synth::SynthResult R = synth::synthesize(CR.Module, B.Clients, Cfg);
  auto T1 = std::chrono::steady_clock::now();
  M.Seconds = std::chrono::duration<double>(T1 - T0).count();
  M.Execs = R.TotalExecutions;
  for (const synth::RoundStats &RS : R.RoundLog)
    M.RoundWallUs += RS.RoundWallUs;
  M.Rounds = R.RoundLog.size();
  if (P == Posture::On)
    for (unsigned I = 0; I != obs::NumPhases; ++I)
      M.PhaseSumUs +=
          Reg.histogram(std::string("obs_phase_") +
                        obs::phaseName(static_cast<obs::Phase>(I)) + "_us")
              .sum();
  return M;
}

double overheadPct(double Posture, double Base) {
  return Base > 0 ? (Posture / Base - 1.0) * 100.0 : 0.0;
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned ExecsPer = 400;
  bool Smoke = false;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--smoke") == 0) {
      Smoke = true;
      ExecsPer = 40;
    } else {
      ExecsPer = static_cast<unsigned>(std::atoi(Argv[I]));
      if (ExecsPer == 0)
        ExecsPer = 1;
    }
  }
  // Full runs take the best of two passes per posture: the deterministic
  // work is identical, so the minimum wall time is the least-noisy
  // estimate and keeps the 2% bar from tripping on scheduler jitter.
  const unsigned Passes = Smoke ? 1 : 2;

  std::printf("Flight-recorder overhead (%u execs per round, jobs 1)\n\n",
              ExecsPer);
  std::printf("%-16s %5s %8s %10s %10s %9s %9s\n", "subject", "model",
              "execs", "base e/s", "off e/s", "off ovh", "on ovh");

  Json JSubjects = Json::array();
  double BaseSecs = 0, OffSecs = 0, OnSecs = 0;
  uint64_t TotalExecs = 0;
  bool SumViolated = false, ExecsDiverged = false;

  for (const Subject &S : Subjects) {
    const programs::Benchmark &B = programs::benchmarkByName(S.Bench);
    ModeRun Base, Off, On;
    for (unsigned Pass = 0; Pass != Passes; ++Pass) {
      ModeRun Pb = runPosture(B, S.Model, ExecsPer, Posture::Base);
      ModeRun Po = runPosture(B, S.Model, ExecsPer, Posture::Off);
      ModeRun Pn = runPosture(B, S.Model, ExecsPer, Posture::On);
      if (Pass == 0 || Pb.Seconds < Base.Seconds)
        Base = Pb;
      if (Pass == 0 || Po.Seconds < Off.Seconds)
        Off = Po;
      if (Pass == 0 || Pn.Seconds < On.Seconds)
        On = Pn;
    }

    // Read-only invariant, cheap enough to assert even in smoke: all
    // three postures ran the identical execution schedule.
    if (Base.Execs != Off.Execs || Base.Execs != On.Execs) {
      std::fprintf(stderr,
                   "posture divergence on %s/%s: base ran %llu execs, "
                   "off %llu, on %llu\n",
                   S.Bench, vm::memModelName(S.Model),
                   static_cast<unsigned long long>(Base.Execs),
                   static_cast<unsigned long long>(Off.Execs),
                   static_cast<unsigned long long>(On.Execs));
      ExecsDiverged = true;
    }

    double OffOvh = overheadPct(Off.Seconds, Base.Seconds);
    double OnOvh = overheadPct(On.Seconds, Base.Seconds);
    std::printf("%-16s %5s %8llu %10.0f %10.0f %8.2f%% %8.2f%%\n",
                S.Bench, vm::memModelName(S.Model),
                static_cast<unsigned long long>(Base.Execs),
                Base.Seconds > 0 ? Base.Execs / Base.Seconds : 0,
                Off.Seconds > 0 ? Off.Execs / Off.Seconds : 0, OffOvh,
                OnOvh);

    // Sum property at jobs 1: the phase histograms partition the round
    // wall time. Tolerance: 1% plus 100us per recorded round covers
    // microsecond truncation of RoundWallUs and the clamp-at-zero
    // remainders; a real attribution hole is orders beyond it.
    double WallUs = static_cast<double>(On.RoundWallUs);
    double Tol = WallUs * 0.01 + 100.0 * (On.Rounds ? On.Rounds : 1);
    bool SumOk = std::fabs(On.PhaseSumUs - WallUs) <= Tol;
    if (!SumOk) {
      std::fprintf(stderr,
                   "phase-sum violation on %s/%s: phases total %.0fus, "
                   "round wall %.0fus\n",
                   S.Bench, vm::memModelName(S.Model), On.PhaseSumUs,
                   WallUs);
      SumViolated = true;
    }

    Json JS = Json::object();
    JS.set("subject", Json::string(S.Bench));
    JS.set("model", Json::string(vm::memModelName(S.Model)));
    JS.set("executions", Json::number(Base.Execs));
    JS.set("base_seconds", Json::number(Base.Seconds));
    JS.set("off_seconds", Json::number(Off.Seconds));
    JS.set("on_seconds", Json::number(On.Seconds));
    JS.set("base_execs_per_sec",
           Json::number(Base.Seconds > 0 ? Base.Execs / Base.Seconds : 0));
    JS.set("off_execs_per_sec",
           Json::number(Off.Seconds > 0 ? Off.Execs / Off.Seconds : 0));
    JS.set("on_execs_per_sec",
           Json::number(On.Seconds > 0 ? On.Execs / On.Seconds : 0));
    JS.set("off_overhead_pct", Json::number(OffOvh));
    JS.set("on_overhead_pct", Json::number(OnOvh));
    JS.set("phase_sum_us", Json::number(On.PhaseSumUs));
    JS.set("round_wall_us", Json::number(On.RoundWallUs));
    JS.set("phase_sum_ok", Json::boolean(SumOk));
    JSubjects.push(std::move(JS));

    BaseSecs += Base.Seconds;
    OffSecs += Off.Seconds;
    OnSecs += On.Seconds;
    TotalExecs += Base.Execs;
  }

  double AggOff = overheadPct(OffSecs, BaseSecs);
  double AggOn = overheadPct(OnSecs, BaseSecs);
  std::printf("\naggregate: %llu execs, off overhead %.2f%%, "
              "on overhead %.2f%%\n",
              static_cast<unsigned long long>(TotalExecs), AggOff, AggOn);

  Json Doc = Json::object();
  Doc.set("schema", Json::string(SchemaName));
  Doc.set("schema_version", Json::number(uint64_t(2)));
  Doc.set("smoke", Json::boolean(Smoke));
  Doc.set("execs_per_round", Json::number(uint64_t(ExecsPer)));
  Doc.set("subjects", std::move(JSubjects));
  Json Agg = Json::object();
  Agg.set("executions", Json::number(TotalExecs));
  Agg.set("off_overhead_pct", Json::number(AggOff));
  Agg.set("on_overhead_pct", Json::number(AggOn));
  Doc.set("aggregate", std::move(Agg));

  {
    std::ofstream Out("BENCH_obs.json");
    Out << Doc.dump(2) << "\n";
  }
  std::printf("wrote BENCH_obs.json%s\n", Smoke ? " (smoke)" : "");

  if (ExecsDiverged)
    return 1;

  // Timing and attribution gates are full-run only; smoke sizes are all
  // noise (a sub-100ms base makes 2% a coin flip).
  if (!Smoke) {
    if (AggOff > 2.0) {
      std::fprintf(stderr,
                   "recorder-off overhead %.2f%% exceeds the 2%% "
                   "null-sink budget\n",
                   AggOff);
      return 1;
    }
    if (AggOn > 25.0) {
      std::fprintf(stderr,
                   "recorder-on overhead %.2f%% exceeds the 25%% "
                   "flight-recorder budget\n",
                   AggOn);
      return 1;
    }
    if (SumViolated)
      return 1;
  }

  // Self-check: re-read the emitted document and validate its shape, so
  // the smoke ctest entry catches a malformed emitter without a parser
  // of its own.
  std::ifstream In("BENCH_obs.json");
  std::ostringstream SS;
  SS << In.rdbuf();
  std::string Error;
  auto Parsed = Json::parse(SS.str(), Error);
  if (!Parsed) {
    std::fprintf(stderr, "BENCH_obs.json is unparsable: %s\n",
                 Error.c_str());
    return 1;
  }
  const Json *Schema = Parsed->find("schema");
  const Json *SubjectsJ = Parsed->find("subjects");
  const Json *AggJ = Parsed->find("aggregate");
  if (!Schema || Schema->asString() != SchemaName ||
      !SubjectsJ || !SubjectsJ->isArray() ||
      SubjectsJ->items().size() !=
          sizeof(Subjects) / sizeof(Subjects[0]) ||
      !AggJ || !AggJ->find("off_overhead_pct") ||
      !AggJ->find("on_overhead_pct")) {
    std::fprintf(stderr, "BENCH_obs.json is malformed\n");
    return 1;
  }
  for (const Json &JS : SubjectsJ->items())
    if (!JS.find("off_execs_per_sec") || !JS.find("on_execs_per_sec") ||
        !JS.find("phase_sum_us") || !JS.find("round_wall_us") ||
        JS.find("executions")->asU64() == 0) {
      std::fprintf(stderr, "BENCH_obs.json has an empty subject entry\n");
      return 1;
    }
  return 0;
}
