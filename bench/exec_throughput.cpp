//===- exec_throughput.cpp - Raw execution-core throughput ----------------===//
//
// Measures the per-execution cost of the execution core in isolation: no
// SAT, no enforcement, no checking — just the interpreter running the
// synthesis hot-path configuration (CollectRepairs on, per-model flush
// probability) over the parallel_scale workload subjects. Every
// (subject, model) cell is timed under BOTH dispatch modes — generic
// (runtime model dispatch, the pre-monomorphization interpreter) and
// specialized (the policy-templated per-model loop) — over identical
// seeds, in several interleaved repetitions (the two modes back to back,
// their order alternating), so the emitted document doubles as the A/B
// comparison of the monomorphization work. Step counts must agree
// exactly across every timing of a cell (the modes are one template; a
// mismatch is a bug) and the binary exits nonzero if they don't, or if
// on any model's aggregate the ratio of the two modes' median times says
// specialized is slower by more than the noise floor: the larger of 10%
// and the two modes' relative interquartile ranges added.
//
// Emits BENCH_exec.json (schema "dfence-exec-throughput-v1", version 3:
// per-model seconds are medians over the repetitions, with their IQRs,
// the gate's noise_floor, and the repetition count). Pass a number to
// scale the per-(subject, model) execution count (default 300, 7
// repetitions); pass "--smoke" for a small run (60 executions, 5
// repetitions) that validates the pipeline and the two guards above —
// what the bench_exec_smoke ctest entry asserts.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "support/Json.h"
#include "vm/ExecContext.h"
#include "vm/Prepared.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace dfence;
using vm::DispatchMode;
using vm::MemModel;

namespace {

// The parallel_scale workload subjects (minus the spec dimension, which
// the raw core never sees).
const char *const Subjects[] = {
    "Chase-Lev WSQ",
    "Cilk THE WSQ",
    "MSN Queue",
    "FIFO iWSQ",
};
constexpr size_t NumSubjects = sizeof(Subjects) / sizeof(Subjects[0]);

const MemModel Models[] = {MemModel::SC, MemModel::TSO, MemModel::PSO};

/// The gate never treats a slowdown below this as a regression, however
/// tight the repetitions were.
constexpr double MinNoiseFloor = 0.10;

/// One subject, prepared once and run on one reusable context for every
/// repetition — what a pool slot does for a whole round.
struct PreparedSubject {
  ir::Module Module;
  std::unique_ptr<vm::PreparedProgram> Prog;
  vm::ExecContext Ctx;
};

/// Runs the cell's executions under \p Dispatch, returning wall seconds
/// and the interpreter steps taken. Same seeds and configs for both
/// modes — only the dispatch flavor differs.
double timeCell(vm::ExecContext &Ctx, const vm::PreparedProgram &Prog,
                MemModel Model, DispatchMode Dispatch, unsigned ExecsPer,
                uint64_t &Steps) {
  vm::ExecResult R;
  Steps = 0;
  auto T0 = std::chrono::steady_clock::now();
  for (unsigned I = 0; I != ExecsPer; ++I) {
    vm::ExecConfig EC;
    EC.Model = Model;
    EC.Dispatch = Dispatch;
    EC.Seed = 0x5eed + I;
    EC.MaxSteps = 30000;
    EC.CollectRepairs = Model != MemModel::SC;
    EC.FlushProb = vm::defaultFlushProb(Model);
    Ctx.run(Prog, I % Prog.numClients(), EC, R);
    Steps += R.Steps;
  }
  auto T1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(T1 - T0).count();
}

/// Quantile \p Q of \p V by linear interpolation between order
/// statistics.
double quantile(std::vector<double> V, double Q) {
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

struct Spread {
  double Median = 0;
  double Iqr = 0;
  explicit Spread(const std::vector<double> &V)
      : Median(quantile(V, 0.5)), Iqr(quantile(V, 0.75) - quantile(V, 0.25)) {}
  double relIqr() const { return Median > 0 ? Iqr / Median : 0; }
};

} // namespace

int main(int Argc, char **Argv) {
  unsigned ExecsPer = 300;
  unsigned Reps = 7;
  bool Smoke = false;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--smoke") == 0) {
      Smoke = true;
      ExecsPer = 60;
      Reps = 5;
    } else {
      ExecsPer = static_cast<unsigned>(std::atoi(Argv[I]));
      if (ExecsPer == 0)
        ExecsPer = 1;
    }
  }

  std::vector<PreparedSubject> Prepared(NumSubjects);
  for (size_t SI = 0; SI != NumSubjects; ++SI) {
    const programs::Benchmark &B = programs::benchmarkByName(Subjects[SI]);
    auto CR = frontend::compileMiniC(B.Source);
    if (!CR.Ok)
      reportFatalError(std::string(Subjects[SI]) + ": " + CR.Error);
    Prepared[SI].Module = std::move(CR.Module);
    Prepared[SI].Prog = std::make_unique<vm::PreparedProgram>(
        Prepared[SI].Module, B.Clients);
  }

  // Every (subject, model) cell is timed once per mode per repetition,
  // the two modes back to back with their order alternating, so host
  // drift hits both alike. Times[Subject][Model][Mode][Rep]; mode 0 is
  // generic, 1 specialized.
  std::vector<double> Times[NumSubjects][3][2];
  uint64_t CellSteps[NumSubjects][3] = {};
  for (unsigned Rep = 0; Rep != Reps; ++Rep)
    for (size_t SI = 0; SI != NumSubjects; ++SI)
      for (size_t MI = 0; MI != 3; ++MI)
        for (unsigned K = 0; K != 2; ++K) {
          unsigned Mode = (Rep + K) % 2;
          uint64_t Steps = 0;
          Times[SI][MI][Mode].push_back(
              timeCell(Prepared[SI].Ctx, *Prepared[SI].Prog, Models[MI],
                       Mode ? DispatchMode::Specialized
                            : DispatchMode::Generic,
                       ExecsPer, Steps));
          // Hard equivalence check: the modes are one interpreter
          // template and the seeds repeat, so every timing of a cell
          // takes the same steps; any divergence is a semantics bug,
          // not noise.
          if (Rep == 0 && K == 0)
            CellSteps[SI][MI] = Steps;
          if (Steps != CellSteps[SI][MI]) {
            std::fprintf(stderr,
                         "dispatch divergence on %s/%s: %s ran %llu "
                         "steps, expected %llu\n",
                         Subjects[SI], vm::memModelName(Models[MI]),
                         Mode ? "specialized" : "generic",
                         static_cast<unsigned long long>(Steps),
                         static_cast<unsigned long long>(CellSteps[SI][MI]));
            return 1;
          }
        }

  std::printf("Execution core throughput (%u execs per subject/model, "
              "median of %u interleaved repetitions per dispatch mode)\n\n",
              ExecsPer, Reps);
  std::printf("%-16s %5s %10s %12s %14s %9s\n", "subject", "model",
              "seconds", "execs/s", "steps/s", "vs gen");
  for (size_t SI = 0; SI != NumSubjects; ++SI)
    for (size_t MI = 0; MI != 3; ++MI) {
      double Spec = Spread(Times[SI][MI][1]).Median;
      double Gen = Spread(Times[SI][MI][0]).Median;
      std::printf("%-16s %5s %10.3f %12.0f %14.0f %8.2fx\n", Subjects[SI],
                  vm::memModelName(Models[MI]), Spec,
                  Spec > 0 ? ExecsPer / Spec : 0,
                  Spec > 0 ? static_cast<double>(CellSteps[SI][MI]) / Spec
                           : 0,
                  Spec > 0 ? Gen / Spec : 0);
    }

  Json Doc = Json::object();
  Doc.set("schema", Json::string("dfence-exec-throughput-v1"));
  Doc.set("schema_version", Json::number(uint64_t(3)));
  Doc.set("execs_per_subject", Json::number(uint64_t(ExecsPer)));
  Doc.set("repetitions", Json::number(uint64_t(Reps)));
  Json JModels = Json::array();
  std::printf("\naggregate over %zu subjects per repetition (specialized "
              "dispatch; ratio of medians vs generic, noise floor):\n",
              NumSubjects);
  std::printf("%5s %10s %12s %14s %9s %7s\n", "model", "seconds", "execs/s",
              "steps/s", "vs gen", "floor");
  bool SpecSlower = false;
  for (size_t MI = 0; MI != 3; ++MI) {
    // Per repetition, the model's time summed over subjects.
    std::vector<double> GenReps(Reps, 0.0), SpecReps(Reps, 0.0);
    uint64_t Steps = 0;
    for (size_t SI = 0; SI != NumSubjects; ++SI) {
      Steps += CellSteps[SI][MI];
      for (unsigned Rep = 0; Rep != Reps; ++Rep) {
        GenReps[Rep] += Times[SI][MI][0][Rep];
        SpecReps[Rep] += Times[SI][MI][1][Rep];
      }
    }
    Spread Gen(GenReps), Spec(SpecReps);
    uint64_t Execs = uint64_t(ExecsPer) * NumSubjects;
    double ExecsPerSec =
        Spec.Median > 0 ? static_cast<double>(Execs) / Spec.Median : 0;
    double StepsPerSec =
        Spec.Median > 0 ? static_cast<double>(Steps) / Spec.Median : 0;
    double GenExecsPerSec =
        Gen.Median > 0 ? static_cast<double>(Execs) / Gen.Median : 0;
    double Speedup = Spec.Median > 0 ? Gen.Median / Spec.Median : 0;
    // Regression guard: monomorphization must never cost throughput.
    // Only a slowdown beyond the repetitions' own spread (the two
    // relative IQRs added) and beyond MinNoiseFloor counts, so the gate
    // does not depend on how fast or how steady the machine is.
    double Floor = std::max(MinNoiseFloor, Gen.relIqr() + Spec.relIqr());
    std::printf("%5s %10.3f %12.0f %14.0f %8.2fx %6.0f%%\n",
                vm::memModelName(Models[MI]), Spec.Median, ExecsPerSec,
                StepsPerSec, Speedup, Floor * 100);
    if (Speedup > 0 && Speedup < 1.0 - Floor)
      SpecSlower = true;
    Json JM = Json::object();
    JM.set("model", Json::string(vm::memModelName(Models[MI])));
    JM.set("executions", Json::number(Execs));
    JM.set("steps", Json::number(Steps));
    JM.set("seconds", Json::number(Spec.Median));
    JM.set("seconds_iqr", Json::number(Spec.Iqr));
    JM.set("execs_per_sec", Json::number(ExecsPerSec));
    JM.set("steps_per_sec", Json::number(StepsPerSec));
    JM.set("generic_seconds", Json::number(Gen.Median));
    JM.set("generic_seconds_iqr", Json::number(Gen.Iqr));
    JM.set("generic_execs_per_sec", Json::number(GenExecsPerSec));
    JM.set("speedup_vs_generic", Json::number(Speedup));
    JM.set("noise_floor", Json::number(Floor));
    JModels.push(std::move(JM));
  }
  Doc.set("models", std::move(JModels));

  {
    std::ofstream Out("BENCH_exec.json");
    Out << Doc.dump(2) << "\n";
  }
  std::printf("\nwrote BENCH_exec.json%s\n", Smoke ? " (smoke)" : "");

  if (SpecSlower) {
    std::fprintf(stderr, "specialized dispatch is slower than generic "
                         "beyond the noise floor on some model (see "
                         "aggregate above)\n");
    return 1;
  }

  // Self-check: re-read the emitted document and validate its shape, so
  // the smoke ctest entry catches a malformed emitter without a parser
  // of its own.
  std::ifstream In("BENCH_exec.json");
  std::ostringstream SS;
  SS << In.rdbuf();
  std::string Error;
  auto Parsed = Json::parse(SS.str(), Error);
  if (!Parsed) {
    std::fprintf(stderr, "BENCH_exec.json is unparsable: %s\n",
                 Error.c_str());
    return 1;
  }
  const Json *Schema = Parsed->find("schema");
  const Json *Version = Parsed->find("schema_version");
  const Json *ModelsJ = Parsed->find("models");
  if (!Schema || Schema->asString() != "dfence-exec-throughput-v1" ||
      !Version || Version->asU64() != 3 || !ModelsJ ||
      !ModelsJ->isArray() || ModelsJ->items().size() != 3) {
    std::fprintf(stderr, "BENCH_exec.json is malformed\n");
    return 1;
  }
  for (const Json &JM : ModelsJ->items())
    if (!JM.find("execs_per_sec") || !JM.find("steps_per_sec") ||
        !JM.find("generic_execs_per_sec") ||
        !JM.find("speedup_vs_generic") || !JM.find("noise_floor") ||
        JM.find("executions")->asU64() == 0) {
      std::fprintf(stderr, "BENCH_exec.json has an empty model entry\n");
      return 1;
    }
  return 0;
}
