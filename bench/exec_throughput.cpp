//===- exec_throughput.cpp - Raw execution-core throughput ----------------===//
//
// Measures the per-execution cost of the execution core in isolation: no
// SAT, no enforcement, no checking — just the interpreter running the
// synthesis hot-path configuration (CollectRepairs on, per-model flush
// probability) over four Table-2 subjects. Every (subject, model) cell is
// timed over identical seeds in several repetitions, each after an
// untimed warm-up run of the same cell, and reported as the median with
// its interquartile range.
// Step counts must agree exactly across every timing of a cell (the
// seeds repeat and the interpreter is deterministic; a mismatch is a
// bug), and the binary exits nonzero if they don't. The step counts
// themselves are pinned across commits by SchedulePinTest.
//
// Emits BENCH_exec.json (schema "dfence-exec-throughput-v1", version 4:
// per-model seconds are medians over the repetitions, with their IQRs
// and the repetition count). Pass a number to scale the per-(subject,
// model) execution count (default 300, 7 repetitions); pass "--smoke"
// for a small run (60 executions, 5 repetitions) that validates the
// pipeline and the step-count guard — what the bench_exec_smoke ctest
// entry asserts.
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
using vm::MemModel;

namespace {

// Four Table-2 subjects: two work-stealing queues, a queue and an
// idempotent queue (the raw core never sees their specs).
const char *const Subjects[] = {
    "Chase-Lev WSQ",
    "Cilk THE WSQ",
    "MSN Queue",
    "FIFO iWSQ",
};
constexpr size_t NumSubjects = sizeof(Subjects) / sizeof(Subjects[0]);

const MemModel Models[] = {MemModel::SC, MemModel::TSO, MemModel::PSO};

/// One subject, prepared once and run on one reusable context for every
/// repetition — what a pool slot does for a whole round.
struct PreparedSubject {
  ir::Module Module;
  std::unique_ptr<vm::PreparedProgram> Prog;
  vm::ExecContext Ctx;
};

/// Runs the cell's executions, returning wall seconds and the
/// interpreter steps taken. Same seeds and configs every repetition.
double timeCell(vm::ExecContext &Ctx, const vm::PreparedProgram &Prog,
                MemModel Model, unsigned ExecsPer, uint64_t &Steps) {
  vm::ExecResult R;
  Steps = 0;
  auto T0 = std::chrono::steady_clock::now();
  for (unsigned I = 0; I != ExecsPer; ++I) {
    vm::ExecConfig EC;
    EC.Model = Model;
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

  // Every (subject, model) cell is timed once per repetition, the
  // repetitions interleaved across cells so host drift hits all alike.
  // Each timing follows an untimed run of the same cell: the cell before
  // ran another program or model, and without the warm-up the timing
  // would include refilling the caches and predictors for this one.
  // Times[Subject][Model][Rep].
  std::vector<double> Times[NumSubjects][3];
  uint64_t CellSteps[NumSubjects][3] = {};
  for (unsigned Rep = 0; Rep != Reps; ++Rep)
    for (size_t SI = 0; SI != NumSubjects; ++SI)
      for (size_t MI = 0; MI != 3; ++MI) {
        uint64_t WarmSteps = 0, Steps = 0;
        timeCell(Prepared[SI].Ctx, *Prepared[SI].Prog, Models[MI], ExecsPer,
                 WarmSteps);
        Times[SI][MI].push_back(timeCell(Prepared[SI].Ctx, *Prepared[SI].Prog,
                                         Models[MI], ExecsPer, Steps));
        // Hard determinism check: the seeds repeat, so every run of a
        // cell takes the same steps; any divergence is a semantics bug,
        // not noise.
        if (Rep == 0)
          CellSteps[SI][MI] = Steps;
        for (uint64_t Got : {WarmSteps, Steps})
          if (Got != CellSteps[SI][MI]) {
            std::fprintf(stderr,
                         "step divergence on %s/%s: repetition %u ran %llu "
                         "steps, expected %llu\n",
                         Subjects[SI], vm::memModelName(Models[MI]), Rep,
                         static_cast<unsigned long long>(Got),
                         static_cast<unsigned long long>(CellSteps[SI][MI]));
            return 1;
          }
      }

  std::printf("Execution core throughput (%u execs per subject/model, "
              "median of %u interleaved repetitions)\n\n",
              ExecsPer, Reps);
  std::printf("%-16s %5s %10s %12s %14s\n", "subject", "model", "seconds",
              "execs/s", "steps/s");
  for (size_t SI = 0; SI != NumSubjects; ++SI)
    for (size_t MI = 0; MI != 3; ++MI) {
      double Med = Spread(Times[SI][MI]).Median;
      std::printf("%-16s %5s %10.3f %12.0f %14.0f\n", Subjects[SI],
                  vm::memModelName(Models[MI]), Med,
                  Med > 0 ? ExecsPer / Med : 0,
                  Med > 0 ? static_cast<double>(CellSteps[SI][MI]) / Med
                          : 0);
    }

  Json Doc = Json::object();
  Doc.set("schema", Json::string("dfence-exec-throughput-v1"));
  Doc.set("schema_version", Json::number(uint64_t(4)));
  Doc.set("execs_per_subject", Json::number(uint64_t(ExecsPer)));
  Doc.set("repetitions", Json::number(uint64_t(Reps)));
  Json JModels = Json::array();
  std::printf("\naggregate over %zu subjects per repetition (median, "
              "IQR):\n",
              NumSubjects);
  std::printf("%5s %10s %10s %12s %14s\n", "model", "seconds", "iqr",
              "execs/s", "steps/s");
  for (size_t MI = 0; MI != 3; ++MI) {
    // Per repetition, the model's time summed over subjects.
    std::vector<double> RepTimes(Reps, 0.0);
    uint64_t Steps = 0;
    for (size_t SI = 0; SI != NumSubjects; ++SI) {
      Steps += CellSteps[SI][MI];
      for (unsigned Rep = 0; Rep != Reps; ++Rep)
        RepTimes[Rep] += Times[SI][MI][Rep];
    }
    Spread T(RepTimes);
    uint64_t Execs = uint64_t(ExecsPer) * NumSubjects;
    double ExecsPerSec =
        T.Median > 0 ? static_cast<double>(Execs) / T.Median : 0;
    double StepsPerSec =
        T.Median > 0 ? static_cast<double>(Steps) / T.Median : 0;
    std::printf("%5s %10.3f %10.3f %12.0f %14.0f\n",
                vm::memModelName(Models[MI]), T.Median, T.Iqr, ExecsPerSec,
                StepsPerSec);
    Json JM = Json::object();
    JM.set("model", Json::string(vm::memModelName(Models[MI])));
    JM.set("executions", Json::number(Execs));
    JM.set("steps", Json::number(Steps));
    JM.set("seconds", Json::number(T.Median));
    JM.set("seconds_iqr", Json::number(T.Iqr));
    JM.set("execs_per_sec", Json::number(ExecsPerSec));
    JM.set("steps_per_sec", Json::number(StepsPerSec));
    JModels.push(std::move(JM));
  }
  Doc.set("models", std::move(JModels));

  {
    std::ofstream Out("BENCH_exec.json");
    Out << Doc.dump(2) << "\n";
  }
  std::printf("\nwrote BENCH_exec.json%s\n", Smoke ? " (smoke)" : "");

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
      !Version || Version->asU64() != 4 || !ModelsJ ||
      !ModelsJ->isArray() || ModelsJ->items().size() != 3) {
    std::fprintf(stderr, "BENCH_exec.json is malformed\n");
    return 1;
  }
  for (const Json &JM : ModelsJ->items())
    if (!JM.find("execs_per_sec") || !JM.find("steps_per_sec") ||
        !JM.find("seconds_iqr") || JM.find("executions")->asU64() == 0) {
      std::fprintf(stderr, "BENCH_exec.json has an empty model entry\n");
      return 1;
    }
  return 0;
}
