//===- table3_inference.cpp - Reproduces Table 3 (fence inference) --------===//
//
// For every benchmark and every (specification, memory model) pair, runs
// the full dynamic synthesis loop and prints the inferred fences, exactly
// mirroring the layout of the paper's Table 3:
//
//   columns: Memory Safety {TSO, PSO} | SC {TSO, PSO} | Lin {TSO, PSO}
//   cell:    "0"      - converged with no fences
//            "-"      - the property cannot be satisfied by fencing
//            fences   - (method, lineBefore:lineAfter) kind, ...
//
// Then re-derives the paper's qualitative observations (§6.6) from the
// measured data.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "support/StringUtils.h"

#include <cstdio>
#include <map>

using namespace dfence;
using namespace dfence::bench;
using synth::SpecKind;
using vm::MemModel;

namespace {

struct Row {
  std::string Name;
  std::map<std::string, synth::SynthResult> Cells;
  unsigned SourceLoc = 0;
  unsigned BytecodeLoc = 0;
  unsigned InsertionPoints = 0;
};

std::string key(SpecKind Spec, MemModel Model) {
  return std::string(synth::specKindName(Spec)) + "/" +
         vm::memModelName(Model);
}

} // namespace

int main() {
  const unsigned K = 1000;
  std::vector<Row> Rows;

  for (const programs::Benchmark &B : programs::allBenchmarks()) {
    Row R;
    R.Name = B.Name;
    auto CR = frontend::compileMiniC(B.Source);
    if (!CR.Ok)
      reportFatalError(B.Name + ": " + CR.Error);
    R.SourceLoc = CR.SourceLines;
    R.BytecodeLoc = CR.Module.totalInstrCount();
    R.InsertionPoints = CR.Module.totalStoreCount();

    // The safety column: plain memory safety, except the idempotent WSQs
    // which additionally check "no garbage tasks" (as in the paper).
    SpecKind SafetySpec =
        B.UseNoGarbage ? SpecKind::NoGarbage : SpecKind::MemorySafety;
    for (MemModel Model : {MemModel::TSO, MemModel::PSO})
      R.Cells.emplace(key(SpecKind::MemorySafety, Model),
                      runOne(B, Model, SafetySpec, K));
    if (B.Factory) {
      for (MemModel Model : {MemModel::TSO, MemModel::PSO}) {
        R.Cells.emplace(key(SpecKind::SequentialConsistency, Model),
                        runOne(B, Model,
                               SpecKind::SequentialConsistency, K));
        R.Cells.emplace(key(SpecKind::Linearizability, Model),
                        runOne(B, Model, SpecKind::Linearizability, K));
      }
    }
    Rows.push_back(std::move(R));
    std::fprintf(stderr, "done: %s\n", B.Name.c_str());
  }

  std::printf("Table 3: fences inferred per algorithm, specification and "
              "memory model (K=%u executions/round)\n\n", K);
  for (const Row &R : Rows) {
    std::printf("%s  [source LOC %u, bytecode LOC %u, insertion points "
                "%u]\n", R.Name.c_str(), R.SourceLoc, R.BytecodeLoc,
                R.InsertionPoints);
    auto PrintCell = [&](const char *Label, SpecKind Spec,
                         MemModel Model) {
      auto It = R.Cells.find(key(Spec, Model));
      if (It == R.Cells.end()) {
        std::printf("  %-22s n/a (no sequential spec; see paper)\n",
                    Label);
        return;
      }
      const synth::SynthResult &Res = It->second;
      std::printf("  %-22s %s   [%llu execs, %llu violating, %u rounds]"
                  "\n", Label, cell(Res).c_str(),
                  static_cast<unsigned long long>(Res.TotalExecutions),
                  static_cast<unsigned long long>(
                      Res.ViolatingExecutions),
                  Res.Rounds);
    };
    PrintCell("MemSafety/TSO:", SpecKind::MemorySafety, MemModel::TSO);
    PrintCell("MemSafety/PSO:", SpecKind::MemorySafety, MemModel::PSO);
    PrintCell("SC/TSO:", SpecKind::SequentialConsistency, MemModel::TSO);
    PrintCell("SC/PSO:", SpecKind::SequentialConsistency, MemModel::PSO);
    PrintCell("Lin/TSO:", SpecKind::Linearizability, MemModel::TSO);
    PrintCell("Lin/PSO:", SpecKind::Linearizability, MemModel::PSO);
    std::printf("\n");
  }

  // ---- The paper's §6.6 observations, recomputed from our data. ----
  std::printf("Observations (recomputed):\n");
  auto Fences = [&](const Row &R, SpecKind S, MemModel M) -> long {
    auto It = R.Cells.find(key(S, M));
    if (It == R.Cells.end() ||
        It->second.Status != synth::SynthStatus::Converged)
      return -1;
    return static_cast<long>(It->second.Fences.size());
  };

  unsigned SafetyZero = 0, SafetyTotal = 0;
  for (const Row &R : Rows) {
    for (MemModel M : {MemModel::TSO, MemModel::PSO}) {
      long N = Fences(R, SpecKind::MemorySafety, M);
      if (N >= 0) {
        ++SafetyTotal;
        if (N == 0)
          ++SafetyZero;
      }
    }
  }
  std::printf("  1. Memory safety is a weak trigger: %u/%u "
              "(algorithm,model) cells need no fences under the safety "
              "spec.\n", SafetyZero, SafetyTotal);

  unsigned LinGeSc = 0, LinScPairs = 0;
  for (const Row &R : Rows) {
    for (MemModel M : {MemModel::TSO, MemModel::PSO}) {
      long Sc = Fences(R, SpecKind::SequentialConsistency, M);
      long Lin = Fences(R, SpecKind::Linearizability, M);
      if (Sc >= 0 && Lin >= 0) {
        ++LinScPairs;
        if (Lin >= Sc)
          ++LinGeSc;
      }
    }
  }
  std::printf("  2. Linearizability needs at least as many fences as SC "
              "in %u/%u comparable cells.\n", LinGeSc, LinScPairs);

  unsigned PsoGeTso = 0, PsoTsoPairs = 0;
  for (const Row &R : Rows) {
    for (SpecKind S : {SpecKind::MemorySafety,
                       SpecKind::SequentialConsistency,
                       SpecKind::Linearizability}) {
      long T = Fences(R, S, MemModel::TSO);
      long P = Fences(R, S, MemModel::PSO);
      if (T >= 0 && P >= 0) {
        ++PsoTsoPairs;
        if (P >= T)
          ++PsoGeTso;
      }
    }
  }
  std::printf("  3. PSO needs at least as many fences as TSO in %u/%u "
              "comparable cells.\n", PsoGeTso, PsoTsoPairs);

  for (const Row &R : Rows) {
    if (R.Name != "FIFO WSQ")
      continue;
    long N = Fences(R, SpecKind::SequentialConsistency, MemModel::TSO);
    std::printf("  4. FIFO WSQ under SC on TSO needs %ld fences (paper: "
                "an algorithm with no fences when weakening lin to SC)."
                "\n", N);
  }
  for (const Row &R : Rows) {
    if (R.Name != "Michael Allocator")
      continue;
    long Safety = Fences(R, SpecKind::MemorySafety, MemModel::PSO);
    long Lin = Fences(R, SpecKind::Linearizability, MemModel::PSO);
    std::printf("  5. Allocator on PSO: %ld fences from memory safety, "
                "%ld from linearizability (paper: safety finds most, "
                "lin adds one more in free).\n", Safety, Lin);
  }
  return 0;
}
