//===- ablation_design.cpp - Ablations of DESIGN.md's choices -------------===//
//
// Not a paper table: quantifies the design decisions DESIGN.md §5 calls
// out, on Chase-Lev (PSO, linearizability — the richest fence set):
//
//   1. per-round repair vs one-shot repair (also see fig4_rounds)
//   2. SAT minimal-model selection vs exact branch-and-bound hitting set
//   3. redundant-fence merge pass on/off
//   4. scheduler partial-order reduction on/off
//   5. inter-operation [store ≺ return] predicates on/off
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "sat/MinimalModels.h"
#include "sat/ModelEnumeration.h"
#include "sched/RoundRobinScheduler.h"
#include "support/Rng.h"
#include "synth/Synthesizer.h"

#include <chrono>
#include <set>
#include <cstdio>

using namespace dfence;
using namespace dfence::bench;
using synth::SpecKind;
using vm::MemModel;

namespace {

synth::SynthConfig base(const programs::Benchmark &B) {
  synth::SynthConfig Cfg =
      makeConfig(MemModel::PSO, SpecKind::Linearizability, B.Factory,
                 800);
  return Cfg;
}

void report(const char *Label, const synth::SynthResult &R) {
  std::printf("  %-28s fences=%zu rounds=%u execs=%llu viol=%llu "
              "converged=%s\n",
              Label, R.Fences.size(), R.Rounds,
              static_cast<unsigned long long>(R.TotalExecutions),
              static_cast<unsigned long long>(R.ViolatingExecutions),
              R.Status == synth::SynthStatus::Converged ? "yes" : "no");
}

} // namespace

int main() {
  const programs::Benchmark &B =
      programs::benchmarkByName("Chase-Lev WSQ");
  auto CR = frontend::compileMiniC(B.Source);
  if (!CR.Ok)
    reportFatalError(CR.Error);

  std::printf("Ablations on Chase-Lev WSQ (PSO, linearizability)\n\n");

  {
    std::printf("1. repair cadence:\n");
    synth::SynthConfig Cfg = base(B);
    report("per-round (default)",
           synth::synthesize(CR.Module, B.Clients, Cfg));
    Cfg.MaxRepairRounds = 1;
    Cfg.MaxRounds = 2;
    report("one-shot", synth::synthesize(CR.Module, B.Clients, Cfg));
  }

  {
    std::printf("2. fence merge pass:\n");
    synth::SynthConfig Cfg = base(B);
    Cfg.MergeFences = true;
    report("merge on (default)",
           synth::synthesize(CR.Module, B.Clients, Cfg));
    Cfg.MergeFences = false;
    report("merge off", synth::synthesize(CR.Module, B.Clients, Cfg));
  }

  {
    std::printf("3. partial-order reduction:\n");
    synth::SynthConfig Cfg = base(B);
    report("POR on (default)",
           synth::synthesize(CR.Module, B.Clients, Cfg));
    Cfg.PartialOrderReduction = false;
    report("POR off", synth::synthesize(CR.Module, B.Clients, Cfg));
  }

  {
    std::printf("4. inter-operation predicates:\n");
    synth::SynthConfig Cfg = base(B);
    report("inter-op on (default)",
           synth::synthesize(CR.Module, B.Clients, Cfg));
    Cfg.InterOpPredicates = false;
    report("inter-op off",
           synth::synthesize(CR.Module, B.Clients, Cfg));
  }

  {
    std::printf("5. demonic flush-delaying scheduler vs deterministic "
                "round-robin\n   (DISTINCT violating histories found in "
                "2000 executions — synthesis needs\n   diverse "
                "violations to pin all fences; a deterministic scheduler "
                "replays the\n   same few schedules forever):\n");
    auto DistinctViolations = [&](sched::Scheduler *S, double Prob) {
      synth::SynthConfig Check = base(B);
      std::set<std::string> Distinct;
      for (uint64_t Seed = 1; Seed <= 2000; ++Seed) {
        const vm::Client &Client = B.Clients[Seed % B.Clients.size()];
        vm::ExecConfig EC;
        EC.Model = vm::MemModel::PSO;
        EC.Seed = Seed;
        EC.FlushProb = Prob;
        EC.Sched = S;
        if (S)
          S->reset();
        vm::ExecResult R = vm::runExecution(CR.Module, Client, EC);
        if (R.Out == vm::Outcome::StepLimit ||
            R.Out == vm::Outcome::Deadlock)
          continue;
        if (!synth::checkExecution(R, Check).empty())
          Distinct.insert(R.Hist.str());
      }
      return Distinct.size();
    };
    std::printf("  demonic (p=0.5):             %zu distinct\n",
                DistinctViolations(nullptr, 0.5));
    std::printf("  demonic (p=0.1):             %zu distinct\n",
                DistinctViolations(nullptr, 0.1));
    sched::RoundRobinScheduler RR;
    std::printf("  round-robin (deterministic): %zu distinct\n",
                DistinctViolations(&RR, 0.5));
  }

  {
    std::printf("6. repair selection vs the enumeration oracle on random "
                "monotone CNF\n   (same vector wherever enumeration "
                "finishes below its 4096-model cap):\n");
    const size_t Cap = 4096;
    Rng R(99);
    int Agree = 0, Compared = 0, Capped = 0, CappedNotWorse = 0;
    double ExactMs = 0, EnumMs = 0;
    for (int Case = 0; Case < 200; ++Case) {
      sat::MonotoneCnf F;
      F.NumVars = 4 + static_cast<unsigned>(R.nextBelow(12));
      unsigned NumClauses = 2 + static_cast<unsigned>(R.nextBelow(16));
      for (unsigned I = 0; I < NumClauses; ++I) {
        std::vector<sat::Var> C;
        unsigned Len = 1 + static_cast<unsigned>(R.nextBelow(4));
        for (unsigned K = 0; K < Len; ++K)
          C.push_back(static_cast<sat::Var>(R.nextBelow(F.NumVars)));
        F.Clauses.push_back(std::move(C));
      }
      bool U1 = false, U2 = false;
      auto T0 = std::chrono::steady_clock::now();
      auto A = sat::minimumModel(F, U1);
      auto T1 = std::chrono::steady_clock::now();
      auto Models = sat::enumerateMinimalModels(F, Cap, U2);
      auto Oracle = sat::smallestModel(Models);
      auto T2 = std::chrono::steady_clock::now();
      ExactMs += std::chrono::duration<double, std::milli>(T1 - T0).count();
      EnumMs += std::chrono::duration<double, std::milli>(T2 - T1).count();
      if (Models.size() >= Cap) {
        ++Capped;
        CappedNotWorse += U1 == U2 && A.size() <= Oracle.size();
        continue;
      }
      ++Compared;
      Agree += U1 == U2 && A == Oracle;
    }
    std::printf("  same vector: %d/%d; capped: %d (exact no larger on %d); "
                "exact %.1f ms total, enumeration %.1f ms total\n",
                Agree, Compared, Capped, CappedNotWorse, ExactMs, EnumMs);
  }
  return 0;
}
