//===- ablation_design.cpp - Ablations of DESIGN.md's choices -------------===//
//
// Not a paper table: quantifies the design decisions DESIGN.md §5 calls
// out, on Chase-Lev (PSO, linearizability — the richest fence set):
//
//   1. per-round repair vs one-shot repair (also see fig4_rounds)
//   2. redundant-fence merge pass on/off
//   3. scheduler partial-order reduction on/off
//   4. inter-operation [store ≺ return] predicates on/off
//   5. demonic flush-delaying scheduler vs deterministic round-robin
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"
#include "sched/RoundRobinScheduler.h"
#include "synth/Synthesizer.h"

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

  return 0;
}
