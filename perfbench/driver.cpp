//===- driver.cpp - DFENCE end-to-end benchmark driver --------------------===//
//
// Runs one workload for a fixed wall-clock window and prints one JSON
// result line last on stdout. The workloads (see perfbench/README.md):
//
//   suite_seq    every suite cell through synth::synthesize at Jobs=1
//   suite_par    the same cells on one shared exec::ExecPool of width nproc
//
// A cell is one synthesis request: a Table-2 or extended subject under
// TSO or PSO at its strictest spec, or a litmus shape under TSO or PSO.
// Every cell is written as a serve-protocol request and resolved through
// serve::prepareJob, so the in-process and daemon paths run exactly the
// configuration `dfence bench` / `dfence serve` would.
//
// With --trace 0 the driver reports end-to-end metrics. With --trace 1 it
// records bench-side spans around calls into each layer's public
// functions (kept in memory, written at exit) and reports per-layer
// metrics instead; end-to-end figures never come from a traced run. A
// traced run also sends its requests through a spawned `dfence serve`
// for the serve and cache figures.
//
//===----------------------------------------------------------------------===//

#include "cache/ExecCache.h"
#include "dfence_client/Client.h"
#include "exec/ExecPool.h"
#include "exec/RoundRunner.h"
#include "fuzz/LitmusCorpus.h"
#include "programs/Benchmark.h"
#include "sat/MinimalModels.h"
#include "serve/Protocol.h"
#include "support/Json.h"
#include "support/Rng.h"
#include "synth/FenceEnforcer.h"
#include "synth/Synthesizer.h"
#include "vm/ExecContext.h"
#include "vm/Prepared.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <sched.h>
#include <string>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace dfence;

namespace {

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

/// Executions per round: `dfence bench`'s default K.
constexpr unsigned K = 1000;
/// sat::minimumModel stops enumerating minimal models at this many.
constexpr uint64_t SatModelCap = 4096;
/// Set-up repetitions before the first pass, and after each pass of the
/// timed window (setup_s is the median of all of them). One set-up takes
/// a few milliseconds, and the host's speed moves by 10-20% from one
/// second to the next; repetitions spread over the whole window measure
/// the set-up at the host's typical speed, not at one moment's.
constexpr unsigned SetupReps = 11, SetupRepsPerPass = 5;

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double msSince(uint64_t T0) { return (nowNs() - T0) / 1e6; }

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double median(const std::vector<double> &V) { return quantile(V, 0.5); }

/// Harrell-Davis estimate of quantile \p Q of \p V: the mean of all
/// order statistics weighted by the Beta((n+1)Q, (n+1)(1-Q)) mass over
/// each one's interval [i/n, (i+1)/n] (midpoint rule). Unlike a quantile
/// interpolated between two order statistics, it moves smoothly when a
/// few values change rank, which matters across a few dozen dissimilar
/// cells with gaps between their latencies.
double hdQuantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double N = static_cast<double>(V.size());
  double A = (N + 1) * Q, B = (N + 1) * (1 - Q);
  auto LogDensity = [&](double T) {
    return (A - 1) * std::log(T) + (B - 1) * std::log1p(-T);
  };
  double Peak = LogDensity(std::clamp((A - 1) / (A + B - 2), 0.01, 0.99));
  constexpr unsigned PerValue = 200;
  double Sum = 0, Total = 0;
  for (size_t I = 0; I != V.size(); ++I) {
    double W = 0;
    for (unsigned K = 0; K != PerValue; ++K)
      W += std::exp(LogDensity((static_cast<double>(I) + (K + 0.5) / PerValue) /
                               N) -
                    Peak);
    Sum += W * V[I];
    Total += W;
  }
  return Sum / Total;
}

/// The highest of the usual reporting percentiles that still has at
/// least ten samples beyond it; 0 when there are fewer than 20 samples.
double highestPercentile(size_t N) {
  for (double P : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0})
    if (static_cast<double>(N) * (1.0 - P / 100.0) >= 10.0)
      return P;
  return 0;
}

/// Summary of a latency sample: count, median and the highest percentile
/// with at least ten samples beyond it.
Json latencyJson(const std::vector<double> &Ms) {
  Json J = Json::object();
  J.set("n", Json::number(static_cast<uint64_t>(Ms.size())));
  J.set("p50_ms", Json::number(median(Ms)));
  double P = highestPercentile(Ms.size());
  J.set("tail_percentile", Json::number(P));
  J.set("tail_ms", Json::number(P > 0 ? quantile(Ms, P / 100.0) : 0.0));
  return J;
}

uint64_t cellSeed(uint64_t WorkloadSeed, const std::string &Tag) {
  uint64_t S = deriveSeed(WorkloadSeed, Tag);
  return S ? S : 1; // 0 means "default seed" in the serve protocol.
}

/// The vCPUs this process may run on.
std::vector<int> allowedCpus() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  std::vector<int> Cpus;
  if (::sched_getaffinity(0, sizeof(Set), &Set) == 0)
    for (int C = 0; C != CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Set))
        Cpus.push_back(C);
  return Cpus;
}

/// Pins the calling thread to \p Cpu.
void pinTo(int Cpu) {
  cpu_set_t One;
  CPU_ZERO(&One);
  CPU_SET(Cpu, &One);
  ::sched_setaffinity(0, sizeof(One), &One);
}

/// Runs Fn(I) for I in [0, N) on \p Threads threads, each pinned to its
/// own vCPU: on a host whose scheduler does not balance load (as the one
/// this was tuned on), new threads would otherwise all stay on their
/// creator's vCPU. Only the driver's own work outside the timed window
/// runs here.
void parallelFor(size_t N, unsigned Threads,
                 const std::function<void(size_t)> &Fn) {
  std::vector<int> Cpus = allowedCpus();
  std::atomic<size_t> Next{0};
  auto Work = [&](unsigned T) {
    if (T != 0 && !Cpus.empty())
      pinTo(Cpus[T % Cpus.size()]);
    for (size_t I; (I = Next.fetch_add(1)) < N;)
      Fn(I);
  };
  std::vector<std::thread> Pool;
  for (unsigned T = 1; T < Threads; ++T)
    Pool.emplace_back(Work, T);
  Work(0);
  for (std::thread &T : Pool)
    T.join();
}

/// Keeps \p Slice busy with short spin batches until each of its workers
/// last ran on a vCPU of its own, or 10 s pass; returns whether they did.
/// Pool workers start on their creator's vCPU, and on a host whose
/// scheduler does not balance load they move apart only after seconds of
/// sustained work (a few seconds on the host this was tuned on). Until
/// then a width-N round runs no faster than a width-1 round.
bool spreadWorkers(exec::PoolSlice &Slice) {
  unsigned W = Slice.jobs();
  size_t Want = std::min<size_t>(W, allowedCpus().size());
  uint64_t T0 = nowNs();
  while (nowNs() - T0 < 10000000000ull) {
    std::vector<std::atomic<int>> Cpu(W);
    for (std::atomic<int> &C : Cpu)
      C = -1;
    Slice.runOrdered(50 * W, [&](size_t) {
      uint64_t S0 = nowNs();
      while (nowNs() - S0 < 200000) {
      }
      Cpu[exec::currentWorker()] = ::sched_getcpu();
    });
    std::vector<int> Seen;
    for (const std::atomic<int> &C : Cpu)
      if (C >= 0 && std::find(Seen.begin(), Seen.end(), C) == Seen.end())
        Seen.push_back(C);
    if (Seen.size() >= Want)
      return true;
  }
  return false;
}

//===--- Spans --------------------------------------------------------===//

/// One bench-side span: a call into a layer's public function.
struct Span {
  const char *Name = nullptr;
  uint64_t Start = 0, End = 0;
  int Parent = -1;
  int Cell = -1;
  uint64_t A = 0, B = 0; ///< Work counts; meaning depends on Name.
  bool Nested = true;
  uint64_t ns() const { return End - Start; }
};

/// In-memory span recorder for the driver's main thread. Disabled, it
/// records nothing and begin() returns -1.
class Tracer {
public:
  explicit Tracer(bool On) : On(On) {}
  bool on() const { return On; }

  /// Opens a span under the innermost open nested span. A nested span
  /// becomes the parent of later spans until it ends; a detached one
  /// (an overlapping request in flight) does not.
  int begin(const char *Name, int Cell, bool Nested = true) {
    if (!On)
      return -1;
    Span S;
    S.Name = Name;
    S.Parent = Cur;
    S.Cell = Cell;
    S.Nested = Nested;
    Spans.push_back(S);
    int Id = static_cast<int>(Spans.size() - 1);
    if (Nested)
      Cur = Id;
    Spans.back().Start = nowNs();
    return Id;
  }
  void end(int Id, uint64_t A = 0, uint64_t B = 0) {
    if (Id < 0)
      return;
    Span &S = Spans[Id];
    S.End = nowNs();
    S.A = A;
    S.B = B;
    if (S.Nested)
      Cur = S.Parent;
  }
  const std::vector<Span> &spans() const { return Spans; }

  /// Writes the spans as Chrome trace events (complete "X" events).
  bool write(const std::string &Path,
             const std::vector<std::string> &CellIds) const {
    std::ofstream Out(Path);
    if (!Out)
      return false;
    uint64_t T0 = Spans.empty() ? 0 : Spans.front().Start;
    Out << "{\"traceEvents\":[\n";
    for (size_t I = 0; I != Spans.size(); ++I) {
      const Span &S = Spans[I];
      Json E = Json::object();
      E.set("name", Json::string(S.Name));
      E.set("ph", Json::string("X"));
      E.set("pid", Json::number(static_cast<uint64_t>(1)));
      E.set("tid", Json::number(static_cast<uint64_t>(1)));
      E.set("ts", Json::number((S.Start - T0) / 1e3));
      E.set("dur", Json::number(S.ns() / 1e3));
      Json Args = Json::object();
      Args.set("id", Json::number(static_cast<uint64_t>(I)));
      Args.set("parent", Json::number(static_cast<int64_t>(S.Parent)));
      Args.set("cell", Json::string(S.Cell >= 0 ? CellIds[S.Cell] : ""));
      Args.set("a", Json::number(S.A));
      Args.set("b", Json::number(S.B));
      E.set("args", std::move(Args));
      Out << E.dump() << (I + 1 == Spans.size() ? "\n" : ",\n");
    }
    Out << "]}\n";
    return static_cast<bool>(Out);
  }

private:
  bool On;
  int Cur = -1;
  std::vector<Span> Spans;
};

//===--- Cells --------------------------------------------------------===//

struct Cell {
  std::string Id;      ///< "<subject>|<model>".
  std::string Subject; ///< Benchmark or litmus shape name.
  std::string Model;   ///< "tso" | "pso".
  std::string Spec;    ///< "lin" | "nogarbage" | "safety".
  bool Litmus = false; ///< Sent as a "synth" request, else as "bench".
  std::string Source, ClientDsl; ///< Litmus cells only.
  std::vector<fuzz::GoldenFence> Golden; ///< Litmus cells only.
  std::optional<serve::SynthJob> Job;    ///< Resolved in set-up.
};

/// The benchmark's cells: the 13 Table-2 and 4 extended subjects under
/// TSO and PSO at their strictest spec, then the litmus shapes under
/// both models.
std::vector<Cell> makeCells() {
  std::vector<Cell> Cells;
  auto AddBench = [&](const programs::Benchmark &B) {
    for (const char *M : {"tso", "pso"}) {
      Cell C;
      C.Subject = B.Name;
      C.Model = M;
      C.Spec = B.UseNoGarbage ? "nogarbage" : "lin";
      C.Id = C.Subject + "|" + C.Model;
      Cells.push_back(std::move(C));
    }
  };
  for (const programs::Benchmark &B : programs::allBenchmarks())
    AddBench(B);
  for (const programs::Benchmark &B : programs::extendedBenchmarks())
    AddBench(B);
  for (const fuzz::LitmusShape &S : fuzz::litmusCorpus())
    for (const char *M : {"tso", "pso"}) {
      Cell C;
      C.Subject = "litmus-" + S.Name;
      C.Model = M;
      C.Spec = "safety";
      C.Litmus = true;
      C.Source = S.Source;
      C.ClientDsl = S.ClientDsl;
      C.Golden = C.Model == "tso" ? S.MinTso : S.MinPso;
      C.Id = C.Subject + "|" + C.Model;
      Cells.push_back(std::move(C));
    }
  return Cells;
}

/// The serve-protocol request for \p C at base seed \p Seed.
Json requestJson(const Cell &C, uint64_t Seed, const std::string &Id) {
  Json J = Json::object();
  J.set("op", Json::string(C.Litmus ? "synth" : "bench"));
  J.set("id", Json::string(Id));
  if (C.Litmus) {
    J.set("source", Json::string(C.Source));
    J.set("client", Json::string(C.ClientDsl));
  } else {
    J.set("bench", Json::string(C.Subject));
  }
  J.set("model", Json::string(C.Model));
  J.set("spec", Json::string(C.Spec));
  J.set("k", Json::number(static_cast<uint64_t>(K)));
  J.set("seed", Json::number(Seed));
  return J;
}

/// Resolves every cell into a runnable job (compiles each module).
bool prepareCells(std::vector<Cell> &Cells, Tracer &T, std::string &Err) {
  for (size_t I = 0; I != Cells.size(); ++I) {
    Cell &C = Cells[I];
    int S = T.begin("frontend.prepareJob", static_cast<int>(I));
    auto Req = serve::parseRequest(requestJson(C, 1, C.Id), Err);
    if (!Req)
      return false;
    C.Job = serve::prepareJob(*Req, Err);
    T.end(S);
    if (!C.Job) {
      Err = C.Id + ": " + Err;
      return false;
    }
  }
  return true;
}

synth::SynthConfig configFor(const Cell &C, uint64_t Seed) {
  synth::SynthConfig Cfg = C.Job->Cfg;
  Cfg.BaseSeed = Seed;
  return Cfg;
}

std::string canonical(const synth::SynthResult &R) {
  return serve::resultToJson(R).dump();
}

std::vector<std::string> fenceStrings(const synth::SynthResult &R) {
  std::vector<std::string> V;
  for (const synth::InsertedFence &F : R.Fences)
    V.push_back(F.str());
  return V;
}

/// One verification round of \p Clients over \p Fenced with \p Cfg
/// (Jobs=1, caches off, no repair); true when all K executions ran and
/// none violates the cell's spec.
bool verifyRound(const ir::Module &Fenced,
                 const std::vector<vm::Client> &Clients,
                 synth::SynthConfig Cfg) {
  Cfg.Jobs = 1;
  Cfg.Pool = nullptr;
  Cfg.ExecResultCache = nullptr;
  Cfg.MaxRounds = 1;
  Cfg.MaxRepairRounds = 0;
  Cfg.CleanRoundsRequired = 1;
  Cfg.DegradeToStatic = false;
  Cfg.CacheEnabled = false;
  synth::SynthResult V = synth::synthesize(Fenced, Clients, Cfg);
  return V.Status == synth::SynthStatus::Converged &&
         V.ViolatingExecutions == 0 && V.TotalExecutions == K;
}

/// Re-runs the round that ended synthesis at \p Seed (its last, round
/// \p Rounds) over the synthesized module, with a fresh interpreter and
/// no cache or pool: the synthesizer claims those K executions are
/// clean. Round R's execution G (counted from 0 over the whole run) runs
/// at seed BaseSeed + G, client G mod |clients| and flush portfolio entry
/// G mod |portfolio| (synth/Synthesizer.cpp, planRound), so a one-round
/// run with the base seed, clients and portfolio shifted by the executions
/// of the rounds before replays exactly that round.
bool claimedRoundClean(const Cell &C, const ir::Module &Fenced,
                       uint64_t Seed, unsigned Rounds) {
  synth::SynthConfig Cfg = configFor(C, Seed);
  uint64_t First = static_cast<uint64_t>(Rounds - 1) * Cfg.ExecsPerRound;
  Cfg.BaseSeed += First;
  std::vector<vm::Client> Clients = C.Job->Clients;
  std::rotate(Clients.begin(), Clients.begin() + First % Clients.size(),
              Clients.end());
  if (!Cfg.FlushProbs.empty())
    std::rotate(Cfg.FlushProbs.begin(),
                Cfg.FlushProbs.begin() + First % Cfg.FlushProbs.size(),
                Cfg.FlushProbs.end());
  return verifyRound(Fenced, Clients, Cfg);
}

/// One verification round over a synthesized module at a held-out seed;
/// true when no execution violates the cell's spec.
bool heldOutClean(const Cell &C, const ir::Module &Fenced, uint64_t Seed) {
  return verifyRound(Fenced, C.Job->Clients, configFor(C, Seed));
}

//===--- Per-layer replay ----------------------------------------------===//

/// Counters gathered outside spans (from results and daemon responses)
/// for the per-layer report.
struct LayerCounts {
  uint64_t SatModels = 0, SatCapHits = 0;
  uint64_t Rounds = 0, RepairRounds = 0;
  uint64_t Execs = 0, Discarded = 0, Retries = 0;
  uint64_t ExecHits = 0, ExecMisses = 0, CheckHits = 0, CheckMisses = 0;
  uint64_t RejectedFull = 0;
  double SatSolveNs = 0;
  double TracedNs = 0, UntracedNs = 0;
  std::vector<double> PingUs, OverheadMs;
  uint64_t ReplayMismatches = 0;

  void addResult(const synth::SynthResult &R) {
    Rounds += R.Rounds;
    Execs += R.TotalExecutions;
    Discarded += R.DiscardedExecutions;
    Retries += R.RetriedExecutions;
    for (const synth::RoundStats &S : R.RoundLog)
      if (S.SatClauses) {
        ++RepairRounds;
        SatModels += S.SatModels;
        if (S.SatModels >= SatModelCap)
          ++SatCapHits;
        SatSolveNs += static_cast<double>(S.SatSolveUs) * 1e3;
      }
  }
};

/// The round-1 plan synthesize() builds for \p Cfg (see planRound in
/// synth/Synthesizer.cpp), rebuilt from public configuration fields.
exec::RoundPlan roundOnePlan(const synth::SynthConfig &Cfg,
                             size_t NumClients) {
  exec::RoundPlan Plan;
  Plan.Slots.resize(Cfg.ExecsPerRound);
  for (unsigned I = 0; I != Cfg.ExecsPerRound; ++I) {
    exec::ExecPlan &P = Plan.Slots[I];
    P.ClientIdx = static_cast<uint32_t>(I % NumClients);
    vm::ExecConfig &EC = P.EC;
    EC.Model = Cfg.Model;
    EC.Dispatch = Cfg.Dispatch;
    EC.Seed = Cfg.BaseSeed + I;
    EC.MaxSteps = Cfg.MaxStepsPerExec;
    EC.CollectRepairs = true;
    EC.InterOpPredicates = Cfg.InterOpPredicates;
    EC.FlushProb = Cfg.FlushProbs.empty()
                       ? Cfg.FlushProb
                       : Cfg.FlushProbs[I % Cfg.FlushProbs.size()];
    EC.PartialOrderReduction = Cfg.PartialOrderReduction;
  }
  return Plan;
}

/// Replays the first round of cell \p CI at \p Seed through the public
/// layer functions, one span per call: vm::PreparedProgram and
/// vm::ExecContext::run over the round's plan, synth::checkExecution,
/// sat::minimumModel on the violating executions' repairs, then
/// enforcePredicates + mergeRedundantFences (and the re-prepare that
/// follows them), and exec::runRound on a width-1 and a width-N slice.
/// \p SynthR is the synthesize() result of the same request; its first
/// round's violation count and SAT effort must match the replay.
void replayFirstRound(const std::vector<Cell> &Cells, int CI, uint64_t Seed,
                      const synth::SynthResult &SynthR, exec::ExecPool &W1,
                      exec::ExecPool &WN, Tracer &T, LayerCounts &LC) {
  const Cell &C = Cells[CI];
  synth::SynthConfig Cfg = configFor(C, Seed);
  const std::vector<vm::Client> &Clients = C.Job->Clients;
  int Root = T.begin("replay.round1", CI);

  int S = T.begin("vm.PreparedProgram", CI);
  vm::PreparedProgram P(C.Job->M, Clients);
  T.end(S);

  exec::RoundPlan Plan = roundOnePlan(Cfg, Clients.size());
  std::vector<vm::ExecResult> Results(Plan.Slots.size());
  uint64_t Steps = 0;
  {
    vm::ExecContext Ctx;
    S = T.begin("vm.ExecContext.run", CI);
    for (size_t I = 0; I != Plan.Slots.size(); ++I)
      Ctx.run(P, Plan.Slots[I].ClientIdx, Plan.Slots[I].EC, Results[I]);
    for (const vm::ExecResult &R : Results)
      Steps += R.Steps;
    T.end(S, Results.size(), Steps);
  }

  std::vector<std::string> Violations(Results.size());
  S = T.begin("synth.checkExecution", CI);
  for (size_t I = 0; I != Results.size(); ++I)
    Violations[I] = synth::checkExecution(Results[I], Cfg);
  T.end(S, Results.size());

  // Φ exactly as synthesize() builds it: one clause per violating
  // execution with a non-empty repair disjunction, variables numbered in
  // first-seen order.
  std::map<vm::OrderingPredicate, sat::Var> PredVar;
  std::vector<vm::OrderingPredicate> VarPred;
  sat::MonotoneCnf F;
  uint64_t ViolCount = 0;
  for (size_t I = 0; I != Results.size(); ++I) {
    if (Violations[I].empty())
      continue;
    ++ViolCount;
    if (Results[I].Repairs.empty())
      continue;
    std::vector<sat::Var> Clause;
    for (const vm::OrderingPredicate &Pr : Results[I].Repairs) {
      auto It = PredVar.find(Pr);
      if (It == PredVar.end()) {
        It = PredVar.emplace(Pr, static_cast<sat::Var>(VarPred.size()))
                 .first;
        VarPred.push_back(Pr);
      }
      Clause.push_back(It->second);
    }
    F.Clauses.push_back(std::move(Clause));
  }
  F.NumVars = static_cast<unsigned>(VarPred.size());

  const synth::RoundStats *R1 =
      SynthR.RoundLog.empty() ? nullptr : &SynthR.RoundLog.front();
  // A harness retry can turn a discarded execution into a violating one,
  // which a bare ExecContext replay does not model; compare only
  // retry-free runs.
  if (R1 && SynthR.RetriedExecutions == 0 && R1->Violations != ViolCount)
    ++LC.ReplayMismatches;

  if (!F.Clauses.empty()) {
    bool Unsat = false;
    sat::SolveStats SS;
    S = T.begin("sat.minimumModel", CI);
    std::vector<sat::Var> Chosen = sat::minimumModel(F, Unsat, &SS);
    T.end(S, SS.Models, Chosen.size());
    if (R1 && SynthR.RetriedExecutions == 0 && R1->SatModels != SS.Models)
      ++LC.ReplayMismatches;

    std::vector<vm::OrderingPredicate> ChosenPreds;
    for (sat::Var V : Chosen)
      ChosenPreds.push_back(VarPred[V]);
    ir::Module Cur = C.Job->M;
    Cur.buildIndexes();
    S = T.begin("synth.enforcePredicates", CI);
    synth::enforcePredicates(Cur, ChosenPreds, Cfg.Mode);
    T.end(S, ChosenPreds.size());
    S = T.begin("synth.mergeRedundantFences", CI);
    synth::mergeRedundantFences(Cur);
    T.end(S);
    S = T.begin("vm.PreparedProgram", CI);
    vm::PreparedProgram Re(Cur, Clients);
    T.end(S);
  }

  auto Check = [&Cfg](const vm::ExecResult &R) {
    return synth::checkExecution(R, Cfg);
  };
  for (exec::ExecPool *Pool : {&W1, &WN}) {
    exec::PoolSlice &Slice = Pool->slice(0);
    S = T.begin("exec.runRound", CI);
    exec::RoundResult RR = exec::runRound(Slice, P, Plan, Cfg.Exec, Check);
    T.end(S, Slice.jobs(), RR.Ran);
  }
  T.end(Root);
}

//===--- Run records ---------------------------------------------------===//

/// Run::Pass of requests outside the timed stream (the serve probe's).
constexpr unsigned OutsidePass = ~0u;

/// One synthesis request the workload issued, and what checking it found.
struct Run {
  int Cell = -1;
  unsigned Pass = 0;
  uint64_t Seed = 0;
  bool Fresh = true; ///< False for a reverify (warm repeat) request.
  double Ms = 0;     ///< Caller-observed latency.
  unsigned Fences = 0;
  unsigned Rounds = 0;
  uint64_t Execs = 0;
  std::string Canon;
  bool Converged = false;
  std::string Failure; ///< Empty = every check passed.
  /// Fence-quality findings, reported but not failures (see
  /// verifyOutside): a held-out round found a violation; fewer fences
  /// than the same subject's TSO request of the same pass; a litmus
  /// result without some of its golden fences.
  bool Escaped = false, BelowTso = false, MissedGolden = false;
  void fail(const std::string &Why) {
    if (Failure.empty())
      Failure = Why;
  }
};

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  unsigned Seconds = 10;
  bool Trace = false;
  std::string Dfence;
  std::string OutDir = ".";
  std::string GitSha = "unknown";
};

/// Everything a workload produced, turned into the result line by
/// report().
struct Outcome {
  std::vector<Run> Runs;
  std::vector<double> SetupS;
  unsigned Passes = 0;
  std::vector<double> PassFences, PassExecs;
  double WindowS = 0;   ///< Wall time of the timed passes.
  double PeakRssMb = 0; ///< High-water mark after the first pass.
  Json Extra = Json::object();
  LayerCounts LC;
};

double selfPeakRssMb() {
  struct rusage RU;
  ::getrusage(RUSAGE_SELF, &RU);
  return static_cast<double>(RU.ru_maxrss) / 1024.0;
}

/// Checks the known answers of a finished cold synthesis: converged, and
/// for a litmus shape every fence is one of its golden fences. A litmus
/// result that lacks a golden fence is a sampling miss, counted like a
/// held-out escape (see verifyOutside). The replay of the converging
/// round, the width comparison and the other fence-quality findings come
/// later, outside the timed window.
void checkResult(const Cell &C, const synth::SynthResult &R, Run &Out) {
  Out.Converged = R.Status == synth::SynthStatus::Converged;
  Out.Fences = static_cast<unsigned>(R.Fences.size());
  Out.Rounds = R.Rounds;
  Out.Execs = R.TotalExecutions;
  if (!Out.Converged)
    Out.fail(std::string("status ") + synth::synthStatusName(R.Status));
  if (!C.Litmus)
    return;
  // The fences match some sub-multiset of the golden ones (golden sets
  // hold at most a few fences); the full set is an exact match.
  std::vector<std::string> Got = fenceStrings(R);
  size_t N = C.Golden.size();
  for (size_t Mask = (size_t(1) << N); Mask-- != 0;) {
    std::vector<fuzz::GoldenFence> Sub;
    for (size_t I = 0; I != N; ++I)
      if (Mask >> I & 1)
        Sub.push_back(C.Golden[I]);
    if (fuzz::fencesMatchGolden(Got, Sub)) {
      Out.MissedGolden = Mask + 1 != (size_t(1) << N);
      return;
    }
  }
  Out.fail("a litmus fence outside the golden placement");
}

/// Marks PSO requests with fewer fences than the same subject's TSO
/// request of the same pass.
void markPsoBelowTso(const std::vector<Cell> &Cells, std::vector<Run> &Runs) {
  std::map<std::pair<unsigned, std::string>, const Run *> Tso;
  for (const Run &R : Runs)
    if (R.Fresh && Cells[R.Cell].Model == "tso")
      Tso[{R.Pass, Cells[R.Cell].Subject}] = &R;
  for (Run &R : Runs) {
    if (!R.Fresh || Cells[R.Cell].Model != "pso")
      continue;
    auto It = Tso.find({R.Pass, Cells[R.Cell].Subject});
    if (It != Tso.end() && R.Fences < It->second->Fences)
      R.BelowTso = true;
  }
}

//===--- Serve daemon --------------------------------------------------===//

/// One spawned single-slot `dfence serve` on a unix socket, at the
/// daemon's default cache capacity. Stops (SIGTERM, then SIGKILL after
/// 10 s) and reaps the process on destruction.
class Daemon {
public:
  Daemon() = default;
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;
  ~Daemon() { stop(); }

  bool start(const std::string &Bin, const std::string &Sock,
             unsigned JobsPerSlot, const std::string &LogPath,
             std::string &Err) {
    SockPath = Sock;
    ::unlink(Sock.c_str());
    std::string JobsS = std::to_string(JobsPerSlot);
    Pid = ::fork();
    if (Pid < 0) {
      Err = "fork failed";
      return false;
    }
    if (Pid == 0) {
      int Null = ::open("/dev/null", O_RDONLY);
      int Log = ::open(LogPath.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (Null >= 0)
        ::dup2(Null, 0);
      if (Log >= 0) {
        ::dup2(Log, 1);
        ::dup2(Log, 2);
      }
      ::execl(Bin.c_str(), Bin.c_str(), "serve", "--socket", Sock.c_str(),
              "--no-stdio", "--slots", "1", "--jobs-per-slot", JobsS.c_str(),
              static_cast<char *>(nullptr));
      _exit(127);
    }
    for (int I = 0; I != 6000; ++I) {
      struct stat St;
      if (::stat(Sock.c_str(), &St) == 0)
        return true;
      int Status = 0;
      if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
        Pid = -1;
        Err = "dfence serve exited during start-up (see " + LogPath + ")";
        return false;
      }
      ::usleep(5000);
    }
    Err = "dfence serve did not open its socket";
    stop();
    return false;
  }

  void stop() {
    if (Pid <= 0)
      return;
    ::kill(Pid, SIGTERM);
    int Status = 0;
    for (int I = 0; I != 1000; ++I) {
      if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
        Pid = -1;
        break;
      }
      ::usleep(10000);
    }
    if (Pid > 0) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, &Status, 0);
      Pid = -1;
    }
    ::unlink(SockPath.c_str());
  }

private:
  pid_t Pid = -1;
  std::string SockPath;
};

std::optional<Json> serveCall(client::ServeClient &Client,
                              const std::string &Op, std::string &Err) {
  Json Req = Json::object();
  Req.set("op", Json::string(Op));
  Req.set("id", Json::string(Op));
  return Client.call(Req, Err);
}

/// The "cache" section of a stats response.
const Json *statsCache(const Json &Resp) {
  const Json *S = Resp.find("stats");
  return S ? S->find("cache") : nullptr;
}

/// Round trips of \p N sequential pings, in microseconds.
std::vector<double> pingUs(client::ServeClient &Client, unsigned N,
                           Tracer &T, std::string &Err) {
  std::vector<double> Us;
  for (unsigned I = 0; I != N; ++I) {
    int S = T.begin("serve.ping", -1);
    uint64_t T0 = nowNs();
    bool Ok = serveCall(Client, "ping", Err).has_value();
    T.end(S);
    if (!Ok)
      break;
    Us.push_back((nowNs() - T0) / 1e3);
  }
  return Us;
}

//===--- In-process suite workloads ------------------------------------===//

/// Runs \p C at \p Seed through synthesize() with a fresh private cache,
/// at Jobs=1 or on \p Pool.
synth::SynthResult synthCell(const Cell &C, uint64_t Seed,
                             exec::ExecPool *Pool, cache::ExecCache &Cache,
                             double &Ms) {
  synth::SynthConfig Cfg = configFor(C, Seed);
  Cfg.Jobs = 1;
  Cfg.Pool = Pool;
  Cfg.ExecResultCache = &Cache;
  uint64_t T0 = nowNs();
  synth::SynthResult R = synth::synthesize(C.Job->M, C.Job->Clients, Cfg);
  Ms = msSince(T0);
  return R;
}

std::string passTag(unsigned Pass, const Cell &C) {
  return "pass" + std::to_string(Pass) + "|" + C.Id;
}

/// Checks every converged cold request outside the timed window, on
/// \p Threads threads (\p Fenced[I] is Runs[I]'s synthesized module):
///
///  - failures: the converging round, replayed without cache or pool, is
///    clean; with \p CheckWidth (the pool workload) each first-pass
///    request at Jobs=1 returns the same canonical result byte for byte;
///  - findings: a round at a held-out seed finds a violation (Escaped),
///    and the PSO request has fewer fences than the TSO one (BelowTso).
///
/// The findings are counted, not failed: synthesis stops after one clean
/// round of K sampled executions, so a fence whose violation shows in
/// fewer than about one in K executions is missed at some seeds (2.6% of
/// cold requests escape on the code this was written against, 0.8% even
/// with three clean rounds). A gate that must read zero on every seed
/// could only be built on them by choosing seeds or cells.
void verifyOutside(const std::vector<Cell> &Cells, std::vector<Run> &Runs,
                   const std::vector<ir::Module> &Fenced,
                   uint64_t WorkloadSeed, unsigned Threads, bool CheckWidth) {
  markPsoBelowTso(Cells, Runs);
  parallelFor(Runs.size(), Threads, [&](size_t I) {
    Run &R = Runs[I];
    if (!R.Fresh || !R.Converged)
      return;
    const Cell &C = Cells[R.Cell];
    if (!claimedRoundClean(C, Fenced[I], R.Seed, R.Rounds))
      R.fail("the converging round, replayed, found a violation");
    if (CheckWidth && R.Pass == 0) {
      cache::ExecCache Cache;
      double Ms = 0;
      if (canonical(synthCell(C, R.Seed, nullptr, Cache, Ms)) != R.Canon)
        R.fail("the result at Jobs=1 differs from the pool's");
    }
    uint64_t S = cellSeed(WorkloadSeed, "heldout|" + std::to_string(R.Pass) +
                                            "|" + C.Id + "|" +
                                            std::to_string(R.Seed));
    R.Escaped = !heldOutClean(C, Fenced[I], S);
  });
}

/// One pass of a traced run: for each cell, an untraced and a traced
/// synthesize() of the same request (in alternating order), then the
/// first-round replay. Appends each cell's traced result and untraced
/// time to \p Keep and \p UntracedMs.
void tracedPass(const std::vector<Cell> &Cells,
                const std::vector<uint64_t> &Seeds, exec::ExecPool *Pool,
                exec::ExecPool &W1, exec::ExecPool &WN, Tracer &T,
                LayerCounts &LC, std::vector<synth::SynthResult> &Keep,
                std::vector<double> &UntracedMs) {
  for (size_t I = 0; I != Cells.size(); ++I) {
    const Cell &C = Cells[I];
    int CI = static_cast<int>(I);
    synth::SynthResult Traced;
    for (int Order = 0; Order != 2; ++Order) {
      bool WithSpan = (Order == 0) == (I % 2 == 0);
      cache::ExecCache Cache;
      double Ms = 0;
      int S = WithSpan ? T.begin("synth.synthesize", CI) : -1;
      synth::SynthResult R = synthCell(C, Seeds[I], Pool, Cache, Ms);
      if (WithSpan) {
        T.end(S, R.Rounds, R.TotalExecutions);
        LC.TracedNs += Ms * 1e6;
        LC.addResult(R);
        Traced = std::move(R);
      } else {
        LC.UntracedNs += Ms * 1e6;
        UntracedMs.push_back(Ms);
      }
    }
    replayFirstRound(Cells, CI, Seeds[I], Traced, W1, WN, T, LC);
    Keep.push_back(std::move(Traced));
  }
}

/// Sends each cell's request once through a single-slot daemon (width
/// \p JobsPerSlot, the in-process width), then every request again as a
/// reverify request on the daemon's now warm cache. Every response must
/// be ok and equal the in-process canonical result \p InProcCanon byte
/// for byte. Yields serve.ping_us, serve.overhead_ms_p50 (client latency
/// of a first request minus the in-process time \p InProcMs of the same
/// request), the cache hit ratios of the reverify requests and the
/// daemon's rejectedFull count from its stats op.
bool serveProbe(const Options &O, const std::vector<Cell> &Cells,
                const std::vector<uint64_t> &Seeds,
                const std::vector<double> &InProcMs,
                const std::vector<std::string> &InProcCanon,
                unsigned JobsPerSlot, Tracer &T, Outcome &Out,
                std::string &Err) {
  Daemon D;
  std::string Sock =
      O.OutDir + "/serve-" + std::to_string(::getpid()) + ".sock";
  if (!D.start(O.Dfence, Sock, JobsPerSlot, O.OutDir + "/serve.log", Err))
    return false;
  auto Client = client::ServeClient::connectUnix(Sock, Err);
  if (!Client)
    return false;
  Out.LC.PingUs = pingUs(*Client, 50, T, Err);
  if (!Err.empty())
    return false;
  for (bool Fresh : {true, false})
    for (size_t I = 0; I != Cells.size(); ++I) {
      Run R;
      R.Cell = static_cast<int>(I);
      R.Pass = OutsidePass;
      R.Seed = Seeds[I];
      R.Fresh = Fresh;
      Json Req = requestJson(Cells[I], R.Seed,
                             Cells[I].Id + (Fresh ? "|first" : "|reverify"));
      int S = T.begin("serve.request", R.Cell);
      uint64_t T0 = nowNs();
      std::optional<Json> Resp = Client->call(Req, Err);
      R.Ms = msSince(T0);
      T.end(S, Fresh ? 1 : 0);
      if (!Resp) {
        if (Err.empty())
          Err = "daemon closed the connection";
        return false;
      }
      const Json *St = Resp->find("status");
      const Json *Res = Resp->find("result");
      if (!St || St->asString() != "ok" || !Res)
        R.fail("response status " + (St ? St->asString() : "missing"));
      else if (Res->dump() != InProcCanon[I])
        R.fail("serve result differs from the in-process result");
      const Json *C = Resp->find("cache");
      if (!Fresh && C) {
        Out.LC.ExecHits += C->find("execHits")->asU64();
        Out.LC.ExecMisses += C->find("execMisses")->asU64();
        Out.LC.CheckHits += C->find("checkHits")->asU64();
        Out.LC.CheckMisses += C->find("checkMisses")->asU64();
      }
      if (Fresh)
        Out.LC.OverheadMs.push_back(R.Ms - InProcMs[I]);
      Out.Runs.push_back(std::move(R));
    }
  std::optional<Json> Stats = serveCall(*Client, "stats", Err);
  if (!Stats)
    return false;
  const Json *CS = statsCache(*Stats);
  if (!CS) {
    Err = "daemon stats carry no cache section";
    return false;
  }
  Out.LC.RejectedFull = CS->find("rejectedFull")->asU64();
  Json CacheJ = Json::object();
  CacheJ.set("capacity", Json::number(CS->find("capacity")->asU64()));
  CacheJ.set("entries", Json::number(CS->find("entries")->asU64()));
  CacheJ.set("rejected_full", Json::number(Out.LC.RejectedFull));
  Out.Extra.set("serve_cache", std::move(CacheJ));
  return true;
}

bool runSuite(const Options &O, bool Parallel, std::vector<Cell> &Cells,
              Outcome &Out, Tracer &T, std::string &Err) {
  unsigned N = exec::resolveJobs(0);
  // At Jobs=1 everything runs on this thread, so each set-up and each
  // pass is pinned to the next vCPU in turn: the vCPUs of a shared host
  // slow down independently, and a median then spans all of them instead
  // of whichever one the thread started on. (Not at full width: threads
  // inherit their creator's affinity, and the pool's workers must not.)
  std::vector<int> Cpus = Parallel ? std::vector<int>() : allowedCpus();
  cpu_set_t AllCpus;
  ::sched_getaffinity(0, sizeof(AllCpus), &AllCpus);

  // Set-up: resolve and compile every cell (and, at full width, start
  // a pool). Repeated; setup_s is the median.
  auto SetUp = [&](std::optional<exec::ExecPool> &Into, Tracer &Tr) {
    Into.reset();
    uint64_t T0 = nowNs();
    if (Parallel)
      Into.emplace(N);
    if (!prepareCells(Cells, Tr, Err))
      return false;
    Out.SetupS.push_back(msSince(T0) / 1e3);
    return true;
  };
  Tracer Quiet(false);
  std::optional<exec::ExecPool> Pool, Spare;
  for (unsigned Rep = 0; Rep != SetupReps; ++Rep) {
    if (!Cpus.empty())
      pinTo(Cpus[Rep % Cpus.size()]);
    if (!SetUp(Pool, Rep + 1 == SetupReps ? T : Quiet))
      return false;
  }
  if (!Cpus.empty())
    ::sched_setaffinity(0, sizeof(AllCpus), &AllCpus);
  exec::ExecPool *P = Parallel ? &*Pool : nullptr;
  // Outside setup_s: let the shared pool's workers move onto vCPUs of
  // their own before anything is timed (see spreadWorkers).
  if (P)
    Out.Extra.set("pool_spread", Json::boolean(spreadWorkers(P->slice(0))));

  if (T.on()) {
    // Traced run: per-layer passes over fresh seeds until the window
    // closes (at least one), then the first pass's requests through the
    // serve probe.
    exec::ExecPool W1(1), WN(N);
    Out.Extra.set("replay_pool_spread",
                  Json::boolean(spreadWorkers(WN.slice(0))));
    uint64_t T0 = nowNs();
    std::vector<uint64_t> Seeds;
    std::vector<synth::SynthResult> Results;
    std::vector<double> Ms;
    for (unsigned Pass = 0; Pass == 0 || msSince(T0) < O.Seconds * 1e3;
         ++Pass) {
      std::vector<uint64_t> PassSeeds;
      for (const Cell &C : Cells)
        PassSeeds.push_back(cellSeed(O.Seed, passTag(Pass, C)));
      tracedPass(Cells, PassSeeds, P, W1, WN, T, Out.LC, Results, Ms);
      Seeds.insert(Seeds.end(), PassSeeds.begin(), PassSeeds.end());
      ++Out.Passes;
    }
    Out.WindowS = msSince(T0) / 1e3;
    std::vector<std::string> Canon;
    std::vector<ir::Module> Fenced;
    for (size_t I = 0; I != Results.size(); ++I) {
      Run R;
      R.Cell = static_cast<int>(I % Cells.size());
      R.Pass = static_cast<unsigned>(I / Cells.size());
      R.Seed = Seeds[I];
      R.Ms = Ms[I];
      checkResult(Cells[R.Cell], Results[I], R);
      R.Canon = canonical(Results[I]);
      Canon.push_back(R.Canon);
      Fenced.push_back(std::move(Results[I].FencedModule));
      Out.Runs.push_back(std::move(R));
    }
    verifyOutside(Cells, Out.Runs, Fenced, O.Seed, N, Parallel);
    return serveProbe(O, Cells, Seeds, Ms, Canon, Parallel ? N : 1, T, Out,
                      Err);
  }

  // Timed window: whole passes over every cell until --seconds elapse,
  // each pass with its own seed per cell. Each cell runs cold on a fresh
  // private cache (the timed request), then once more on the same, now
  // warm, cache (the reverify request, timed on its own and excluded
  // from pass_s).
  std::vector<synth::SynthResult> Results;
  uint64_t W0 = nowNs();
  for (unsigned Pass = 0; msSince(W0) < O.Seconds * 1e3; ++Pass) {
    if (!Cpus.empty())
      pinTo(Cpus[Pass % Cpus.size()]);
    double Fences = 0, Execs = 0;
    for (size_t I = 0; I != Cells.size(); ++I) {
      const Cell &C = Cells[I];
      uint64_t Seed = cellSeed(O.Seed, passTag(Pass, C));
      cache::ExecCache Cache;
      Run Cold;
      Cold.Cell = static_cast<int>(I);
      Cold.Pass = Pass;
      Cold.Seed = Seed;
      synth::SynthResult R = synthCell(C, Seed, P, Cache, Cold.Ms);
      checkResult(C, R, Cold);
      Cold.Canon = canonical(R);
      Fences += Cold.Fences;
      Execs += static_cast<double>(Cold.Execs);

      Run Warm = Cold;
      Warm.Fresh = false;
      Warm.Failure.clear();
      synth::SynthResult W = synthCell(C, Seed, P, Cache, Warm.Ms);
      checkResult(C, W, Warm);
      Warm.Canon = canonical(W);
      if (Warm.Canon != Cold.Canon)
        Warm.fail("warm re-verification changed the canonical result");
      Results.push_back(std::move(R));
      Results.emplace_back();
      Out.Runs.push_back(std::move(Cold));
      Out.Runs.push_back(std::move(Warm));
    }
    if (++Out.Passes == 1)
      Out.PeakRssMb = selfPeakRssMb();
    Out.PassFences.push_back(Fences);
    Out.PassExecs.push_back(Execs);
    // More set-ups, outside every pass's figures; a set-up's pool is a
    // spare one, so the shared pool keeps its placement.
    for (unsigned Rep = 0; Rep != SetupRepsPerPass; ++Rep)
      if (!SetUp(Spare, Quiet))
        return false;
    Spare.reset();
  }
  Out.WindowS = msSince(W0) / 1e3;
  if (!Cpus.empty())
    ::sched_setaffinity(0, sizeof(AllCpus), &AllCpus);

  // Known answers that need extra work run outside the window.
  std::vector<ir::Module> Fenced;
  for (synth::SynthResult &R : Results)
    Fenced.push_back(std::move(R.FencedModule));
  verifyOutside(Cells, Out.Runs, Fenced, O.Seed, N, Parallel);
  return true;
}

//===--- Report --------------------------------------------------------===//

Json metric(double V, const char *Unit) {
  Json J = Json::object();
  J.set("value", Json::number(V));
  J.set("unit", Json::string(Unit));
  return J;
}

double ratio(double A, double B) { return B > 0 ? A / B : 0; }

/// Per-layer metrics from the spans and result counters of a traced run.
Json layerMetrics(const std::vector<Cell> &Cells, const Tracer &T,
                  const LayerCounts &LC, bool Parallel) {
  double VmNs[2] = {0, 0}, Execs[2] = {0, 0}, Steps[2] = {0, 0};
  std::map<std::string, std::pair<double, double>> Check; // spec -> ns, n
  std::vector<double> PrepareUs, CompileUs, SolveMs, Chosen, EnforceUs;
  double W1Ns = 0, WNNs = 0, WNWidth = 1;
  double VmCheckNs = 0;
  std::map<int, double> EnforceByCell, W1ByCell, WNByCell, ExecsByCell;
  for (const Span &S : T.spans()) {
    std::string Name = S.Name;
    int M = S.Cell >= 0 && Cells[S.Cell].Model == "pso" ? 1 : 0;
    if (Name == "frontend.prepareJob")
      CompileUs.push_back(S.ns() / 1e3);
    else if (Name == "vm.PreparedProgram")
      PrepareUs.push_back(S.ns() / 1e3);
    else if (Name == "vm.ExecContext.run") {
      VmNs[M] += S.ns();
      Execs[M] += S.A;
      Steps[M] += S.B;
      VmCheckNs += S.ns();
    } else if (Name == "synth.checkExecution") {
      auto &C = Check[Cells[S.Cell].Spec];
      C.first += S.ns();
      C.second += S.A;
      VmCheckNs += S.ns();
    } else if (Name == "sat.minimumModel") {
      SolveMs.push_back(S.ns() / 1e6);
      Chosen.push_back(static_cast<double>(S.B));
    } else if (Name == "synth.enforcePredicates" ||
               Name == "synth.mergeRedundantFences") {
      EnforceByCell[S.Cell] += S.ns();
    } else if (Name == "exec.runRound") {
      if (S.A == 1) {
        W1Ns += S.ns();
        W1ByCell[S.Cell] += S.ns();
        ExecsByCell[S.Cell] += S.B;
      } else {
        WNNs += S.ns();
        WNWidth = static_cast<double>(S.A);
        WNByCell[S.Cell] += S.ns();
      }
    }
  }
  for (const auto &[C, Ns] : EnforceByCell)
    EnforceUs.push_back(Ns / 1e3);

  // Attribution of the traced synthesize() time: the replayed per-exec
  // round cost (at the workload's width) times the executions run, plus
  // SAT time from the round logs, plus enforcement per repair round.
  double PerExecNs = 0, Replayed = 0;
  for (const auto &[C, E] : ExecsByCell) {
    Replayed += E;
    PerExecNs += Parallel ? WNByCell[C] : W1ByCell[C];
  }
  PerExecNs = ratio(PerExecNs, Replayed);
  double EnforceNs = median(EnforceUs) * 1e3;
  double PrepareNs = median(PrepareUs) * 1e3;
  double Attributed = PerExecNs * static_cast<double>(LC.Execs) +
                      LC.SatSolveNs +
                      (EnforceNs + PrepareNs) * LC.RepairRounds;

  double CheckNs = 0;
  for (const auto &[Spec, V] : Check)
    CheckNs += V.first;

  Json M = Json::object();
  auto Put = [&](const char *Name, double V, const char *Unit) {
    M.set(Name, metric(V, Unit));
  };
  Put("frontend.compile_us", median(CompileUs), "us");
  Put("vm.execs_per_s.tso", ratio(Execs[0], VmNs[0] / 1e9), "1/s");
  Put("vm.execs_per_s.pso", ratio(Execs[1], VmNs[1] / 1e9), "1/s");
  Put("vm.ns_per_step.tso", ratio(VmNs[0], Steps[0]), "ns");
  Put("vm.ns_per_step.pso", ratio(VmNs[1], Steps[1]), "ns");
  Put("vm.prepare_us", median(PrepareUs), "us");
  Put("spec.check_us.lin",
      ratio(Check["lin"].first, Check["lin"].second) / 1e3, "us");
  Put("spec.check_us.nogarbage",
      ratio(Check["nogarbage"].first, Check["nogarbage"].second) / 1e3, "us");
  Put("spec.check_us.safety",
      ratio(Check["safety"].first, Check["safety"].second) / 1e3, "us");
  Put("spec.check_share", ratio(CheckNs, VmCheckNs), "ratio");
  Put("sat.solve_ms_p50", median(SolveMs), "ms");
  Put("sat.solve_ms_max", quantile(SolveMs, 1), "ms");
  Put("sat.models", static_cast<double>(LC.SatModels), "count");
  Put("sat.cap_hits", static_cast<double>(LC.SatCapHits), "count");
  Put("sat.chosen_size", median(Chosen), "count");
  Put("synth.enforce_us", median(EnforceUs), "us");
  Put("synth.rounds_total", static_cast<double>(LC.Rounds), "count");
  Put("synth.unattributed_share", 1.0 - ratio(Attributed, LC.TracedNs),
      "ratio");
  double Speedup = ratio(W1Ns, WNNs);
  Put("exec.round_speedup", Speedup, "ratio");
  Put("exec.round_efficiency", Speedup / WNWidth, "ratio");
  Put("cache.exec_hit_ratio",
      ratio(LC.ExecHits, LC.ExecHits + LC.ExecMisses), "ratio");
  Put("cache.check_hit_ratio",
      ratio(LC.CheckHits, LC.CheckHits + LC.CheckMisses), "ratio");
  Put("cache.rejected_full", static_cast<double>(LC.RejectedFull), "count");
  Put("harness.discarded_share", ratio(LC.Discarded, LC.Execs), "ratio");
  Put("harness.retries", static_cast<double>(LC.Retries), "count");
  Put("serve.ping_us", median(LC.PingUs), "us");
  Put("serve.overhead_ms_p50", median(LC.OverheadMs), "ms");
  Put("trace.overhead_share",
      ratio(LC.TracedNs - LC.UntracedNs, LC.UntracedNs), "ratio");
  return M;
}

int report(const Options &O, const std::vector<Cell> &Cells,
           Outcome &Out, const Tracer &T) {
  uint64_t Attempted = Out.Runs.size(), Failed = 0;
  uint64_t Checked = 0, Escapes = 0, BelowTso = 0, Missed = 0;
  for (const Run &R : Out.Runs) {
    if (!R.Failure.empty())
      ++Failed;
    if (R.Fresh && R.Converged && R.Pass != OutsidePass)
      ++Checked;
    Escapes += R.Escaped;
    BelowTso += R.BelowTso;
    Missed += R.Fresh && R.MissedGolden;
  }

  // Per-cell rows.
  std::map<int, std::vector<const Run *>> ByCell;
  for (const Run &R : Out.Runs)
    ByCell[R.Cell].push_back(&R);
  for (const auto &[CI, Rs] : ByCell) {
    std::vector<double> Cold, Warm;
    std::map<std::string, unsigned> FenceSets;
    unsigned Fails = 0, Escapes = 0, BelowTso = 0, Missed = 0;
    std::string Why;
    for (const Run *R : Rs) {
      Escapes += R->Escaped;
      BelowTso += R->BelowTso;
      Missed += R->Fresh && R->MissedGolden;
      if (R->Pass != OutsidePass)
        (R->Fresh ? Cold : Warm).push_back(R->Ms);
      if (R->Fresh && R->Pass != OutsidePass)
        ++FenceSets[std::to_string(R->Fences)];
      if (!R->Failure.empty()) {
        ++Fails;
        Why = R->Failure;
      }
    }
    Json Row = Json::object();
    Row.set("cell", Json::string(Cells[CI].Id));
    Row.set("spec", Json::string(Cells[CI].Spec));
    Row.set("requests", Json::number(static_cast<uint64_t>(Rs.size())));
    Row.set("cold_ms_p50", Json::number(median(Cold)));
    Row.set("cold_ms_best", Json::number(quantile(Cold, 0)));
    Row.set("reverify_ms_p50", Json::number(median(Warm)));
    Row.set("reverify_ms_best", Json::number(quantile(Warm, 0)));
    Json FS = Json::object();
    for (const auto &[F, Cnt] : FenceSets)
      FS.set(F, Json::number(static_cast<uint64_t>(Cnt)));
    Row.set("fence_counts", std::move(FS));
    Row.set("heldout_escapes", Json::number(static_cast<uint64_t>(Escapes)));
    Row.set("pso_below_tso", Json::number(static_cast<uint64_t>(BelowTso)));
    if (Cells[CI].Litmus)
      Row.set("litmus_missed", Json::number(static_cast<uint64_t>(Missed)));
    Row.set("failed", Json::number(static_cast<uint64_t>(Fails)));
    if (!Why.empty())
      Row.set("failure", Json::string(Why));
    Json Line = Json::object();
    Line.set("row", std::move(Row));
    std::printf("%s\n", Line.dump().c_str());
  }

  // Request latencies in the timed passes, and per cell.
  std::vector<double> Fresh, Warm;
  std::vector<std::vector<double>> CellCold(Cells.size()),
      CellWarm(Cells.size());
  for (const Run &R : Out.Runs) {
    if (R.Pass == OutsidePass)
      continue;
    (R.Fresh ? Fresh : Warm).push_back(R.Ms);
    (R.Fresh ? CellCold : CellWarm)[R.Cell].push_back(R.Ms);
  }

  // A cell's cold latency in a run is the median of its cold requests,
  // one per pass, each at its own seed: how much work a cell takes
  // depends on the seed (Michael Allocator PSO takes 0.7-2 s at Jobs=1),
  // and a run's rare cheap seeds would set a best-of. A reverify request
  // replays cached executions and solves Φ again, so its work barely
  // varies with the seed; at well under a millisecond its noise is
  // one-off stalls, and a cell's reverify latency is the best of its
  // requests. The latency metrics are Harrell-Davis quantiles of these
  // per-cell figures across cells; the raw distributions are in the
  // summary line.
  std::vector<double> MedCold, BestWarm;
  double PassS = 0;
  for (size_t I = 0; I != Cells.size(); ++I) {
    if (!CellCold[I].empty()) {
      MedCold.push_back(median(CellCold[I]));
      PassS += MedCold.back() / 1e3;
    }
    if (!CellWarm[I].empty())
      BestWarm.push_back(quantile(CellWarm[I], 0));
  }

  Json Metrics = Json::object();
  if (T.on()) {
    Metrics = layerMetrics(Cells, T, Out.LC,
                           O.Workload == "suite_par");
  } else {
    Metrics.set("setup_s", metric(median(Out.SetupS), "s"));
    // The cells run one after another, so a pass at the per-cell medians
    // takes their sum.
    Metrics.set("pass_s", metric(PassS, "s"));
    Metrics.set("cell_ms_p50", metric(hdQuantile(MedCold, 0.5), "ms"));
    Metrics.set("cell_ms_p90", metric(hdQuantile(MedCold, 0.9), "ms"));
    Metrics.set("reverify_ms_p50", metric(hdQuantile(BestWarm, 0.5), "ms"));
    Metrics.set("fences_total", metric(median(Out.PassFences), "count"));
    Metrics.set("execs_total", metric(median(Out.PassExecs), "count"));
    Metrics.set("peak_rss_mb", metric(Out.PeakRssMb, "MiB"));
  }

  char Host[256] = "unknown";
  ::gethostname(Host, sizeof(Host) - 1);
  Json Stamp = Json::object();
  Stamp.set("host", Json::string(Host));
  Stamp.set("nproc", Json::number(static_cast<uint64_t>(exec::resolveJobs(0))));
  Stamp.set("build_type", Json::string(PERFBENCH_BUILD_TYPE));
  Stamp.set("git_sha", Json::string(O.GitSha));
  Stamp.set("workload", Json::string(O.Workload));
  Stamp.set("workload_seed", Json::number(O.Seed));
  Stamp.set("k", Json::number(static_cast<uint64_t>(K)));
  Stamp.set("seconds", Json::number(static_cast<uint64_t>(O.Seconds)));
  Stamp.set("trace", Json::boolean(T.on()));
  Json Summary = Json::object();
  Summary.set("stamp", Stamp);
  Summary.set("passes", Json::number(static_cast<uint64_t>(Out.Passes)));
  Summary.set("window_s", Json::number(Out.WindowS));
  Summary.set("cold", latencyJson(Fresh));
  Summary.set("reverify", latencyJson(Warm));
  Summary.set("fail_rate", Json::number(ratio(Failed, Attempted)));
  Json Quality = Json::object();
  Quality.set("checked", Json::number(Checked));
  Quality.set("heldout_escapes", Json::number(Escapes));
  Quality.set("pso_below_tso", Json::number(BelowTso));
  Quality.set("litmus_missed", Json::number(Missed));
  Summary.set("fence_quality", std::move(Quality));
  Summary.set("replay_mismatches", Json::number(Out.LC.ReplayMismatches));
  for (const auto &[K2, V] : Out.Extra.members())
    Summary.set(K2, V);
  Json SL = Json::object();
  SL.set("summary", Summary);
  std::printf("%s\n", SL.dump().c_str());

  std::string Base = O.OutDir + "/" + O.Workload + "-seed" +
                     std::to_string(O.Seed) + (T.on() ? "-trace" : "");
  if (T.on()) {
    std::vector<std::string> Ids;
    for (const Cell &C : Cells)
      Ids.push_back(C.Id);
    T.write(Base + ".spans.json", Ids);
  }

  Json Final = Json::object();
  Final.set("correct", Json::boolean(Failed == 0 &&
                                     Out.LC.ReplayMismatches == 0));
  Final.set("attempted", Json::number(Attempted));
  Final.set("failed", Json::number(Failed));
  Final.set("metrics", std::move(Metrics));
  {
    std::ofstream F(Base + ".result.json");
    Json Full = Json::object();
    Full.set("summary", SL);
    Full.set("result", Final);
    Json Recs = Json::array();
    for (const Run &R : Out.Runs) {
      Json J = Json::object();
      J.set("cell", Json::string(Cells[R.Cell].Id));
      J.set("pass", Json::number(static_cast<uint64_t>(R.Pass)));
      J.set("fresh", Json::boolean(R.Fresh));
      J.set("seed", Json::number(R.Seed));
      J.set("ms", Json::number(R.Ms));
      J.set("fences", Json::number(static_cast<uint64_t>(R.Fences)));
      J.set("heldout_escape", Json::boolean(R.Escaped));
      J.set("pso_below_tso", Json::boolean(R.BelowTso));
      J.set("litmus_missed", Json::boolean(R.MissedGolden));
      if (!R.Failure.empty())
        J.set("failure", Json::string(R.Failure));
      Recs.push(std::move(J));
    }
    Full.set("requests", std::move(Recs));
    F << Full.dump(2) << "\n";
  }
  std::printf("%s\n", Final.dump().c_str());
  std::fflush(stdout);
  return 0;
}

bool parseArgs(int Argc, char **Argv, Options &O, std::string &Err) {
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc) {
      Err = "missing value for " + A;
      return false;
    }
    std::string V = Argv[++I];
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = static_cast<unsigned>(std::strtoul(V.c_str(), nullptr, 10));
    else if (A == "--trace")
      O.Trace = V == "1";
    else if (A == "--dfence")
      O.Dfence = V;
    else if (A == "--out")
      O.OutDir = V;
    else if (A == "--git-sha")
      O.GitSha = V;
    else {
      Err = "unknown argument " + A;
      return false;
    }
  }
  if (O.Workload != "suite_seq" && O.Workload != "suite_par") {
    Err = "unknown workload '" + O.Workload + "'";
    return false;
  }
  if (O.Seconds == 0) {
    Err = "--seconds must be positive";
    return false;
  }
  if (O.Trace)
    if (O.Dfence.empty() || ::access(O.Dfence.c_str(), X_OK) != 0) {
      Err = "--dfence must name the dfence binary";
      return false;
    }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "perfbench: refusing to time a non-optimised build "
                       "(build type %s)\n", PERFBENCH_BUILD_TYPE);
  return 2;
#endif
  std::signal(SIGPIPE, SIG_IGN);
  Options O;
  std::string Err;
  if (!parseArgs(Argc, Argv, O, Err)) {
    std::fprintf(stderr, "perfbench: %s\n", Err.c_str());
    return 2;
  }
  std::vector<Cell> Cells = makeCells();
  Tracer T(O.Trace);
  Outcome Out;
  if (!runSuite(O, O.Workload == "suite_par", Cells, Out, T, Err)) {
    std::fprintf(stderr, "perfbench: %s\n", Err.c_str());
    return 1;
  }
  return report(O, Cells, Out, T);
}
