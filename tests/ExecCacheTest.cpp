//===- ExecCacheTest.cpp - Module fingerprint and compact stored rounds ---===//
//
// ModuleFingerprintTest: cache::fingerprintModule is a structural hash of
// exactly what ir::printModule renders. Equal text means an equal hash
// (copies and Reader round trips of every benchmark and litmus module), and
// for every single-field mutation of every instruction, function and
// global, the hash changes exactly when the printed text does.
//
// ModuleIndexTest: a copied module carries label indexes that match its
// body, as do the results of the reader, enforcement and static fencing,
// which is why synthesize() does not rebuild them.
//
// ExecCacheTest: the bytes a cache reports for its compact rounds, the
// universe fingerprint that keys a stored repair step, what a full cache
// reports about the rounds it refused, and one cache shared by concurrent
// runs.
//
// ExecCacheWarmCellTest: over the perfbench cell set (17 subjects under
// TSO and PSO at their strictest spec, 7 litmus shapes under both models
// at safety), a warm request equals its cold twin in canonical bytes and
// deterministic counters while replaying every repair step: as many
// repair hits as repair rounds and no solve.
//
//===----------------------------------------------------------------------===//

#include "cache/ExecCache.h"

#include "exec/ExecPool.h"
#include "frontend/Compiler.h"
#include "fuzz/LitmusCorpus.h"
#include "ir/Printer.h"
#include "ir/Reader.h"
#include "obs/Metrics.h"
#include "obs/Obs.h"
#include "obs/Profiler.h"
#include "programs/Benchmark.h"
#include "serve/Protocol.h"
#include "synth/FenceEnforcer.h"
#include "synth/StaticBaseline.h"
#include "synth/Synthesizer.h"

#include <gtest/gtest.h>

#include <barrier>
#include <cctype>
#include <functional>
#include <map>
#include <set>
#include <thread>

using namespace dfence;
using namespace dfence::ir;

namespace {

/// Every module the suite ships: the Table-2 and extended benchmarks and
/// the litmus shapes.
std::vector<std::pair<std::string, Module>> allModules() {
  std::vector<std::pair<std::string, Module>> Out;
  auto Add = [&](const std::string &Name, const std::string &Src) {
    auto CR = frontend::compileMiniC(Src);
    EXPECT_TRUE(CR.Ok) << Name << ": " << CR.Error;
    Out.emplace_back(Name, std::move(CR.Module));
  };
  for (const programs::Benchmark &B : programs::allBenchmarks())
    Add(B.Name, B.Source);
  for (const programs::Benchmark &B : programs::extendedBenchmarks())
    Add(B.Name, B.Source);
  for (const fuzz::LitmusShape &S : fuzz::litmusCorpus())
    Add("litmus-" + S.Name, S.Source);
  return Out;
}

/// Applies \p Mutate to a copy of \p M and checks that the fingerprint
/// changes exactly when the printed text does.
void expectHashTracksText(const Module &M, const std::string &What,
                          const std::function<void(Module &)> &Mutate) {
  Module Copy = M;
  Mutate(Copy);
  bool TextChanged = printModule(Copy) != printModule(M);
  bool HashChanged =
      cache::fingerprintModule(Copy) != cache::fingerprintModule(M);
  EXPECT_EQ(HashChanged, TextChanged) << What;
}

/// Every single-field mutation of instruction \p I of function \p F.
void mutateInstr(const Module &M, FuncId F, size_t I,
                 const std::string &Where) {
  auto At = [F, I](Module &X) -> Instr & { return X.Funcs[F].Body[I]; };
  auto Check = [&](const char *Field, std::function<void(Instr &)> Fn) {
    expectHashTracksText(M, Where + " " + Field,
                         [&](Module &X) { Fn(At(X)); });
  };
  const Instr &Orig = M.Funcs[F].Body[I];
  Check("Id", [](Instr &X) { X.Id += 1000; });
  Check("Dst", [](Instr &X) { X.Dst += 1; });
  Check("Imm", [](Instr &X) { X.Imm ^= 1ULL << 63; });
  Check("BK", [](Instr &X) {
    X.BK = X.BK == BinOpKind::Add ? BinOpKind::Sub : BinOpKind::Add;
  });
  Check("FK", [](Instr &X) {
    X.FK = X.FK == FenceKind::Full ? FenceKind::StoreLoad
                                   : FenceKind::Full;
  });
  Check("Callee", [](Instr &X) { X.Callee += 1; });
  Check("GV", [](Instr &X) { X.GV += 1; });
  Check("Target0", [](Instr &X) { X.Target0 += 1; });
  Check("Target1", [](Instr &X) { X.Target1 += 1; });
  Check("SrcLine", [](Instr &X) { X.SrcLine += 1; });
  Check("SrcLine=0", [](Instr &X) { X.SrcLine = 0; });
  Check("Synthesized", [](Instr &X) { X.Synthesized = !X.Synthesized; });
  Check("Ops+", [](Instr &X) { X.Ops.push_back(7); });
  for (size_t K = 0; K != Orig.Ops.size(); ++K)
    Check("Ops[k]", [K](Instr &X) { X.Ops[K] += 1; });
  // Opcode swaps that keep the operand shape the printer expects.
  auto Swap = [&](Opcode A, Opcode B) {
    if (Orig.Op == A)
      Check("Op", [B](Instr &X) { X.Op = B; });
  };
  Swap(Opcode::Call, Opcode::Spawn);
  Swap(Opcode::Spawn, Opcode::Call);
  Swap(Opcode::Load, Opcode::Alloc);
  Swap(Opcode::Move, Opcode::Not);
  Swap(Opcode::Lock, Opcode::Unlock);
  Swap(Opcode::Free, Opcode::Join);
  Swap(Opcode::Fence, Opcode::Nop);
}

} // namespace

TEST(ModuleFingerprintTest, EqualTextHashesEqual) {
  for (auto &[Name, M] : allModules()) {
    uint64_t Fp = cache::fingerprintModule(M);
    Module Copy = M;
    EXPECT_EQ(cache::fingerprintModule(Copy), Fp) << Name;
    std::string Error;
    std::optional<Module> Parsed = parseModule(printModule(M), Error);
    ASSERT_TRUE(Parsed) << Name << ": " << Error;
    ASSERT_EQ(printModule(*Parsed), printModule(M)) << Name;
    EXPECT_EQ(cache::fingerprintModule(*Parsed), Fp) << Name;
  }
}

TEST(ModuleFingerprintTest, DistinctTextHashesDistinct) {
  // The litmus dedup variants share a source; every other pair differs.
  std::map<uint64_t, std::string> TextOf;
  for (auto &[Name, M] : allModules()) {
    std::string Text = printModule(M);
    auto [It, New] = TextOf.emplace(cache::fingerprintModule(M), Text);
    EXPECT_TRUE(New || It->second == Text) << Name << " collides";
  }
}

TEST(ModuleFingerprintTest, HashChangesExactlyWhenTextChanges) {
  // Two subjects and a hand-built function that holds every opcode.
  std::vector<std::pair<std::string, Module>> Mods = allModules();
  std::set<Opcode> Covered;
  for (auto &[Name, M] : Mods) {
    if (Name != "MS2 Queue" && Name != "litmus-iriw")
      continue;
    for (FuncId F = 0; F != M.Funcs.size(); ++F)
      for (size_t I = 0; I != M.Funcs[F].Body.size(); ++I) {
        Covered.insert(M.Funcs[F].Body[I].Op);
        mutateInstr(M, F, I,
                    Name + " " + M.Funcs[F].Name + " #" + std::to_string(I));
      }
    for (FuncId F = 0; F != M.Funcs.size(); ++F) {
      std::string Where = Name + " " + M.Funcs[F].Name;
      expectHashTracksText(M, Where + " Name",
                           [F](Module &X) { X.Funcs[F].Name += "x"; });
      expectHashTracksText(M, Where + " NumParams",
                           [F](Module &X) { X.Funcs[F].NumParams += 1; });
      expectHashTracksText(M, Where + " NumRegs",
                           [F](Module &X) { X.Funcs[F].NumRegs += 1; });
    }
    for (size_t G = 0; G != M.Globals.size(); ++G) {
      std::string Where = Name + " global " + M.Globals[G].Name;
      expectHashTracksText(M, Where + " Name",
                           [G](Module &X) { X.Globals[G].Name += "x"; });
      expectHashTracksText(M, Where + " SizeWords",
                           [G](Module &X) { X.Globals[G].SizeWords += 1; });
      expectHashTracksText(M, Where + " Init+",
                           [G](Module &X) { X.Globals[G].Init.push_back(3); });
      if (!M.Globals[G].Init.empty())
        expectHashTracksText(M, Where + " Init[0]", [G](Module &X) {
          X.Globals[G].Init[0] += 1;
        });
    }
    // What the printer never renders: the next free label.
    expectHashTracksText(M, Name + " NextId",
                         [](Module &X) { X.nextInstrId(); });
  }

  // Opcodes the subjects above may not use, in one hand-built function.
  Module M;
  Function Fn;
  Fn.Name = "all";
  Fn.NumParams = 1;
  Fn.NumRegs = 6;
  auto Emit = [&](Instr I) {
    I.Id = M.nextInstrId();
    I.SrcLine = I.Id;
    Fn.Body.push_back(std::move(I));
  };
  for (Opcode Op : {Opcode::Const, Opcode::Move, Opcode::BinOp, Opcode::Not,
                    Opcode::Load, Opcode::Store, Opcode::Cas, Opcode::Fence,
                    Opcode::GlobalAddr, Opcode::Alloc, Opcode::Free,
                    Opcode::Self, Opcode::Spawn, Opcode::Join, Opcode::Lock,
                    Opcode::Unlock, Opcode::Assert, Opcode::Nop,
                    Opcode::Call, Opcode::Br, Opcode::CondBr}) {
    Instr I;
    I.Op = Op;
    I.Dst = 5;
    I.Ops = {0, 1, 2};
    I.Imm = 42;
    I.Target0 = 1;
    I.Target1 = 2;
    Emit(I);
  }
  Instr Ret;
  Ret.Op = Opcode::Ret;
  Ret.Ops = {3};
  Emit(Ret);
  Instr Bare;
  Bare.Op = Opcode::Ret;
  Emit(Bare);
  M.addGlobal(GlobalVar{"g", 2, {1, 2}});
  M.addFunction(std::move(Fn));
  for (size_t I = 0; I != M.Funcs[0].Body.size(); ++I) {
    Covered.insert(M.Funcs[0].Body[I].Op);
    mutateInstr(M, 0, I, "hand-built #" + std::to_string(I));
  }
  EXPECT_EQ(Covered.size(), NumOpcodes);
}

TEST(ModuleFingerprintTest, EnforcementChangesTheHash) {
  for (auto &[Name, M] : allModules()) {
    Module Fenced = M;
    Fenced.buildIndexes();
    // A store-store predicate between the first two stores of the first
    // function that has two.
    std::vector<vm::OrderingPredicate> Preds;
    for (const Function &F : Fenced.Funcs) {
      std::vector<InstrId> Stores;
      for (const Instr &I : F.Body)
        if (I.Op == Opcode::Store)
          Stores.push_back(I.Id);
      if (Stores.size() >= 2) {
        Preds.push_back({Stores[0], Stores[1], false});
        break;
      }
    }
    if (Preds.empty())
      continue;
    uint64_t Before = cache::fingerprintModule(Fenced);
    ASSERT_FALSE(synth::enforcePredicates(Fenced, Preds,
                                          synth::EnforceMode::Fence)
                     .empty())
        << Name;
    EXPECT_NE(cache::fingerprintModule(Fenced), Before) << Name;
  }
}

TEST(ExecCacheTest, BytesGrowWithEachInsertAndNotOnRejection) {
  auto Round = [](size_t K, size_t Repairs, const std::string &Text) {
    cache::StoredRound R;
    R.Slots.resize(K);
    R.Slots[0].NumRepairs = static_cast<uint32_t>(Repairs);
    R.Repairs.resize(Repairs);
    R.FirstViolation = Text;
    return R;
  };
  cache::ExecCache C(10);
  EXPECT_EQ(C.bytes(), 0u);

  cache::StoredRound A = Round(4, 3, "violation");
  size_t ABytes = A.bytes();
  EXPECT_EQ(ABytes, 4 * sizeof(exec::SlotRecord) +
                        3 * sizeof(vm::OrderingPredicate) + 9);
  using Insert = cache::ExecCache::Insert;
  ASSERT_EQ(C.insert({1, 1, 0, 4}, std::move(A)), Insert::Stored);
  EXPECT_EQ(C.bytes(), ABytes);

  cache::StoredRound B = Round(4, 0, "");
  size_t BBytes = B.bytes();
  ASSERT_EQ(C.insert({1, 1, 4, 4}, std::move(B)), Insert::Stored);
  EXPECT_EQ(C.bytes(), ABytes + BBytes);

  // A present key and a round past the capacity store nothing; only the
  // refused round counts as rejected, and a present key is reported as
  // present even when the round would not fit.
  EXPECT_EQ(C.insert({1, 1, 4, 4}, Round(1, 0, "")), Insert::Present);
  EXPECT_EQ(C.insert({1, 1, 8, 4}, Round(4, 5, "x")), Insert::Full);
  EXPECT_EQ(C.insert({1, 1, 0, 4}, Round(4, 0, "")), Insert::Present);
  EXPECT_EQ(C.bytes(), ABytes + BBytes);
  EXPECT_EQ(C.size(), 8u);
  EXPECT_EQ(C.stats().RejectedFull, 4u);
  EXPECT_EQ(C.stats().Inserts, 8u);
}

TEST(ModuleIndexTest, CopiesAndTransformsKeepIndexesCurrent) {
  for (auto &[Name, M] : allModules()) {
    ASSERT_TRUE(M.indexesCurrent()) << Name;
    Module Copy = M;
    EXPECT_TRUE(Copy.indexesCurrent()) << Name;
    for (const Function &F : Copy.Funcs)
      for (size_t I = 0; I != F.Body.size(); ++I)
        ASSERT_EQ(F.indexOf(F.Body[I].Id), I) << Name << " " << F.Name;
    std::string Error;
    std::optional<Module> Parsed = parseModule(printModule(M), Error);
    ASSERT_TRUE(Parsed) << Name << ": " << Error;
    EXPECT_TRUE(Parsed->indexesCurrent()) << Name;
    for (vm::MemModel Model : {vm::MemModel::TSO, vm::MemModel::PSO})
      EXPECT_TRUE(synth::staticDelaySetFences(Copy, Model)
                      .FencedModule.indexesCurrent())
          << Name;
    // Every store ordered before the next memory access of its function,
    // then the redundant fences merged away.
    std::vector<vm::OrderingPredicate> Preds;
    for (const Function &F : Copy.Funcs)
      for (size_t I = 0; I + 1 < F.Body.size(); ++I)
        if (F.Body[I].Op == Opcode::Store)
          for (size_t J = I + 1; J != F.Body.size(); ++J)
            if (F.Body[J].Op == Opcode::Store ||
                F.Body[J].Op == Opcode::Load) {
              Preds.push_back({F.Body[I].Id, F.Body[J].Id,
                               F.Body[J].Op == Opcode::Load});
              break;
            }
    synth::enforcePredicates(Copy, Preds, synth::EnforceMode::Fence);
    EXPECT_TRUE(Copy.indexesCurrent()) << Name;
    synth::mergeRedundantFences(Copy);
    EXPECT_TRUE(Copy.indexesCurrent()) << Name;
    Module Stale = M;
    Stale.Funcs[0].Body.pop_back();
    EXPECT_FALSE(Stale.indexesCurrent()) << Name;
  }
}

TEST(ExecCacheTest, ARoundKeyWithAnotherUniverseMisses) {
  cache::ExecCache C;
  cache::RoundKey Key{1, 1, 0, 4};
  cache::StoredRound R;
  R.Slots.resize(4);
  ASSERT_EQ(C.insert(Key, std::move(R)), cache::ExecCache::Insert::Stored);
  ASSERT_NE(C.lookup(Key), nullptr);

  // The same module and round reached with Φ's variables numbered
  // differently: the fingerprint depends on the predicates, their order
  // and the fence flavor each one asks for.
  vm::OrderingPredicate P{3, 5, false}, Q{4, 9, true};
  auto Fp = [](std::initializer_list<vm::OrderingPredicate> Preds) {
    uint64_t F = cache::EmptyUniverseFp;
    for (const vm::OrderingPredicate &X : Preds)
      F = cache::extendUniverseFingerprint(F, X);
    return F;
  };
  std::set<uint64_t> Distinct = {
      cache::EmptyUniverseFp, Fp({P}),    Fp({Q}),
      Fp({P, Q}),             Fp({Q, P}), Fp({{3, 5, true}})};
  EXPECT_EQ(Distinct.size(), 6u);
  for (uint64_t U : Distinct) {
    cache::RoundKey Other = Key;
    Other.UniverseFp = U;
    if (U == Key.UniverseFp)
      EXPECT_NE(C.lookup(Other), nullptr);
    else
      EXPECT_EQ(C.lookup(Other), nullptr);
  }
}

TEST(ExecCacheTest, StepBytesCountTowardTheRound) {
  cache::StoredRound R;
  R.Slots.resize(2);
  size_t Plain = R.bytes();
  cache::RepairStep Step;
  Step.NewPredicates.resize(3);
  Step.Chosen.resize(1);
  R.Step = Step;
  EXPECT_EQ(R.bytes(), Plain + Step.bytes());
  EXPECT_EQ(Step.bytes(), 4 * sizeof(vm::OrderingPredicate) +
                              3 * sizeof(uint64_t) + sizeof(bool));
}

namespace {

/// The perfbench cell set as serve requests, by cell name
/// ("<subject>|<model>"), at perfbench's K.
std::map<std::string, Json> perfbenchCells() {
  std::map<std::string, Json> Cells;
  auto Add = [&](const std::string &Subject, Json Req, const char *Model,
                 const char *Spec) {
    std::string Id = Subject + "|" + Model;
    Req.set("id", Json::string(Id));
    Req.set("model", Json::string(Model));
    Req.set("spec", Json::string(Spec));
    Req.set("k", Json::number(static_cast<uint64_t>(1000)));
    Req.set("seed", Json::number(static_cast<uint64_t>(1)));
    Cells.emplace(Id, std::move(Req));
  };
  auto AddBench = [&](const programs::Benchmark &B) {
    for (const char *Model : {"tso", "pso"}) {
      Json Req = Json::object();
      Req.set("op", Json::string("bench"));
      Req.set("bench", Json::string(B.Name));
      Add(B.Name, std::move(Req), Model, B.UseNoGarbage ? "nogarbage" : "lin");
    }
  };
  for (const programs::Benchmark &B : programs::allBenchmarks())
    AddBench(B);
  for (const programs::Benchmark &B : programs::extendedBenchmarks())
    AddBench(B);
  for (const fuzz::LitmusShape &S : fuzz::litmusCorpus())
    for (const char *Model : {"tso", "pso"}) {
      Json Req = Json::object();
      Req.set("op", Json::string("synth"));
      Req.set("source", Json::string(S.Source));
      Req.set("client", Json::string(S.ClientDsl));
      Add("litmus-" + S.Name, std::move(Req), Model, "safety");
    }
  return Cells;
}

/// The job of perfbench cell \p What.
serve::SynthJob cellJob(const std::string &What) {
  std::string Err;
  std::optional<serve::ServeRequest> SR =
      serve::parseRequest(perfbenchCells().at(What), Err);
  EXPECT_TRUE(SR) << What << ": " << Err;
  std::optional<serve::SynthJob> Job = serve::prepareJob(SR.value(), Err);
  EXPECT_TRUE(Job) << What << ": " << Err;
  return std::move(Job).value();
}

std::string canonical(const synth::SynthResult &R) {
  return serve::resultToJson(R, /*IncludeModule=*/true).dump();
}

struct CellRun {
  synth::SynthResult R;
  std::string Canon;
  std::string Counters; ///< Minus cache_*, exec_pool_* and obs_*.
  uint64_t RepairRounds = 0;
  uint64_t RepairHitsCounter = 0;
  uint64_t SatSolvePhases = 0;
};

CellRun runCell(const serve::SynthJob &Job, cache::ExecCache &Cache) {
  obs::Registry Reg;
  obs::Profiler Prof(Reg, opcodeNames());
  obs::ObsContext Obs{&Reg, nullptr, nullptr, &Prof};
  synth::SynthConfig Cfg = Job.Cfg;
  Cfg.Jobs = 1;
  Cfg.Obs = &Obs;
  Cfg.ExecResultCache = &Cache;
  CellRun Out;
  Out.R = synth::synthesize(Job.M, Job.Clients, Cfg);
  Out.Canon = serve::resultToJson(Out.R, /*IncludeModule=*/true).dump();
  Json Doc = Reg.countersJson();
  Json Kept = Json::object();
  if (const Json *Counters = Doc.find("counters"))
    for (const auto &[Key, Val] : Counters->members())
      if (Key.rfind("cache_", 0) != 0 && Key.rfind("exec_pool_", 0) != 0 &&
          Key.rfind("obs_", 0) != 0)
        Kept.set(Key, Val);
  Out.Counters = Kept.dump();
  Out.RepairRounds = Reg.counter("sat_models_total").value();
  Out.RepairHitsCounter = Reg.counter("cache_repair_hits").value();
  Out.SatSolvePhases =
      Reg.histogram(std::string("obs_phase_") +
                    obs::phaseName(obs::Phase::SatSolve) + "_us")
          .count();
  return Out;
}

} // namespace

class ExecCacheWarmCellTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(ExecCacheWarmCellTest, WarmRequestReplaysEveryRepairStep) {
  const std::string &What = GetParam();
  std::string Err;
  std::optional<serve::ServeRequest> SR =
      serve::parseRequest(perfbenchCells().at(What), Err);
  ASSERT_TRUE(SR) << What << ": " << Err;
  std::optional<serve::SynthJob> Job = serve::prepareJob(*SR, Err);
  ASSERT_TRUE(Job) << What << ": " << Err;

  cache::ExecCache Cache;
  CellRun Cold = runCell(*Job, Cache);
  CellRun Warm = runCell(*Job, Cache);
  EXPECT_EQ(Warm.Canon, Cold.Canon) << What;
  EXPECT_EQ(Warm.Counters, Cold.Counters) << What;
  EXPECT_EQ(Warm.RepairRounds, Cold.RepairRounds) << What;

  // The cold request solved every repair round and stored each step; the
  // warm one replayed them all without a solve.
  EXPECT_EQ(Cold.R.RepairCacheHits, 0u) << What;
  EXPECT_EQ(Cold.SatSolvePhases, Cold.RepairRounds) << What;
  EXPECT_EQ(Warm.R.ExecCacheHits, Warm.R.TotalExecutions) << What;
  EXPECT_EQ(Warm.R.RepairCacheHits, Warm.RepairRounds) << What;
  EXPECT_EQ(Warm.RepairHitsCounter, Warm.RepairRounds) << What;
  EXPECT_EQ(Warm.SatSolvePhases, 0u) << What;
  ASSERT_EQ(Warm.R.RoundLog.size(), Cold.R.RoundLog.size()) << What;
  for (size_t I = 0; I != Warm.R.RoundLog.size(); ++I) {
    const synth::RoundStats &W = Warm.R.RoundLog[I], &C = Cold.R.RoundLog[I];
    EXPECT_EQ(W.RepairCacheHits, C.SatModels) << What << " round " << I;
    EXPECT_EQ(W.SatSolveUs, 0u) << What << " round " << I;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PerfbenchCells, ExecCacheWarmCellTest,
    ::testing::ValuesIn([] {
      std::vector<std::string> Names;
      for (const auto &[Name, Req] : perfbenchCells())
        Names.push_back(Name);
      return Names;
    }()),
    [](const auto &Info) {
      std::string Name = Info.param;
      for (char &Ch : Name)
        if (!std::isalnum(static_cast<unsigned char>(Ch)))
          Ch = '_';
      return Name;
    });

TEST(ExecCacheTest, AFullCacheReportsTheExecutionsItRefused) {
  // Every round of the run is storable (it converges), and none fits in
  // a cache one execution short of a round.
  serve::SynthJob Job = cellJob("litmus-sb|pso");
  synth::SynthConfig Cfg = Job.Cfg;
  Cfg.Jobs = 1;
  synth::SynthResult Plain = synth::synthesize(Job.M, Job.Clients, Cfg);

  cache::ExecCache Small(Cfg.ExecsPerRound - 1);
  obs::Registry Reg;
  obs::ObsContext Obs{&Reg};
  Cfg.ExecResultCache = &Small;
  Cfg.Obs = &Obs;
  synth::SynthResult R = synth::synthesize(Job.M, Job.Clients, Cfg);
  ASSERT_EQ(R.Status, synth::SynthStatus::Converged);
  ASSERT_GT(R.Rounds, 1u);
  EXPECT_EQ(canonical(R), canonical(Plain));

  EXPECT_EQ(Small.size(), 0u);
  for (const synth::RoundStats &S : R.RoundLog) {
    EXPECT_EQ(S.ExecCacheRejected, Cfg.ExecsPerRound) << S.Round;
    EXPECT_EQ(synth::roundStatsJson(S)
                  .find("cache")
                  ->find("rejected")
                  ->asU64(),
              Cfg.ExecsPerRound)
        << S.Round;
  }
  EXPECT_EQ(R.ExecCacheRejected, R.TotalExecutions);
  EXPECT_EQ(Small.stats().RejectedFull, R.TotalExecutions);
  EXPECT_EQ(Reg.counter("cache_exec_rejected").value(), R.TotalExecutions);
  EXPECT_EQ(serve::cacheStatsToJson(R).find("rejected")->asU64(),
            R.TotalExecutions);

  // With room for every round, nothing is refused.
  cache::ExecCache Roomy;
  Cfg.ExecResultCache = &Roomy;
  Cfg.Obs = nullptr;
  synth::SynthResult Stored = synth::synthesize(Job.M, Job.Clients, Cfg);
  EXPECT_EQ(Stored.ExecCacheRejected, 0u);
  EXPECT_EQ(Roomy.size(), Stored.TotalExecutions);
}

TEST(ExecCacheTest, ConcurrentRunsShareOneCache) {
  // Four runs of one cell on their own width-1 pools share one cache,
  // all cold at once and then all warm at once. Each canonical result is
  // the cache-less run's, every warm run is served whole, and the cache
  // holds exactly what one cold run stores: racing inserts of a key keep
  // one round.
  serve::SynthJob Job = cellJob("litmus-sb|pso");
  synth::SynthConfig Cfg = Job.Cfg;
  Cfg.Jobs = 1;
  std::string Want = canonical(synth::synthesize(Job.M, Job.Clients, Cfg));
  cache::ExecCache Sequential;
  Cfg.ExecResultCache = &Sequential;
  synth::synthesize(Job.M, Job.Clients, Cfg);

  constexpr unsigned N = 4;
  cache::ExecCache Shared;
  std::vector<synth::SynthResult> Cold(N), Warm(N);
  std::barrier AllCold(N);
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I != N; ++I)
    Threads.emplace_back([&, I] {
      exec::ExecPool Pool(1);
      synth::SynthConfig C = Job.Cfg;
      C.Pool = &Pool;
      C.ExecResultCache = &Shared;
      Cold[I] = synth::synthesize(Job.M, Job.Clients, C);
      AllCold.arrive_and_wait();
      Warm[I] = synth::synthesize(Job.M, Job.Clients, C);
    });
  for (std::thread &T : Threads)
    T.join();

  for (unsigned I = 0; I != N; ++I) {
    EXPECT_EQ(canonical(Cold[I]), Want) << "cold run " << I;
    EXPECT_EQ(canonical(Warm[I]), Want) << "warm run " << I;
    EXPECT_EQ(Warm[I].ExecCacheHits, Warm[I].TotalExecutions) << I;
  }
  EXPECT_EQ(Shared.rounds(), Sequential.rounds());
  EXPECT_EQ(Shared.size(), Sequential.size());
  EXPECT_EQ(Shared.bytes(), Sequential.bytes());
}
