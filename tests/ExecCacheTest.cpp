//===- ExecCacheTest.cpp - Module fingerprint and compact stored rounds ---===//
//
// ModuleFingerprintTest: cache::fingerprintModule is a structural hash of
// exactly what ir::printModule renders. Equal text means an equal hash
// (copies and Reader round trips of every benchmark and litmus module), and
// for every single-field mutation of every instruction, function and
// global, the hash changes exactly when the printed text does.
//
// ExecCacheTest: the bytes a cache reports for its compact rounds.
//
//===----------------------------------------------------------------------===//

#include "cache/ExecCache.h"

#include "frontend/Compiler.h"
#include "fuzz/LitmusCorpus.h"
#include "ir/Printer.h"
#include "ir/Reader.h"
#include "programs/Benchmark.h"
#include "synth/FenceEnforcer.h"

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>

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
  ASSERT_TRUE(C.insert({1, 1, 0, 4}, std::move(A)));
  EXPECT_EQ(C.bytes(), ABytes);

  cache::StoredRound B = Round(4, 0, "");
  size_t BBytes = B.bytes();
  ASSERT_TRUE(C.insert({1, 1, 4, 4}, std::move(B)));
  EXPECT_EQ(C.bytes(), ABytes + BBytes);

  // A present key and a round past the capacity store nothing.
  EXPECT_FALSE(C.insert({1, 1, 4, 4}, Round(1, 0, "")));
  EXPECT_FALSE(C.insert({1, 1, 8, 4}, Round(4, 5, "x")));
  EXPECT_EQ(C.bytes(), ABytes + BBytes);
  EXPECT_EQ(C.size(), 8u);
  EXPECT_EQ(C.stats().RejectedFull, 4u);

  cache::ShardedExecCache S(2, 20);
  EXPECT_EQ(S.bytes(), 0u);
  ASSERT_TRUE(S.shard(1).insert({1, 1, 0, 2}, Round(2, 1, "v")));
  EXPECT_EQ(S.bytes(), S.shard(1).bytes());
  EXPECT_GT(S.bytes(), 0u);
}
