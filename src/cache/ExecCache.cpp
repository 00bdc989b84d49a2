//===- ExecCache.cpp - Whole-round execution result cache -----------------===//

#include "cache/ExecCache.h"

#include "ir/Module.h"
#include "vm/History.h" // hashMix64 / hashCombine primitives.

#include <cstring>

using namespace dfence;
using namespace dfence::cache;

namespace {

/// Accumulates the structural module fingerprint one 64-bit word at a
/// time: xor, multiply, fold the high half down. Cheaper per word than
/// hashCombine; the sum is finished with hashMix64 once.
class FpBuilder {
public:
  void add(uint64_t V) {
    H ^= V;
    H *= 0x9fb21c651e98df25ULL;
    H ^= H >> 28;
  }

  /// A name as the printer renders it (printf "%s": up to the first NUL).
  void addName(const std::string &S) {
    const char *P = S.c_str();
    size_t N = std::strlen(P);
    add(N);
    for (; N >= 8; P += 8, N -= 8) {
      uint64_t W;
      std::memcpy(&W, P, 8);
      add(W);
    }
    uint64_t W = 0;
    std::memcpy(&W, P, N);
    add(W);
  }

  uint64_t finish() const { return vm::hashMix64(H); }

private:
  uint64_t H = 0x6a09e667f3bcc908ULL;
};

uint64_t pair(uint32_t Lo, uint32_t Hi) {
  return Lo | static_cast<uint64_t>(Hi) << 32;
}

/// Folds the fields ir::printInstr renders for \p I, per opcode.
void addInstr(FpBuilder &B, const ir::Instr &I) {
  using ir::Opcode;
  B.add(pair(I.Id, I.SrcLine));
  uint64_t Head = static_cast<uint64_t>(I.Op);
  switch (I.Op) {
  case Opcode::BinOp:
    Head |= static_cast<uint64_t>(I.BK) << 8;
    break;
  case Opcode::Fence:
    Head |= static_cast<uint64_t>(I.FK) << 8 |
            static_cast<uint64_t>(I.Synthesized) << 16;
    break;
  default:
    break;
  }
  B.add(Head);
  switch (I.Op) {
  case Opcode::Const:
    B.add(I.Dst);
    B.add(I.Imm);
    break;
  case Opcode::Move:
  case Opcode::Not:
  case Opcode::Load:
  case Opcode::Alloc:
    B.add(pair(I.Dst, I.Ops[0]));
    break;
  case Opcode::BinOp:
    B.add(pair(I.Dst, I.Ops[0]));
    B.add(I.Ops[1]);
    break;
  case Opcode::Store:
    B.add(pair(I.Ops[0], I.Ops[1]));
    break;
  case Opcode::Cas:
    B.add(pair(I.Dst, I.Ops[0]));
    B.add(pair(I.Ops[1], I.Ops[2]));
    break;
  case Opcode::Fence:
  case Opcode::Nop:
    break;
  case Opcode::GlobalAddr:
    B.add(pair(I.Dst, I.GV));
    break;
  case Opcode::Free:
  case Opcode::Join:
  case Opcode::Lock:
  case Opcode::Unlock:
  case Opcode::Assert:
    B.add(I.Ops[0]);
    break;
  case Opcode::Br:
    B.add(I.Target0);
    break;
  case Opcode::CondBr:
    B.add(I.Ops[0]);
    B.add(pair(I.Target0, I.Target1));
    break;
  case Opcode::Call:
  case Opcode::Spawn:
    B.add(pair(I.Dst, I.Callee));
    B.add(I.Ops.size());
    for (ir::Reg R : I.Ops)
      B.add(R);
    break;
  case Opcode::Ret:
    // "ret" or "ret rN": only the first operand is rendered.
    B.add(I.Ops.empty() ? 0 : 1 + static_cast<uint64_t>(I.Ops[0]));
    break;
  case Opcode::Self:
    B.add(I.Dst);
    break;
  }
}

} // namespace

uint64_t cache::fingerprintModule(const ir::Module &M) {
  // Covers exactly the fields ir::printModule renders, so modules with
  // equal text hash equal; linear in module size, paid once per request
  // and per enforcement, never per execution.
  FpBuilder B;
  B.add(M.Globals.size());
  for (const ir::GlobalVar &G : M.Globals) {
    B.addName(G.Name);
    B.add(G.SizeWords);
    B.add(G.Init.size());
    for (ir::Word V : G.Init)
      B.add(V);
  }
  B.add(M.Funcs.size());
  for (const ir::Function &F : M.Funcs) {
    B.addName(F.Name);
    B.add(pair(F.NumParams, F.NumRegs));
    B.add(F.Body.size());
    for (const ir::Instr &I : F.Body)
      addInstr(B, I);
  }
  return B.finish();
}

uint64_t cache::fingerprintString(uint64_t H, const std::string &S) {
  uint64_t F = 1469598103934665603ULL;
  for (char C : S)
    F = (F ^ static_cast<unsigned char>(C)) * 1099511628211ULL;
  return vm::hashCombine(H, F);
}

uint64_t cache::fingerprintClient(const vm::Client &C) {
  uint64_t H = 0x13198a2e03707344ULL;
  H = fingerprintString(H, C.InitFunc);
  H = vm::hashCombine(H, C.Threads.size());
  for (const vm::ThreadScript &T : C.Threads) {
    H = vm::hashCombine(H, T.Calls.size());
    for (const vm::MethodCall &MC : T.Calls) {
      H = fingerprintString(H, MC.Func);
      H = vm::hashCombine(H, MC.Args.size());
      for (const vm::Arg &A : MC.Args) {
        H = vm::hashCombine(H, static_cast<uint64_t>(A.Ref));
        // The literal only matters when it is not shadowed by a backref.
        if (A.Ref < 0)
          H = vm::hashCombine(H, static_cast<uint64_t>(A.Literal));
      }
    }
  }
  return vm::hashMix64(H);
}

uint64_t cache::extendUniverseFingerprint(uint64_t Fp,
                                          const vm::OrderingPredicate &P) {
  // AfterIsLoad too: the universe's entry decides the enforced fence.
  Fp = vm::hashCombine(Fp, pair(P.Before, P.After));
  return vm::hashCombine(Fp, P.AfterIsLoad);
}

StoredRound StoredRound::fromSlots(std::span<const exec::RoundSlot> Slots,
                                   std::string FirstViolation) {
  StoredRound R;
  R.Slots.reserve(Slots.size());
  size_t NumRepairs = 0;
  for (const exec::RoundSlot &S : Slots)
    NumRepairs += S.Rec.NumRepairs;
  R.Repairs.reserve(NumRepairs);
  for (const exec::RoundSlot &S : Slots) {
    R.Slots.push_back(S.Rec);
    const vm::OrderingPredicate *P = S.SE.Result.Repairs.data();
    R.Repairs.insert(R.Repairs.end(), P, P + S.Rec.NumRepairs);
  }
  R.FirstViolation = std::move(FirstViolation);
  return R;
}

const StoredRound *ExecCache::lookup(const RoundKey &K) {
  std::lock_guard<std::mutex> L(Mu);
  Counts.Lookups += K.K;
  auto It = Rounds.find(K);
  if (It == Rounds.end())
    return nullptr;
  Counts.Hits += K.K;
  return &It->second;
}

ExecCache::Insert ExecCache::insert(const RoundKey &K, StoredRound R) {
  size_t N = R.Slots.size();
  size_t B = R.bytes();
  std::lock_guard<std::mutex> L(Mu);
  if (Rounds.count(K))
    return Insert::Present;
  if (Stored + N > MaxExecutions) {
    Counts.RejectedFull += N;
    return Insert::Full;
  }
  Rounds.emplace(K, std::move(R));
  Stored += N;
  Bytes += B;
  Counts.Inserts += N;
  return Insert::Stored;
}

size_t ExecCache::size() const {
  std::lock_guard<std::mutex> L(Mu);
  return Stored;
}

size_t ExecCache::bytes() const {
  std::lock_guard<std::mutex> L(Mu);
  return Bytes;
}

ExecCache::Stats ExecCache::stats() const {
  std::lock_guard<std::mutex> L(Mu);
  return Counts;
}
