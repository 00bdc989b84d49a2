//===- ExecCache.cpp - Whole-round execution result cache -----------------===//

#include "cache/ExecCache.h"

#include "ir/Printer.h"
#include "vm/History.h" // hashMix64 / hashCombine primitives.

using namespace dfence;
using namespace dfence::cache;

uint64_t cache::fingerprintModule(const ir::Module &M) {
  // The printer renders every observable detail of the program —
  // functions, instruction operands, labels, synthesized fences — so its
  // text is a faithful canonical form and FNV-1a over it a sound
  // fingerprint. Cost is linear in module size and paid once per
  // enforcement, not per execution.
  std::string Text = ir::printModule(M);
  uint64_t H = 1469598103934665603ULL;
  for (char C : Text)
    H = (H ^ static_cast<unsigned char>(C)) * 1099511628211ULL;
  return vm::hashMix64(H);
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

const std::vector<exec::RoundSlot> *ExecCache::lookup(const RoundKey &K) {
  Lookups.fetch_add(K.K, std::memory_order_relaxed);
  auto It = Rounds.find(K);
  if (It == Rounds.end())
    return nullptr;
  Hits.fetch_add(K.K, std::memory_order_relaxed);
  return &It->second;
}

bool ExecCache::insert(const RoundKey &K,
                       std::vector<exec::RoundSlot> Slots) {
  size_t N = Slots.size();
  if (size() + N > MaxExecutions) {
    RejectedFull.fetch_add(N, std::memory_order_relaxed);
    return false;
  }
  if (!Rounds.try_emplace(K, std::move(Slots)).second)
    return false;
  Stored.fetch_add(N, std::memory_order_relaxed);
  Inserts.fetch_add(N, std::memory_order_relaxed);
  return true;
}
