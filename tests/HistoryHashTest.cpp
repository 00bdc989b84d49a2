//===- HistoryHashTest.cpp - Canonical history hashing properties ---------===//
//
// The synthesizer's duplicate-history count (the cache_check_* statistics)
// stands on two properties of History::Hash:
//
//   * the incremental hash the engine folds as events are appended equals
//     the one-pass hashHistory() over the finished record, at every seed
//     and memory model (responses land out of invocation order, so this
//     exercises the commutativity argument on real interleavings);
//   * distinct event sequences — permutations, truncations, field edits —
//     are never counted as duplicates: even in the astronomically
//     unlikely 64-bit collision case, the full structural compare
//     (History::operator==, which ignores Hash) tells them apart.
//
//===----------------------------------------------------------------------===//

#include "frontend/Compiler.h"
#include "programs/Benchmark.h"
#include "support/Rng.h"
#include "vm/History.h"
#include "vm/Interp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace dfence;
using namespace dfence::vm;

namespace {

/// A pseudo-random but deterministic history: K ops over a few threads
/// with plausible timestamps, most completed.
History randomHistory(Rng &R, size_t MaxOps = 12) {
  History H;
  size_t N = 1 + R.nextBelow(MaxOps);
  uint64_t Seq = 0;
  static const char *Funcs[] = {"put", "take", "steal", "enqueue"};
  for (size_t I = 0; I != N; ++I) {
    OpRecord Op;
    Op.Func = Funcs[R.nextBelow(4)];
    for (size_t A = R.nextBelow(3); A != 0; --A)
      Op.Args.push_back(static_cast<Word>(R.nextBelow(100)));
    Op.Thread = static_cast<uint32_t>(R.nextBelow(4));
    Op.InvokeSeq = ++Seq;
    Op.Completed = R.nextBelow(8) != 0;
    if (Op.Completed) {
      Op.RespondSeq = ++Seq;
      Op.Ret = static_cast<Word>(R.nextBelow(50)) - 1;
    }
    H.Ops.push_back(std::move(Op));
  }
  H.Hash = hashHistory(H);
  return H;
}

} // namespace

TEST(HistoryHashTest, IncrementalEqualsOnePassOnEngineHistories) {
  // Drive the real engine across the benchmark suite, models and seeds;
  // every completed execution's incrementally maintained Hash must equal
  // the one-pass reference over the final record.
  size_t Checked = 0;
  for (const programs::Benchmark &B : programs::allBenchmarks()) {
    auto CR = frontend::compileMiniC(B.Source);
    ASSERT_TRUE(CR.Ok) << B.Name << ": " << CR.Error;
    for (MemModel Model : {MemModel::SC, MemModel::TSO, MemModel::PSO})
      for (uint64_t Seed = 1; Seed <= 25; ++Seed) {
        ExecConfig Cfg;
        Cfg.Model = Model;
        Cfg.Seed = deriveSeed(Seed, B.Name);
        Cfg.FlushProb = Model == MemModel::TSO ? 0.1 : 0.5;
        ExecResult R =
            runExecution(CR.Module, B.Clients[Seed % B.Clients.size()],
                         Cfg);
        EXPECT_EQ(R.Hist.Hash, hashHistory(R.Hist))
            << B.Name << " model=" << memModelName(Model)
            << " seed=" << Cfg.Seed;
        Checked += R.Hist.Ops.size();
      }
  }
  EXPECT_GT(Checked, 1000u) << "suite produced too few ops to be a test";
}

TEST(HistoryHashTest, EqualHistoriesHashEqual) {
  Rng R(0x68a5); // Deterministic fixed seed.
  for (int I = 0; I != 500; ++I) {
    History A = randomHistory(R);
    History B = A; // Structural copy.
    EXPECT_EQ(hashHistory(A), hashHistory(B));
    EXPECT_TRUE(A == B);
  }
}

TEST(HistoryHashTest, EditsPerturbTheHash) {
  // Not a collision-freedom claim (64 bits cannot promise that) — a
  // sanity property on the generator: the edits the caches must
  // distinguish do change the hash on every sampled input.
  Rng R(0xd1ce);
  for (int I = 0; I != 300; ++I) {
    History A = randomHistory(R, 10);
    if (A.Ops.size() < 2)
      continue;

    // Truncation.
    History T = A;
    T.Ops.pop_back();
    T.Hash = hashHistory(T);
    EXPECT_NE(T.Hash, A.Hash);

    // Permutation of two distinct ops (swapping identical records would
    // be the identity, so make them differ in a bound field first).
    History P = A;
    std::swap(P.Ops[0], P.Ops[P.Ops.size() - 1]);
    if (!(P == A)) {
      P.Hash = hashHistory(P);
      EXPECT_NE(P.Hash, A.Hash);
    }

    // Field edit: flip one return value.
    History E = A;
    for (OpRecord &Op : E.Ops)
      if (Op.Completed) {
        Op.Ret += 1;
        break;
      }
    if (!(E == A)) {
      E.Hash = hashHistory(E);
      EXPECT_NE(E.Hash, A.Hash);
    }
  }
}

TEST(HistoryHashTest, CacheNeverTrustsPermutedOrTruncatedHistories) {
  // The collision-safety contract of the duplicate-history count: a hash
  // match is a duplicate only if operator== agrees, and operator== must
  // reject mutated variants of a history whatever their hashes.
  Rng R(0xcafe);
  for (int I = 0; I != 200; ++I) {
    History A = randomHistory(R);
    History Copy = A;
    Copy.Hash = ~A.Hash;
    EXPECT_TRUE(Copy == A);

    if (A.Ops.size() < 2)
      continue;
    History T = A;
    T.Ops.pop_back();
    T.Hash = hashHistory(T);
    EXPECT_FALSE(T == A);

    // Invocation timestamps are distinct, so swapping the first and last
    // ops always changes the sequence.
    History P = A;
    std::swap(P.Ops[0], P.Ops[P.Ops.size() - 1]);
    P.Hash = hashHistory(P);
    EXPECT_FALSE(P == A);

    // A forged hash (adversarial collision) must not make a truncated
    // history equal: operator== ignores Hash.
    History F = T;
    F.Hash = A.Hash;
    EXPECT_FALSE(F == A);
  }
}
