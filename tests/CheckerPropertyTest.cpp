//===- CheckerPropertyTest.cpp - Checkers vs brute-force reference --------===//
//
// Cross-validates the memoized linearizability/SC searches against a
// naive reference that enumerates ALL permutations of the history,
// on randomly generated small queue histories.
//
//===----------------------------------------------------------------------===//

#include "spec/Checkers.h"
#include "spec/Specs.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

using namespace dfence;
using namespace dfence::spec;
using vm::EmptyVal;
using vm::History;
using vm::OpRecord;
using vm::Word;

namespace {

/// Reference: tries every permutation of indices; accepts when the spec
/// accepts the sequence and the order constraint holds.
bool referenceCheck(const History &H, const SpecFactory &Factory,
                    bool RealTime) {
  std::vector<size_t> Perm(H.Ops.size());
  std::iota(Perm.begin(), Perm.end(), 0);
  std::sort(Perm.begin(), Perm.end());
  do {
    // Order constraints.
    bool OrderOk = true;
    for (size_t I = 0; I + 1 < Perm.size() && OrderOk; ++I) {
      for (size_t J = I + 1; J < Perm.size() && OrderOk; ++J) {
        const OpRecord &A = H.Ops[Perm[I]];
        const OpRecord &B = H.Ops[Perm[J]];
        if (RealTime) {
          if (B.precedes(A))
            OrderOk = false;
        } else {
          if (B.Thread == A.Thread && B.InvokeSeq < A.InvokeSeq)
            OrderOk = false;
        }
      }
    }
    if (!OrderOk)
      continue;
    auto State = Factory();
    bool SpecOk = true;
    for (size_t I : Perm) {
      if (!State->apply(H.Ops[I])) {
        SpecOk = false;
        break;
      }
    }
    if (SpecOk)
      return true;
  } while (std::next_permutation(Perm.begin(), Perm.end()));
  return false;
}

/// Generates a random complete queue history of <= 7 operations over <= 3
/// threads, with plausible-but-sometimes-wrong returns.
History randomQueueHistory(Rng &R) {
  History H;
  unsigned NumThreads = 1 + static_cast<unsigned>(R.nextBelow(3));
  unsigned NumOps = 2 + static_cast<unsigned>(R.nextBelow(6));
  uint64_t Time = 1;
  std::vector<Word> Enqueued;
  for (unsigned I = 0; I < NumOps; ++I) {
    OpRecord Op;
    Op.Thread = static_cast<uint32_t>(R.nextBelow(NumThreads));
    Op.Completed = true;
    Op.InvokeSeq = Time++;
    // Randomly overlap with the next op.
    Op.RespondSeq = Op.InvokeSeq + 1 + R.nextBelow(4);
    Time = std::max<uint64_t>(Time, Op.RespondSeq - 1);
    if (R.nextBool(0.5)) {
      Op.Func = "enqueue";
      Word V = 1 + R.nextBelow(4);
      Op.Args = {V};
      Enqueued.push_back(V);
    } else {
      Op.Func = "dequeue";
      // Mostly return something that was enqueued, sometimes EMPTY,
      // occasionally garbage.
      double Dice = R.nextDouble();
      if (Dice < 0.2 || Enqueued.empty())
        Op.Ret = EmptyVal;
      else if (Dice < 0.9)
        Op.Ret = Enqueued[R.nextBelow(Enqueued.size())];
      else
        Op.Ret = 77;
    }
    H.Ops.push_back(std::move(Op));
  }
  // Per-thread invocations must be sequential: repair any overlap inside
  // a thread by serializing per-thread ops.
  std::vector<uint64_t> LastResp(NumThreads, 0);
  uint64_t T2 = 1;
  for (OpRecord &Op : H.Ops) {
    Op.InvokeSeq = std::max(T2++, LastResp[Op.Thread] + 1);
    Op.RespondSeq = Op.InvokeSeq + 1 + R.nextBelow(5);
    LastResp[Op.Thread] = Op.RespondSeq;
    T2 = std::max(T2, Op.InvokeSeq + 1);
  }
  return H;
}

class CheckerPropertyTest : public ::testing::TestWithParam<int> {};

} // namespace

TEST_P(CheckerPropertyTest, LinearizabilityAgreesWithReference) {
  Rng R(static_cast<uint64_t>(GetParam()) * 7907 + 3);
  for (int Case = 0; Case < 20; ++Case) {
    History H = randomQueueHistory(R);
    bool Fast = isLinearizable(H, QueueSpec::factory());
    bool Ref = referenceCheck(H, QueueSpec::factory(), /*RealTime=*/true);
    ASSERT_EQ(Fast, Ref) << H.str();
  }
}

TEST_P(CheckerPropertyTest, SequentialConsistencyAgreesWithReference) {
  Rng R(static_cast<uint64_t>(GetParam()) * 104729 + 11);
  for (int Case = 0; Case < 20; ++Case) {
    History H = randomQueueHistory(R);
    bool Fast = isSequentiallyConsistent(H, QueueSpec::factory());
    bool Ref =
        referenceCheck(H, QueueSpec::factory(), /*RealTime=*/false);
    ASSERT_EQ(Fast, Ref) << H.str();
  }
}

TEST_P(CheckerPropertyTest, LinearizableImpliesSequentiallyConsistent) {
  Rng R(static_cast<uint64_t>(GetParam()) * 31337 + 7);
  for (int Case = 0; Case < 30; ++Case) {
    History H = randomQueueHistory(R);
    if (isLinearizable(H, QueueSpec::factory())) {
      EXPECT_TRUE(isSequentiallyConsistent(H, QueueSpec::factory()))
          << "linearizability is strictly stronger\n"
          << H.str();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Random, CheckerPropertyTest,
                         ::testing::Range(0, 25));

//===----------------------------------------------------------------------===//
// The concurrent-EMPTY relaxation
//===----------------------------------------------------------------------===//

namespace {

OpRecord mkOp(const char *F, std::vector<Word> Args, Word Ret,
              uint32_t Thread, uint64_t Inv, uint64_t Res) {
  OpRecord O;
  O.Func = F;
  O.Args = std::move(Args);
  O.Ret = Ret;
  O.Thread = Thread;
  O.InvokeSeq = Inv;
  O.RespondSeq = Res;
  O.Completed = true;
  return O;
}

} // namespace

TEST(RelaxEmptyTest, DropsOnlyOverlappingEmptyWsqOps) {
  History H;
  H.Ops = {
      mkOp("put", {1}, 0, 0, 1, 10),          // overlaps everything
      mkOp("steal", {}, EmptyVal, 1, 2, 3),   // overlapping EMPTY: drop
      mkOp("take", {}, EmptyVal, 0, 11, 12),  // non-overlapping: keep
      mkOp("steal", {}, 1, 1, 13, 14),        // successful: keep
      mkOp("dequeue", {}, EmptyVal, 1, 4, 5), // not a WSQ op: keep
  };
  for (size_t I = 0; I != H.Ops.size(); ++I)
    EXPECT_EQ(isConcurrentEmptyWsqOp(H, I), I == 1) << "op " << I;
}

TEST(RelaxEmptyTest, Fig2cViolationSurvivesRelaxation) {
  // Non-overlapping EMPTY steal after a completed put: still flagged.
  History H;
  H.Ops = {mkOp("put", {1}, 0, 0, 1, 2),
           mkOp("steal", {}, EmptyVal, 1, 3, 4)};
  EXPECT_FALSE(isConcurrentEmptyWsqOp(H, 1));
  EXPECT_FALSE(checkHistory(H, WsqSpec::factory(),
                            Criterion::RelaxedLinearizability)
                   .Ok);
}

TEST(RelaxEmptyTest, OverlappingEmptyStealAccepted) {
  // The same EMPTY steal overlapping the put is a legal abort.
  History H;
  H.Ops = {mkOp("put", {1}, 0, 0, 1, 4),
           mkOp("steal", {}, EmptyVal, 1, 2, 3)};
  EXPECT_TRUE(isConcurrentEmptyWsqOp(H, 1));
  EXPECT_TRUE(checkHistory(H, WsqSpec::factory(),
                           Criterion::RelaxedLinearizability)
                  .Ok);
}
