//===- CheckerDifferentialTest.cpp - Search vs a permutation oracle -------===//
//
// The sequentialization search (spec::checkHistory) runs over an index
// view of the history, assigns spec states into reused per-depth storage
// and memoises failed (linearized-set, state) pairs. This test checks its
// verdict against an oracle that shares none of that: it enumerates every
// permutation of the history, applies it to a fresh state from the
// factory, and implements the work-stealing EMPTY relaxation itself. The
// histories are seeded random complete histories of at most 7 operations
// for every spec in spec/Specs.h, judged under sequential consistency,
// linearizability and relaxed linearizability; the work-stealing ones
// include EMPTY take/steal answers both overlapping other operations and
// not.
//
//===----------------------------------------------------------------------===//

#include "spec/Checkers.h"
#include "spec/Specs.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <numeric>

using namespace dfence;
using namespace dfence::spec;
using vm::EmptyVal;
using vm::History;
using vm::OpRecord;
using vm::Word;

namespace {

/// True when neither op strictly precedes the other in real time.
bool overlaps(const OpRecord &A, const OpRecord &B) {
  return !(A.RespondSeq < B.InvokeSeq) && !(B.RespondSeq < A.InvokeSeq);
}

/// The relaxation, written out: the EMPTY take/steal answers that overlap
/// some other operation.
std::vector<bool> droppedByRelaxation(const History &H) {
  std::vector<bool> Drop(H.Ops.size(), false);
  for (size_t I = 0; I != H.Ops.size(); ++I) {
    const OpRecord &Op = H.Ops[I];
    if ((Op.Func != "take" && Op.Func != "steal") || Op.Ret != EmptyVal)
      continue;
    for (size_t K = 0; K != H.Ops.size(); ++K)
      if (K != I && overlaps(Op, H.Ops[K]))
        Drop[I] = true;
  }
  return Drop;
}

/// The oracle: some permutation of the kept ops respects the criterion's
/// orders and is accepted by a fresh spec state.
bool oracle(const History &H, const SpecFactory &Factory, Criterion C) {
  std::vector<bool> Drop = C == Criterion::RelaxedLinearizability
                               ? droppedByRelaxation(H)
                               : std::vector<bool>(H.Ops.size(), false);
  std::vector<size_t> Perm;
  for (size_t I = 0; I != H.Ops.size(); ++I)
    if (!Drop[I])
      Perm.push_back(I);
  bool RealTime = C != Criterion::SequentialConsistency;
  do {
    bool OrderOk = true;
    for (size_t I = 0; I < Perm.size() && OrderOk; ++I)
      for (size_t J = I + 1; J < Perm.size() && OrderOk; ++J) {
        const OpRecord &A = H.Ops[Perm[I]];
        const OpRecord &B = H.Ops[Perm[J]];
        if (B.Thread == A.Thread && B.InvokeSeq < A.InvokeSeq)
          OrderOk = false;
        if (RealTime && B.RespondSeq < A.InvokeSeq)
          OrderOk = false;
      }
    if (!OrderOk)
      continue;
    std::unique_ptr<SpecState> State = Factory();
    bool SpecOk = true;
    for (size_t I : Perm)
      if (!State->apply(H.Ops[I])) {
        SpecOk = false;
        break;
      }
    if (SpecOk)
      return true;
  } while (std::next_permutation(Perm.begin(), Perm.end()));
  return false;
}

/// Draws one operation (name, args, observed return) for a spec.
using OpGen = std::function<void(Rng &, OpRecord &)>;

Word value(Rng &R) { return static_cast<Word>(1 + R.nextBelow(3)); }

/// A consumer's answer: mostly a plausible value, often EMPTY, rarely one
/// nothing produced.
Word consumed(Rng &R, double EmptyProb) {
  double D = R.nextDouble();
  if (D < EmptyProb)
    return EmptyVal;
  return D < 0.95 ? value(R) : 9;
}

OpGen producerConsumer(const char *Put, const char *Take,
                       const char *Steal, double EmptyProb) {
  return [=](Rng &R, OpRecord &Op) {
    unsigned Pick = static_cast<unsigned>(R.nextBelow(Steal ? 3 : 2));
    if (Pick == 0) {
      Op.Func = Put;
      Op.Args = {value(R)};
      return;
    }
    Op.Func = Pick == 1 ? Take : Steal;
    Op.Ret = consumed(R, EmptyProb);
  };
}

OpGen setOps() {
  return [](Rng &R, OpRecord &Op) {
    static const char *Names[] = {"add", "remove", "contains"};
    Op.Func = Names[R.nextBelow(3)];
    Op.Args = {value(R)};
    Op.Ret = static_cast<Word>(R.nextBelow(2));
  };
}

OpGen counterOps() {
  return [](Rng &R, OpRecord &Op) {
    if (R.nextBool(0.7)) {
      Op.Func = "inc";
      Op.Ret = static_cast<Word>(1 + R.nextBelow(3));
    } else {
      Op.Func = "get";
      Op.Ret = static_cast<Word>(R.nextBelow(3));
    }
  };
}

OpGen allocatorOps() {
  return [](Rng &R, OpRecord &Op) {
    Word Addr = static_cast<Word>(100 * (1 + R.nextBelow(3)));
    if (R.nextBool(0.6)) {
      Op.Func = "malloc";
      Op.Args = {2};
      Op.Ret = R.nextBool(0.05) ? 0 : Addr;
    } else {
      Op.Func = "free";
      Op.Args = {Addr};
    }
  };
}

/// A complete history of 1..7 ops over 1..3 threads: each thread's ops
/// are sequential, ops of different threads overlap at random.
History randomHistory(Rng &R, const OpGen &Gen) {
  History H;
  unsigned NumThreads = 1 + static_cast<unsigned>(R.nextBelow(3));
  unsigned NumOps = 1 + static_cast<unsigned>(R.nextBelow(7));
  std::vector<uint64_t> LastResp(NumThreads, 0);
  uint64_t Clock = 1;
  for (unsigned I = 0; I != NumOps; ++I) {
    OpRecord Op;
    Gen(R, Op);
    Op.Thread = static_cast<uint32_t>(R.nextBelow(NumThreads));
    Op.Completed = true;
    Op.InvokeSeq = std::max(Clock, LastResp[Op.Thread] + 1);
    Op.RespondSeq = Op.InvokeSeq + 1 + R.nextBelow(5);
    LastResp[Op.Thread] = Op.RespondSeq;
    Clock = Op.InvokeSeq + 1 + R.nextBelow(2);
    H.Ops.push_back(std::move(Op));
  }
  return H;
}

struct SpecCase {
  const char *Name;
  SpecFactory Factory;
  OpGen Gen;
  bool WorkStealing; ///< Has take/steal, so the relaxation can apply.
};

std::vector<SpecCase> allSpecs() {
  return {
      {"wsq", WsqSpec::factory(),
       producerConsumer("put", "take", "steal", 0.35), true},
      {"wsq-lifo", WsqSpec::factory(DequeEnd::Tail, DequeEnd::Tail),
       producerConsumer("put", "take", "steal", 0.35), true},
      {"wsq-fifo", WsqSpec::factory(DequeEnd::Head, DequeEnd::Head),
       producerConsumer("put", "take", "steal", 0.35), true},
      {"queue", QueueSpec::factory(),
       producerConsumer("enqueue", "dequeue", nullptr, 0.25), false},
      {"stack", StackSpec::factory(),
       producerConsumer("push", "pop", nullptr, 0.25), false},
      {"set", SetSpec::factory(), setOps(), false},
      {"counter", CounterSpec::factory(), counterOps(), false},
      {"allocator", AllocatorSpec::factory(), allocatorOps(), false},
  };
}

const char *criterionName(Criterion C) {
  switch (C) {
  case Criterion::SequentialConsistency:  return "sc";
  case Criterion::Linearizability:        return "lin";
  case Criterion::RelaxedLinearizability: return "relaxed-lin";
  }
  return "?";
}

} // namespace

TEST(CheckerDifferentialTest, SearchAgreesWithPermutationOracle) {
  Rng R(0xd1ffe7e57);
  for (const SpecCase &S : allSpecs()) {
    unsigned Accepted = 0, Rejected = 0;
    unsigned WithConcurrentEmpty = 0, WithoutConcurrentEmpty = 0;
    for (int Case = 0; Case != 300; ++Case) {
      History H = randomHistory(R, S.Gen);
      std::vector<bool> Drop = droppedByRelaxation(H);
      if (std::find(Drop.begin(), Drop.end(), true) != Drop.end())
        ++WithConcurrentEmpty;
      else
        ++WithoutConcurrentEmpty;
      for (size_t I = 0; I != H.Ops.size(); ++I)
        ASSERT_EQ(isConcurrentEmptyWsqOp(H, I), Drop[I])
            << S.Name << " op " << I << "\n" << H.str();
      for (Criterion C :
           {Criterion::SequentialConsistency, Criterion::Linearizability,
            Criterion::RelaxedLinearizability}) {
        CheckResult Got = checkHistory(H, S.Factory, C);
        bool Want = oracle(H, S.Factory, C);
        ASSERT_EQ(Got.Ok, Want)
            << S.Name << " " << criterionName(C) << "\n" << H.str();
        EXPECT_FALSE(Got.OutOfBudget) << S.Name;
        ++(Want ? Accepted : Rejected);
      }
    }
    // Neither verdict may be vacuous, and the work-stealing specs must see
    // both kinds of history the relaxation distinguishes.
    EXPECT_GT(Accepted, 60u) << S.Name;
    EXPECT_GT(Rejected, 60u) << S.Name;
    if (S.WorkStealing) {
      EXPECT_GT(WithConcurrentEmpty, 30u) << S.Name;
      EXPECT_GT(WithoutConcurrentEmpty, 30u) << S.Name;
    }
  }
}

TEST(CheckerDifferentialTest, ExhaustedBudgetAcceptsAndSaysSo) {
  // enqueue(1) completes before a dequeue() that answers 2: no
  // sequentialization exists, and a full search says so.
  History H;
  auto Add = [&](const char *F, std::vector<Word> Args, Word Ret,
                 uint64_t Inv, uint64_t Res) {
    OpRecord Op;
    Op.Func = F;
    Op.Args = std::move(Args);
    Op.Ret = Ret;
    Op.InvokeSeq = Inv;
    Op.RespondSeq = Res;
    Op.Completed = true;
    H.Ops.push_back(std::move(Op));
  };
  Add("enqueue", {1}, 0, 1, 2);
  Add("dequeue", {}, 2, 3, 4);
  CheckResult Full =
      checkHistory(H, QueueSpec::factory(), Criterion::Linearizability);
  EXPECT_FALSE(Full.Ok);
  EXPECT_FALSE(Full.OutOfBudget);
  // One visited state is not enough to refute it: the search accepts
  // and reports that the budget ran out.
  CheckerLimits Tiny;
  Tiny.MaxVisitedStates = 1;
  CheckResult Cut =
      checkHistory(H, QueueSpec::factory(), Criterion::Linearizability, Tiny);
  EXPECT_TRUE(Cut.Ok);
  EXPECT_TRUE(Cut.OutOfBudget);
  EXPECT_TRUE(isLinearizable(H, QueueSpec::factory(), Tiny));
}
