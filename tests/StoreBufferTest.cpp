//===- StoreBufferTest.cpp - Store-buffer contract coverage ---------------===//
//
// Pins the behavioral contracts of the per-thread write buffers that the
// flat-vector storage must preserve (these are the contracts the
// interpreter's TSO/PSO semantics and the repair instrumentation lean
// on): TSO popOldestFor ignores the address to keep FIFO order, PSO
// popOldest drains the lowest-addressed non-empty variable buffer,
// forward() returns the newest buffered value, and pendingLabelsExcept
// dedups in deterministic (ascending address, then FIFO) order. Every
// case runs against the buffer classes the interpreter binds (ScBuffer /
// TsoBuffer / PsoBuffer). The store-forwarding index and active-address
// list (the structures replacing the old linear scans) are stressed
// through their invalidation edges and reuse across reset(), and a
// randomized differential drives each class and a naive reference model
// (one vector of pending entries, every query a linear scan) through
// identical operation sequences.
//
//===----------------------------------------------------------------------===//

#include "support/Rng.h"
#include "vm/StoreBuffer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

using namespace dfence;
using namespace dfence::vm;

namespace {

/// The buffered variables, through the out-parameter API.
template <class Buffer> std::vector<Word> vars(const Buffer &B) {
  std::vector<Word> Out;
  B.nonEmptyVars(Out);
  return Out;
}

TEST(StoreBufferTest, ScNeverBuffersOrForwards) {
  ScBuffer B;
  EXPECT_TRUE(B.empty());
  EXPECT_TRUE(B.emptyFor(8));
  Word V = 0;
  EXPECT_FALSE(B.forward(8, V));
  EXPECT_TRUE(vars(B).empty());
}

TEST(StoreBufferTest, TsoIsOneFifoAcrossVariables) {
  TsoBuffer B;
  B.push(/*Addr=*/16, /*Val=*/1, /*Label=*/100);
  B.push(/*Addr=*/8, /*Val=*/2, /*Label=*/101);
  B.push(/*Addr=*/16, /*Val=*/3, /*Label=*/102);
  EXPECT_EQ(B.size(), 3u);
  // TSO emptyFor is whole-buffer emptiness: a pending store to any
  // variable blocks the CAS/fence premise for every variable.
  EXPECT_FALSE(B.emptyFor(999));

  // popOldestFor ignores the address under TSO — flushing "for" var 8
  // must still commit the older store to 16 first or FIFO order breaks.
  BufferEntry E = B.popOldestFor(8);
  EXPECT_EQ(E.Addr, 16u);
  EXPECT_EQ(E.Val, 1u);
  EXPECT_EQ(E.Label, 100u);
  E = B.popOldestFor(16);
  EXPECT_EQ(E.Addr, 8u);
  EXPECT_EQ(E.Label, 101u);
  E = B.popOldest();
  EXPECT_EQ(E.Val, 3u);
  EXPECT_TRUE(B.empty());
  EXPECT_TRUE(B.emptyFor(999));
}

TEST(StoreBufferTest, TsoForwardReturnsNewestForAddress) {
  TsoBuffer B;
  B.push(8, 1, 100);
  B.push(16, 7, 101);
  B.push(8, 2, 102); // Newer store to 8 shadows the first.
  Word V = 0;
  ASSERT_TRUE(B.forward(8, V));
  EXPECT_EQ(V, 2u);
  ASSERT_TRUE(B.forward(16, V));
  EXPECT_EQ(V, 7u);
  EXPECT_FALSE(B.forward(24, V));
}

TEST(StoreBufferTest, TsoNonEmptyVarsIsPositionalMarker) {
  TsoBuffer B;
  EXPECT_TRUE(vars(B).empty());
  B.push(8, 1, 100);
  B.push(16, 2, 101);
  // One FIFO, so the flush choice is positional: a singleton {0} marker,
  // not the set of buffered addresses.
  EXPECT_EQ(vars(B), std::vector<Word>({0}));
}

TEST(StoreBufferTest, PsoPopOldestTakesLowestAddressedBuffer) {
  PsoBuffer B;
  B.push(24, 1, 100); // Arrival order deliberately not address order.
  B.push(8, 2, 101);
  B.push(16, 3, 102);
  B.push(8, 4, 103);

  // Lowest-addressed non-empty buffer first, FIFO within the variable.
  BufferEntry E = B.popOldest();
  EXPECT_EQ(E.Addr, 8u);
  EXPECT_EQ(E.Val, 2u);
  E = B.popOldest();
  EXPECT_EQ(E.Addr, 8u);
  EXPECT_EQ(E.Val, 4u);
  E = B.popOldest();
  EXPECT_EQ(E.Addr, 16u);
  E = B.popOldest();
  EXPECT_EQ(E.Addr, 24u);
  EXPECT_TRUE(B.empty());
}

TEST(StoreBufferTest, PsoPopOldestForDrainsPerVariableFifo) {
  PsoBuffer B;
  B.push(8, 1, 100);
  B.push(16, 9, 101);
  B.push(8, 2, 102);

  BufferEntry E = B.popOldestFor(8);
  EXPECT_EQ(E.Val, 1u);
  EXPECT_EQ(E.Label, 100u);
  EXPECT_FALSE(B.emptyFor(8)); // The second store to 8 is still pending.
  E = B.popOldestFor(8);
  EXPECT_EQ(E.Val, 2u);
  EXPECT_TRUE(B.emptyFor(8));
  EXPECT_FALSE(B.emptyFor(16));
  EXPECT_EQ(B.size(), 1u);
}

TEST(StoreBufferTest, PsoForwardReturnsNewestPerVariable) {
  PsoBuffer B;
  B.push(8, 1, 100);
  B.push(8, 2, 101);
  Word V = 0;
  ASSERT_TRUE(B.forward(8, V));
  EXPECT_EQ(V, 2u);
  // Draining one entry still leaves the newest (2) as the forward value.
  (void)B.popOldestFor(8);
  ASSERT_TRUE(B.forward(8, V));
  EXPECT_EQ(V, 2u);
  (void)B.popOldestFor(8);
  EXPECT_FALSE(B.forward(8, V));
}

TEST(StoreBufferTest, PsoNonEmptyVarsAscendingAfterPartialDrain) {
  PsoBuffer B;
  B.push(32, 1, 100);
  B.push(8, 2, 101);
  B.push(16, 3, 102);
  EXPECT_EQ(vars(B), std::vector<Word>({8, 16, 32}));
  // Draining a variable to empty removes it from the set; the rest stay
  // in ascending address order.
  (void)B.popOldestFor(16);
  EXPECT_EQ(vars(B), std::vector<Word>({8, 32}));
  (void)B.popOldest(); // Drains 8 (lowest).
  EXPECT_EQ(vars(B), std::vector<Word>({32}));
}

TEST(StoreBufferTest, PsoReusedAddressAfterDrainIsFresh) {
  PsoBuffer B;
  B.push(8, 1, 100);
  (void)B.popOldestFor(8);
  EXPECT_TRUE(B.emptyFor(8));
  B.push(8, 5, 103); // Re-buffering a fully drained variable.
  EXPECT_FALSE(B.emptyFor(8));
  Word V = 0;
  ASSERT_TRUE(B.forward(8, V));
  EXPECT_EQ(V, 5u);
  EXPECT_EQ(B.popOldest().Val, 5u);
}

TEST(StoreBufferTest, PendingLabelsExceptDedupsAndExcludes) {
  PsoBuffer B;
  B.push(16, 1, 200); // Same label twice (e.g. a store in a loop).
  B.push(16, 2, 200);
  B.push(8, 3, 201);
  B.push(24, 4, 202);

  std::vector<InstrId> Labels;
  B.pendingLabelsExcept(/*ExcludeAddr=*/24, Labels);
  // Ascending address order (8 before 16), label 200 deduped, the
  // excluded variable's label absent.
  EXPECT_EQ(Labels, std::vector<InstrId>({201, 200}));

  // The call appends without clearing and dedups against prior content.
  B.pendingLabelsExcept(/*ExcludeAddr=*/999, Labels);
  EXPECT_EQ(Labels, std::vector<InstrId>({201, 200, 202}));
}

TEST(StoreBufferTest, PendingLabelsExceptTsoFifoOrder) {
  TsoBuffer B;
  B.push(16, 1, 300);
  B.push(8, 2, 301);
  B.push(16, 3, 300); // Dup label.
  B.push(8, 4, 302);

  std::vector<InstrId> Labels;
  B.pendingLabelsExcept(/*ExcludeAddr=*/8, Labels);
  // FIFO order, deduped, stores to 8 excluded.
  EXPECT_EQ(Labels, std::vector<InstrId>({300}));
  Labels.clear();
  B.pendingLabelsExcept(/*ExcludeAddr=*/1234, Labels);
  EXPECT_EQ(Labels, std::vector<InstrId>({300, 301, 302}));
}

//===----------------------------------------------------------------------===//
// Buffer-class internals: forwarding index, active list, reuse
//===----------------------------------------------------------------------===//

TEST(StoreBufferPolicyTest, ScBufferIsAlwaysEmpty) {
  ScBuffer B;
  EXPECT_TRUE(B.empty());
  EXPECT_EQ(B.size(), 0u);
  EXPECT_TRUE(B.emptyFor(8));
  Word V = 0;
  EXPECT_FALSE(B.forward(8, V));
  std::vector<Word> Vars{1, 2, 3};
  B.nonEmptyVars(Vars); // Clears: SC has no buffered variables.
  EXPECT_TRUE(Vars.empty());
  std::vector<InstrId> Labels;
  B.pendingLabelsExcept(8, Labels);
  EXPECT_TRUE(Labels.empty());
  B.reset();
  EXPECT_TRUE(B.empty());
}

TEST(StoreBufferPolicyTest, TsoBufferFifoAndForwardIndex) {
  TsoBuffer B;
  B.push(16, 1, 100);
  B.push(8, 2, 101);
  B.push(16, 3, 102);
  EXPECT_EQ(B.size(), 3u);
  EXPECT_FALSE(B.emptyFor(999)); // Whole-buffer emptiness.

  // Forward answers the newest pending value per address.
  Word V = 0;
  ASSERT_TRUE(B.forward(16, V));
  EXPECT_EQ(V, 3u);
  ASSERT_TRUE(B.forward(8, V));
  EXPECT_EQ(V, 2u);
  EXPECT_FALSE(B.forward(24, V));

  // The newest value survives pops of *older* entries to the same
  // address (pops remove the oldest; the index edge the old full-FIFO
  // backwards walk got implicitly and the AddrSlot index must keep).
  BufferEntry E = B.popOldestFor(8); // Ignores the address: FIFO order.
  EXPECT_EQ(E.Addr, 16u);
  EXPECT_EQ(E.Val, 1u);
  ASSERT_TRUE(B.forward(16, V));
  EXPECT_EQ(V, 3u) << "newest value must survive popping an older entry";

  E = B.popOldest();
  EXPECT_EQ(E.Addr, 8u);
  EXPECT_FALSE(B.forward(8, V)) << "fully drained address must not forward";
  ASSERT_TRUE(B.forward(16, V));
  EXPECT_EQ(V, 3u);

  E = B.popOldest();
  EXPECT_EQ(E.Val, 3u);
  EXPECT_TRUE(B.empty());
  EXPECT_FALSE(B.forward(16, V));
}

TEST(StoreBufferPolicyTest, TsoBufferReuseAfterReset) {
  TsoBuffer B;
  B.push(8, 1, 100);
  B.push(16, 2, 101);
  (void)B.popOldest();
  B.reset();
  EXPECT_TRUE(B.empty());
  EXPECT_EQ(B.size(), 0u);
  Word V = 0;
  EXPECT_FALSE(B.forward(8, V)) << "reset must zero the pending counts";
  EXPECT_FALSE(B.forward(16, V));
  // The revived buffer behaves like a fresh one.
  B.push(16, 9, 102);
  ASSERT_TRUE(B.forward(16, V));
  EXPECT_EQ(V, 9u);
  EXPECT_EQ(B.popOldest().Val, 9u);
  EXPECT_TRUE(B.empty());
}

TEST(StoreBufferPolicyTest, PsoBufferActiveListTracksDrains) {
  PsoBuffer B;
  B.push(24, 1, 100);
  B.push(8, 2, 101);
  B.push(16, 3, 102);
  B.push(8, 4, 103);

  std::vector<Word> Vars;
  B.nonEmptyVars(Vars);
  EXPECT_EQ(Vars, std::vector<Word>({8, 16, 24}));

  // popOldest takes the lowest *active* address — draining 8 must drop
  // it from the active list without touching the retained slot.
  EXPECT_EQ(B.popOldest().Val, 2u);
  EXPECT_EQ(B.popOldest().Val, 4u);
  B.nonEmptyVars(Vars);
  EXPECT_EQ(Vars, std::vector<Word>({16, 24}));
  EXPECT_TRUE(B.emptyFor(8));
  EXPECT_EQ(B.popOldest().Addr, 16u);
  EXPECT_EQ(B.popOldest().Addr, 24u);
  EXPECT_TRUE(B.empty());
  B.nonEmptyVars(Vars);
  EXPECT_TRUE(Vars.empty());

  // Reactivation of a drained slot re-inserts it in sorted position.
  B.push(16, 7, 104);
  B.push(8, 8, 105);
  B.nonEmptyVars(Vars);
  EXPECT_EQ(Vars, std::vector<Word>({8, 16}));
  EXPECT_EQ(B.popOldest().Addr, 8u);
}

TEST(StoreBufferPolicyTest, PsoBufferReuseAfterReset) {
  PsoBuffer B;
  B.push(8, 1, 100);
  B.push(16, 2, 101);
  B.reset();
  EXPECT_TRUE(B.empty());
  std::vector<Word> Vars{99};
  B.nonEmptyVars(Vars);
  EXPECT_TRUE(Vars.empty()) << "reset must clear the active list";
  Word V = 0;
  EXPECT_FALSE(B.forward(8, V));
  B.push(16, 5, 102);
  EXPECT_FALSE(B.emptyFor(16));
  EXPECT_TRUE(B.emptyFor(8));
  EXPECT_EQ(B.popOldestFor(16).Val, 5u);
  EXPECT_TRUE(B.empty());
}

/// The reference model: the paper's buffer semantics written as plainly
/// as possible — the pending entries of either model in one vector in
/// arrival order, every query a linear scan over it.
class NaiveBuffer {
public:
  explicit NaiveBuffer(MemModel M) : Model(M) {}

  void reset() { Pending.clear(); }
  void push(Word A, Word V, InstrId L) { Pending.push_back({A, V, L}); }
  bool empty() const { return Pending.empty(); }
  size_t size() const { return Pending.size(); }

  /// TSO: whole-buffer emptiness. PSO: no pending store to \p A.
  bool emptyFor(Word A) const {
    if (Model == MemModel::TSO)
      return empty();
    for (const BufferEntry &E : Pending)
      if (E.Addr == A)
        return false;
    return true;
  }

  /// The newest pending value for \p A.
  bool forward(Word A, Word &Out) const {
    for (size_t I = Pending.size(); I-- > 0;)
      if (Pending[I].Addr == A) {
        Out = Pending[I].Val;
        return true;
      }
    return false;
  }

  /// TSO: the oldest entry. PSO: the oldest entry of the lowest pending
  /// address.
  BufferEntry popOldest() {
    if (Model == MemModel::TSO)
      return take(0);
    return popOldestFor(vars().front());
  }

  /// TSO: the oldest entry whatever \p A. PSO: the oldest entry for \p A.
  BufferEntry popOldestFor(Word A) {
    if (Model == MemModel::TSO)
      return take(0);
    for (size_t I = 0; I != Pending.size(); ++I)
      if (Pending[I].Addr == A)
        return take(I);
    ADD_FAILURE() << "no pending store to " << A;
    return {};
  }

  /// TSO: the positional marker {0} when non-empty. PSO: the distinct
  /// pending addresses, ascending.
  std::vector<Word> vars() const {
    std::vector<Word> Out;
    if (Model == MemModel::TSO) {
      if (!empty())
        Out.push_back(0);
      return Out;
    }
    for (const BufferEntry &E : Pending)
      Out.push_back(E.Addr);
    std::sort(Out.begin(), Out.end());
    Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
    return Out;
  }

  /// Labels of pending stores not to \p X, appended to \p Out unless
  /// already there. TSO: arrival order. PSO: ascending address, arrival
  /// order within an address.
  void pendingLabelsExcept(Word X, std::vector<InstrId> &Out) const {
    auto Add = [&](const BufferEntry &E) {
      if (E.Addr != X &&
          std::find(Out.begin(), Out.end(), E.Label) == Out.end())
        Out.push_back(E.Label);
    };
    if (Model == MemModel::TSO) {
      for (const BufferEntry &E : Pending)
        Add(E);
      return;
    }
    for (Word A : vars())
      for (const BufferEntry &E : Pending)
        if (E.Addr == A)
          Add(E);
  }

private:
  BufferEntry take(size_t I) {
    BufferEntry E = Pending[I];
    Pending.erase(Pending.begin() + static_cast<std::ptrdiff_t>(I));
    return E;
  }

  MemModel Model;
  std::vector<BufferEntry> Pending;
};

/// Drives \p B and a naive model of \p Model through an identical random
/// operation sequence, comparing every observable after every operation.
template <class Buffer>
void runDifferential(Buffer &B, MemModel Model, uint64_t Seed) {
  NaiveBuffer Ref(Model);
  Rng R(Seed);
  const Word Addrs[] = {8, 16, 24, 32, 40};
  size_t Pending = 0;
  for (int Op = 0; Op != 2000; ++Op) {
    switch (R.next() % 5) {
    case 0:
    case 1: { // push (biased: keeps the buffer populated)
      Word A = Addrs[R.next() % 5];
      Word V = R.next() % 1000;
      InstrId L = static_cast<InstrId>(100 + R.next() % 20);
      B.push(A, V, L);
      Ref.push(A, V, L);
      ++Pending;
      break;
    }
    case 2: { // popOldest
      if (Pending == 0)
        break;
      BufferEntry E1 = B.popOldest();
      BufferEntry E2 = Ref.popOldest();
      EXPECT_EQ(E1.Addr, E2.Addr);
      EXPECT_EQ(E1.Val, E2.Val);
      EXPECT_EQ(E1.Label, E2.Label);
      --Pending;
      break;
    }
    case 3: { // popOldestFor a random address with pending stores
      Word A = Addrs[R.next() % 5];
      if (Ref.emptyFor(A) || Ref.empty())
        break;
      BufferEntry E1 = B.popOldestFor(A);
      BufferEntry E2 = Ref.popOldestFor(A);
      EXPECT_EQ(E1.Addr, E2.Addr);
      EXPECT_EQ(E1.Val, E2.Val);
      EXPECT_EQ(E1.Label, E2.Label);
      --Pending;
      break;
    }
    case 4: { // occasional reset, exercising slot reuse
      if (R.next() % 64 != 0)
        break;
      B.reset();
      Ref.reset();
      Pending = 0;
      break;
    }
    }
    // Observables agree after every operation.
    EXPECT_EQ(B.empty(), Ref.empty());
    EXPECT_EQ(B.size(), Ref.size());
    Word A = Addrs[R.next() % 5];
    EXPECT_EQ(B.emptyFor(A), Ref.emptyFor(A));
    Word V1 = 0, V2 = 0;
    bool F1 = B.forward(A, V1);
    bool F2 = Ref.forward(A, V2);
    EXPECT_EQ(F1, F2);
    if (F1) {
      EXPECT_EQ(V1, V2);
    }
    EXPECT_EQ(vars(B), Ref.vars());
    std::vector<InstrId> L1, L2;
    B.pendingLabelsExcept(A, L1);
    Ref.pendingLabelsExcept(A, L2);
    EXPECT_EQ(L1, L2);
    // Past the first divergence the two states no longer correspond (a
    // pop could hit an address one side does not hold).
    if (::testing::Test::HasFailure())
      return;
  }
}

TEST(StoreBufferPolicyTest, TsoBufferMatchesNaiveModel) {
  TsoBuffer B;
  runDifferential(B, MemModel::TSO, 0x75f0);
}

TEST(StoreBufferPolicyTest, PsoBufferMatchesNaiveModel) {
  PsoBuffer B;
  runDifferential(B, MemModel::PSO, 0x9b50);
}

} // namespace
