//===- VmTest.cpp - Memory, store buffers, interpreter basics -------------===//

#include "frontend/Compiler.h"
#include "vm/Interp.h"
#include "vm/Memory.h"
#include "vm/StoreBuffer.h"

#include <gtest/gtest.h>

using namespace dfence;
using namespace dfence::vm;

//===----------------------------------------------------------------------===//
// Memory / allocation tracker
//===----------------------------------------------------------------------===//

TEST(MemoryTest, AllocateGivesDisjointValidBlocks) {
  Memory M;
  Word A = M.allocate(4);
  Word B = M.allocate(4);
  EXPECT_NE(A, 0u);
  EXPECT_GE(B, A + 4);
  for (Word I = 0; I < 4; ++I) {
    EXPECT_TRUE(M.isValid(A + I));
    EXPECT_TRUE(M.isValid(B + I));
  }
}

TEST(MemoryTest, RedZonesBetweenBlocks) {
  Memory M;
  Word A = M.allocate(2);
  M.allocate(2);
  EXPECT_FALSE(M.isValid(A + 2)) << "red zone must be invalid";
  EXPECT_FALSE(M.isValid(A - 1));
}

TEST(MemoryTest, NullIsInvalid) {
  Memory M;
  EXPECT_FALSE(M.isValid(0));
  EXPECT_FALSE(M.isValid(1));
}

TEST(MemoryTest, FreeInvalidatesAndDetectsUseAfterFree) {
  Memory M;
  Word A = M.allocate(3);
  EXPECT_TRUE(M.freeBlock(A));
  EXPECT_FALSE(M.isValid(A));
  EXPECT_TRUE(M.isFreed(A + 1));
  EXPECT_FALSE(M.freeBlock(A)) << "double free rejected";
}

TEST(MemoryTest, FreeOfNonBlockStartRejected) {
  Memory M;
  Word A = M.allocate(3);
  EXPECT_FALSE(M.freeBlock(A + 1));
  EXPECT_TRUE(M.isValid(A + 1));
}

TEST(MemoryTest, GlobalsCannotBeFreed) {
  Memory M;
  Word G = M.allocateGlobal(2);
  EXPECT_FALSE(M.freeBlock(G));
}

TEST(MemoryTest, AddressesNeverReused) {
  Memory M;
  Word A = M.allocate(2);
  M.freeBlock(A);
  Word B = M.allocate(2);
  EXPECT_NE(A, B);
}

TEST(MemoryTest, ReadWriteRoundTrip) {
  Memory M;
  Word A = M.allocate(2);
  M.write(A, 123);
  M.write(A + 1, 456);
  EXPECT_EQ(M.read(A), 123u);
  EXPECT_EQ(M.read(A + 1), 456u);
}

TEST(MemoryTest, LiveHeapBlockCount) {
  Memory M;
  M.allocateGlobal(1);
  Word A = M.allocate(1);
  M.allocate(1);
  EXPECT_EQ(M.liveHeapBlocks(), 2u);
  M.freeBlock(A);
  EXPECT_EQ(M.liveHeapBlocks(), 1u);
}

//===----------------------------------------------------------------------===//
// Store buffers (Semantics 1)
//===----------------------------------------------------------------------===//

TEST(StoreBufferTest, ScNeverBuffers) {
  ScBuffer B;
  EXPECT_TRUE(B.empty());
  EXPECT_TRUE(B.emptyFor(5));
  Word Out;
  EXPECT_FALSE(B.forward(5, Out));
}

TEST(StoreBufferTest, TsoFifoOrder) {
  TsoBuffer B;
  B.push(10, 1, 100);
  B.push(20, 2, 101);
  B.push(10, 3, 102);
  EXPECT_EQ(B.size(), 3u);
  BufferEntry E1 = B.popOldest();
  EXPECT_EQ(E1.Addr, 10u);
  EXPECT_EQ(E1.Val, 1u);
  BufferEntry E2 = B.popOldest();
  EXPECT_EQ(E2.Addr, 20u);
  BufferEntry E3 = B.popOldest();
  EXPECT_EQ(E3.Val, 3u);
  EXPECT_TRUE(B.empty());
}

TEST(StoreBufferTest, TsoForwardingNewestWins) {
  TsoBuffer B;
  B.push(10, 1, 100);
  B.push(10, 9, 101);
  Word Out = 0;
  EXPECT_TRUE(B.forward(10, Out));
  EXPECT_EQ(Out, 9u);
  EXPECT_FALSE(B.forward(11, Out));
}

TEST(StoreBufferTest, TsoEmptyForIsWholeBuffer) {
  TsoBuffer B;
  B.push(10, 1, 100);
  EXPECT_FALSE(B.emptyFor(99)) << "TSO CAS premise covers whole buffer";
}

TEST(StoreBufferTest, PsoPerVariableBuffers) {
  PsoBuffer B;
  B.push(10, 1, 100);
  B.push(20, 2, 101);
  EXPECT_FALSE(B.emptyFor(10));
  EXPECT_FALSE(B.emptyFor(20));
  EXPECT_TRUE(B.emptyFor(30)) << "PSO CAS premise is per-variable";
  BufferEntry E = B.popOldestFor(20);
  EXPECT_EQ(E.Val, 2u);
  EXPECT_TRUE(B.emptyFor(20));
  EXPECT_FALSE(B.empty());
}

TEST(StoreBufferTest, PsoPerVariableFifo) {
  PsoBuffer B;
  B.push(10, 1, 100);
  B.push(10, 2, 101);
  EXPECT_EQ(B.popOldestFor(10).Val, 1u);
  EXPECT_EQ(B.popOldestFor(10).Val, 2u);
}

TEST(StoreBufferTest, PsoForwarding) {
  PsoBuffer B;
  B.push(10, 1, 100);
  B.push(10, 5, 101);
  Word Out = 0;
  EXPECT_TRUE(B.forward(10, Out));
  EXPECT_EQ(Out, 5u);
}

TEST(StoreBufferTest, NonEmptyVars) {
  PsoBuffer P;
  P.push(10, 1, 100);
  P.push(20, 2, 101);
  std::vector<Word> Vars;
  P.nonEmptyVars(Vars);
  EXPECT_EQ(Vars.size(), 2u);

  TsoBuffer T;
  T.nonEmptyVars(Vars);
  EXPECT_TRUE(Vars.empty());
  T.push(10, 1, 100);
  T.nonEmptyVars(Vars);
  EXPECT_EQ(Vars.size(), 1u);
}

TEST(StoreBufferTest, PendingLabelsExcludeTargetVariable) {
  PsoBuffer B;
  B.push(10, 1, 100);
  B.push(20, 2, 101);
  B.push(20, 3, 102);
  std::vector<ir::InstrId> Labels;
  B.pendingLabelsExcept(10, Labels);
  EXPECT_EQ(Labels.size(), 2u);
  Labels.clear();
  B.pendingLabelsExcept(20, Labels);
  ASSERT_EQ(Labels.size(), 1u);
  EXPECT_EQ(Labels[0], 100u);
}

//===----------------------------------------------------------------------===//
// Interpreter basics and memory-safety detection
//===----------------------------------------------------------------------===//

namespace {

ExecResult runClient(const std::string &Src, const Client &C,
                     MemModel Model = MemModel::SC, uint64_t Seed = 1,
                     double FlushProb = 0.5) {
  auto M = frontend::compileOrDie(Src);
  ExecConfig Cfg;
  Cfg.Model = Model;
  Cfg.Seed = Seed;
  Cfg.FlushProb = FlushProb;
  return runExecution(M, C, Cfg);
}

Client oneShot(const char *Func, std::vector<Arg> Args = {}) {
  Client C;
  ThreadScript S;
  MethodCall MC;
  MC.Func = Func;
  MC.Args = std::move(Args);
  S.Calls.push_back(std::move(MC));
  C.Threads.push_back(std::move(S));
  return C;
}

} // namespace

TEST(InterpTest, NullDereferenceDetected) {
  ExecResult R = runClient("int f() { int p = 0; return *p; }",
                           oneShot("f"));
  EXPECT_EQ(R.Out, Outcome::MemSafety);
  EXPECT_NE(R.Message.find("null"), std::string::npos);
}

TEST(InterpTest, OutOfBoundsDetected) {
  ExecResult R = runClient(
      "global int arr[4]; int f() { return arr[4]; }", oneShot("f"));
  EXPECT_EQ(R.Out, Outcome::MemSafety);
}

TEST(InterpTest, UseAfterFreeDetected) {
  ExecResult R = runClient(
      "int f() { int p = malloc(2); free(p); return *p; }", oneShot("f"));
  EXPECT_EQ(R.Out, Outcome::MemSafety);
  EXPECT_NE(R.Message.find("use after free"), std::string::npos);
}

TEST(InterpTest, InvalidFreeDetected) {
  ExecResult R = runClient(
      "int f() { int p = malloc(2); free(p + 1); return 0; }",
      oneShot("f"));
  EXPECT_EQ(R.Out, Outcome::MemSafety);
}

TEST(InterpTest, DoubleFreeDetected) {
  ExecResult R = runClient(
      "int f() { int p = malloc(2); free(p); free(p); return 0; }",
      oneShot("f"));
  EXPECT_EQ(R.Out, Outcome::MemSafety);
}

TEST(InterpTest, AssertFailureDetected) {
  ExecResult R = runClient("int f() { assert(0); return 0; }",
                           oneShot("f"));
  EXPECT_EQ(R.Out, Outcome::AssertFail);
}

TEST(InterpTest, BufferedStoreToFreedMemoryFaultsAtFlush) {
  // Under PSO a store sits in the buffer while the block is freed; the
  // flush (FLUSH rule) must detect the violation (paper §5.2: free does
  // not flush write buffers).
  const char *Src = R"(
int f() {
  int p = malloc(2);
  *p = 5;
  free(p);
  fence();
  return 0;
}
)";
  // FlushProb 0: the scheduler never drains the buffer on its own, so
  // the store is still pending when the block is freed.
  ExecResult R = runClient(Src, oneShot("f"), MemModel::PSO, 3, 0.0);
  EXPECT_EQ(R.Out, Outcome::MemSafety);
  EXPECT_NE(R.Message.find("flush"), std::string::npos);
}

TEST(InterpTest, HistoryRecordsInvocationsAndResponses) {
  const char *Src = R"(
global int G = 0;
int inc(int v) { G = G + v; return G; }
)";
  Client C;
  ThreadScript S;
  MethodCall A;
  A.Func = "inc";
  A.Args = {Arg(2)};
  MethodCall B;
  B.Func = "inc";
  B.Args = {Arg(3)};
  S.Calls = {A, B};
  C.Threads.push_back(S);
  ExecResult R = runClient(Src, C);
  EXPECT_EQ(R.Out, Outcome::Completed);
  ASSERT_EQ(R.Hist.Ops.size(), 2u);
  EXPECT_EQ(R.Hist.Ops[0].Ret, 2u);
  EXPECT_EQ(R.Hist.Ops[1].Ret, 5u);
  EXPECT_TRUE(R.Hist.Ops[0].precedes(R.Hist.Ops[1]));
  EXPECT_TRUE(R.Hist.allComplete());
}

TEST(InterpTest, ArgumentReferencesResolve) {
  const char *Src = R"(
int produce() { return 41; }
int consume(int v) { return v + 1; }
)";
  Client C;
  ThreadScript S;
  MethodCall P;
  P.Func = "produce";
  MethodCall Q;
  Q.Func = "consume";
  Q.Args = {Arg::resultOf(0)};
  S.Calls = {P, Q};
  C.Threads.push_back(S);
  ExecResult R = runClient(Src, C);
  ASSERT_EQ(R.Hist.Ops.size(), 2u);
  EXPECT_EQ(R.Hist.Ops[1].Args[0], 41u);
  EXPECT_EQ(R.Hist.Ops[1].Ret, 42u);
}

TEST(InterpTest, InitFunctionRunsFirst) {
  const char *Src = R"(
global int G = 0;
int init() { G = 100; return 0; }
int get() { return G; }
)";
  Client C = oneShot("get");
  C.InitFunc = "init";
  ExecResult R = runClient(Src, C, MemModel::PSO, 7);
  EXPECT_EQ(R.Out, Outcome::Completed);
  EXPECT_EQ(R.Hist.Ops[0].Ret, 100u);
}

TEST(InterpTest, DeterministicGivenSeed) {
  const char *Src = R"(
global int X = 0;
global int Y = 0;
int t1() { X = 1; return Y; }
int t2() { Y = 1; return X; }
)";
  Client C;
  ThreadScript S1, S2;
  MethodCall M1;
  M1.Func = "t1";
  MethodCall M2;
  M2.Func = "t2";
  S1.Calls = {M1};
  S2.Calls = {M2};
  C.Threads = {S1, S2};
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    ExecResult A = runClient(Src, C, MemModel::TSO, Seed);
    ExecResult B = runClient(Src, C, MemModel::TSO, Seed);
    ASSERT_EQ(A.Hist.Ops.size(), B.Hist.Ops.size());
    for (size_t I = 0; I != A.Hist.Ops.size(); ++I) {
      EXPECT_EQ(A.Hist.Ops[I].Ret, B.Hist.Ops[I].Ret);
      EXPECT_EQ(A.Hist.Ops[I].InvokeSeq, B.Hist.Ops[I].InvokeSeq);
    }
    EXPECT_EQ(A.Steps, B.Steps);
  }
}

TEST(InterpTest, LocksProvideMutualExclusion) {
  const char *Src = R"(
global int L = 0;
global int G = 0;
int bump() {
  lock(&L);
  int v = G;
  G = v + 1;
  unlock(&L);
  return 0;
}
)";
  Client C;
  for (int T = 0; T < 3; ++T) {
    ThreadScript S;
    MethodCall MC;
    MC.Func = "bump";
    S.Calls = {MC, MC};
    C.Threads.push_back(S);
  }
  const char *Check = R"(
global int L = 0;
global int G = 0;
int get() { return G; }
)";
  (void)Check;
  for (uint64_t Seed = 1; Seed <= 30; ++Seed) {
    auto M = frontend::compileOrDie(Src);
    ExecConfig Cfg;
    Cfg.Model = MemModel::PSO;
    Cfg.Seed = Seed;
    Cfg.FlushProb = 0.3;
    ExecResult R = runExecution(M, C, Cfg);
    ASSERT_EQ(R.Out, Outcome::Completed) << R.Message;
    // Read back the final value of G via a sequential run is not possible
    // on the same memory; instead rely on the op count: every bump must
    // have completed, and mutual exclusion means no lost updates, which
    // we verify through a final observer thread in LitmusTest.
    EXPECT_EQ(R.Hist.Ops.size(), 6u);
  }
}

TEST(InterpTest, StepLimitReported) {
  ExecResult R = runClient("int f() { while (1) { } return 0; }",
                           oneShot("f"));
  EXPECT_EQ(R.Out, Outcome::StepLimit);
}

TEST(InterpTest, RunSequentialHelper) {
  auto M = frontend::compileOrDie("int dbl(int x) { return x * 2; }");
  EXPECT_EQ(runSequential(M, "dbl", {21}), 42u);
}

//===----------------------------------------------------------------------===//
// Edge cases: deadlocks, limits, spawn trees
//===----------------------------------------------------------------------===//

TEST(InterpTest, JoinSelfIsDeadlock) {
  ExecResult R = runClient(
      "int f() { join(self()); return 0; }", oneShot("f"));
  EXPECT_TRUE(R.Out == Outcome::Deadlock || R.Out == Outcome::StepLimit)
      << outcomeName(R.Out);
}

TEST(InterpTest, JoinInvalidThreadIsViolation) {
  ExecResult R =
      runClient("int f() { join(99); return 0; }", oneShot("f"));
  EXPECT_EQ(R.Out, Outcome::AssertFail);
}

TEST(InterpTest, ClassicLockOrderDeadlockDetected) {
  const char *Src = R"(
global int L1 = 0;
global int L2 = 0;
int ab() {
  lock(&L1);
  lock(&L2);
  unlock(&L2);
  unlock(&L1);
  return 0;
}
int ba() {
  lock(&L2);
  lock(&L1);
  unlock(&L1);
  unlock(&L2);
  return 0;
}
)";
  auto M = frontend::compileOrDie(Src);
  Client C;
  ThreadScript S1, S2;
  MethodCall M1;
  M1.Func = "ab";
  MethodCall M2;
  M2.Func = "ba";
  S1.Calls = {M1};
  S2.Calls = {M2};
  C.Threads = {S1, S2};
  int Deadlocks = 0;
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    ExecConfig Cfg;
    Cfg.Model = MemModel::SC;
    Cfg.Seed = Seed;
    Cfg.MaxSteps = 1u << 18;
    ExecResult R = runExecution(M, C, Cfg);
    EXPECT_TRUE(R.Out == Outcome::Completed ||
                R.Out == Outcome::Deadlock ||
                R.Out == Outcome::StepLimit)
        << outcomeName(R.Out);
    if (R.Out != Outcome::Completed)
      ++Deadlocks;
  }
  EXPECT_GT(Deadlocks, 0) << "lock-order inversion must deadlock "
                             "under some schedule";
}

TEST(InterpTest, UnreasonableAllocationRejected) {
  ExecResult R = runClient(
      "int f() { int p = malloc(99999999); return p; }", oneShot("f"));
  EXPECT_EQ(R.Out, Outcome::MemSafety);
}

TEST(InterpTest, SpawnedThreadsCanSpawn) {
  const char *Src = R"(
global int G = 0;
int leaf(int v) {
  G = G + v;
  return 0;
}
int mid(int v) {
  int t = spawn(leaf, v);
  join(t);
  return 0;
}
int root() {
  int a = spawn(mid, 1);
  int b = spawn(mid, 2);
  join(a);
  join(b);
  return G;
}
)";
  for (uint64_t Seed = 1; Seed <= 30; ++Seed) {
    ExecResult R = runClient(Src, oneShot("root"), MemModel::PSO, Seed);
    ASSERT_EQ(R.Out, Outcome::Completed) << R.Message;
    // leaf updates race (no lock), so G is 1, 2 or 3; join semantics
    // guarantee visibility, and the root sees the final value.
    EXPECT_GE(R.Hist.Ops[0].Ret, 1u);
    EXPECT_LE(R.Hist.Ops[0].Ret, 3u);
  }
}

TEST(InterpTest, TraceRecordingMatchesStepCount) {
  const char *Src = "global int X = 0; int f() { X = 1; return X; }";
  Client C = oneShot("f");
  ExecConfig Cfg;
  Cfg.Model = MemModel::PSO;
  Cfg.Seed = 5;
  Cfg.RecordTrace = true;
  auto M = frontend::compileOrDie(Src);
  ExecResult R = runExecution(M, C, Cfg);
  EXPECT_EQ(R.Out, Outcome::Completed);
  EXPECT_EQ(R.Trace.size(), R.Steps);
}

TEST(InterpTest, FenceKindsAllDrain) {
  for (const char *Fence : {"fence()", "fence_ss()", "fence_sl()"}) {
    std::string Src = std::string(R"(
global int X = 0;
int f() {
  X = 42;
)") + "  " + Fence + ";\n  return 0;\n}\n";
    // After the fence the buffered store must be in memory: a second
    // sequential call reads it back.
    std::string Src2 = Src + "int g() { return X; }\n";
    auto M = frontend::compileOrDie(Src2);
    Client C;
    ThreadScript S;
    MethodCall F;
    F.Func = "f";
    MethodCall G;
    G.Func = "g";
    S.Calls = {F, G};
    C.Threads = {S};
    ExecConfig Cfg;
    Cfg.Model = MemModel::PSO;
    Cfg.Seed = 7;
    Cfg.FlushProb = 0.0; // Only fences may drain.
    ExecResult R = runExecution(M, C, Cfg);
    ASSERT_EQ(R.Out, Outcome::Completed) << R.Message;
    EXPECT_EQ(R.Hist.Ops[1].Ret, 42u) << Fence;
  }
}
