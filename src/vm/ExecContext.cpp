//===- ExecContext.cpp - Long-lived, reusable execution engine ------------===//
//
// The per-run driver ported from the old one-shot Engine (Interp.cpp),
// restructured so every piece of state is reset in place: frames live in a
// flat stack indexing a shared per-thread register arena, threads are
// pooled and revived, repairs collect into a flat vector deduped once at
// the end, and the scheduler views persist across steps: each iteration
// re-reads only the view of the thread that acted, and all of them only
// after an action that reached another thread. Under the engine's own
// scheduler a step is followed by a local run: the interpreter keeps
// dispatching the thread's thread-local instructions, the steps the
// partial-order reduction would grant it next, with no view refresh or
// pick between them (up to the grant, MaxSteps and the next deadline
// tick). The semantics — including RNG stream consumption, action
// validation and every diagnostic — are byte-for-byte those of the old
// engine, which is what keeps recorded replay traces reproducing.
//
// The interpreter loops are written once as templates over the memory
// model and instantiated once per model (SC, TSO, PSO). The model is a
// template argument, so bufOf<Model> resolves every store-buffer call to one
// concrete buffer class (ScBuffer/TsoBuffer/PsoBuffer — fully inlined,
// zero model branches) and every model comparison constant-folds; opcode
// dispatch goes through a computed-goto jump table indexed by the
// prepared program's pre-translated OpIdx stream (a plain switch on
// compilers without the extension). The init thread always runs under SC
// regardless of Cfg.Model, so it steps through the SC instantiation.
// SchedulePinTest pins every instantiation's schedules, step counts,
// repairs and histories across commits.
//
//===----------------------------------------------------------------------===//

#include "vm/ExecContext.h"

#include "obs/Profiler.h"
#include "support/Diagnostics.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>
#include <thread>

using namespace dfence;
using namespace dfence::vm;
using namespace dfence::ir;

// Threaded dispatch needs GNU labels-as-values; the switch fallback below
// is semantically identical (same OpIdx stream, same jump-table order).
#if defined(__GNUC__) || defined(__clang__)
#define DFENCE_COMPUTED_GOTO 1
#else
#define DFENCE_COMPUTED_GOTO 0
#endif

namespace {

/// Per-opcode "next step is a scheduling point" table, indexed by the
/// prepared OpIdx stream: Instr::isSharedAccess() plus the opcodes the
/// main loop treats as visible (fences, call/ret boundaries, thread
/// operations, allocation). Precomputed so the scheduler-view refresh
/// never loads the fat Instr record.
constexpr bool SharedStep[] = {
    /*Const=*/false,      /*Move=*/false,  /*BinOp=*/false,
    /*Not=*/false,        /*Load=*/true,   /*Store=*/true,
    /*Cas=*/true,         /*Fence=*/true,  /*GlobalAddr=*/false,
    /*Alloc=*/true,       /*Free=*/true,   /*Br=*/false,
    /*CondBr=*/false,     /*Call=*/true,   /*Ret=*/true,
    /*Self=*/false,       /*Spawn=*/true,  /*Join=*/true,
    /*Lock=*/true,        /*Unlock=*/true, /*Assert=*/false,
    /*Nop=*/false};
static_assert(sizeof(SharedStep) ==
                  static_cast<size_t>(Opcode::Nop) + 1,
              "shared-step table must cover every opcode");
static_assert(SharedStep[static_cast<size_t>(Opcode::Load)] &&
                  SharedStep[static_cast<size_t>(Opcode::Unlock)] &&
                  !SharedStep[static_cast<size_t>(Opcode::Self)] &&
                  !SharedStep[static_cast<size_t>(Opcode::CondBr)],
              "shared-step table out of sync with Opcode order");

} // namespace

/// A VM thread: client-script threads and Spawn-created threads alike.
/// Pooled by the context; reset() revives a retired object with all its
/// vector capacities intact.
struct ExecContext::Thread {
  /// One stack frame. Registers live in the thread's shared arena at
  /// [RegBase, RegBase + frameSize(F)) — a frame push/pop is an arena
  /// resize, not a vector allocation.
  struct Frame {
    FuncId F = 0;
    size_t Ip = 0;
    size_t RegBase = 0;
    Reg RetDst = 0;          ///< Caller register receiving the return value.
    bool IsTopLevel = false; ///< Frame of a recorded client method call.
    size_t OpIndex = 0;      ///< History slot when IsTopLevel.
  };

  uint32_t Tid = 0;
  std::vector<Frame> Frames;
  std::vector<Word> RegArena;
  /// The write buffers; the model's instantiation touches only its own
  /// (SC's is stateless).
  ScBuffer Sc;
  TsoBuffer Tso;
  PsoBuffer Pso;
  const ThreadScript *Script = nullptr;   ///< Null for spawned threads.
  const PreparedThread *Prep = nullptr;   ///< Resolved callees of Script.
  size_t ScriptPos = 0;
  std::vector<Word> CallResults; ///< Return values of completed calls.
  bool DoneFlag = false;

  void reset(uint32_t T, const ThreadScript *S, const PreparedThread *P) {
    Tid = T;
    Frames.clear();
    RegArena.clear();
    Tso.reset();
    Pso.reset();
    Script = S;
    Prep = P;
    ScriptPos = 0;
    CallResults.clear();
    DoneFlag = false;
  }

  bool hasWork() const {
    if (!Frames.empty())
      return true;
    return Script && ScriptPos < Script->Calls.size();
  }

  /// Pushes a zeroed frame for \p F with \p NRegs registers; returns it.
  Frame &pushFrame(FuncId F, uint32_t NRegs) {
    Frame Fr;
    Fr.F = F;
    Fr.RegBase = RegArena.size();
    RegArena.resize(Fr.RegBase + NRegs, 0);
    Frames.push_back(Fr);
    return Frames.back();
  }

  void popFrame() {
    RegArena.resize(Frames.back().RegBase);
    Frames.pop_back();
  }

  Word reg(const Frame &F, Reg Rg) const {
    return RegArena[F.RegBase + Rg];
  }
  Word &reg(const Frame &F, Reg Rg) { return RegArena[F.RegBase + Rg]; }
};

template <MemModel Model> auto &ExecContext::bufOf(Thread &T) {
  if constexpr (Model == MemModel::SC)
    return T.Sc;
  else if constexpr (Model == MemModel::TSO)
    return T.Tso;
  else
    return T.Pso;
}

ExecContext::ExecContext() = default;
ExecContext::~ExecContext() = default;

void ExecContext::violate(Outcome O, std::string Msg) {
  if (Halted)
    return;
  Halted = true;
  Result->Out = O;
  Result->Message = std::move(Msg);
}

ExecContext::Thread &ExecContext::acquireThread(uint32_t Tid) {
  if (LiveThreads == Threads.size())
    Threads.push_back(std::make_unique<Thread>());
  Thread &T = *Threads[LiveThreads++];
  T.reset(Tid, nullptr, nullptr);
  return T;
}

void ExecContext::layoutGlobals() {
  const Module &M = P->module();
  GlobalAddrs.reserve(M.Globals.size());
  for (const GlobalVar &G : M.Globals) {
    Word Addr = Mem.allocateGlobal(G.SizeWords);
    for (size_t I = 0, E = G.Init.size(); I != E && I < G.SizeWords; ++I)
      Mem.write(Addr + I, G.Init[I]);
    GlobalAddrs.push_back(Addr);
  }
}

void ExecContext::runInit() {
  // The init function runs to completion, alone, with SC semantics: a
  // dedicated SC-buffered (i.e. unbuffered) thread stepping until done.
  if (!InitThread)
    InitThread = std::make_unique<Thread>();
  Thread &Init = *InitThread;
  Init.reset(~0u, nullptr, nullptr);
  Init.pushFrame(PC->Init, P->frameSize(PC->Init));
  size_t InitSteps = 0;
  while (!Init.Frames.empty() && !Halted) {
    if (++InitSteps > Cfg.MaxSteps) {
      violate(Outcome::StepLimit, "init function exceeded step limit");
      return;
    }
    if ((InitSteps & 1023) == 0 && deadlineExpired())
      return;
    stepThreadT<MemModel::SC>(Init);
  }
}

void ExecContext::createClientThreads() {
  const Client &C = *PC->C;
  // Every top-level call appends one OpRecord; the prepared client knows
  // the total up front, so the hot loop never reallocates the history.
  Result->Hist.Ops.reserve(PC->TotalCalls);
  if (Cfg.RecordTrace)
    Result->Trace.reserve(std::min<size_t>(Cfg.MaxSteps, 1 << 14));
  for (size_t I = 0, E = C.Threads.size(); I != E; ++I) {
    Thread &T = acquireThread(static_cast<uint32_t>(I));
    T.Script = &C.Threads[I];
    T.Prep = &PC->Threads[I];
  }
}

void ExecContext::startNextCall(Thread &T) {
  assert(T.Script && T.ScriptPos < T.Script->Calls.size());
  const MethodCall &MC = T.Script->Calls[T.ScriptPos];
  FuncId F = T.Prep->Calls[T.ScriptPos];
  ++T.ScriptPos;

  // Arity and back-references were validated at prepare time.
  ArgScratch.clear();
  for (const Arg &A : MC.Args) {
    if (A.Ref < 0) {
      ArgScratch.push_back(A.Literal);
    } else {
      assert(static_cast<size_t>(A.Ref) < T.CallResults.size());
      ArgScratch.push_back(T.CallResults[A.Ref]);
    }
  }

  OpRecord Op;
  Op.Func = MC.Func;
  Op.Args = ArgScratch;
  Op.Thread = T.Tid;
  Op.InvokeSeq = ++Seq;
  size_t OpIndex = Result->Hist.Ops.size();
  Result->Hist.Ops.push_back(std::move(Op));
  Result->Hist.Hash += hashInvokeEvent(OpIndex, Result->Hist.Ops[OpIndex]);

  Thread::Frame &Fr = T.pushFrame(F, P->frameSize(F));
  for (size_t I = 0; I != ArgScratch.size(); ++I)
    T.reg(Fr, static_cast<Reg>(I)) = ArgScratch[I];
  Fr.IsTopLevel = true;
  Fr.OpIndex = OpIndex;
  if (T.RegArena.size() > CStats.RegArenaHighWater)
    CStats.RegArenaHighWater = T.RegArena.size();
}

bool ExecContext::checkAddr(Word Addr, const char *What, InstrId Label) {
  if (Mem.isValid(Addr))
    return true;
  const char *Why = Addr == 0            ? "null dereference"
                    : Mem.isFreed(Addr)  ? "use after free"
                                         : "out-of-bounds access";
  violate(Outcome::MemSafety,
          strformat("%s at address %llu (%%%u): %s", What,
                    static_cast<unsigned long long>(Addr), Label, Why));
  return false;
}

template <MemModel Model>
void ExecContext::collectRepairsT(Thread &T, InstrId K, Word Addr,
                                  bool IsLoad) {
  if (!Cfg.CollectRepairs || Model == MemModel::SC)
    return;
  // Under TSO only store→load reordering is possible, so only later loads
  // yield ordering predicates; PSO additionally relaxes store→store.
  if (Model == MemModel::TSO && !IsLoad)
    return;
  LabelScratch.clear();
  bufOf<Model>(T).pendingLabelsExcept(Addr, LabelScratch);
  for (InstrId L : LabelScratch)
    Repairs.push_back(OrderingPredicate{L, K, IsLoad});
}

bool ExecContext::deadlineExpired() {
  if (Cfg.WallClockMs == 0 || Halted)
    return false;
  if (std::chrono::steady_clock::now() < Deadline)
    return false;
  violate(Outcome::Timeout,
          strformat("execution exceeded wall-clock budget of %u ms",
                    Cfg.WallClockMs));
  return true;
}

bool ExecContext::allocFaultFires() {
  const FaultPlan *FP = Cfg.Faults;
  if (!FP)
    return false;
  ++AllocAttempts;
  if (FP->AllocFailAfter > 0 && AllocAttempts > FP->AllocFailAfter)
    return true;
  return FP->AllocFailProb > 0.0 && FaultR.nextBool(FP->AllocFailProb);
}

template <MemModel Model> bool ExecContext::maybeFlushStormT() {
  const FaultPlan *FP = Cfg.Faults;
  if (!FP || FP->FlushStormProb <= 0.0 ||
      !FaultR.nextBool(FP->FlushStormProb))
    return false;
  std::vector<uint32_t> Buffered;
  for (const sched::ThreadView &V : Views)
    if (V.PendingStores > 0)
      Buffered.push_back(V.Tid);
  if (Buffered.empty())
    return false;
  uint32_t Tid = Buffered[FaultR.nextBelow(Buffered.size())];
  Thread &T = *Threads[Tid];
  // Drain the whole buffer; each flush is a recorded action so a replay
  // of the trace reproduces the storm without needing the fault plan.
  while (!bufOf<Model>(T).empty() && !Halted && Steps < Cfg.MaxSteps) {
    if (Cfg.RecordTrace)
      Result->Trace.push_back(sched::Action::flush(Tid));
    flushOneT<Model>(T, false, 0);
    ++Steps;
  }
  NoProgress = 0;
  ViewsStale = true; // Tid's buffer drained without Tid acting.
  return true;
}

sched::Action ExecContext::applyForcedSwitch(sched::Action A) {
  const FaultPlan *FP = Cfg.Faults;
  if (FP && !FP->SwitchBeforeLabels.empty() &&
      A.Kind == sched::Action::StepThread && A.Tid < LiveThreads) {
    Thread &T = *Threads[A.Tid];
    DeferredAt.resize(LiveThreads, InvalidInstrId);
    if (!T.Frames.empty()) {
      const Thread::Frame &F = T.Frames.back();
      InstrId Next = P->module().Funcs[F.F].Body[F.Ip].Id;
      bool Marked = std::find(FP->SwitchBeforeLabels.begin(),
                              FP->SwitchBeforeLabels.end(),
                              Next) != FP->SwitchBeforeLabels.end();
      if (Marked && DeferredAt[A.Tid] != Next) {
        std::vector<uint32_t> Other;
        for (const sched::ThreadView &V : Views)
          if (V.Tid != A.Tid && (V.Runnable || V.PendingStores > 0))
            Other.push_back(V.Tid);
        if (!Other.empty()) {
          DeferredAt[A.Tid] = Next; // Defer this arrival exactly once.
          uint32_t Alt = Other[FaultR.nextBelow(Other.size())];
          return Views[Alt].Runnable ? sched::Action::step(Alt)
                                     : sched::Action::flush(Alt);
        }
      }
    }
  }
  // The chosen thread really runs: clear its deferral marker so its next
  // arrival at a marked label is deferred again.
  if (A.Kind == sched::Action::StepThread && A.Tid < DeferredAt.size())
    DeferredAt[A.Tid] = InvalidInstrId;
  return A;
}

template <MemModel Model>
void ExecContext::flushOneT(Thread &T, bool HasVar, Word Var) {
  auto &B = bufOf<Model>(T);
  assert(!B.empty() && "flush of empty buffer");
  BufferEntry E = (HasVar && Model == MemModel::PSO)
                      ? B.popOldestFor(Var)
                      : B.popOldest();
  // The FLUSH rule is where delayed stores become visible; the paper
  // checks safety of the target here (a store to memory freed in the
  // meantime is a violation).
  ++Result->Stats.Flushes;
  if (!checkAddr(E.Addr, "flush of buffered store", E.Label))
    return;
  Mem.write(E.Addr, E.Val);
}

template <MemModel Model>
void ExecContext::drainForAtomicT(Thread &T, Word Addr) {
  auto &B = bufOf<Model>(T);
  if (Model == MemModel::PSO && !B.emptyFor(Addr)) {
    BufferEntry E = B.popOldestFor(Addr);
    ++Result->Stats.Flushes;
    if (!checkAddr(E.Addr, "flush of buffered store", E.Label))
      return;
    Mem.write(E.Addr, E.Val);
    return;
  }
  flushOneT<Model>(T, false, 0);
}

template <MemModel Model>
bool ExecContext::stepThreadT(Thread &T, uint32_t Grant) {
  if (T.Frames.empty()) {
    if (T.Script && T.ScriptPos < T.Script->Calls.size()) {
      startNextCall(T);
      return true;
    }
    T.DoneFlag = true;
    return false;
  }

  // A local run never changes the frame: Call, Ret and every other
  // frame-changing opcode is a scheduling point, so F, Fn and PF hold.
  Thread::Frame &F = T.Frames.back();
  const Module &M = P->module();
  const Function &Fn = M.Funcs[F.F];
  const PreparedFunc &PF = P->func(F.F);
  auto &B = bufOf<Model>(T);
  obs::ProfilerShard *PS = PShard;

  // Dispatch off the prepared OpIdx stream (one dense byte per Body
  // position) instead of the fat Instr record. The jump-table order must
  // match ir::Opcode exactly; each case ends in `goto Advance` (the
  // shared ++Ip), `goto Continue` with the Ip it set, or returns.
  // DF_CASE expands to a label or a case depending on the dispatch
  // flavor.
#if DFENCE_COMPUTED_GOTO
  static const void *const Table[] = {
      &&Op_Const, &&Op_Move,  &&Op_BinOp,  &&Op_Not,   &&Op_Load,
      &&Op_Store, &&Op_Cas,   &&Op_Fence,  &&Op_GlobalAddr, &&Op_Alloc,
      &&Op_Free,  &&Op_Br,    &&Op_CondBr, &&Op_Call,  &&Op_Ret,
      &&Op_Self,  &&Op_Spawn, &&Op_Join,   &&Op_Lock,  &&Op_Unlock,
      &&Op_Assert, &&Op_Nop};
  static_assert(sizeof(Table) / sizeof(Table[0]) ==
                    static_cast<size_t>(Opcode::Nop) + 1,
                "jump table must cover every opcode");
#endif

Dispatch:
  assert(F.Ip < Fn.Body.size() && "instruction pointer out of range");
  const Instr &I = Fn.Body[F.Ip];
  // Flight recorder: per-opcode step counts come straight off the
  // prepared dispatch stream — one array increment. Null shard = no work
  // at all.
  if (PS)
    ++PS->OpSteps[PF.OpIdx[F.Ip]];
#if DFENCE_COMPUTED_GOTO
  goto *Table[PF.OpIdx[F.Ip]];
#define DF_CASE(Name) Op_##Name:
#else
  switch (static_cast<Opcode>(PF.OpIdx[F.Ip])) {
#define DF_CASE(Name) case Opcode::Name:
#endif

  DF_CASE(Const) {
    T.reg(F, I.Dst) = I.Imm;
    goto Advance;
  }
  DF_CASE(Move) {
    T.reg(F, I.Dst) = T.reg(F, I.Ops[0]);
    goto Advance;
  }
  DF_CASE(BinOp) {
    T.reg(F, I.Dst) =
        evalBinOp(I.BK, T.reg(F, I.Ops[0]), T.reg(F, I.Ops[1]));
    goto Advance;
  }
  DF_CASE(Not) {
    T.reg(F, I.Dst) = T.reg(F, I.Ops[0]) == 0;
    goto Advance;
  }
  DF_CASE(GlobalAddr) {
    assert(I.GV < GlobalAddrs.size());
    T.reg(F, I.Dst) = GlobalAddrs[I.GV];
    goto Advance;
  }
  DF_CASE(Self) {
    T.reg(F, I.Dst) = T.Tid;
    goto Advance;
  }
  DF_CASE(Nop) { goto Advance; }

  DF_CASE(Load) {
    Word Addr = T.reg(F, I.Ops[0]);
    collectRepairsT<Model>(T, I.Id, Addr, /*IsLoad=*/true);
    if (!checkAddr(Addr, "load", I.Id))
      return true;
    Word V;
    if (B.forward(Addr, V)) { // LOAD-B else LOAD-G
      ++Result->Stats.StoreForwards;
    } else {
      V = Mem.read(Addr);
    }
    T.reg(F, I.Dst) = V;
    goto Advance;
  }

  DF_CASE(Store) {
    Word Addr = T.reg(F, I.Ops[0]);
    Word Val = T.reg(F, I.Ops[1]);
    collectRepairsT<Model>(T, I.Id, Addr, /*IsLoad=*/false);
    // Buffering keys off the instantiation's model, not Cfg.Model: the
    // init thread always steps through the SC instantiation.
    if constexpr (Model == MemModel::SC) {
      if (!checkAddr(Addr, "store", I.Id))
        return true;
      Mem.write(Addr, Val);
    } else {
      // Bounded-buffer fault: at capacity, the oldest entry commits
      // before the new store can be buffered (as real hardware would).
      if (Cfg.Faults && Cfg.Faults->BufferCapacity > 0) {
        while (B.size() >= Cfg.Faults->BufferCapacity && !Halted)
          flushOneT<Model>(T, false, 0);
        if (Halted)
          return true;
      }
      // STORE rule: append to the buffer; safety is checked at flush.
      B.push(Addr, Val, I.Id);
      ++Result->Stats.BufferedStores;
      if (B.size() > Result->Stats.BufHighWater)
        Result->Stats.BufHighWater = static_cast<uint32_t>(B.size());
    }
    goto Advance;
  }

  DF_CASE(Cas) {
    Word Addr = T.reg(F, I.Ops[0]);
    // CAS premise: the buffer of the accessed variable must be empty
    // (TSO: the whole per-thread buffer). Make progress by draining.
    if (!B.emptyFor(Addr)) {
      drainForAtomicT<Model>(T, Addr);
      return true;
    }
    collectRepairsT<Model>(T, I.Id, Addr, /*IsLoad=*/false);
    if (!checkAddr(Addr, "cas", I.Id))
      return true;
    Word Expected = T.reg(F, I.Ops[1]);
    Word Desired = T.reg(F, I.Ops[2]);
    if (Mem.read(Addr) == Expected) {
      Mem.write(Addr, Desired);
      T.reg(F, I.Dst) = 1;
    } else {
      T.reg(F, I.Dst) = 0;
    }
    goto Advance;
  }

  DF_CASE(Fence) {
    // FENCE rule: blocks until all of the thread's buffers are empty.
    if (!B.empty()) {
      flushOneT<Model>(T, false, 0);
      return true;
    }
    goto Advance;
  }

  DF_CASE(Lock) {
    // Lock acquire is a CAS loop surrounded by full fences (paper §5.2).
    if (!B.empty()) {
      flushOneT<Model>(T, false, 0);
      return true;
    }
    Word Addr = T.reg(F, I.Ops[0]);
    if (!checkAddr(Addr, "lock", I.Id))
      return true;
    if (Mem.read(Addr) != 0)
      return false; // Spin; no progress this step.
    Mem.write(Addr, 1);
    goto Advance;
  }

  DF_CASE(Unlock) {
    if (!B.empty()) {
      flushOneT<Model>(T, false, 0);
      return true;
    }
    Word Addr = T.reg(F, I.Ops[0]);
    if (!checkAddr(Addr, "unlock", I.Id))
      return true;
    Mem.write(Addr, 0);
    goto Advance;
  }

  DF_CASE(Alloc) {
    Word Size = T.reg(F, I.Ops[0]);
    if (Size > (1u << 24)) {
      violate(Outcome::MemSafety,
              strformat("unreasonable allocation of %llu words (%%%u)",
                        static_cast<unsigned long long>(Size), I.Id));
      return true;
    }
    // Simulated OOM: the allocation yields null and the memory-safety
    // checker flags whichever access dereferences it.
    T.reg(F, I.Dst) = allocFaultFires() ? 0 : Mem.allocate(Size);
    goto Advance;
  }

  DF_CASE(Free) {
    Word Addr = T.reg(F, I.Ops[0]);
    // Note: free does NOT flush write buffers (paper §5.2); pending
    // stores into the freed block will fault when they flush.
    if (!Mem.freeBlock(Addr)) {
      violate(Outcome::MemSafety,
              strformat("invalid free of address %llu (%%%u)",
                        static_cast<unsigned long long>(Addr), I.Id));
      return true;
    }
    goto Advance;
  }

  DF_CASE(Br) {
    F.Ip = PF.Jump0[F.Ip];
    goto Continue;
  }
  DF_CASE(CondBr) {
    F.Ip = T.reg(F, I.Ops[0]) != 0 ? PF.Jump0[F.Ip] : PF.Jump1[F.Ip];
    goto Continue;
  }

  DF_CASE(Call) {
    ArgScratch.clear();
    for (size_t A = 0; A != I.Ops.size(); ++A)
      ArgScratch.push_back(T.reg(F, I.Ops[A]));
    Reg Dst = I.Dst;
    FuncId Callee = I.Callee;
    ++F.Ip; // Return continues after the call.
    // pushFrame grows the arena and the frame stack; F is dead past here.
    Thread::Frame &NewF = T.pushFrame(Callee, P->frameSize(Callee));
    for (size_t A = 0; A != ArgScratch.size(); ++A)
      T.reg(NewF, static_cast<Reg>(A)) = ArgScratch[A];
    NewF.RetDst = Dst;
    if (T.RegArena.size() > CStats.RegArenaHighWater)
      CStats.RegArenaHighWater = T.RegArena.size();
    return true;
  }

  DF_CASE(Ret) {
    Word RetVal = I.Ops.empty() ? 0 : T.reg(F, I.Ops[0]);
    bool WasTopLevel = F.IsTopLevel;
    // Inter-operation predicates: a store still buffered when its method
    // returns can take effect after the operation's response — the
    // linearizability violations of the paper's Fig. 2c. Record
    // [pending-store ≺ return] so enforcement can place a fence at the
    // end of the method (the paper's "(m, line:-)" inter-op fences).
    if (WasTopLevel && Cfg.CollectRepairs && Cfg.InterOpPredicates &&
        !B.empty() && Model != MemModel::SC) {
      LabelScratch.clear();
      B.pendingLabelsExcept(static_cast<Word>(-1), LabelScratch);
      for (InstrId L : LabelScratch)
        Repairs.push_back(
            OrderingPredicate{L, I.Id, /*AfterIsLoad=*/false});
    }
    size_t OpIndex = F.OpIndex;
    Reg RetDst = F.RetDst;
    T.popFrame();
    if (!T.Frames.empty()) {
      T.reg(T.Frames.back(), RetDst) = RetVal;
    } else if (WasTopLevel) {
      OpRecord &Op = Result->Hist.Ops[OpIndex];
      Op.Ret = RetVal;
      Op.RespondSeq = ++Seq;
      Op.Completed = true;
      Result->Hist.Hash += hashResponseEvent(OpIndex, RetVal, Op.RespondSeq);
      T.CallResults.push_back(RetVal);
    }
    return true;
  }

  DF_CASE(Spawn) {
    if (T.Tid == ~0u)
      reportFatalError("spawn is not allowed in client init functions");
    ArgScratch.clear();
    for (size_t A = 0; A != I.Ops.size(); ++A)
      ArgScratch.push_back(T.reg(F, I.Ops[A]));
    uint32_t NewTid = static_cast<uint32_t>(LiveThreads);
    Thread &NewT = acquireThread(NewTid);
    Thread::Frame &NewF =
        NewT.pushFrame(I.Callee, P->frameSize(I.Callee));
    for (size_t A = 0; A != ArgScratch.size(); ++A)
      NewT.reg(NewF, static_cast<Reg>(A)) = ArgScratch[A];
    if (NewT.RegArena.size() > CStats.RegArenaHighWater)
      CStats.RegArenaHighWater = NewT.RegArena.size();
    T.reg(F, I.Dst) = NewTid;
    ViewsStale = true; // A new thread needs a view.
    goto Advance;
  }

  DF_CASE(Join) {
    Word Target = T.reg(F, I.Ops[0]);
    if (Target >= LiveThreads) {
      violate(Outcome::AssertFail,
              strformat("join of invalid thread %llu (%%%u)",
                        static_cast<unsigned long long>(Target), I.Id));
      return true;
    }
    Thread &U = *Threads[Target];
    // JOIN rule: target finished and its buffers drained. The target is
    // a client thread, so it steps under the same model as T.
    if (U.hasWork())
      return false;
    if (!bufOf<Model>(U).empty()) {
      flushOneT<Model>(U, false, 0);
      ViewsStale = true; // U's buffer shrank, not only T's state.
      return true;
    }
    goto Advance;
  }

  DF_CASE(Assert) {
    if (T.reg(F, I.Ops[0]) == 0) {
      violate(Outcome::AssertFail,
              strformat("assertion failed (%%%u, line %u)", I.Id,
                        I.SrcLine));
      return true;
    }
    goto Advance;
  }

#if !DFENCE_COMPUTED_GOTO
  }
#endif
#undef DF_CASE

Advance:
  ++F.Ip;
Continue:
  // Local run: while the grant lasts and the next instruction is
  // thread-local, take it now — the step pick() would grant next. Each
  // counts in Steps here; mainLoopT books the rest of its per-step
  // accounting (trace, SchedSteps, the scheduler's streak) from that.
  if (Grant == 0 || SharedStep[PF.OpIdx[F.Ip]])
    return true;
  assert(!Halted && "a halting step returns before its continuation");
  --Grant;
  ++Steps;
  goto Dispatch;
}

template <MemModel Model> bool ExecContext::refreshViewT(size_t TI) {
  Thread &T = *Threads[TI];
  auto &B = bufOf<Model>(T);
  sched::ThreadView &V = Views[TI];
  V.Tid = T.Tid;
  V.Runnable = T.hasWork();
  V.PendingStores = B.size();
  V.NextIsShared = false;
  if (!V.Runnable && V.PendingStores == 0) {
    V.BufferedVars.clear();
    return false;
  }
  B.nonEmptyVars(V.BufferedVars);
  if (V.Runnable) {
    if (T.Frames.empty()) {
      V.NextIsShared = true; // Next step records an invoke.
    } else {
      const Thread::Frame &F = T.Frames.back();
      V.NextIsShared = SharedStep[P->func(F.F).OpIdx[F.Ip]];
    }
  }
  return true;
}

template <MemModel Model> void ExecContext::mainLoopT() {
  // Flight-recorder phase attribution. A null shard (the default) costs
  // exactly these pointer tests per iteration — zero clock reads; an
  // attached shard brackets the three sections of an iteration (view
  // refresh, scheduler pick, step-or-flush) with steady-clock reads.
  using ProfClock = std::chrono::steady_clock;
  obs::ProfilerShard *PS = PShard;
  ProfClock::time_point PT0{}, PT1{}, PT2{};
  // The internal scheduler is called directly (RandomFlushScheduler is
  // final), an external one through the interface.
  const bool OwnSched = Sched == &OwnedSched;
  // Local runs take the steps the internal scheduler grants without a
  // pick() each; only where nothing else draws between two picks — a
  // flush storm or a forced switch would, so those plans step singly.
  const FaultPlan *FP = Cfg.Faults;
  const bool LocalRuns =
      OwnSched && !(FP && (FP->FlushStormProb > 0.0 ||
                           !FP->SwitchBeforeLabels.empty()));
  // Views may still describe the previous run's threads.
  ViewsStale = true;
  uint32_t Acted = 0;
  size_t Schedulable = 0; // Views that are runnable or hold stores.
  while (!Halted) {
    if (Steps >= Cfg.MaxSteps) {
      violate(Outcome::StepLimit, "execution exceeded step limit");
      return;
    }
    if ((Steps & 1023) == 0 && deadlineExpired())
      return;
    if (PS)
      PT0 = ProfClock::now();

    // Views[Tid] describes thread Tid and stays valid across iterations:
    // an action changes only the state of the thread that took it, so
    // only that view is re-read — unless the action reached another
    // thread (Spawn, a Join drain, a flush storm) and marked them stale.
    if (ViewsStale) {
      Views.resize(LiveThreads);
      Schedulable = 0;
      for (size_t TI = 0; TI != LiveThreads; ++TI)
        Schedulable += refreshViewT<Model>(TI);
      ViewsStale = false;
    } else {
      const sched::ThreadView &V = Views[Acted];
      Schedulable -= V.Runnable || V.PendingStores > 0;
      Schedulable += refreshViewT<Model>(Acted);
    }
    if (PS) {
      PT1 = ProfClock::now();
      PS->addNs(obs::Phase::ViewRefresh,
                obs::ProfilerShard::elapsedNs(PT0, PT1));
    }
    if (Schedulable == 0)
      return; // Completed.

    if (maybeFlushStormT<Model>()) {
      if (PS)
        PS->addNs(obs::Phase::BufferFlush,
                  obs::ProfilerShard::elapsedNs(PT1, ProfClock::now()));
      continue;
    }

    sched::Action A =
        OwnSched ? OwnedSched.pick(Views, R) : Sched->pick(Views, R);
    if (Cfg.Faults)
      A = applyForcedSwitch(A);
    if (Cfg.RecordTrace)
      Result->Trace.push_back(A);
    if (PS) {
      PT2 = ProfClock::now();
      PS->addNs(obs::Phase::SchedPick,
                obs::ProfilerShard::elapsedNs(PT1, PT2));
    }
    // Validate the action for real (not assert-only): a stale or corrupt
    // replay trace must end the execution, not corrupt the engine.
    if (A.Tid >= LiveThreads) {
      violate(Outcome::Deadlock,
              strformat("scheduler picked invalid thread %u (stale "
                        "replay trace?)",
                        A.Tid));
      return;
    }
    Thread &T = *Threads[A.Tid];
    Acted = A.Tid;

    bool Progress;
    if (A.Kind == sched::Action::Flush) {
      auto &B = bufOf<Model>(T);
      if (B.empty()) {
        violate(Outcome::Deadlock,
                strformat("scheduler flushed empty buffer of thread %u "
                          "(stale replay trace?)",
                          A.Tid));
        return;
      }
      // A per-variable flush of a variable with nothing pending (possible
      // only with a foreign trace) degrades to a positional flush.
      if (A.HasVar && Model == MemModel::PSO &&
          B.emptyFor(A.Var))
        A.HasVar = false;
      flushOneT<Model>(T, A.HasVar, A.Var);
      ++Result->Stats.SchedFlushes;
      Progress = true;
      if (PS)
        PS->addNs(obs::Phase::BufferFlush,
                  obs::ProfilerShard::elapsedNs(PT2, ProfClock::now()));
    } else {
      // The run ends where this loop would next stop on its own: at the
      // step limit and at the 1024-step deadline tick.
      uint32_t Grant = 0;
      if (LocalRuns) {
        size_t Next = Steps + 1;
        Grant = static_cast<uint32_t>(
            std::min<size_t>({OwnedSched.localGrant(), Cfg.MaxSteps - Next,
                              1023 & (1024 - (Next & 1023))}));
      }
      size_t Before = Steps;
      Progress = stepThreadT<Model>(T, Grant);
      size_t Local = Steps - Before;
      if (Local) {
        OwnedSched.tookLocal(static_cast<uint32_t>(Local));
        if (Cfg.RecordTrace)
          Result->Trace.insert(Result->Trace.end(), Local, A);
      }
      Result->Stats.SchedSteps += 1 + Local;
      if (PS)
        PS->addNs(obs::Phase::OpDispatch,
                  obs::ProfilerShard::elapsedNs(PT2, ProfClock::now()));
    }
    ++Steps;

    if (Progress) {
      NoProgress = 0;
    } else if (++NoProgress > 100000) {
      violate(Outcome::Deadlock, "no thread can make progress");
      return;
    }
  }
}

template <MemModel Model> void ExecContext::finalDrainT() {
  using ProfClock = std::chrono::steady_clock;
  ProfClock::time_point PT0{};
  if (PShard)
    PT0 = ProfClock::now();
  for (size_t TI = 0; TI != LiveThreads; ++TI) {
    Thread &T = *Threads[TI];
    while (!bufOf<Model>(T).empty() && !Halted)
      flushOneT<Model>(T, false, 0);
  }
  if (PShard)
    PShard->addNs(obs::Phase::BufferFlush,
                  obs::ProfilerShard::elapsedNs(PT0, ProfClock::now()));
}

template <MemModel Model> void ExecContext::runLoops() {
  Sched->reset();
  layoutGlobals();
  if (PC->HasInit && !Halted)
    runInit();
  createClientThreads();
  if (!Halted)
    mainLoopT<Model>();
  if (!Halted)
    finalDrainT<Model>();
}

void ExecContext::run(const PreparedProgram &Prog, size_t ClientIdx,
                      const ExecConfig &RunCfg, ExecResult &Out) {
  assert(ClientIdx < Prog.numClients());
  P = &Prog;
  PC = &Prog.client(ClientIdx);
  Cfg = RunCfg;
  Result = &Out;

  // Reset the result in place (a reused ExecResult keeps its capacities).
  Out.Out = Outcome::Completed;
  Out.Hist.Ops.clear();
  Out.Hist.Hash = 0;
  Out.Stats = ExecStats{};
  Out.Repairs.clear();
  Out.Message.clear();
  Out.Steps = 0;
  Out.Trace.clear();

  ++CStats.Executions;
  if (CStats.Executions > 1)
    ++CStats.Reuses;

  // Reset the context: same capacities, fresh state.
  Mem.reset();
  GlobalAddrs.clear();
  LiveThreads = 0;
  Repairs.clear();
  DeferredAt.clear();
  Seq = 0;
  Steps = 0;
  NoProgress = 0;
  Halted = false;
  AllocAttempts = 0;
  R.reseed(Cfg.Seed);
  // Dedicated fault RNG stream: never consumed by scheduling, so
  // engine-level faults replay under a recorded trace.
  FaultR.reseed(Cfg.Seed ^ 0xfa017b0b5ULL);
  if (Cfg.WallClockMs > 0)
    Deadline = std::chrono::steady_clock::now() +
               std::chrono::milliseconds(Cfg.WallClockMs);
  if (Cfg.Faults && Cfg.Faults->StallMs > 0)
    std::this_thread::sleep_for(
        std::chrono::milliseconds(Cfg.Faults->StallMs));
  if (Cfg.Sched) {
    Sched = Cfg.Sched;
  } else {
    sched::RandomFlushConfig SC;
    SC.FlushProb = Cfg.FlushProb;
    SC.PartialOrderReduction = Cfg.PartialOrderReduction;
    OwnedSched.configure(SC);
    Sched = &OwnedSched;
  }

  // Bind the model's instantiation once per execution.
  switch (Cfg.Model) {
  case MemModel::SC:  runLoops<MemModel::SC>(); break;
  case MemModel::TSO: runLoops<MemModel::TSO>(); break;
  case MemModel::PSO: runLoops<MemModel::PSO>(); break;
  }
  Out.Steps = Steps;

  // Repairs were collected without dedup; sort-and-unique here produces
  // exactly the order the old std::set gave: sorted by (Before, After),
  // first-inserted kept among predicates equal under that key (stable
  // sort preserves insertion order; operator== ignores AfterIsLoad just
  // like operator<).
  std::stable_sort(Repairs.begin(), Repairs.end());
  Repairs.erase(std::unique(Repairs.begin(), Repairs.end()),
                Repairs.end());
  Out.Repairs.assign(Repairs.begin(), Repairs.end());

  if (LiveThreads > CStats.ThreadHighWater)
    CStats.ThreadHighWater = LiveThreads;
  P = nullptr;
  PC = nullptr;
  Result = nullptr;
  Sched = nullptr;
}
