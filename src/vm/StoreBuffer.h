//===- StoreBuffer.h - TSO/PSO store buffers (Semantics 1) ------*- C++ -*-===//
//
// Per-thread write buffers implementing the paper's operational semantics:
//
//   PSO: one FIFO of values per (thread, shared variable) pair.
//   TSO: one FIFO of (variable, value) pairs per thread.
//   SC:  no buffering (the buffer is always empty).
//
// Each buffered entry also carries the label of the store that produced it
// — the auxiliary map B-hat of the paper's instrumented semantics
// (Semantics 2) used to derive ordering predicates for repair.
//
// Each model is its own buffer class (ScBuffer / TsoBuffer / PsoBuffer)
// with a fully inline implementation and zero model branches. The
// interpreter (ExecContext) is instantiated once per model: each VM
// thread holds a TsoBuffer and a PsoBuffer directly, and the model's
// instantiation binds the matching one (SC binds the stateless
// ScBuffer), so every forward/push/emptyFor/popOldest call inlines
// against concrete flat-vector state. A new memory model is one new
// buffer class plus one instantiation.
//
//===----------------------------------------------------------------------===//

#ifndef DFENCE_VM_STOREBUFFER_H
#define DFENCE_VM_STOREBUFFER_H

#include "ir/Instr.h"
#include "support/Diagnostics.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

namespace dfence::vm {

using ir::InstrId;
using ir::Word;

/// The memory models of the paper.
enum class MemModel : uint8_t { SC, TSO, PSO };

const char *memModelName(MemModel M);

/// The default model everywhere a model is not given explicitly
/// (vm::ExecConfig, harness::ReproBundle). SC: the conservative choice —
/// an unconfigured run exercises the interleaving semantics only, never a
/// relaxation the caller did not ask for.
inline constexpr MemModel DefaultMemModel = MemModel::SC;

/// The paper's §6.5 flush-probability optima: ~0.1 under TSO (long
/// store-load delays surface the F1-class races), ~0.5 under PSO (mixing
/// reorder and delay). SC has no buffers, so the value is inert; 0.5
/// keeps it the scheduler's neutral default.
constexpr double defaultFlushProb(MemModel M) {
  return M == MemModel::TSO ? 0.1 : 0.5;
}

/// A pending buffered store.
struct BufferEntry {
  Word Addr = 0;
  Word Val = 0;
  InstrId Label = ir::InvalidInstrId; ///< Label of the originating store.
};

//===----------------------------------------------------------------------===//
// Buffer classes
//
// All three expose the same surface (reset/forward/push/empty/size/
// emptyFor/popOldest/popOldestFor/nonEmptyVars/pendingLabelsExcept) so
// the templated interpreter and the buffer-contract tests are written
// once against it. reset() revives a buffer for a new execution with all
// vector capacities — and address-slot layouts — retained: the bump
// allocator recycles the same addresses run after run, so a reused buffer
// reaches a steady state where push/pop never allocate.
//===----------------------------------------------------------------------===//

/// SC: no buffering. Every query is a constant the optimizer folds, which
/// is what deletes the buffer machinery from the specialized SC loop.
class ScBuffer {
public:
  static constexpr MemModel Model = MemModel::SC;

  void reset() {}
  bool forward(Word, Word &) const { return false; }
  void push(Word, Word, InstrId) {
    dfenceUnreachable("SC never buffers stores");
  }
  bool empty() const { return true; }
  size_t size() const { return 0; }
  bool emptyFor(Word) const { return true; }
  BufferEntry popOldest() { dfenceUnreachable("pop from SC buffer"); }
  BufferEntry popOldestFor(Word) {
    dfenceUnreachable("pop from SC buffer");
  }
  void nonEmptyVars(std::vector<Word> &Out) const { Out.clear(); }
  void pendingLabelsExcept(Word, std::vector<InstrId> &) const {}
};

/// TSO: one FIFO of (variable, value) pairs; [Head, Fifo.size()) are
/// pending. Store→load forwarding is answered from a sorted per-address
/// index carrying the newest pending value — the old implementation
/// walked the whole FIFO backwards per load, a cost that grew with buffer
/// occupancy and never shrank for addresses long since drained. The
/// newest value stays valid under pops because pops remove the *oldest*
/// entry: it is only replaced by a newer push or invalidated when the
/// address's pending count reaches zero.
class TsoBuffer {
public:
  static constexpr MemModel Model = MemModel::TSO;

  void reset() {
    Fifo.clear();
    Head = 0;
    // Index slots are retained (addresses recur across executions); only
    // the pending counts go back to zero.
    for (AddrSlot &S : Index)
      S.Pending = 0;
  }

  bool forward(Word Addr, Word &Out) const {
    const AddrSlot *S = findSlot(Addr);
    if (!S || S->Pending == 0)
      return false;
    Out = S->Newest;
    return true;
  }

  void push(Word Addr, Word Val, InstrId Label) {
    Fifo.push_back(BufferEntry{Addr, Val, Label});
    AddrSlot &S = findOrCreateSlot(Addr);
    S.Newest = Val;
    ++S.Pending;
  }

  bool empty() const { return Head == Fifo.size(); }
  size_t size() const { return Fifo.size() - Head; }

  /// TSO emptyFor is whole-buffer emptiness: the CAS/fence premise
  /// quantifies over the single per-thread buffer.
  bool emptyFor(Word) const { return empty(); }

  BufferEntry popOldest() {
    assert(!empty() && "pop from empty buffer");
    BufferEntry E = Fifo[Head++];
    AddrSlot *S = findSlot(E.Addr);
    assert(S && S->Pending > 0 && "index out of sync");
    --S->Pending;
    if (empty()) {
      Fifo.clear();
      Head = 0;
    }
    return E;
  }

  /// Ignores the address to preserve FIFO order (flushing "for" a
  /// variable must still commit older stores to other variables first).
  BufferEntry popOldestFor(Word) { return popOldest(); }

  /// One FIFO, so the flush choice is positional: a singleton {0} marker
  /// when non-empty, not the set of buffered addresses.
  void nonEmptyVars(std::vector<Word> &Out) const {
    Out.clear();
    if (!empty())
      Out.push_back(0);
  }

  /// FIFO order, deduplicated, stores to \p ExcludeAddr skipped. Appends
  /// without clearing and dedups against prior content.
  void pendingLabelsExcept(Word ExcludeAddr,
                           std::vector<InstrId> &Out) const {
    for (size_t I = Head, E = Fifo.size(); I != E; ++I) {
      const BufferEntry &En = Fifo[I];
      if (En.Addr == ExcludeAddr)
        continue;
      if (std::find(Out.begin(), Out.end(), En.Label) == Out.end())
        Out.push_back(En.Label);
    }
  }

private:
  /// Store-forwarding index entry for one address, sorted by Addr.
  struct AddrSlot {
    Word Addr = 0;
    Word Newest = 0;
    uint32_t Pending = 0;
  };

  const AddrSlot *findSlot(Word Addr) const {
    auto It = std::lower_bound(
        Index.begin(), Index.end(), Addr,
        [](const AddrSlot &S, Word A) { return S.Addr < A; });
    if (It == Index.end() || It->Addr != Addr)
      return nullptr;
    return &*It;
  }
  AddrSlot *findSlot(Word Addr) {
    return const_cast<AddrSlot *>(
        static_cast<const TsoBuffer *>(this)->findSlot(Addr));
  }
  AddrSlot &findOrCreateSlot(Word Addr) {
    auto It = std::lower_bound(
        Index.begin(), Index.end(), Addr,
        [](const AddrSlot &S, Word A) { return S.Addr < A; });
    if (It == Index.end() || It->Addr != Addr)
      It = Index.insert(It, AddrSlot{Addr, 0, 0});
    return *It;
  }

  std::vector<BufferEntry> Fifo; ///< [Head, size()) pending.
  size_t Head = 0;
  std::vector<AddrSlot> Index; ///< Sorted by Addr; drained slots kept.
};

/// PSO: one FIFO per variable, slots sorted by address. Fully-drained
/// slots are retained (capacity and layout kept) — but unlike the old
/// implementation they are never *scanned*: a sorted Active list of the
/// addresses with pending stores answers popOldest (lowest active
/// address, no walk over permanently-drained slots) and nonEmptyVars
/// (the per-step scheduler view, previously a full PerVar scan per live
/// thread per step), so a buffer reused across a long round does not
/// degrade with the number of addresses it has ever seen.
class PsoBuffer {
public:
  static constexpr MemModel Model = MemModel::PSO;

  void reset() {
    Count = 0;
    for (VarFifo &V : PerVar) {
      V.Q.clear();
      V.Head = 0;
    }
    Active.clear();
  }

  bool forward(Word Addr, Word &Out) const {
    const VarFifo *V = findVar(Addr);
    if (!V || V->empty())
      return false;
    Out = V->Q.back().Val; // Newest pending store to Addr.
    return true;
  }

  void push(Word Addr, Word Val, InstrId Label) {
    VarFifo &V = findOrCreateVar(Addr);
    if (V.empty())
      activate(Addr);
    V.Q.push_back(BufferEntry{Addr, Val, Label});
    ++Count;
  }

  bool empty() const { return Count == 0; }
  size_t size() const { return Count; }

  bool emptyFor(Word Addr) const {
    const VarFifo *V = findVar(Addr);
    return !V || V->empty();
  }

  /// Pops the oldest entry of the lowest-addressed non-empty variable
  /// FIFO (Active is sorted, so that is its front).
  BufferEntry popOldest() {
    assert(Count > 0 && "pop from empty buffer");
    assert(!Active.empty() && "active list out of sync");
    VarFifo *V = findVar(Active.front());
    assert(V && !V->empty() && "active list out of sync");
    return popFrom(*V);
  }

  BufferEntry popOldestFor(Word Addr) {
    VarFifo *V = findVar(Addr);
    assert(V && !V->empty() && "no pending store for variable");
    return popFrom(*V);
  }

  /// The distinct addresses with pending stores, ascending.
  void nonEmptyVars(std::vector<Word> &Out) const {
    Out.assign(Active.begin(), Active.end());
  }

  /// Ascending address order, FIFO within a variable, deduplicated,
  /// stores to \p ExcludeAddr skipped. Appends without clearing.
  void pendingLabelsExcept(Word ExcludeAddr,
                           std::vector<InstrId> &Out) const {
    for (const VarFifo &V : PerVar) {
      if (V.Addr == ExcludeAddr)
        continue;
      for (size_t I = V.Head, E = V.Q.size(); I != E; ++I) {
        InstrId L = V.Q[I].Label;
        if (std::find(Out.begin(), Out.end(), L) == Out.end())
          Out.push_back(L);
      }
    }
  }

private:
  /// One variable's FIFO; [Head, Q.size()) are the pending entries. A
  /// fully drained FIFO clears Q (capacity kept) so growth is bounded by
  /// the variable's peak occupancy, not its store count.
  struct VarFifo {
    Word Addr = 0;
    std::vector<BufferEntry> Q;
    size_t Head = 0;
    bool empty() const { return Head == Q.size(); }
  };

  const VarFifo *findVar(Word Addr) const {
    auto It = std::lower_bound(
        PerVar.begin(), PerVar.end(), Addr,
        [](const VarFifo &V, Word A) { return V.Addr < A; });
    if (It == PerVar.end() || It->Addr != Addr)
      return nullptr;
    return &*It;
  }
  VarFifo *findVar(Word Addr) {
    return const_cast<VarFifo *>(
        static_cast<const PsoBuffer *>(this)->findVar(Addr));
  }
  VarFifo &findOrCreateVar(Word Addr) {
    auto It = std::lower_bound(
        PerVar.begin(), PerVar.end(), Addr,
        [](const VarFifo &V, Word A) { return V.Addr < A; });
    if (It == PerVar.end() || It->Addr != Addr) {
      // First store to this address in the buffer's lifetime; later
      // executions reusing the buffer hit the same addresses and land in
      // the existing (possibly drained) slot.
      VarFifo V;
      V.Addr = Addr;
      It = PerVar.insert(It, std::move(V));
    }
    return *It;
  }

  void activate(Word Addr) {
    auto It = std::lower_bound(Active.begin(), Active.end(), Addr);
    assert((It == Active.end() || *It != Addr) && "already active");
    Active.insert(It, Addr);
  }
  void deactivate(Word Addr) {
    auto It = std::lower_bound(Active.begin(), Active.end(), Addr);
    assert(It != Active.end() && *It == Addr && "not active");
    Active.erase(It);
  }

  BufferEntry popFrom(VarFifo &V) {
    --Count;
    BufferEntry E = V.Q[V.Head++];
    if (V.empty()) {
      V.Q.clear();
      V.Head = 0;
      deactivate(V.Addr);
    }
    return E;
  }

  size_t Count = 0;
  std::vector<VarFifo> PerVar; ///< Sorted by Addr; drained slots kept.
  std::vector<Word> Active;    ///< Sorted addresses with pending stores.
};

} // namespace dfence::vm

#endif // DFENCE_VM_STOREBUFFER_H
