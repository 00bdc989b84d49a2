//===- History.h - Call/return histories of client executions --*- C++ -*-===//
//
// A history is the sequence of method invocations and responses observed
// in one concurrent execution; it is the object that the linearizability
// and sequential-consistency checkers reason about.
//
// Histories carry a canonical 64-bit hash maintained incrementally by the
// execution engine: every appended event (an invocation, a response) folds
// one strong per-event hash into History::Hash by commutative addition.
// Responses complete out of invocation order, so a sequential fold could
// not be computed at append time — the commutative sum can, and it equals
// the one-pass hashHistory() over the finished record. Each event hash
// binds the op's index and global timestamp, so reorderings, truncations
// and field edits all change the sum; equal hashes are treated only as a
// *candidate* for equality, and the synthesizer's duplicate-history count
// re-verifies with the full structural compare (operator==) before
// counting a duplicate.
//
//===----------------------------------------------------------------------===//

#ifndef DFENCE_VM_HISTORY_H
#define DFENCE_VM_HISTORY_H

#include "ir/Instr.h"

#include <cstdint>
#include <string>
#include <vector>

namespace dfence::vm {

using ir::Word;

/// The distinguished EMPTY return value used by the queue benchmarks
/// (returned by take/steal/dequeue on an empty container).
constexpr Word EmptyVal = static_cast<Word>(-1);

/// One completed (or pending) top-level method call.
struct OpRecord {
  std::string Func;        ///< Method name as recorded from the client.
  std::vector<Word> Args;
  Word Ret = 0;
  uint32_t Thread = 0;     ///< Client thread index.
  uint64_t InvokeSeq = 0;  ///< Global timestamps establishing real-time
  uint64_t RespondSeq = 0; ///< order between non-overlapping operations.
  bool Completed = false;

  /// True when this op responded before \p Other was invoked.
  bool precedes(const OpRecord &Other) const {
    return Completed && RespondSeq < Other.InvokeSeq;
  }

  /// Field-wise equality; the collision-safe compare behind the
  /// duplicate-history count.
  bool operator==(const OpRecord &) const = default;
};

/// The history of one execution, in invocation order.
struct History {
  std::vector<OpRecord> Ops;
  /// Commutative sum of the per-event hashes of everything in Ops,
  /// maintained by the engine as events are appended (zero extra pass).
  /// Derived data: excluded from operator==.
  uint64_t Hash = 0;

  bool allComplete() const {
    for (const OpRecord &Op : Ops)
      if (!Op.Completed)
        return false;
    return true;
  }

  /// Structural equality of the recorded event sequences.
  bool operator==(const History &O) const { return Ops == O.Ops; }

  std::string str() const;
};

//===--------------------------------------------------------------------===//
// Canonical history hashing
//===--------------------------------------------------------------------===//

/// Final 64-bit avalanche (the splitmix64/murmur3 finalizer).
inline uint64_t hashMix64(uint64_t X) {
  X ^= X >> 33;
  X *= 0xff51afd7ed558ccdULL;
  X ^= X >> 33;
  X *= 0xc4ceb9fe1a85ec53ULL;
  X ^= X >> 33;
  return X;
}

/// Folds \p V into running hash \p H (non-commutative, order-sensitive —
/// used *inside* one event's hash; events themselves combine by +).
inline uint64_t hashCombine(uint64_t H, uint64_t V) {
  return hashMix64(H ^ (V + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2)));
}

/// Hash of the invocation event that appended \p Op at position
/// \p OpIndex. Binds the index, thread, global invoke timestamp, method
/// name and arguments, so no two distinct invocation events of one
/// execution collide by construction of the inputs alone.
inline uint64_t hashInvokeEvent(size_t OpIndex, const OpRecord &Op) {
  uint64_t H = 0x243f6a8885a308d3ULL; // First 64 fractional bits of pi.
  H = hashCombine(H, OpIndex);
  H = hashCombine(H, Op.Thread);
  H = hashCombine(H, Op.InvokeSeq);
  uint64_t F = 1469598103934665603ULL; // FNV-1a over the method name.
  for (char C : Op.Func)
    F = (F ^ static_cast<unsigned char>(C)) * 1099511628211ULL;
  H = hashCombine(H, F);
  H = hashCombine(H, Op.Args.size());
  for (Word A : Op.Args)
    H = hashCombine(H, static_cast<uint64_t>(A));
  return hashMix64(H);
}

/// Hash of the response event completing the op at \p OpIndex.
inline uint64_t hashResponseEvent(size_t OpIndex, Word Ret,
                                  uint64_t RespondSeq) {
  uint64_t H = 0x452821e638d01377ULL; // Fractional bits of e.
  H = hashCombine(H, OpIndex);
  H = hashCombine(H, static_cast<uint64_t>(Ret));
  H = hashCombine(H, RespondSeq);
  return hashMix64(H);
}

/// One-pass reference hash of a finished history; equals the Hash the
/// engine accumulated incrementally (addition commutes, so the order in
/// which responses landed between invocations does not matter).
inline uint64_t hashHistory(const History &H) {
  uint64_t Sum = 0;
  for (size_t I = 0; I != H.Ops.size(); ++I) {
    const OpRecord &Op = H.Ops[I];
    Sum += hashInvokeEvent(I, Op);
    if (Op.Completed)
      Sum += hashResponseEvent(I, Op.Ret, Op.RespondSeq);
  }
  return Sum;
}

} // namespace dfence::vm

#endif // DFENCE_VM_HISTORY_H
