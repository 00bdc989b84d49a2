//===- FlatKeySet.h - Reusable open-addressing set of 64-bit keys -*- C++ -*-===//
//
// The scratch set behind two per-execution hot paths: the checker's
// failed-state memo and the interpreter's repair-predicate dedup. Both
// insert a few to a few thousand keys, test membership, and start over for
// the next history or execution. std::unordered_set allocates a node per
// insert and frees it on clear; this set keeps one slot array that only
// grows, and clear() empties just the slots it filled (O(size), not
// O(capacity)), so a set that once held a large search stays cheap to
// reuse for small ones. Membership is exact: keys are compared whole.
//
//===----------------------------------------------------------------------===//

#ifndef DFENCE_SUPPORT_FLATKEYSET_H
#define DFENCE_SUPPORT_FLATKEYSET_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dfence {

class FlatKeySet {
public:
  /// Inserts \p K; returns true when it was not present.
  bool insert(uint64_t K) {
    if (K == EmptyKey) {
      bool New = !HasEmptyKey;
      HasEmptyKey = true;
      return New;
    }
    if ((Used.size() + 1) * 2 > Slots.size())
      grow();
    size_t S = find(K);
    if (Slots[S] == K)
      return false;
    Slots[S] = K;
    Used.push_back(static_cast<uint32_t>(S));
    return true;
  }

  bool contains(uint64_t K) const {
    if (K == EmptyKey)
      return HasEmptyKey;
    return !Slots.empty() && Slots[find(K)] == K;
  }

  size_t size() const { return Used.size() + HasEmptyKey; }

  /// Empties the set and keeps its capacity.
  void clear() {
    for (uint32_t S : Used)
      Slots[S] = EmptyKey;
    Used.clear();
    HasEmptyKey = false;
  }

private:
  static constexpr uint64_t EmptyKey = ~0ULL;

  /// The slot holding \p K, or the empty slot where it would go.
  size_t find(uint64_t K) const {
    size_t Mask = Slots.size() - 1;
    // Keys may be raw label pairs, so mix before picking the home slot
    // (the splitmix64 finalizer).
    uint64_t H = K;
    H ^= H >> 33;
    H *= 0xff51afd7ed558ccdULL;
    H ^= H >> 33;
    size_t S = static_cast<size_t>(H) & Mask;
    while (Slots[S] != EmptyKey && Slots[S] != K)
      S = (S + 1) & Mask;
    return S;
  }

  void grow() {
    std::vector<uint64_t> Old = std::move(Slots);
    Slots.assign(Old.empty() ? 64 : Old.size() * 2, EmptyKey);
    Used.clear();
    for (uint64_t K : Old)
      if (K != EmptyKey) {
        size_t S = find(K);
        Slots[S] = K;
        Used.push_back(static_cast<uint32_t>(S));
      }
  }

  std::vector<uint64_t> Slots; ///< Power-of-two sized; EmptyKey = free.
  std::vector<uint32_t> Used;  ///< Indices of the filled slots.
  bool HasEmptyKey = false;    ///< EmptyKey itself is a member.
};

} // namespace dfence

#endif // DFENCE_SUPPORT_FLATKEYSET_H
