//===- MinimalModels.cpp --------------------------------------------------===//
//
// minimumModel is an exact minimum hitting-set search that meets the
// clauses in a fixed order:
//
//  1. Normalise Φ: sort and dedupe every clause and the clause list, then
//     drop each clause a smaller one subsumes. Hitting sets are unchanged.
//  2. Deepen the cardinality K from a lower bound: the size of a greedy
//     packing of pairwise disjoint clauses, each of which needs its own
//     variable.
//  3. For each K, extend sorted prefixes in increasing variable order.
//     The sets of one size come out in lexicographic order, so the first
//     hitting set found is the lexicographically smallest of minimum
//     cardinality. Three rules prune a prefix without losing it:
//       - the next variable is at most the largest variable of every
//         unhit clause (later variables are larger still);
//       - the next variable hits some unhit clause (every member of an
//         inclusion-minimal set hits a clause no other member hits, and
//         the members below it do not hit that clause either);
//       - the disjoint packing of the unhit clauses, restricted to the
//         variables still available, fits the remaining budget.
//
//===----------------------------------------------------------------------===//

#include "sat/MinimalModels.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <climits>

using namespace dfence;
using namespace dfence::sat;

bool MonotoneCnf::isSatisfiedBy(const std::vector<bool> &Assign) const {
  for (const std::vector<Var> &Clause : Clauses) {
    bool Hit = false;
    for (Var V : Clause)
      if (Assign[V]) {
        Hit = true;
        break;
      }
    if (!Hit)
      return false;
  }
  return true;
}

namespace {

size_t wordsFor(unsigned NumVars) { return (NumVars + 63) / 64; }

void setBits(const std::vector<Var> &Clause, uint64_t *Words) {
  for (Var V : Clause)
    Words[V / 64] |= uint64_t(1) << (V % 64);
}

/// Step 1: returns Φ's clauses sorted and deduped, each sorted, with the
/// subsumed ones dropped, ordered by (size, lexicographic). False when Φ
/// has an empty clause (unsatisfiable).
bool normalise(const MonotoneCnf &F, std::vector<std::vector<Var>> &Out) {
  std::vector<std::vector<Var>> Cs = F.Clauses;
  for (std::vector<Var> &C : Cs) {
    if (C.empty())
      return false;
    std::sort(C.begin(), C.end());
    C.erase(std::unique(C.begin(), C.end()), C.end());
    assert(C.back() < F.NumVars && "clause variable out of range");
  }
  std::sort(Cs.begin(), Cs.end(),
            [](const std::vector<Var> &A, const std::vector<Var> &B) {
              return A.size() != B.size() ? A.size() < B.size() : A < B;
            });
  Cs.erase(std::unique(Cs.begin(), Cs.end()), Cs.end());

  // A kept clause is never longer than a later one, and an equal-length
  // subset is the same clause (deduped above), so only kept clauses can
  // subsume a later one.
  const size_t W = wordsFor(F.NumVars);
  std::vector<uint64_t> Kept, Cur(W);
  Out.clear();
  for (std::vector<Var> &C : Cs) {
    std::fill(Cur.begin(), Cur.end(), 0);
    setBits(C, Cur.data());
    bool Subsumed = false;
    for (size_t K = 0; K != Out.size() && !Subsumed; ++K) {
      const uint64_t *Sub = &Kept[K * W];
      Subsumed = true;
      for (size_t I = 0; I != W; ++I)
        if (Sub[I] & ~Cur[I]) {
          Subsumed = false;
          break;
        }
    }
    if (Subsumed)
      continue;
    Kept.insert(Kept.end(), Cur.begin(), Cur.end());
    Out.push_back(std::move(C));
  }
  return true;
}

/// Steps 2 and 3 over a normalised, satisfiable Φ.
class HittingSetSearch {
public:
  HittingSetSearch(unsigned NumVars, std::vector<std::vector<Var>> Cs)
      : NumVars(NumVars), W(wordsFor(NumVars)), Clauses(std::move(Cs)),
        Bits(Clauses.size() * W, 0), Occ(NumVars), Hits(Clauses.size(), 0),
        Unhit(Clauses.size()), Used(W) {
    for (uint32_t C = 0; C != Clauses.size(); ++C) {
      setBits(Clauses[C], &Bits[C * W]);
      for (Var V : Clauses[C])
        Occ[V].push_back(C);
    }
  }

  std::vector<Var> solve() {
    Var Limit = 0;
    for (unsigned K = pack(0, UINT_MAX, Limit);; ++K) {
      if (extend(0, K))
        return Chosen;
      if (OutOfBudget)
        return greedy();
    }
  }

  uint64_t nodes() const { return Nodes; }
  bool truncated() const { return OutOfBudget; }

private:
  /// Counts a greedy packing of pairwise disjoint unhit clauses,
  /// restricted to the variables >= \p Start, stopping once the count
  /// exceeds \p Stop. Also lowers \p Limit to the smallest largest
  /// variable of any unhit clause (NumVars when every clause is hit);
  /// Limit < Start means some unhit clause can no longer be hit.
  unsigned pack(Var Start, unsigned Stop, Var &Limit) {
    std::fill(Used.begin(), Used.end(), 0);
    const size_t W0 = Start / 64;
    const uint64_t Low = ~uint64_t(0) << (Start % 64);
    unsigned Count = 0;
    Limit = NumVars;
    for (uint32_t C = 0; C != Clauses.size(); ++C) {
      if (Hits[C])
        continue;
      Limit = std::min(Limit, Clauses[C].back());
      if (Limit < Start)
        return Count;
      const uint64_t *B = &Bits[C * W];
      bool Disjoint = true;
      for (size_t I = W0; I != W && Disjoint; ++I)
        Disjoint = !(B[I] & (I == W0 ? Low : ~uint64_t(0)) & Used[I]);
      if (!Disjoint)
        continue;
      for (size_t I = W0; I != W; ++I)
        Used[I] |= B[I] & (I == W0 ? Low : ~uint64_t(0));
      if (++Count > Stop)
        return Count;
    }
    return Count;
  }

  /// Extends Chosen, whose members are all below \p Start, by at most
  /// \p Left variables to a hitting set; true (with Chosen holding it)
  /// on success.
  bool extend(Var Start, unsigned Left) {
    if (++Nodes > MinimumModelNodeBudget) {
      OutOfBudget = true;
      return false;
    }
    if (Unhit == 0)
      return true;
    Var Limit = 0;
    if (pack(Start, Left, Limit) > Left || Limit < Start)
      return false;
    for (Var V = Start; V <= Limit; ++V) {
      if (!hitsUnhit(V))
        continue;
      choose(V);
      if (extend(V + 1, Left - 1))
        return true;
      unchoose(V);
      if (OutOfBudget)
        return false;
    }
    return false;
  }

  /// The fallback once the budget is spent: repeatedly take the variable
  /// hitting the most unhit clauses (smallest on ties), then drop, in
  /// increasing order, every member the others already cover.
  std::vector<Var> greedy() {
    assert(Chosen.empty() && "an aborted search unwinds its choices");
    while (Unhit != 0) {
      Var Best = 0;
      size_t BestGain = 0;
      for (Var V = 0; V != NumVars; ++V) {
        size_t Gain = 0;
        for (uint32_t C : Occ[V])
          Gain += Hits[C] == 0;
        if (Gain > BestGain) {
          Best = V;
          BestGain = Gain;
        }
      }
      choose(Best);
    }
    std::sort(Chosen.begin(), Chosen.end());
    std::vector<Var> Kept;
    for (Var V : Chosen) {
      bool Needed = false;
      for (uint32_t C : Occ[V])
        Needed = Needed || Hits[C] == 1;
      if (Needed)
        Kept.push_back(V);
      else
        for (uint32_t C : Occ[V])
          --Hits[C];
    }
    return Kept;
  }

  bool hitsUnhit(Var V) const {
    for (uint32_t C : Occ[V])
      if (Hits[C] == 0)
        return true;
    return false;
  }

  void choose(Var V) {
    for (uint32_t C : Occ[V])
      if (Hits[C]++ == 0)
        --Unhit;
    Chosen.push_back(V);
  }

  /// Undoes the most recent choose(V).
  void unchoose(Var V) {
    assert(!Chosen.empty() && Chosen.back() == V);
    for (uint32_t C : Occ[V])
      if (--Hits[C] == 0)
        ++Unhit;
    Chosen.pop_back();
  }

  const unsigned NumVars;
  const size_t W; ///< 64-bit words per clause bitset.
  const std::vector<std::vector<Var>> Clauses;
  std::vector<uint64_t> Bits;             ///< Clause C at [C*W, C*W+W).
  std::vector<std::vector<uint32_t>> Occ; ///< Clauses containing a var.
  std::vector<uint32_t> Hits;             ///< Chosen members per clause.
  size_t Unhit;                           ///< Clauses with Hits == 0.
  std::vector<uint64_t> Used;             ///< pack()'s scratch bitset.
  std::vector<Var> Chosen;                ///< Sorted, except in greedy().
  uint64_t Nodes = 0;
  bool OutOfBudget = false;
};

} // namespace

std::vector<Var> sat::minimumModel(const MonotoneCnf &F, bool &Unsat,
                                   SolveStats *Stats) {
  auto T0 = std::chrono::steady_clock::now();
  SolveStats SS;
  SS.Vars = F.NumVars;
  SS.Clauses = F.Clauses.size();
  std::vector<Var> Model;
  std::vector<std::vector<Var>> Clauses;
  Unsat = !normalise(F, Clauses);
  if (!Unsat) {
    HittingSetSearch S(F.NumVars, std::move(Clauses));
    Model = S.solve();
    SS.Models = 1;
    SS.Nodes = S.nodes();
    SS.Truncated = S.truncated();
  }
  if (Stats) {
    SS.SolveNs = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - T0)
            .count());
    *Stats = SS;
  }
  return Model;
}
