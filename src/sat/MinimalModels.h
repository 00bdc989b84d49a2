//===- MinimalModels.h - Minimum models of monotone CNF ---------*- C++ -*-===//
//
// The repair formula Φ is monotone: a conjunction of disjunctions of
// positive literals (one per ordering predicate). Its minimal satisfying
// assignments are exactly the inclusion-minimal hitting sets of the clause
// family. The synthesizer enforces one of minimum cardinality, chosen
// deterministically: minimumModel returns the lexicographically smallest
// minimum-cardinality hitting set, found by an exact iterative-deepening
// search (see MinimalModels.cpp). The paper's route — enumerate minimal
// models with a SAT solver, keep the smallest — is not used; the tests
// check this search against an exhaustive one (tests/SatTest.cpp).
//
//===----------------------------------------------------------------------===//

#ifndef DFENCE_SAT_MINIMALMODELS_H
#define DFENCE_SAT_MINIMALMODELS_H

#include <cstdint>
#include <vector>

namespace dfence::sat {

using Var = uint32_t;

/// A monotone CNF formula over variables 0..NumVars-1: each clause is a
/// disjunction of positive literals.
struct MonotoneCnf {
  unsigned NumVars = 0;
  std::vector<std::vector<Var>> Clauses;

  bool isSatisfiedBy(const std::vector<bool> &Assign) const;
};

/// Search nodes one minimumModel call may expand before it stops being
/// exact. Every Φ of the Table-3 suite, the litmus shapes and the fuzz
/// corpus needs a few hundred at most; a solve that runs out falls back
/// to a greedy, inclusion-minimal hitting set and says so
/// (SolveStats::Truncated).
inline constexpr uint64_t MinimumModelNodeBudget = 1u << 18;

/// Effort telemetry for one minimumModel call. Everything except SolveNs
/// is a deterministic function of the formula.
struct SolveStats {
  uint64_t Vars = 0;    ///< Variables of the formula.
  uint64_t Clauses = 0; ///< Input clauses, before normalisation.
  /// Models returned: 1 for a satisfiable formula, 0 when unsat.
  uint64_t Models = 0;
  uint64_t Nodes = 0;     ///< Search nodes expanded.
  bool Truncated = false; ///< Node budget hit: greedy fallback returned.
  /// Wall-clock nanoseconds the solve took. Machine-dependent — feeds the
  /// flight recorder's sat_solve phase histogram and the round log, never
  /// a counter or a canonical result field.
  uint64_t SolveNs = 0;
};

/// Returns the lexicographically smallest of the minimum-cardinality
/// models (sorted sets of true variables) — the model that enumerating
/// every minimal model and ordering by (size, lexicographic) would keep.
/// When the node budget runs out the result is still an inclusion-minimal
/// model, but possibly not a minimum one, and \p Stats->Truncated is set.
/// An unsatisfiable formula (only possible with an empty clause) yields
/// an empty result with \p Unsat set.
std::vector<Var> minimumModel(const MonotoneCnf &F, bool &Unsat,
                              SolveStats *Stats = nullptr);

} // namespace dfence::sat

#endif // DFENCE_SAT_MINIMALMODELS_H
