//===- SatTest.cpp - Minimum-model tests ----------------------------------===//

#include "sat/MinimalModels.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

using namespace dfence;
using namespace dfence::sat;

//===----------------------------------------------------------------------===//
// Minimal models of monotone CNF
//===----------------------------------------------------------------------===//

TEST(MinimalModelsTest, SharedVariablePreferred) {
  MonotoneCnf F;
  F.NumVars = 3;
  F.Clauses = {{0, 2}, {1, 2}};
  bool Unsat = false;
  auto Min = minimumModel(F, Unsat);
  ASSERT_EQ(Min.size(), 1u);
  EXPECT_EQ(Min[0], 2u) << "hitting both clauses with var 2 is minimum";
}

TEST(MinimalModelsTest, EmptyFormulaHasEmptyModel) {
  MonotoneCnf F;
  F.NumVars = 3;
  bool Unsat = false;
  auto Min = minimumModel(F, Unsat);
  EXPECT_FALSE(Unsat);
  EXPECT_TRUE(Min.empty());
}

TEST(MinimalModelsTest, EmptyClauseUnsat) {
  MonotoneCnf F;
  F.NumVars = 2;
  F.Clauses = {{}};
  bool Unsat = false;
  EXPECT_TRUE(minimumModel(F, Unsat).empty());
  EXPECT_TRUE(Unsat);
}

namespace {

/// A random monotone formula; clauses may repeat variables and each
/// other, as Φ's can before normalisation.
MonotoneCnf randomMonotone(Rng &R, unsigned MaxVars, unsigned MaxClauses,
                           unsigned MaxLen) {
  MonotoneCnf F;
  F.NumVars = 1 + static_cast<unsigned>(R.nextBelow(MaxVars));
  unsigned NumClauses = 1 + static_cast<unsigned>(R.nextBelow(MaxClauses));
  for (unsigned I = 0; I < NumClauses; ++I) {
    std::vector<Var> C;
    unsigned Len = 1 + static_cast<unsigned>(R.nextBelow(MaxLen));
    for (unsigned K = 0; K < Len; ++K)
      C.push_back(static_cast<Var>(R.nextBelow(F.NumVars)));
    F.Clauses.push_back(std::move(C));
  }
  return F;
}

bool hitsEveryClause(const MonotoneCnf &F, const std::vector<Var> &Set) {
  std::vector<bool> Assign(F.NumVars, false);
  for (Var V : Set)
    Assign[V] = true;
  return F.isSatisfiedBy(Assign);
}

/// Looks for \p Left more variables, each at least \p Next, that hit
/// every clause in \p Unhit, trying them in lexicographic order. On
/// success the first such variables found are prepended to \p Set.
/// \p Unhit and each \p HitBy[V] are bit sets of clause indices.
bool extendToHittingSet(const std::vector<uint64_t> &HitBy, Var Next,
                        uint64_t Unhit, unsigned Left,
                        std::vector<Var> &Set) {
  if (Left == 0)
    return Unhit == 0;
  for (Var V = Next; V + Left <= HitBy.size(); ++V) {
    uint64_t Rest = Unhit & ~HitBy[V];
    if (Left == 1 ? Rest == 0
                  : extendToHittingSet(HitBy, V + 1, Rest, Left - 1, Set)) {
      Set.insert(Set.begin(), V);
      return true;
    }
  }
  return false;
}

/// The lexicographically smallest minimum hitting set by exhaustive
/// search (fewer than 64 clauses): subsets are walked by size and, within
/// a size, in lexicographic order, so the first hitting set found is the
/// answer. nullopt when no subset hits every clause (an empty clause).
std::optional<std::vector<Var>> bruteForceMinimum(const MonotoneCnf &F) {
  EXPECT_LT(F.Clauses.size(), 64u);
  std::vector<uint64_t> HitBy(F.NumVars, 0);
  for (size_t I = 0; I != F.Clauses.size(); ++I)
    for (Var V : F.Clauses[I])
      HitBy[V] |= uint64_t{1} << I;
  uint64_t All = (uint64_t{1} << F.Clauses.size()) - 1;
  std::vector<Var> Set;
  for (unsigned Size = 0; Size <= F.NumVars; ++Size)
    if (extendToHittingSet(HitBy, 0, All, Size, Set))
      return Set;
  return std::nullopt;
}

} // namespace

// Property test: minimumModel is the lexicographically smallest minimum
// hitting set, checked against exhaustive search.
class MinModelPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(MinModelPropertyTest, MatchesExactHittingSet) {
  Rng R(static_cast<uint64_t>(GetParam()) * 104729 + 7);
  MonotoneCnf F = randomMonotone(R, 10, 10, 4);
  bool Unsat = true;
  std::vector<Var> A = minimumModel(F, Unsat);
  EXPECT_FALSE(Unsat);
  EXPECT_EQ(A, bruteForceMinimum(F));
}

INSTANTIATE_TEST_SUITE_P(RandomMonotone, MinModelPropertyTest,
                         ::testing::Range(0, 60));

// Differential test over 5000 seeded Φ, unsatisfiable ones included:
// minimumModel must return exactly the vector the exhaustive search finds
// first, and report unsat exactly when no subset hits every clause.
TEST(MinModelDifferentialTest, SameVectorAsBruteForce) {
  Rng R(20120611);
  unsigned Unsats = 0;
  for (int Case = 0; Case < 5000; ++Case) {
    MonotoneCnf F = randomMonotone(R, 20, 32, 5);
    if (Case % 97 == 0)
      F.Clauses.push_back({}); // An empty clause now and then: unsat.
    bool Unsat = false;
    std::vector<Var> M = minimumModel(F, Unsat);
    std::optional<std::vector<Var>> Oracle = bruteForceMinimum(F);
    ASSERT_EQ(Unsat, !Oracle) << "case " << Case;
    if (Unsat) {
      ++Unsats;
      EXPECT_TRUE(M.empty());
      continue;
    }
    ASSERT_EQ(M, *Oracle) << "case " << Case;
  }
  EXPECT_EQ(Unsats, 52u) << "every 97th case carries an empty clause";
}

// A seeded random 3-uniform Φ over 80 variables and 100 clauses has a
// minimum hitting set of about 25 that the disjoint-clause bound cannot
// prove (Φ from synthesis needs at most a few hundred nodes), so the
// search runs out of nodes. The fallback still returns an
// inclusion-minimal hitting set and says it was truncated.
TEST(MinModelTest, NodeBudgetFallsBackToMinimalGreedySet) {
  Rng R(80100);
  MonotoneCnf F;
  F.NumVars = 80;
  for (int C = 0; C < 100; ++C)
    F.Clauses.push_back({static_cast<Var>(R.nextBelow(80)),
                         static_cast<Var>(R.nextBelow(80)),
                         static_cast<Var>(R.nextBelow(80))});
  bool Unsat = false;
  SolveStats SS;
  std::vector<Var> M = minimumModel(F, Unsat, &SS);
  EXPECT_FALSE(Unsat);
  EXPECT_TRUE(SS.Truncated);
  EXPECT_EQ(SS.Nodes, MinimumModelNodeBudget + 1);
  EXPECT_EQ(SS.Models, 1u);
  ASSERT_TRUE(hitsEveryClause(F, M));
  EXPECT_TRUE(std::is_sorted(M.begin(), M.end()));
  for (size_t I = 0; I != M.size(); ++I) {
    std::vector<Var> Less = M;
    Less.erase(Less.begin() + static_cast<std::ptrdiff_t>(I));
    EXPECT_FALSE(hitsEveryClause(F, Less)) << "member " << M[I];
  }
}
