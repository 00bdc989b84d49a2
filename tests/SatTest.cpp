//===- SatTest.cpp - CDCL solver and minimal-model tests ------------------===//

#include "sat/MinimalModels.h"
#include "sat/ModelEnumeration.h"
#include "sat/Solver.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace dfence;
using namespace dfence::sat;

namespace {

/// Brute-force SAT check for cross-validation (n <= ~20 vars).
bool bruteForceSat(unsigned NumVars,
                   const std::vector<std::vector<Lit>> &Clauses) {
  for (uint64_t Assign = 0; Assign < (1ULL << NumVars); ++Assign) {
    bool AllSat = true;
    for (const auto &C : Clauses) {
      bool Sat = false;
      for (Lit L : C) {
        bool V = (Assign >> L.var()) & 1;
        if (V != L.sign()) {
          Sat = true;
          break;
        }
      }
      if (!Sat) {
        AllSat = false;
        break;
      }
    }
    if (AllSat)
      return true;
  }
  return false;
}

} // namespace

TEST(SolverTest, TrivialSat) {
  Solver S;
  Var A = S.newVar();
  EXPECT_TRUE(S.addClause({Lit::pos(A)}));
  EXPECT_TRUE(S.solve());
  EXPECT_EQ(S.modelValue(A), LBool::True);
}

TEST(SolverTest, TrivialUnsat) {
  Solver S;
  Var A = S.newVar();
  EXPECT_TRUE(S.addClause({Lit::pos(A)}));
  EXPECT_FALSE(S.addClause({Lit::neg(A)}));
  EXPECT_FALSE(S.solve());
}

TEST(SolverTest, UnitPropagationChain) {
  Solver S;
  std::vector<Var> V;
  for (int I = 0; I < 10; ++I)
    V.push_back(S.newVar());
  S.addClause({Lit::pos(V[0])});
  for (int I = 0; I + 1 < 10; ++I)
    S.addClause({Lit::neg(V[I]), Lit::pos(V[I + 1])}); // v_i -> v_{i+1}
  ASSERT_TRUE(S.solve());
  for (int I = 0; I < 10; ++I)
    EXPECT_EQ(S.modelValue(V[I]), LBool::True);
}

TEST(SolverTest, ModelSatisfiesAllClauses) {
  Solver S;
  std::vector<Var> V;
  for (int I = 0; I < 6; ++I)
    V.push_back(S.newVar());
  std::vector<std::vector<Lit>> Clauses = {
      {Lit::pos(V[0]), Lit::pos(V[1])},
      {Lit::neg(V[0]), Lit::pos(V[2])},
      {Lit::neg(V[1]), Lit::neg(V[2]), Lit::pos(V[3])},
      {Lit::neg(V[3]), Lit::pos(V[4]), Lit::pos(V[5])},
      {Lit::neg(V[4])},
  };
  for (auto &C : Clauses)
    ASSERT_TRUE(S.addClause(C));
  ASSERT_TRUE(S.solve());
  for (const auto &C : Clauses) {
    bool Sat = false;
    for (Lit L : C)
      if (S.modelValue(L.var()) ==
          (L.sign() ? LBool::False : LBool::True))
        Sat = true;
    EXPECT_TRUE(Sat);
  }
}

TEST(SolverTest, PigeonholeUnsat) {
  // 4 pigeons into 3 holes: classic small UNSAT needing real search.
  const int P = 4, H = 3;
  Solver S;
  Var X[4][3];
  for (int I = 0; I < P; ++I)
    for (int J = 0; J < H; ++J)
      X[I][J] = S.newVar();
  bool Ok = true;
  for (int I = 0; I < P; ++I) {
    std::vector<Lit> C;
    for (int J = 0; J < H; ++J)
      C.push_back(Lit::pos(X[I][J]));
    Ok = S.addClause(C) && Ok;
  }
  for (int J = 0; J < H; ++J)
    for (int I1 = 0; I1 < P; ++I1)
      for (int I2 = I1 + 1; I2 < P; ++I2)
        Ok = S.addClause({Lit::neg(X[I1][J]), Lit::neg(X[I2][J])}) && Ok;
  EXPECT_FALSE(Ok && S.solve());
}

TEST(SolverTest, IncrementalSolvingWithBlockingClauses) {
  Solver S;
  Var A = S.newVar(), B = S.newVar();
  S.addClause({Lit::pos(A), Lit::pos(B)});
  int Models = 0;
  while (S.solve() && Models < 10) {
    ++Models;
    std::vector<Lit> Block;
    for (Var V : {A, B})
      Block.push_back(S.modelValue(V) == LBool::True ? Lit::neg(V)
                                                     : Lit::pos(V));
    if (!S.addClause(Block))
      break;
  }
  EXPECT_EQ(Models, 3) << "a|b has exactly three models";
}

// Property test: random 3-SAT instances agree with brute force.
class RandomSatTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomSatTest, AgreesWithBruteForce) {
  Rng R(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  const unsigned NumVars = 8;
  const unsigned NumClauses = 3 + R.nextBelow(30);
  std::vector<std::vector<Lit>> Clauses;
  for (unsigned I = 0; I < NumClauses; ++I) {
    std::vector<Lit> C;
    for (int K = 0; K < 3; ++K) {
      Var V = static_cast<Var>(R.nextBelow(NumVars));
      C.push_back(R.nextBool(0.5) ? Lit::pos(V) : Lit::neg(V));
    }
    Clauses.push_back(std::move(C));
  }
  Solver S;
  for (unsigned V = 0; V < NumVars; ++V)
    S.newVar();
  bool AddOk = true;
  for (auto &C : Clauses)
    AddOk = S.addClause(C) && AddOk;
  bool SolverSat = AddOk && S.solve();
  EXPECT_EQ(SolverSat, bruteForceSat(NumVars, Clauses));
  if (SolverSat) {
    for (const auto &C : Clauses) {
      bool Sat = false;
      for (Lit L : C)
        if (S.modelValue(L.var()) ==
            (L.sign() ? LBool::False : LBool::True))
          Sat = true;
      EXPECT_TRUE(Sat) << "returned model must satisfy every clause";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Random3Sat, RandomSatTest,
                         ::testing::Range(0, 60));

//===----------------------------------------------------------------------===//
// Minimal models of monotone CNF
//===----------------------------------------------------------------------===//

TEST(MinimalModelsTest, SingleClause) {
  MonotoneCnf F;
  F.NumVars = 3;
  F.Clauses = {{0, 1, 2}};
  bool Unsat = false;
  auto Models = enumerateMinimalModels(F, 100, Unsat);
  EXPECT_FALSE(Unsat);
  ASSERT_EQ(Models.size(), 3u) << "each single var is a minimal model";
  for (const auto &M : Models)
    EXPECT_EQ(M.size(), 1u);
}

TEST(MinimalModelsTest, TwoDisjointClauses) {
  MonotoneCnf F;
  F.NumVars = 4;
  F.Clauses = {{0, 1}, {2, 3}};
  bool Unsat = false;
  auto Models = enumerateMinimalModels(F, 100, Unsat);
  EXPECT_EQ(Models.size(), 4u); // {0,2},{0,3},{1,2},{1,3}
  for (const auto &M : Models)
    EXPECT_EQ(M.size(), 2u);
}

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
  enumerateMinimalModels(F, 10, Unsat);
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

/// The lexicographically smallest minimum hitting set by exhaustive
/// search over all 2^NumVars subsets (NumVars <= ~12).
std::vector<Var> bruteForceMinimum(const MonotoneCnf &F) {
  std::vector<Var> Best;
  bool Found = false;
  for (uint32_t Mask = 0; Mask < (1u << F.NumVars); ++Mask) {
    std::vector<Var> Set;
    for (Var V = 0; V != F.NumVars; ++V)
      if (Mask >> V & 1)
        Set.push_back(V);
    if (!hitsEveryClause(F, Set))
      continue;
    if (!Found || Set.size() < Best.size() ||
        (Set.size() == Best.size() && Set < Best))
      Best = std::move(Set);
    Found = true;
  }
  return Best;
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

// Differential test against the paper's selector: enumerate the minimal
// models with the CDCL solver and keep the smallest by (size,
// lexicographic). Wherever that enumeration completes, the two must
// return the same vector, not just the same cardinality.
TEST(MinModelDifferentialTest, SameVectorAsEnumerationBelowCap) {
  const size_t Cap = 4096;
  Rng R(20120611);
  unsigned Compared = 0, Unsats = 0;
  for (int Case = 0; Case < 5000; ++Case) {
    MonotoneCnf F = randomMonotone(R, 20, 32, 5);
    if (Case % 97 == 0)
      F.Clauses.push_back({}); // An empty clause now and then: unsat.
    bool UnsatE = false, UnsatM = false;
    auto Models = enumerateMinimalModels(F, Cap, UnsatE);
    std::vector<Var> M = minimumModel(F, UnsatM);
    ASSERT_EQ(UnsatM, UnsatE) << "case " << Case;
    if (UnsatM) {
      ++Unsats;
      EXPECT_TRUE(M.empty());
      continue;
    }
    if (Models.size() >= Cap)
      continue;
    ++Compared;
    ASSERT_EQ(M, smallestModel(Models)) << "case " << Case;
  }
  EXPECT_GE(Compared + Unsats, 4990u) << "the cap must stay rare here";
  EXPECT_GT(Unsats, 0u);
}

// Thirteen clauses {z, a_i, b_i}: {z} alone is the minimum, and the 2^13
// choices of one a_i or b_i per clause are 8192 further minimal models.
// With z as variable 0, the oracle's greedy shrinking drops z from every
// model the solver returns while the a_i/b_i still cover, so all 4096
// models it lists before the cap are of size 13. The exact search finds
// {z}.
TEST(MinModelDifferentialTest, BeatsCappedEnumeration) {
  const unsigned Pairs = 13;
  MonotoneCnf F;
  F.NumVars = 2 * Pairs + 1;
  for (Var I = 0; I != Pairs; ++I)
    F.Clauses.push_back({0, 2 * I + 1, 2 * I + 2});
  bool Unsat = false;
  auto Capped = enumerateMinimalModels(F, 4096, Unsat);
  ASSERT_EQ(Capped.size(), 4096u);
  std::vector<Var> Enumerated = smallestModel(Capped);
  SolveStats SS;
  std::vector<Var> M = minimumModel(F, Unsat, &SS);
  EXPECT_EQ(M, std::vector<Var>{0});
  EXPECT_LT(M.size(), Enumerated.size());
  EXPECT_FALSE(SS.Truncated);
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
