//===- ModelEnumeration.cpp -----------------------------------------------===//

#include "sat/ModelEnumeration.h"

#include "sat/Solver.h"

#include <algorithm>
#include <cassert>

using namespace dfence;
using namespace dfence::sat;

namespace {

/// Greedily shrinks a model of a monotone formula to an inclusion-minimal
/// one: try to flip each true variable to false, keeping the flip whenever
/// all clauses stay satisfied. Correct because satisfaction is monotone.
void minimizeModel(const MonotoneCnf &F, std::vector<bool> &Assign) {
  for (Var V = 0; V != F.NumVars; ++V) {
    if (!Assign[V])
      continue;
    Assign[V] = false;
    if (!F.isSatisfiedBy(Assign))
      Assign[V] = true;
  }
}

} // namespace

std::vector<std::vector<Var>>
sat::enumerateMinimalModels(const MonotoneCnf &F, size_t MaxModels,
                            bool &Unsat) {
  Unsat = false;
  Solver S;
  for (unsigned V = 0; V != F.NumVars; ++V)
    S.newVar();
  for (const std::vector<Var> &Clause : F.Clauses) {
    std::vector<Lit> Lits;
    Lits.reserve(Clause.size());
    for (Var V : Clause)
      Lits.push_back(Lit::pos(V));
    if (!S.addClause(std::move(Lits))) {
      Unsat = true;
      return {};
    }
  }

  std::vector<std::vector<Var>> Models;
  while (Models.size() < MaxModels && S.solve()) {
    std::vector<bool> Assign(F.NumVars, false);
    for (Var V = 0; V != F.NumVars; ++V)
      Assign[V] = S.modelValue(V) == LBool::True;
    assert(F.isSatisfiedBy(Assign) && "SAT model does not satisfy CNF");
    minimizeModel(F, Assign);

    std::vector<Var> Model;
    std::vector<Lit> Blocking;
    for (Var V = 0; V != F.NumVars; ++V) {
      if (!Assign[V])
        continue;
      Model.push_back(V);
      Blocking.push_back(Lit::neg(V));
    }
    Models.push_back(std::move(Model));
    if (Blocking.empty())
      break; // The empty model satisfies everything; nothing else to find.
    if (!S.addClause(std::move(Blocking)))
      break; // All remaining models blocked.
  }
  if (Models.empty() && !S.okay())
    Unsat = true;
  return Models;
}

std::vector<Var>
sat::smallestModel(const std::vector<std::vector<Var>> &Models) {
  auto Better = [](const std::vector<Var> &A, const std::vector<Var> &B) {
    if (A.size() != B.size())
      return A.size() < B.size();
    return A < B;
  };
  auto It = std::min_element(Models.begin(), Models.end(), Better);
  return It == Models.end() ? std::vector<Var>() : *It;
}
