//===- ModelEnumeration.h - SAT-based minimal-model oracle ------*- C++ -*-===//
//
// The paper's route to a minimal repair: enumerate the inclusion-minimal
// models of the monotone repair formula with the CDCL solver (minimize
// each greedily, block it, repeat) and keep the smallest. It is not on the
// synthesis path — sat::minimumModel is — but it stays as an independent
// oracle for the tests and the ablation and substrate benches.
//
//===----------------------------------------------------------------------===//

#ifndef DFENCE_SAT_MODELENUMERATION_H
#define DFENCE_SAT_MODELENUMERATION_H

#include "sat/MinimalModels.h"

#include <cstddef>
#include <vector>

namespace dfence::sat {

/// Enumerates inclusion-minimal models via SAT + blocking clauses (stops
/// after \p MaxModels). Each model is the sorted set of true vars. An
/// unsatisfiable formula (only possible with an empty clause) yields an
/// empty result with \p Unsat set.
std::vector<std::vector<Var>>
enumerateMinimalModels(const MonotoneCnf &F, size_t MaxModels, bool &Unsat);

/// The smallest of \p Models by (size, lexicographic); empty when there
/// are none. Over a complete enumeration this is what minimumModel must
/// return.
std::vector<Var> smallestModel(const std::vector<std::vector<Var>> &Models);

} // namespace dfence::sat

#endif // DFENCE_SAT_MODELENUMERATION_H
