//===- Spec.h - Executable sequential specifications ------------*- C++ -*-===//
//
// Correctness criteria in the paper (operation-level sequential
// consistency, linearizability) are defined with respect to an executable
// *sequential* specification of the data structure: an object that, given
// a sequence of operations, decides whether a particular (args, return)
// behaviour is possible. Specs may be non-deterministic in their accepted
// returns (e.g. the allocator spec accepts any fresh address from malloc),
// which is why apply() is a feasibility check rather than a function
// computing the return value.
//
//===----------------------------------------------------------------------===//

#ifndef DFENCE_SPEC_SPEC_H
#define DFENCE_SPEC_SPEC_H

#include "vm/History.h"

#include <functional>
#include <memory>

namespace dfence::spec {

/// Mutable sequential-specification state.
class SpecState {
public:
  virtual ~SpecState();

  /// Attempts to apply \p Op (its name, arguments and *observed* return
  /// value) to this state. Returns false when the observed behaviour is
  /// impossible here (the state is then unspecified); returns true and
  /// advances the state otherwise.
  virtual bool apply(const vm::OpRecord &Op) = 0;

  /// Structural hash used to memoise checker search states.
  virtual uint64_t hash() const = 0;

  virtual std::unique_ptr<SpecState> clone() const = 0;

  /// Makes this state a copy of \p From, which must have the same
  /// dynamic type, reusing this state's storage. The checkers' search
  /// assigns into one state per depth instead of cloning per candidate.
  virtual void assign(const SpecState &From) = 0;
};

/// Creates fresh initial spec states.
using SpecFactory = std::function<std::unique_ptr<SpecState>()>;

} // namespace dfence::spec

#endif // DFENCE_SPEC_SPEC_H
