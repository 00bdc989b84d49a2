//===- Module.h - Functions, globals and whole-program queries -*- C++ -*-===//

#ifndef DFENCE_IR_MODULE_H
#define DFENCE_IR_MODULE_H

#include "ir/Instr.h"

#include <cassert>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace dfence::ir {

/// A function: a flat, labeled instruction list over virtual registers.
///
/// Control flow is unstructured (Br/CondBr with InstrId targets), matching
/// the paper's label-based statement language. The entry point is the first
/// instruction. Registers 0..NumParams-1 hold the arguments on entry.
class Function {
public:
  std::string Name;
  uint32_t NumParams = 0;
  uint32_t NumRegs = 0;
  std::vector<Instr> Body;

  /// Maps an instruction label to its current position in Body. Must be
  /// called after every structural mutation (e.g. fence insertion).
  void buildIndex();

  /// Returns the position of label \p Id, asserting it exists.
  size_t indexOf(InstrId Id) const {
    auto It = IdToIndex.find(Id);
    assert(It != IdToIndex.end() && "unknown instruction label");
    return It->second;
  }

  bool containsLabel(InstrId Id) const { return IdToIndex.count(Id) != 0; }

  /// True when the label index maps exactly Body's labels to their
  /// positions, as every mutation through this class leaves it.
  bool indexIsCurrent() const;

  /// Inserts \p I immediately after the instruction labeled \p After and
  /// reindexes. \p I must already carry a fresh module-unique label.
  void insertAfter(InstrId After, Instr I);

  /// Removes the instruction labeled \p Id (must not be a branch target;
  /// callers are responsible for checking) and reindexes.
  void erase(InstrId Id);

  /// Number of Store instructions: the paper's "insertion points" metric.
  unsigned countStores() const;

  /// Number of synthesized fences currently in the body.
  unsigned countSynthesizedFences() const;

private:
  std::unordered_map<InstrId, size_t> IdToIndex;
};

/// A module-level global variable occupying SizeWords consecutive words of
/// shared memory. All globals are shared between threads.
struct GlobalVar {
  std::string Name;
  uint32_t SizeWords = 1;
  std::vector<Word> Init; ///< Zero-filled up to SizeWords if shorter.
};

/// A whole program: globals plus functions. Owns the InstrId counter so
/// labels are unique module-wide and survive cloning.
class Module {
public:
  std::vector<Function> Funcs;
  std::vector<GlobalVar> Globals;

  /// Allocates the next fresh instruction label.
  InstrId nextInstrId() { return NextId++; }

  /// Ensures future labels are strictly greater than \p Id (used when a
  /// module is reconstructed from its textual form).
  void reserveInstrIdsThrough(InstrId Id) {
    if (Id >= NextId)
      NextId = Id + 1;
  }

  FuncId addFunction(Function F);
  GlobalId addGlobal(GlobalVar G);

  std::optional<FuncId> findFunction(const std::string &Name) const;
  std::optional<GlobalId> findGlobal(const std::string &Name) const;

  Function &function(FuncId F) {
    assert(F < Funcs.size());
    return Funcs[F];
  }
  const Function &function(FuncId F) const {
    assert(F < Funcs.size());
    return Funcs[F];
  }

  /// Returns the function containing label \p Id, or nullopt.
  std::optional<FuncId> functionOfLabel(InstrId Id) const;

  /// Total instruction count: the paper's "bytecode LOC" metric.
  unsigned totalInstrCount() const;

  /// Total store count across functions: the "insertion points" metric.
  unsigned totalStoreCount() const;

  /// Rebuilds all function label indexes.
  void buildIndexes();

  /// True when every function's label index is current (a copy carries
  /// its source's indexes).
  bool indexesCurrent() const;

private:
  InstrId NextId = 1;
  std::unordered_map<std::string, FuncId> FuncByName;
  std::unordered_map<std::string, GlobalId> GlobalByName;
};

} // namespace dfence::ir

#endif // DFENCE_IR_MODULE_H
