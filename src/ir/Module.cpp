//===- Module.cpp ---------------------------------------------------------===//

#include "ir/Module.h"

#include "support/Diagnostics.h"

#include <algorithm>

using namespace dfence;
using namespace dfence::ir;

void Function::buildIndex() {
  IdToIndex.clear();
  IdToIndex.reserve(Body.size());
  for (size_t I = 0, E = Body.size(); I != E; ++I) {
    assert(Body[I].Id != InvalidInstrId && "instruction without a label");
    bool Inserted = IdToIndex.emplace(Body[I].Id, I).second;
    if (!Inserted)
      reportFatalError("duplicate instruction label in function " + Name);
  }
}

bool Function::indexIsCurrent() const {
  if (IdToIndex.size() != Body.size())
    return false;
  for (size_t I = 0, E = Body.size(); I != E; ++I) {
    auto It = IdToIndex.find(Body[I].Id);
    if (It == IdToIndex.end() || It->second != I)
      return false;
  }
  return true;
}

void Function::insertAfter(InstrId After, Instr I) {
  assert(I.Id != InvalidInstrId && "inserted instruction needs a label");
  size_t Pos = indexOf(After);
  Body.insert(Body.begin() + static_cast<ptrdiff_t>(Pos) + 1, std::move(I));
  buildIndex();
}

void Function::erase(InstrId Id) {
  size_t Pos = indexOf(Id);
  Body.erase(Body.begin() + static_cast<ptrdiff_t>(Pos));
  buildIndex();
}

unsigned Function::countStores() const {
  unsigned N = 0;
  for (const Instr &I : Body)
    if (I.Op == Opcode::Store)
      ++N;
  return N;
}

unsigned Function::countSynthesizedFences() const {
  unsigned N = 0;
  for (const Instr &I : Body)
    if (I.Op == Opcode::Fence && I.Synthesized)
      ++N;
  return N;
}

FuncId Module::addFunction(Function F) {
  FuncId Id = static_cast<FuncId>(Funcs.size());
  bool Inserted = FuncByName.emplace(F.Name, Id).second;
  if (!Inserted)
    reportFatalError("duplicate function name: " + F.Name);
  F.buildIndex();
  Funcs.push_back(std::move(F));
  return Id;
}

GlobalId Module::addGlobal(GlobalVar G) {
  GlobalId Id = static_cast<GlobalId>(Globals.size());
  bool Inserted = GlobalByName.emplace(G.Name, Id).second;
  if (!Inserted)
    reportFatalError("duplicate global name: " + G.Name);
  Globals.push_back(std::move(G));
  return Id;
}

std::optional<FuncId> Module::findFunction(const std::string &Name) const {
  auto It = FuncByName.find(Name);
  if (It == FuncByName.end())
    return std::nullopt;
  return It->second;
}

std::optional<GlobalId> Module::findGlobal(const std::string &Name) const {
  auto It = GlobalByName.find(Name);
  if (It == GlobalByName.end())
    return std::nullopt;
  return It->second;
}

std::optional<FuncId> Module::functionOfLabel(InstrId Id) const {
  for (FuncId F = 0, E = static_cast<FuncId>(Funcs.size()); F != E; ++F)
    if (Funcs[F].containsLabel(Id))
      return F;
  return std::nullopt;
}

unsigned Module::totalInstrCount() const {
  unsigned N = 0;
  for (const Function &F : Funcs)
    N += static_cast<unsigned>(F.Body.size());
  return N;
}

unsigned Module::totalStoreCount() const {
  unsigned N = 0;
  for (const Function &F : Funcs)
    N += F.countStores();
  return N;
}

void Module::buildIndexes() {
  for (Function &F : Funcs)
    F.buildIndex();
}

bool Module::indexesCurrent() const {
  return std::all_of(Funcs.begin(), Funcs.end(),
                     [](const Function &F) { return F.indexIsCurrent(); });
}
