//===- StoreBuffer.cpp ----------------------------------------------------===//
//
// The buffer implementations themselves live in the header so the
// per-model interpreter inlines them; only the name table stays out of
// line.
//
//===----------------------------------------------------------------------===//

#include "vm/StoreBuffer.h"

using namespace dfence;
using namespace dfence::vm;

const char *vm::memModelName(MemModel M) {
  switch (M) {
  case MemModel::SC:  return "SC";
  case MemModel::TSO: return "TSO";
  case MemModel::PSO: return "PSO";
  }
  dfenceUnreachable("invalid memory model");
}
