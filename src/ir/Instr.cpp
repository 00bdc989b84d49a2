//===- Instr.cpp ----------------------------------------------------------===//

#include "ir/Instr.h"

#include "support/Diagnostics.h"

using namespace dfence;
using namespace dfence::ir;

const char *ir::opcodeName(Opcode Op) {
  switch (Op) {
  case Opcode::Const:      return "const";
  case Opcode::Move:       return "move";
  case Opcode::BinOp:      return "binop";
  case Opcode::Not:        return "not";
  case Opcode::Load:       return "load";
  case Opcode::Store:      return "store";
  case Opcode::Cas:        return "cas";
  case Opcode::Fence:      return "fence";
  case Opcode::GlobalAddr: return "gaddr";
  case Opcode::Alloc:      return "alloc";
  case Opcode::Free:       return "free";
  case Opcode::Br:         return "br";
  case Opcode::CondBr:     return "cbr";
  case Opcode::Call:       return "call";
  case Opcode::Ret:        return "ret";
  case Opcode::Self:       return "self";
  case Opcode::Spawn:      return "spawn";
  case Opcode::Join:       return "join";
  case Opcode::Lock:       return "lock";
  case Opcode::Unlock:     return "unlock";
  case Opcode::Assert:     return "assert";
  case Opcode::Nop:        return "nop";
  }
  dfenceUnreachable("invalid opcode");
}

std::vector<std::string> ir::opcodeNames() {
  std::vector<std::string> Names;
  for (unsigned I = 0; I != NumOpcodes; ++I)
    Names.push_back(opcodeName(static_cast<Opcode>(I)));
  return Names;
}

const char *ir::fenceKindName(FenceKind Kind) {
  switch (Kind) {
  case FenceKind::Full:       return "full";
  case FenceKind::StoreStore: return "st-st";
  case FenceKind::StoreLoad:  return "st-ld";
  }
  dfenceUnreachable("invalid fence kind");
}

const char *ir::binOpName(BinOpKind Kind) {
  switch (Kind) {
  case BinOpKind::Add: return "+";
  case BinOpKind::Sub: return "-";
  case BinOpKind::Mul: return "*";
  case BinOpKind::Div: return "/";
  case BinOpKind::Rem: return "%";
  case BinOpKind::Eq:  return "==";
  case BinOpKind::Ne:  return "!=";
  case BinOpKind::Lt:  return "<";
  case BinOpKind::Le:  return "<=";
  case BinOpKind::Gt:  return ">";
  case BinOpKind::Ge:  return ">=";
  case BinOpKind::And: return "&";
  case BinOpKind::Or:  return "|";
  case BinOpKind::Xor: return "^";
  case BinOpKind::Shl: return "<<";
  case BinOpKind::Shr: return ">>";
  }
  dfenceUnreachable("invalid binop kind");
}

Word ir::evalBinOp(BinOpKind Kind, Word A, Word B) {
  int64_t SA = static_cast<int64_t>(A);
  int64_t SB = static_cast<int64_t>(B);
  switch (Kind) {
  case BinOpKind::Add: return A + B;
  case BinOpKind::Sub: return A - B;
  case BinOpKind::Mul: return A * B;
  case BinOpKind::Div: return SB == 0 ? 0 : static_cast<Word>(SA / SB);
  case BinOpKind::Rem: return SB == 0 ? 0 : static_cast<Word>(SA % SB);
  case BinOpKind::Eq:  return A == B;
  case BinOpKind::Ne:  return A != B;
  case BinOpKind::Lt:  return SA < SB;
  case BinOpKind::Le:  return SA <= SB;
  case BinOpKind::Gt:  return SA > SB;
  case BinOpKind::Ge:  return SA >= SB;
  case BinOpKind::And: return A & B;
  case BinOpKind::Or:  return A | B;
  case BinOpKind::Xor: return A ^ B;
  case BinOpKind::Shl: return B >= 64 ? 0 : A << B;
  case BinOpKind::Shr: return B >= 64 ? 0 : A >> B;
  }
  dfenceUnreachable("invalid binop kind");
}
