//===- Instr.h - Instructions of the concurrent register IR ----*- C++ -*-===//
//
// The IR mirrors the statement language of the DFENCE paper (Table 1):
// loads, stores, compare-and-swap, fences, fork/join, call/return, plus the
// ordinary scalar plumbing (constants, arithmetic, branches) that the paper
// inherits from LLVM bytecode. Programs operate on word-sized values; heap
// and global memory is a flat word-addressed array shared by all threads
// and reached only through Load/Store/Cas, which are the instructions that
// interact with the relaxed memory model.
//
// Every instruction carries a stable, module-unique label (InstrId). Fence
// synthesis talks about instructions exclusively through these labels, so
// inserting fences never invalidates previously collected ordering
// predicates.
//
//===----------------------------------------------------------------------===//

#ifndef DFENCE_IR_INSTR_H
#define DFENCE_IR_INSTR_H

#include <cstdint>
#include <string>
#include <vector>

namespace dfence::ir {

/// Virtual register index within a stack frame.
using Reg = uint32_t;

/// Stable module-unique instruction label. Label 0 is reserved/invalid.
using InstrId = uint32_t;

/// Index of a function within its module.
using FuncId = uint32_t;

/// Index of a global variable within its module.
using GlobalId = uint32_t;

/// The value/address domain D of the paper's semantics: 64-bit words.
using Word = uint64_t;

constexpr InstrId InvalidInstrId = 0;

/// Instruction opcodes.
enum class Opcode : uint8_t {
  Const,      ///< Dst = Imm
  Move,       ///< Dst = Ops[0]
  BinOp,      ///< Dst = Ops[0] <BinOp> Ops[1]
  Not,        ///< Dst = (Ops[0] == 0)
  Load,       ///< Dst = sharedmem[Ops[0]]        (memory-model sensitive)
  Store,      ///< sharedmem[Ops[0]] = Ops[1]     (memory-model sensitive)
  Cas,        ///< Dst = CAS(addr=Ops[0], expected=Ops[1], desired=Ops[2])
  Fence,      ///< memory fence of kind FK
  GlobalAddr, ///< Dst = address of global GV
  Alloc,      ///< Dst = malloc(Ops[0] words); never returns 0
  Free,       ///< free(Ops[0])
  Br,         ///< goto Target0
  CondBr,     ///< if (Ops[0] != 0) goto Target0 else goto Target1
  Call,       ///< Dst = Callee(Ops...)
  Ret,        ///< return Ops[0] if present, else 0
  Self,       ///< Dst = calling thread id
  Spawn,      ///< Dst = fork thread running Callee(Ops...)
  Join,       ///< join thread Ops[0]
  Lock,       ///< acquire spin lock at address Ops[0] (full fence around)
  Unlock,     ///< release spin lock at address Ops[0] (full fence around)
  Assert,     ///< program assertion: Ops[0] must be nonzero
  Nop,        ///< no operation
};

/// Binary operator kinds for Opcode::BinOp.
enum class BinOpKind : uint8_t {
  Add, Sub, Mul, Div, Rem,
  Eq, Ne, Lt, Le, Gt, Ge,   // signed comparisons, result 0/1
  And, Or, Xor, Shl, Shr,
};

/// Fence flavors. All flavors drain the issuing thread's store buffers in
/// the operational semantics; the distinction matters for reporting and
/// mirrors the specific fence the paper inserts (store-store when the
/// later access is a store, store-load when it is a load).
enum class FenceKind : uint8_t { Full, StoreStore, StoreLoad };

/// Number of opcodes; dispatch-stream bytes are below it.
constexpr unsigned NumOpcodes = static_cast<unsigned>(Opcode::Nop) + 1;

/// Returns a printable name for \p Op.
const char *opcodeName(Opcode Op);

/// Every opcodeName, indexed by opcode byte.
std::vector<std::string> opcodeNames();

/// Returns a printable name for \p Kind ("st-st", "st-ld", "full").
const char *fenceKindName(FenceKind Kind);

/// Returns a printable spelling for \p Kind ("+", "==", ...).
const char *binOpName(BinOpKind Kind);

/// Applies \p Kind to two words (signed semantics for compare/div/shift).
Word evalBinOp(BinOpKind Kind, Word A, Word B);

/// A single IR instruction.
///
/// Kept as one plain struct (rather than a class hierarchy) because the
/// interpreter dispatches on the opcode millions of times per execution and
/// the synthesizer clones whole modules between repair rounds.
struct Instr {
  Opcode Op = Opcode::Nop;
  InstrId Id = InvalidInstrId; ///< Stable module-unique label.
  Reg Dst = 0;                 ///< Destination register (when producing).
  std::vector<Reg> Ops;        ///< Operand registers.
  Word Imm = 0;                ///< Immediate for Const.
  BinOpKind BK = BinOpKind::Add;
  FenceKind FK = FenceKind::Full;
  FuncId Callee = 0;           ///< For Call/Spawn.
  GlobalId GV = 0;             ///< For GlobalAddr.
  InstrId Target0 = InvalidInstrId; ///< Branch target (by label).
  InstrId Target1 = InvalidInstrId; ///< CondBr else target.
  uint32_t SrcLine = 0;        ///< MiniC source line, 0 if synthetic.
  bool Synthesized = false;    ///< True for fences inserted by the tool.

  bool isTerminator() const {
    return Op == Opcode::Br || Op == Opcode::CondBr || Op == Opcode::Ret;
  }

  /// True for instructions that touch shared memory and therefore interact
  /// with the memory model (and with fence inference).
  bool isSharedAccess() const {
    switch (Op) {
    case Opcode::Load:
    case Opcode::Store:
    case Opcode::Cas:
    case Opcode::Lock:
    case Opcode::Unlock:
    case Opcode::Free:
      return true;
    default:
      return false;
    }
  }

  bool producesValue() const {
    switch (Op) {
    case Opcode::Const:
    case Opcode::Move:
    case Opcode::BinOp:
    case Opcode::Not:
    case Opcode::Load:
    case Opcode::Cas:
    case Opcode::GlobalAddr:
    case Opcode::Alloc:
    case Opcode::Call:
    case Opcode::Self:
    case Opcode::Spawn:
      return true;
    default:
      return false;
    }
  }
};

} // namespace dfence::ir

#endif // DFENCE_IR_INSTR_H
