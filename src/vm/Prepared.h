//===- Prepared.h - Pre-resolved program + clients for execution -*- C++ -*-===//
//
// A PreparedProgram binds a module to its clients once per synthesis round
// and front-loads everything a single execution would otherwise redo:
// every client/call function name is resolved to its FuncId (replacing the
// engine's per-run string-keyed cache with plain index lookups), per-call
// arity and argument back-references are validated, per-function frame
// sizes are tabulated, and each client's total top-level call count — the
// exact history capacity — is precomputed. The hot loop (ExecContext) then
// never touches a function name.
//
// The prepared data holds pointers into the module and the clients it was
// built from: both must outlive it and stay unmodified — except that the
// synthesizer may insert fences into function bodies between rounds, which
// changes no FuncId, name, arity or register count. It rebuilds the
// PreparedProgram after enforcement anyway, so even that window is closed.
//
//===----------------------------------------------------------------------===//

#ifndef DFENCE_VM_PREPARED_H
#define DFENCE_VM_PREPARED_H

#include "ir/Module.h"
#include "vm/Client.h"

#include <cstdint>
#include <string>
#include <vector>

namespace dfence::vm {

/// One client thread's call stream with every callee pre-resolved;
/// Calls[I] is the FuncId of ThreadScript::Calls[I].
struct PreparedThread {
  std::vector<ir::FuncId> Calls;
};

/// Pre-resolved branch targets and dispatch indices for one function.
/// For the Br/CondBr at Body position Ip, Jump0[Ip] / Jump1[Ip] are the
/// Body positions of Target0 / Target1 — the label hash lookup hoisted
/// out of the interpreter's hottest dispatch path. Entries at non-branch
/// positions are unspecified. OpIdx[Ip] is the instruction's dispatch-
/// table index (the opcode, pre-translated at prepare time into one
/// dense contiguous byte array): the interpreter's threaded dispatch
/// indexes its jump table straight off this stream instead of loading
/// the opcode out of the ~100-byte Instr records.
struct PreparedFunc {
  std::vector<uint32_t> Jump0;
  std::vector<uint32_t> Jump1;
  std::vector<uint8_t> OpIdx;
};

/// One client, resolved against the module.
struct PreparedClient {
  const Client *C = nullptr;
  ir::FuncId Init = 0; ///< Meaningful only when HasInit.
  bool HasInit = false;
  std::vector<PreparedThread> Threads;
  /// Total top-level calls across all threads — the history capacity.
  size_t TotalCalls = 0;
};

/// Checks \p C against \p M: every callee (and the init function) must
/// exist, every call must pass the callee's arity, and an argument may
/// only reference an earlier call of its thread. Returns the first
/// defect's diagnostic, or empty when \p C can run.
std::string checkClient(const ir::Module &M, const Client &C);

/// A module plus its clients, resolved and validated for execution.
class PreparedProgram {
public:
  /// Prepares every client in \p Clients against \p M. A client that
  /// fails checkClient is fatal here; callers that take clients from
  /// users check them first.
  PreparedProgram(const ir::Module &M, const std::vector<Client> &Clients);

  /// Single-client convenience (the runExecution wrapper path).
  PreparedProgram(const ir::Module &M, const Client &C);

  const ir::Module &module() const { return *M; }
  size_t numClients() const { return Clients.size(); }
  const PreparedClient &client(size_t I) const { return Clients[I]; }

  /// Register count (frame size) of \p F; index lookup, no Module deref.
  uint32_t frameSize(ir::FuncId F) const { return FrameSizes[F]; }

  /// Pre-resolved branch targets of \p F; index lookup, no hash probe.
  const PreparedFunc &func(ir::FuncId F) const { return Funcs[F]; }

private:
  void prepareModule();
  PreparedClient prepareClient(const Client &C) const;

  const ir::Module *M;
  std::vector<PreparedClient> Clients;
  std::vector<uint32_t> FrameSizes;  ///< Indexed by FuncId.
  std::vector<PreparedFunc> Funcs;   ///< Indexed by FuncId.
};

} // namespace dfence::vm

#endif // DFENCE_VM_PREPARED_H
