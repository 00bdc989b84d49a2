//===- Protocol.h - dfence serve request/response schema --------*- C++ -*-===//
//
// The wire vocabulary of the synthesis-as-a-service daemon: JSON-lines,
// one request object in, one response object out, correlated by the
// caller-chosen "id". The schema uses the one-shot CLI's flag names,
// and `dfence synth`/`dfence bench` fill a ServeRequest from their flags
// and resolve it with prepareJob, because the daemon's core guarantee is
// that an accepted request's canonical result is byte-identical to the
// one-shot run of the same request at the same --jobs.
//
// Request ops:
//   synth    {"op":"synth","source":<minic>,"client":<dsl>, knobs...}
//   bench    {"op":"bench","bench":<table-2 name>, knobs...}
//   ping     liveness probe; answered inline
//   stats    daemon statistics snapshot; answered inline
//   status   live introspection snapshot (queue, in-flight request with
//            elapsed time); answered inline even while work is running
//   shutdown begin graceful drain; answered inline
//
// Response statuses:
//   ok        the run finished (result.status may still be cannot-fix)
//   timeout   the request's deadline expired; result is partial
//   degraded  budgets/crash forced the static-fencing fallback
//   rejected  admission refused (reason: queue_full | draining)
//   error     malformed request, config error, or unrecoverable failure
//
// Canonical-result rule: resultToJson must never include cache
// statistics — they are the only SynthResult fields allowed to differ
// between a warm daemon and a cold CLI run, so they travel in a sibling
// "cache" object instead (cacheStatsToJson).
//
//===----------------------------------------------------------------------===//

#ifndef DFENCE_SERVE_PROTOCOL_H
#define DFENCE_SERVE_PROTOCOL_H

#include "support/Json.h"
#include "synth/Synthesizer.h"
#include "vm/Client.h"
#include "vm/FaultPlan.h"

#include <optional>
#include <string>
#include <vector>

namespace dfence::serve {

/// The protocol identifier sent in the hello line and ping responses;
/// bump when the schema changes incompatibly.
inline constexpr const char *ProtoName = "dfence-serve-v1";

/// One parsed request. Knob defaults equal the CLI's, so an empty knob
/// set means "what `dfence synth file.mc --client DSL` would do".
struct ServeRequest {
  enum class Op : uint8_t { Synth, Bench, Ping, Stats, Status, Shutdown };

  std::string Id; ///< Caller-chosen correlation id; echoed verbatim.
  Op Kind = Op::Ping;

  // Work definition (synth: Source+ClientDsl; bench: BenchName).
  std::string Source;
  std::string ClientDsl;
  std::string InitFunc;
  std::string BenchName;

  // Synthesis knobs, CLI names and defaults.
  std::string Model = "pso";
  std::string Spec;    ///< Empty = command default (safety / bench's).
  std::string SeqSpec;
  std::string Enforce = "fence";
  unsigned K = 1000;
  unsigned Rounds = 16;
  double Flush = -1.0; ///< < 0 = per-model default / portfolio.
  bool NoMerge = false;
  bool Dump = false;
  uint64_t Seed = 0;   ///< 0 = the synthesizer's default base seed.
  bool CacheOn = true;

  // Resilience knobs.
  uint32_t ExecMs = 0;
  unsigned Retries = 2;
  uint32_t RoundMs = 0;
  uint32_t TotalMs = 0;    ///< Synthesis wall budget (degrade on expiry).
  uint32_t DeadlineMs = 0; ///< Request deadline incl. queue wait;
                           ///< 0 = the server's default.
  /// Admission priority: "high" requests are dispatched before "normal"
  /// ones (FIFO within a level). Ordering only — a high request at a
  /// full queue is still shed.
  bool HighPriority = false;
  bool CaptureBundles = false;
  unsigned MaxBundles = 4;
  bool HasFaults = false;
  vm::FaultPlan Faults; ///< Fault-injection plan (bundle "faults" schema).
};

/// Memory models by CLI/request name: sc | tso | pso.
std::optional<vm::MemModel> modelByName(const std::string &S);

/// Spec kinds by CLI/request name: safety | nogarbage | sc | lin.
std::optional<synth::SpecKind> specByFlag(const std::string &S);

/// Parses one request object. Returns nullopt with \p Error set on
/// schema violations (unknown op, missing work definition, bad knob).
std::optional<ServeRequest> parseRequest(const Json &J, std::string &Error);

/// Everything prepareJob resolved for a synth/bench request: the
/// compiled module, the clients, and a SynthConfig with every semantic
/// knob set. The server stamps its own execution environment (Pool,
/// Jobs, shared cache, Obs, RequestTag, deadline caps) before running.
struct SynthJob {
  ir::Module M;
  std::vector<vm::Client> Clients;
  synth::SynthConfig Cfg;
};

/// Resolves \p R into a runnable job: compiles the source (or looks up
/// the benchmark), parses the client DSL, resolves spec/seq-spec, and
/// fills the config. The daemon, the one-shot CLI, the fuzzer and
/// perfbench all resolve requests here. Deterministic: a given request
/// always produces the same job or the same error.
std::optional<SynthJob> prepareJob(const ServeRequest &R,
                                   std::string &Error);

//===--- Response builders (every response carries "id" and "status") --===//

Json makeHello();
Json makeErrorResponse(const std::string &Id, const std::string &Reason);
Json makeRejectedResponse(const std::string &Id,
                          const std::string &Reason);
Json makePongResponse(const std::string &Id);

/// The canonical result object: every deterministic SynthResult field,
/// cache statistics excluded by the canonical-result rule above.
/// \p IncludeModule additionally embeds the fenced module's printed IR.
Json resultToJson(const synth::SynthResult &R, bool IncludeModule = false);

/// The cache-statistics sibling object (jobs-invariant but warm/cold-
/// dependent, hence outside the canonical result).
Json cacheStatsToJson(const synth::SynthResult &R);

/// Maps a finished run to the response status string: "timeout" when the
/// run's wall budget expired, "degraded" for other degradations, "ok"
/// otherwise (ConfigError is the caller's job to turn into "error").
const char *statusOfResult(const synth::SynthResult &R);

} // namespace dfence::serve

#endif // DFENCE_SERVE_PROTOCOL_H
