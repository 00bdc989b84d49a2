//===- Convergence.h - Per-round convergence telemetry ---------*- C++ -*-===//
//
// The second leg of the flight recorder: a compact per-round record of how
// synthesis is converging — violations found, growth of the predicate
// universe Φ, cache effectiveness, SAT effort, wall time, clean-round
// streak — emitted as one JSON object per line (`--round-log FILE`). The
// stream is the reward signal the ROADMAP's fuzzer/bandit work consumes:
// "violations per second" and "new predicates per round" are both directly
// readable off it.
//
// Layering: obs sits below synth, so this sink only writes lines; the
// synthesizer builds each one from its RoundStats (synth::roundStatsJson,
// which fixes the record schema).
//
// Determinism note: most fields are deterministic (byte-identical at any
// --jobs and either dispatch mode); roundWallUs/sat.solveUs are wall-clock
// and the cache-hit fields depend on the cache mode. The canonical
// serve/CLI result serialization therefore carries only the deterministic
// subset — the round log file is the place the rest lives.
//
//===----------------------------------------------------------------------===//

#ifndef DFENCE_OBS_CONVERGENCE_H
#define DFENCE_OBS_CONVERGENCE_H

#include "support/Json.h"

#include <mutex>
#include <ostream>

namespace dfence::obs {

/// Thread-safe JSON-lines sink for round records. The caller owns the
/// stream (a file the CLI opened, or stdout) and keeps it alive for the
/// writer's lifetime; each write emits exactly one line and flushes, so a
/// consumer tailing the file sees rounds as they complete.
class RoundLogWriter {
public:
  explicit RoundLogWriter(std::ostream &OS) : OS(OS) {}

  void write(const Json &Line);

private:
  std::ostream &OS;
  std::mutex Mu;
};

} // namespace dfence::obs

#endif // DFENCE_OBS_CONVERGENCE_H
