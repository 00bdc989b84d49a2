//===- Obs.h - Observability context (the one handle to thread) -*- C++ -*-===//
//
// The umbrella the engine layers carry: three independently-nullable
// sinks. A null ObsContext (the default everywhere) means observability
// is off, and every instrumentation site must then cost at most a branch
// on a null pointer — no clock reads, no allocation, no formatting. The
// OBS_SPAN / OBS_COUNT helpers encode that contract:
//
//   obs::Counter *C = obs::counterOrNull(Cfg.Obs, "synth_rounds_total");
//   ...hot loop...
//   OBS_COUNT(C, 1);                       // if (C) C->add(1);
//
//   OBS_SPAN(S, obs::traceOrNull(Cfg.Obs), "round", "synth", 0);
//   S.arg("round", Round);                 // no-op when sink is null
//
// Ownership: the context and its sinks outlive the run they observe; the
// CLI stack-allocates them around synthesize(), tests do the same.
//
//===----------------------------------------------------------------------===//

#ifndef DFENCE_OBS_OBS_H
#define DFENCE_OBS_OBS_H

#include "obs/Log.h"
#include "obs/Metrics.h"
#include "obs/Profiler.h"
#include "obs/Trace.h"

namespace dfence::obs {

struct ObsContext {
  Registry *Metrics = nullptr;
  TraceSink *Trace = nullptr;
  Logger *Log = nullptr;
  /// The flight recorder's phase profiler (see Profiler.h). Null — the
  /// default — keeps every phase hook at a null-pointer branch: no clock
  /// reads and no opcode step counting. Requires Metrics (the profiler's
  /// series live in that registry).
  Profiler *Prof = nullptr;
};

inline Counter *counterOrNull(const ObsContext *O,
                              const std::string &Name) {
  return (O && O->Metrics) ? &O->Metrics->counter(Name) : nullptr;
}

inline Gauge *gaugeOrNull(const ObsContext *O, const std::string &Name) {
  return (O && O->Metrics) ? &O->Metrics->gauge(Name) : nullptr;
}

inline Histogram *histogramOrNull(const ObsContext *O,
                                  const std::string &Name) {
  return (O && O->Metrics) ? &O->Metrics->histogram(Name) : nullptr;
}

inline TraceSink *traceOrNull(const ObsContext *O) {
  return O ? O->Trace : nullptr;
}

inline Logger *logOrNull(const ObsContext *O) {
  return O ? O->Log : nullptr;
}

inline Profiler *profilerOrNull(const ObsContext *O) {
  return O ? O->Prof : nullptr;
}

} // namespace dfence::obs

/// Adds \p N to a (possibly null) pre-resolved Counter*.
#define OBS_COUNT(CounterPtr, N)                                          \
  do {                                                                    \
    if (auto *ObsCnt_ = (CounterPtr))                                     \
      ObsCnt_->add(N);                                                    \
  } while (0)

/// Declares an RAII span \p Var on a (possibly null) TraceSink*.
#define OBS_SPAN(Var, SinkPtr, Name, Cat, Tid)                            \
  ::dfence::obs::Span Var((SinkPtr), (Name), (Cat), (Tid))

#endif // DFENCE_OBS_OBS_H
