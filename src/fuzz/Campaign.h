//===- Campaign.h - Fuzz campaign over the normal synthesis path -*- C++ -*-===//
//
// Runs a scenario corpus through synthesis and dedups the outcomes by
// repair fingerprint. Two execution paths, byte-identical by
// construction:
//
//   * direct — each scenario is turned into a serve-protocol request,
//     resolved with serve::prepareJob (exactly the daemon's/CLI's
//     semantics) and run in-process via synth::synthesize;
//   * via-serve — the same request lines are fanned through an
//     in-process serve::Server with N dispatcher slots, stressing the
//     concurrent dispatcher and its shared cache; the daemon's
//     canonical-result guarantee makes the per-scenario results equal
//     to the direct path's, so the distinct-fingerprint set cannot
//     differ (FuzzServeTest is the gate).
//
// Scenarios that fail frontend compilation or request validation are
// counted and skipped (fuzz_gen_rejected_total) — a campaign never dies
// on a generated program.
//
//===----------------------------------------------------------------------===//

#ifndef DFENCE_FUZZ_CAMPAIGN_H
#define DFENCE_FUZZ_CAMPAIGN_H

#include "fuzz/Fingerprint.h"
#include "fuzz/Generator.h"
#include "support/Json.h"

#include <iosfwd>
#include <string>
#include <vector>

namespace dfence::cache {
class ExecCache;
} // namespace dfence::cache
namespace dfence::obs {
struct ObsContext;
} // namespace dfence::obs

namespace dfence::fuzz {

struct CampaignConfig {
  std::string Model = "pso"; ///< "tso" | "pso".
  unsigned K = 60;           ///< Executions per round, per scenario.
  unsigned Rounds = 6;       ///< Max rounds per scenario.
  /// Direct path: synthesize() worker threads (0 = hardware). Results
  /// are jobs-invariant, so this only moves the wall clock.
  unsigned Jobs = 0;
  bool CacheOn = true;
  /// > 0 fans the campaign through an in-process serve daemon with this
  /// many dispatcher slots; 0 runs the direct path.
  unsigned ServeSlots = 0;
  unsigned ServeJobs = 0; ///< Serve-path pool width (0 = hardware).
  /// Direct path only: optional cross-scenario execution cache (warm
  /// campaigns). Not owned.
  cache::ExecCache *SharedCache = nullptr;
  /// Optional metrics/log sinks (fuzz_* counters); not owned.
  const obs::ObsContext *Obs = nullptr;
  /// Optional JSONL report stream: one line per scenario plus a summary
  /// line (the only line carrying wall-clock fields). Not owned.
  std::ostream *Report = nullptr;
};

/// One scenario's synthesis outcome, reduced to the deterministic
/// fields the fingerprint and the reports are built from.
struct ScenarioOutcome {
  std::string Name;
  std::string Family;
  uint64_t Seed = 0;
  /// Synth status name ("converged", "cannot-fix", ...) or "rejected"
  /// when the scenario never ran (compile/config rejection).
  std::string Status;
  std::string Reason; ///< Rejection reason; empty otherwise.
  uint64_t Violations = 0;
  uint64_t Executions = 0;
  unsigned Rounds = 0;
  std::vector<std::string> Fences;
  /// Fingerprint hex; empty when the scenario produced no violations
  /// (only violating scenarios enter the distinct table).
  std::string FingerprintHex;
};

/// One distinct-outcome bucket of the ranked table.
struct FingerprintBucket {
  std::string Hex;
  std::string Canon;
  std::string Family;
  std::string Status;
  std::string Exemplar; ///< First scenario (corpus order) in the bucket.
  uint64_t Count = 0;
  std::vector<std::string> Fences;
};

struct CampaignResult {
  std::vector<ScenarioOutcome> Outcomes; ///< Corpus order.
  /// Ranked: count descending, fingerprint ascending on ties.
  std::vector<FingerprintBucket> Distinct;
  uint64_t Scenarios = 0;
  uint64_t Rejected = 0;
  uint64_t Violating = 0;
  uint64_t ElapsedUs = 0; ///< Wall clock; never in canonicalJson().

  /// The deterministic campaign document: byte-identical for the same
  /// corpus and knobs at any Jobs value, cache mode and execution path.
  Json canonicalJson(const CampaignConfig &Cfg) const;
};

/// Renders \p S as the serve-protocol request line both paths run.
Json requestJson(const Scenario &S, const CampaignConfig &Cfg);

/// Runs the campaign. Never throws on generated-program failures; see
/// ScenarioOutcome::Status == "rejected".
CampaignResult runCampaign(const std::vector<Scenario> &Corpus,
                           const CampaignConfig &Cfg);

} // namespace dfence::fuzz

#endif // DFENCE_FUZZ_CAMPAIGN_H
