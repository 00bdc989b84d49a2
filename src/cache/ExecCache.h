//===- ExecCache.h - Whole-round execution result cache ---------*- C++ -*-===//
//
// Under the nominal-index plan (synth/Synthesizer.cpp, planRound) the K
// executions of a round are a pure function of the module they run, the
// round's first global execution index, K, and the run's configuration —
// and so are their verdicts, once the spec is part of that configuration.
// An identical request (re-verifying an unchanged program with the same
// seed and knobs, or the serve daemon seeing the same request again)
// therefore re-runs rounds that already ran. The ExecCache stores whole
// rounds: synthesize() looks a round up on its merge thread before
// dispatching it and, on a hit, folds the stored slots exactly as fresh
// ones without touching the pool. Slots of one run never repeat (each has
// its own seed), so a run never hits its own entries; the traffic the
// cache serves is repeated requests.
//
// A stored round is compact. Each slot is an exec::SlotRecord: outcome,
// execution stats and step count, attempts, the discarded / timed-out /
// violating / check-out-of-budget flags, and the length of its repair
// disjunction when it violated. The repairs of the violating slots are
// kept back to back in slot order, and the round's first violation keeps
// its text, the only one a result reports. Histories, traces, messages and
// the repairs of non-violating slots are dropped, which is why bundle
// capture disables the cache. The merge fold reads the same records for a
// fresh round, so a stored round folds exactly as the fresh one did. Only
// rounds that ran to the end with no timed-out slot are stored.
//
// A repair round also keeps its repair step (RepairStep): the predicates
// it added to Φ's universe, the minimum model it enforced and the solve's
// deterministic effort. Which predicates a round chooses depends on its
// records and on the numbering of Φ's variables, so the key carries a
// running fingerprint of the universe before the round; a hit replays the
// step onto the same numbering, with no clause built and no solve run.
// A round that fed Φ but ended the run (repair budget, solver defect) is
// not stored at all, so every hit that needs a step has one. Capacity
// and the lifetime counters are counted in executions; insertion stops at
// the capacity (no eviction). bytes() reports what the stored rounds hold.
//
// Round keys start from fingerprintModule, a structural hash of exactly
// what ir::printModule renders: globals (name, size, init values) and, per
// function, its name, parameter and register counts and every
// instruction's label, opcode, source line and the operands, immediate,
// operator and fence kinds, (synth) mark, callee, global index and branch
// targets its opcode prints. Modules that print the same text hash the
// same; nothing the printer leaves out (the module's next free label,
// name indexes) is hashed. It costs a pass over the instructions, with no
// text built.
//
// One cache serves any number of concurrent synthesize() calls, each from
// its merge thread: a mutex guards the round map and the counters. A
// stored round is immutable and never replaced or evicted, so the pointer
// lookup() returns stays valid while the cache lives. When two runs store
// the same key, the first insert wins; the key pins every input of the
// round, so both held the same round. Canonical results never depend on
// hits. Which of two identical runs in flight together reports the hits
// does: both may miss and run, so a run's cache statistics depend on
// whether identical runs overlap it.
//
//===----------------------------------------------------------------------===//

#ifndef DFENCE_CACHE_EXECCACHE_H
#define DFENCE_CACHE_EXECCACHE_H

#include "exec/RoundRunner.h"
#include "vm/Client.h"

#include <compare>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace dfence::ir {
class Module;
} // namespace dfence::ir

namespace dfence::cache {

/// Fingerprint of a module's observable program text: a structural hash
/// of every field ir::printModule renders (see the file comment).
/// Recompute after enforcement mutates the module.
uint64_t fingerprintModule(const ir::Module &M);

/// Fingerprint of a client's semantics: init function and the per-thread
/// call scripts with literal/backref arguments. The advisory Name is
/// excluded — it never reaches the engine.
uint64_t fingerprintClient(const vm::Client &C);

/// Folds the bytes of \p S into fingerprint \p H.
uint64_t fingerprintString(uint64_t H, const std::string &S);

/// Folds predicate \p P into the running fingerprint \p Fp of Φ's
/// predicate universe (its predicates in variable order). The synthesizer
/// extends it each time the universe gains a predicate.
uint64_t extendUniverseFingerprint(uint64_t Fp,
                                   const vm::OrderingPredicate &P);

/// The fingerprint of an empty predicate universe.
inline constexpr uint64_t EmptyUniverseFp = 0x452821e638d01377ULL;

/// Identifies one round of one run. RunFp must cover every input of the
/// round's slots besides the module: clients, seed and flush streams,
/// step budget, retry policy, execution knobs, spec and sequential spec.
/// UniverseFp pins the numbering of Φ's variables before the round, which
/// the stored repair step was solved under.
struct RoundKey {
  uint64_t ModuleFp = 0;
  uint64_t RunFp = 0;
  uint64_t First = 0; ///< Global index of the round's first execution.
  uint32_t K = 0;     ///< Executions per round.
  uint64_t UniverseFp = EmptyUniverseFp;

  auto operator<=>(const RoundKey &) const = default;
};

/// The repair step of a stored repair round: what the merge thread did
/// with Φ after folding it. A pure function of the round's records and of
/// the universe its key pins, so a hit replays it instead of building
/// clauses and solving.
struct RepairStep {
  /// The predicates the round added to Φ's universe, in first-seen
  /// (variable) order.
  std::vector<vm::OrderingPredicate> NewPredicates;
  /// The minimum model's predicates, in the order they were enforced.
  std::vector<vm::OrderingPredicate> Chosen;
  /// The solve's deterministic effort (sat::SolveStats without the clock).
  uint64_t SatClauses = 0;
  uint64_t SatModels = 0;
  uint64_t SatNodes = 0;
  bool SatTruncated = false;

  bool operator==(const RepairStep &) const = default;

  /// Bytes the step holds: its predicates and effort fields.
  size_t bytes() const {
    return (NewPredicates.size() + Chosen.size()) *
               sizeof(vm::OrderingPredicate) +
           3 * sizeof(uint64_t) + sizeof(bool);
  }
};

/// One stored round (see the file comment).
struct StoredRound {
  std::vector<exec::SlotRecord> Slots;
  /// The repair disjunctions of the violating slots, in slot order; slot
  /// I's is the next Slots[I].NumRepairs entries.
  std::vector<vm::OrderingPredicate> Repairs;
  /// Description of the round's first violating slot; empty when none.
  std::string FirstViolation;
  /// Set exactly when the round repaired the program (see the file
  /// comment).
  std::optional<RepairStep> Step;

  /// Compacts the executed slots of a fresh round whose first violation
  /// is described by \p FirstViolation. The step is set once solved.
  static StoredRound fromSlots(std::span<const exec::RoundSlot> Slots,
                               std::string FirstViolation);

  bool operator==(const StoredRound &) const = default;

  /// Bytes the round holds: its records, predicates, text and step.
  size_t bytes() const {
    return Slots.size() * sizeof(exec::SlotRecord) +
           Repairs.size() * sizeof(vm::OrderingPredicate) +
           FirstViolation.size() + (Step ? Step->bytes() : 0);
  }
};

class ExecCache {
public:
  /// \p MaxExecutions caps the stored slots summed over all rounds.
  explicit ExecCache(size_t MaxExecutions = 1 << 15)
      : MaxExecutions(MaxExecutions) {}

  /// Lifetime accounting, counted in executions (a round lookup counts
  /// K). The serve daemon keeps its cache across requests and reports
  /// these. Purely observational: the counters never feed back into
  /// lookup/insert decisions.
  struct Stats {
    uint64_t Lookups = 0;
    uint64_t Hits = 0;
    uint64_t Inserts = 0;
    uint64_t RejectedFull = 0; ///< Executions not stored at capacity.
  };

  /// The round stored under \p K, or null. Stays valid (and unchanged)
  /// while the cache lives: stored rounds are never replaced or evicted.
  const StoredRound *lookup(const RoundKey &K);

  /// What insert did with a round.
  enum class Insert : uint8_t {
    Stored,
    Present, ///< The key was stored first (by this or a concurrent run).
    Full,    ///< The round does not fit in the remaining capacity.
  };

  /// Stores round \p R under \p K unless the key is present or the round
  /// does not fit, checked in that order.
  Insert insert(const RoundKey &K, StoredRound R);

  /// Stored executions.
  size_t size() const;
  size_t capacity() const { return MaxExecutions; }
  /// Bytes the stored rounds hold (StoredRound::bytes summed).
  size_t bytes() const;

  /// Every stored round by key. Unsynchronized: only for a cache no run
  /// is using (tests compare what runs stored).
  const std::map<RoundKey, StoredRound> &rounds() const { return Rounds; }

  /// Snapshot of the lifetime counters.
  Stats stats() const;

private:
  const size_t MaxExecutions;
  mutable std::mutex Mu;
  std::map<RoundKey, StoredRound> Rounds;
  size_t Stored = 0, Bytes = 0;
  Stats Counts;
};

} // namespace dfence::cache

#endif // DFENCE_CACHE_EXECCACHE_H
