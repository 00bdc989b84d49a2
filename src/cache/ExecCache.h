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
// A stored slot keeps everything the merge fold reads — outcome, stats,
// repair disjunction, verdict, harness accounting — but not the history
// or trace, which is why bundle capture disables the cache. Only rounds
// that ran to the end with no timed-out slot are stored. Capacity and the
// lifetime counters are counted in executions; insertion stops at the
// capacity (no eviction), so hits depend only on the sequence of lookups
// and inserts, never on timing.
//
// Only the merge thread of the one synthesize() call that owns the cache
// touches its rounds. The serve daemon shares caches across requests
// through ShardedExecCache, which serializes the requests of one shard.
//
//===----------------------------------------------------------------------===//

#ifndef DFENCE_CACHE_EXECCACHE_H
#define DFENCE_CACHE_EXECCACHE_H

#include "exec/RoundRunner.h"
#include "vm/Client.h"

#include <atomic>
#include <compare>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dfence::ir {
class Module;
} // namespace dfence::ir

namespace dfence::cache {

/// Fingerprint of a module's observable program text (hash of
/// ir::printModule, which renders every function, label and synthesized
/// fence). Recompute after enforcement mutates the module.
uint64_t fingerprintModule(const ir::Module &M);

/// Fingerprint of a client's semantics: init function and the per-thread
/// call scripts with literal/backref arguments. The advisory Name is
/// excluded — it never reaches the engine.
uint64_t fingerprintClient(const vm::Client &C);

/// Folds the bytes of \p S into fingerprint \p H.
uint64_t fingerprintString(uint64_t H, const std::string &S);

/// Identifies one round of one run. RunFp must cover every input of the
/// round's slots besides the module: clients, seed and flush streams,
/// step budget, retry policy, execution knobs, spec and sequential spec.
struct RoundKey {
  uint64_t ModuleFp = 0;
  uint64_t RunFp = 0;
  uint64_t First = 0; ///< Global index of the round's first execution.
  uint32_t K = 0;     ///< Executions per round.

  auto operator<=>(const RoundKey &) const = default;
};

class ExecCache {
public:
  /// \p MaxExecutions caps the stored slots summed over all rounds.
  explicit ExecCache(size_t MaxExecutions = 1 << 15)
      : MaxExecutions(MaxExecutions) {}

  /// Lifetime accounting, counted in executions (a round lookup counts
  /// K). The serve daemon keeps warm caches across requests and reports
  /// these. Purely observational: the counters never feed back into
  /// lookup/insert decisions.
  struct Stats {
    uint64_t Lookups = 0;
    uint64_t Hits = 0;
    uint64_t Inserts = 0;
    uint64_t RejectedFull = 0; ///< Executions not stored at capacity.
  };

  /// The slots stored for round \p K, or null.
  const std::vector<exec::RoundSlot> *lookup(const RoundKey &K);

  /// Stores a whole round's \p Slots (history and trace already dropped)
  /// under \p K. Returns false, storing nothing, when the key is present
  /// or the round does not fit in the remaining capacity.
  bool insert(const RoundKey &K, std::vector<exec::RoundSlot> Slots);

  /// Stored executions; safe to read while the owner inserts.
  size_t size() const { return Stored.load(std::memory_order_relaxed); }
  size_t capacity() const { return MaxExecutions; }

  /// Snapshot of the lifetime counters; safe to call while the owner
  /// looks up and inserts (values are individually consistent, not a
  /// global cut).
  Stats stats() const {
    Stats S;
    S.Lookups = Lookups.load(std::memory_order_relaxed);
    S.Hits = Hits.load(std::memory_order_relaxed);
    S.Inserts = Inserts.load(std::memory_order_relaxed);
    S.RejectedFull = RejectedFull.load(std::memory_order_relaxed);
    return S;
  }

private:
  size_t MaxExecutions;
  std::map<RoundKey, std::vector<exec::RoundSlot>> Rounds;
  std::atomic<size_t> Stored{0};
  std::atomic<uint64_t> Lookups{0}, Hits{0}, Inserts{0}, RejectedFull{0};
};

/// N independent ExecCaches behind a request-fingerprint router, for the
/// concurrent serve dispatcher. A request is routed to
/// shardIndex(requestFp) and must hold that shard's mutex for its whole
/// run, so two concurrent requests either touch different shards (fully
/// independent) or serialize on the same one.
///
/// Routing is keyed by the request's content fingerprint, not by which
/// dispatcher slot happens to run it: a repeated request always lands on
/// the shard holding its warm entries, so hit patterns (and therefore
/// the reported cache stats) are scheduling-independent. Canonical
/// result bytes never depend on hits at all — a hit replays a recorded
/// round bit-identical to a fresh one.
class ShardedExecCache {
public:
  /// \p TotalEntries (executions) is split evenly across \p NumShards
  /// (each shard gets at least 1 execution of capacity).
  explicit ShardedExecCache(size_t NumShards, size_t TotalEntries)
      : Mutexes(NumShards ? NumShards : 1) {
    size_t N = NumShards ? NumShards : 1;
    size_t Per = TotalEntries / N;
    if (Per == 0)
      Per = 1;
    Shards.reserve(N);
    for (size_t I = 0; I < N; ++I)
      Shards.push_back(std::make_unique<ExecCache>(Per));
  }

  size_t numShards() const { return Shards.size(); }

  /// The shard every request with content fingerprint \p Fp must use.
  size_t shardIndex(uint64_t Fp) const {
    // Fingerprints are already well-mixed hashes; fold the halves so a
    // power-of-two shard count still sees the high bits.
    return static_cast<size_t>((Fp ^ (Fp >> 32)) % Shards.size());
  }

  ExecCache &shard(size_t I) { return *Shards[I]; }
  const ExecCache &shard(size_t I) const { return *Shards[I]; }

  /// Serializes same-shard requests: lock for the whole synthesize()
  /// call that uses shard(I), so only one merge thread owns a shard at a
  /// time under a concurrent dispatcher.
  std::mutex &shardMutex(size_t I) { return Mutexes[I]; }

  size_t size() const {
    size_t N = 0;
    for (const auto &S : Shards)
      N += S->size();
    return N;
  }
  size_t capacity() const {
    size_t N = 0;
    for (const auto &S : Shards)
      N += S->capacity();
    return N;
  }

  /// Summed lifetime counters across shards (each shard's snapshot is
  /// individually consistent; the sum is not a global cut).
  ExecCache::Stats stats() const {
    ExecCache::Stats T;
    for (const auto &S : Shards) {
      ExecCache::Stats P = S->stats();
      T.Lookups += P.Lookups;
      T.Hits += P.Hits;
      T.Inserts += P.Inserts;
      T.RejectedFull += P.RejectedFull;
    }
    return T;
  }

private:
  std::vector<std::unique_ptr<ExecCache>> Shards;
  /// Deque-free stable addresses: mutexes are neither movable nor
  /// copyable, so the vector is sized once in the ctor.
  std::vector<std::mutex> Mutexes;
};

} // namespace dfence::cache

#endif // DFENCE_CACHE_EXECCACHE_H
