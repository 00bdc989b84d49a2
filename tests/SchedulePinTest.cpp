//===- SchedulePinTest.cpp - Cross-commit schedule pins -------------------===//
//
// The differential tests compare two paths of one build (job widths,
// caches, local runs), so a schedule change both paths share passes them
// all. These pins were recorded once, from the interpreter as it stood
// before its scheduler views became incremental, and are compared
// unchanged: an engine change that moves any scheduling decision, flush,
// repair or history fails here.
//
// Each pin is an FNV-1a digest over every execution of one subject under
// one configuration group — both store-buffer models, seeds 1–3, every
// client, all run on one reused context — covering the outcome, the
// recorded action trace, Steps, ExecStats, the repairs and the history
// hash. Groups: the flush-delaying scheduler as is, under each
// scheduler-visible fault plan, the round-robin scheduler, and replay of
// the recorded trace.
//
// A mismatch message carries the digest now computed in table form. Only
// re-record when a change is meant to move schedules, and say why in
// EXPERIMENTS.md.
//
//===----------------------------------------------------------------------===//

#include "ScheduleCases.h"

#include "sched/ReplayScheduler.h"
#include "sched/RoundRobinScheduler.h"
#include "vm/ExecContext.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <map>

using namespace dfence;
using namespace dfence::testcases;
using vm::MemModel;

namespace {

/// 64-bit FNV-1a over little-endian words.
class Fnv {
public:
  void add(uint64_t V) {
    for (int I = 0; I != 8; ++I) {
      H ^= (V >> (8 * I)) & 0xff;
      H *= 1099511628211ULL;
    }
  }
  uint64_t value() const { return H; }

private:
  uint64_t H = 14695981039346656037ULL;
};

void addResult(Fnv &D, const vm::ExecResult &R) {
  D.add(static_cast<uint64_t>(R.Out));
  D.add(R.Steps);
  D.add(R.Stats.SchedSteps);
  D.add(R.Stats.SchedFlushes);
  D.add(R.Stats.Flushes);
  D.add(R.Stats.BufferedStores);
  D.add(R.Stats.StoreForwards);
  D.add(R.Stats.BufHighWater);
  D.add(R.Repairs.size());
  for (const vm::OrderingPredicate &Pr : R.Repairs) {
    D.add(Pr.Before);
    D.add(Pr.After);
    D.add(Pr.AfterIsLoad);
  }
  D.add(R.Hist.Hash);
  D.add(R.Trace.size());
  for (const sched::Action &A : R.Trace) {
    D.add(A.Kind);
    D.add(A.Tid);
    D.add(A.HasVar);
    D.add(A.Var);
  }
}

/// Runs client \p ClientIdx at \p Cfg into \p Out; one per group.
using RunFn =
    std::function<void(vm::ExecContext &, const vm::PreparedProgram &,
                       size_t ClientIdx, vm::ExecConfig, vm::ExecResult &)>;

uint64_t digestSubject(const Subject &S, const RunFn &Run) {
  vm::PreparedProgram P(S.M, S.Clients);
  vm::ExecContext Ctx;
  vm::ExecResult R;
  Fnv D;
  for (MemModel Model : {MemModel::TSO, MemModel::PSO})
    for (uint64_t Seed = 1; Seed <= 3; ++Seed)
      for (size_t C = 0; C != S.Clients.size(); ++C) {
        Run(Ctx, P, C, baseConfig(Model, Seed), R);
        addResult(D, R);
      }
  return D.value();
}

const std::map<std::string, uint64_t> &pins();

/// Digests every subject under \p Group and compares with the pins;
/// every recorded pin of the group must be exercised.
void checkGroup(const std::string &Group, const RunFn &Run) {
  size_t Checked = 0;
  for (const Subject &S : allSubjects()) {
    std::string Key = Group + "/" + S.Name;
    uint64_t Got = digestSubject(S, Run);
    char Line[160];
    std::snprintf(Line, sizeof(Line), "{\"%s\", 0x%016llxULL},",
                  Key.c_str(), static_cast<unsigned long long>(Got));
    auto It = pins().find(Key);
    if (It == pins().end()) {
      ADD_FAILURE() << "no pin recorded for " << Key << ": " << Line;
      continue;
    }
    ++Checked;
    EXPECT_EQ(It->second, Got) << "schedule moved for " << Key
                               << "; now " << Line;
  }
  size_t Recorded = 0;
  for (const auto &[Key, Digest] : pins())
    Recorded += Key.rfind(Group + "/", 0) == 0;
  EXPECT_EQ(Recorded, Checked) << Group << ": a pinned subject is gone";
}

void runPlain(vm::ExecContext &Ctx, const vm::PreparedProgram &P, size_t C,
              vm::ExecConfig Cfg, vm::ExecResult &Out) {
  Ctx.run(P, C, Cfg, Out);
}

} // namespace

TEST(SchedulePinTest, RandomFlushScheduler) {
  checkGroup("random", runPlain);
}

TEST(SchedulePinTest, FaultPlans) {
  for (const char *Plan : {"storm", "switch", "capacity"})
    checkGroup(Plan, [&](vm::ExecContext &Ctx, const vm::PreparedProgram &P,
                         size_t C, vm::ExecConfig Cfg, vm::ExecResult &Out) {
      for (const NamedPlan &NP : faultPlans(P.module()))
        if (NP.Name == Plan) {
          Cfg.Faults = &NP.Plan;
          Ctx.run(P, C, Cfg, Out);
        }
    });
}

TEST(SchedulePinTest, RoundRobinScheduler) {
  checkGroup("roundrobin",
             [](vm::ExecContext &Ctx, const vm::PreparedProgram &P, size_t C,
                vm::ExecConfig Cfg, vm::ExecResult &Out) {
               sched::RoundRobinScheduler RR;
               Cfg.Sched = &RR;
               Ctx.run(P, C, Cfg, Out);
             });
}

TEST(SchedulePinTest, ReplayScheduler) {
  // The digest is the replay's own: a replay that diverged from its
  // recording would also trip the equality check here.
  checkGroup("replay", [](vm::ExecContext &Ctx, const vm::PreparedProgram &P,
                          size_t C, vm::ExecConfig Cfg, vm::ExecResult &Out) {
    vm::ExecResult Recorded;
    Ctx.run(P, C, Cfg, Recorded);
    sched::ReplayScheduler Replay(Recorded.Trace);
    Cfg.Sched = &Replay;
    Ctx.run(P, C, Cfg, Out);
    EXPECT_EQ(Out.Trace.size(), Recorded.Trace.size());
  });
}

namespace {

const std::map<std::string, uint64_t> &pins() {
  static const std::map<std::string, uint64_t> Pins = {
      {"capacity/Anchor WSQ", 0x3c0ac7afef454e52ULL},
      {"capacity/Anchor iWSQ", 0xa780b17fdeb0b82bULL},
      {"capacity/Chase-Lev Full", 0x6b68d11d285b1632ULL},
      {"capacity/Chase-Lev WSQ", 0x6edf724bcd9059cfULL},
      {"capacity/Cilk THE WSQ", 0xc5ba549684d67bf1ULL},
      {"capacity/FIFO WSQ", 0xc5e694e3584bbab1ULL},
      {"capacity/FIFO iWSQ", 0x86a8a2ab89e31c9fULL},
      {"capacity/Harris Set", 0x01fe3465552d6d1bULL},
      {"capacity/LIFO WSQ", 0x6b47cefd8a9451b0ULL},
      {"capacity/LIFO iWSQ", 0xde174b9ec5a05142ULL},
      {"capacity/Lamport Ring", 0xcf0b1c991d67c358ULL},
      {"capacity/LazyList Set", 0x2ed6b7520f1731f1ULL},
      {"capacity/MS2 Queue", 0x629bb5ff6aa35768ULL},
      {"capacity/MSN Queue", 0xf347b90640886458ULL},
      {"capacity/Michael Allocator", 0x30e6ab774fa3d1e5ULL},
      {"capacity/Peterson Lock", 0x0a3ca05107a64174ULL},
      {"capacity/Treiber Stack", 0x2c0e89b9c57f7785ULL},
      {"capacity/litmus-iriw", 0xec9606f30e195934ULL},
      {"capacity/litmus-lb", 0xbc054ac4dbb4c634ULL},
      {"capacity/litmus-mp", 0xbabdaab00b7d1f27ULL},
      {"capacity/litmus-sb", 0xc2ae4644c1c457edULL},
      {"capacity/litmus-sb-reseeded", 0xc2ae4644c1c457edULL},
      {"capacity/litmus-sb-twice", 0x3fb6eb369d9d3402ULL},
      {"capacity/litmus-wrc", 0xdce42d8013ef1f53ULL},
      {"random/Anchor WSQ", 0x3c0ac7afef454e52ULL},
      {"random/Anchor iWSQ", 0x2b78b794f1fff630ULL},
      {"random/Chase-Lev Full", 0xe068c34a6e63be4cULL},
      {"random/Chase-Lev WSQ", 0xf53c53b42f4195f9ULL},
      {"random/Cilk THE WSQ", 0x132922cb90ac5c65ULL},
      {"random/FIFO WSQ", 0xec39b23a252b8463ULL},
      {"random/FIFO iWSQ", 0xa6eca67908a61f8bULL},
      {"random/Harris Set", 0x07ebcbd762f859ebULL},
      {"random/LIFO WSQ", 0x6b47cefd8a9451b0ULL},
      {"random/LIFO iWSQ", 0xdf9e1ff393a21ea1ULL},
      {"random/Lamport Ring", 0xb22ec6fa129d105bULL},
      {"random/LazyList Set", 0x8dd164ecd93853b0ULL},
      {"random/MS2 Queue", 0x81c577024dada516ULL},
      {"random/MSN Queue", 0x6d4a58da36667e0aULL},
      {"random/Michael Allocator", 0xbe707ef6946ecbfaULL},
      {"random/Peterson Lock", 0x74fc9f57fae52ce4ULL},
      {"random/Treiber Stack", 0x76bdf9e692284dd2ULL},
      {"random/litmus-iriw", 0xcdd7f5418c4fa248ULL},
      {"random/litmus-lb", 0xd0e099376a82b0aeULL},
      {"random/litmus-mp", 0xd5479c13cb23a203ULL},
      {"random/litmus-sb", 0xfa830d702601e1a5ULL},
      {"random/litmus-sb-reseeded", 0xfa830d702601e1a5ULL},
      {"random/litmus-sb-twice", 0xd8bd060f22969968ULL},
      {"random/litmus-wrc", 0x199222fd6d19bc82ULL},
      {"replay/Anchor WSQ", 0x3c0ac7afef454e52ULL},
      {"replay/Anchor iWSQ", 0x2b78b794f1fff630ULL},
      {"replay/Chase-Lev Full", 0xe068c34a6e63be4cULL},
      {"replay/Chase-Lev WSQ", 0xf53c53b42f4195f9ULL},
      {"replay/Cilk THE WSQ", 0x132922cb90ac5c65ULL},
      {"replay/FIFO WSQ", 0xec39b23a252b8463ULL},
      {"replay/FIFO iWSQ", 0xa6eca67908a61f8bULL},
      {"replay/Harris Set", 0x07ebcbd762f859ebULL},
      {"replay/LIFO WSQ", 0x6b47cefd8a9451b0ULL},
      {"replay/LIFO iWSQ", 0xdf9e1ff393a21ea1ULL},
      {"replay/Lamport Ring", 0xb22ec6fa129d105bULL},
      {"replay/LazyList Set", 0x8dd164ecd93853b0ULL},
      {"replay/MS2 Queue", 0x81c577024dada516ULL},
      {"replay/MSN Queue", 0x6d4a58da36667e0aULL},
      {"replay/Michael Allocator", 0xbe707ef6946ecbfaULL},
      {"replay/Peterson Lock", 0x74fc9f57fae52ce4ULL},
      {"replay/Treiber Stack", 0x76bdf9e692284dd2ULL},
      {"replay/litmus-iriw", 0xcdd7f5418c4fa248ULL},
      {"replay/litmus-lb", 0xd0e099376a82b0aeULL},
      {"replay/litmus-mp", 0xd5479c13cb23a203ULL},
      {"replay/litmus-sb", 0xfa830d702601e1a5ULL},
      {"replay/litmus-sb-reseeded", 0xfa830d702601e1a5ULL},
      {"replay/litmus-sb-twice", 0xd8bd060f22969968ULL},
      {"replay/litmus-wrc", 0x199222fd6d19bc82ULL},
      {"roundrobin/Anchor WSQ", 0x2fed5bd745278259ULL},
      {"roundrobin/Anchor iWSQ", 0xeb8cbfdb3a48bd08ULL},
      {"roundrobin/Chase-Lev Full", 0x1b9be11f2a029187ULL},
      {"roundrobin/Chase-Lev WSQ", 0x51f01b108f22a62dULL},
      {"roundrobin/Cilk THE WSQ", 0xd8432c04d1d528c6ULL},
      {"roundrobin/FIFO WSQ", 0x21fdeff15b3fc43dULL},
      {"roundrobin/FIFO iWSQ", 0x631218e75bac0f6bULL},
      {"roundrobin/Harris Set", 0x85293efdbc709608ULL},
      {"roundrobin/LIFO WSQ", 0x11a67b269293f504ULL},
      {"roundrobin/LIFO iWSQ", 0x4b191e35c78cc12cULL},
      {"roundrobin/Lamport Ring", 0x2a56923367b2a861ULL},
      {"roundrobin/LazyList Set", 0x9c02aa9b256bf230ULL},
      {"roundrobin/MS2 Queue", 0xec12483fe0e3e559ULL},
      {"roundrobin/MSN Queue", 0x5e3414d45a91423dULL},
      {"roundrobin/Michael Allocator", 0x3903713bdfe3c488ULL},
      {"roundrobin/Peterson Lock", 0xe1a82b901b59e1d8ULL},
      {"roundrobin/Treiber Stack", 0xafcafded676774dbULL},
      {"roundrobin/litmus-iriw", 0xa793cc04a5121b85ULL},
      {"roundrobin/litmus-lb", 0xadc7939286d71105ULL},
      {"roundrobin/litmus-mp", 0x90cc07cca2586438ULL},
      {"roundrobin/litmus-sb", 0xa573d4a0eb30d4e3ULL},
      {"roundrobin/litmus-sb-reseeded", 0xa573d4a0eb30d4e3ULL},
      {"roundrobin/litmus-sb-twice", 0xa573d4a0eb30d4e3ULL},
      {"roundrobin/litmus-wrc", 0x12aac6959bedd36aULL},
      {"storm/Anchor WSQ", 0x51abfabf01775535ULL},
      {"storm/Anchor iWSQ", 0x0e046fa47b1e65f0ULL},
      {"storm/Chase-Lev Full", 0x11e6acbf387aee93ULL},
      {"storm/Chase-Lev WSQ", 0x30a16a09a3ac924aULL},
      {"storm/Cilk THE WSQ", 0x092f3ef9a7188e0dULL},
      {"storm/FIFO WSQ", 0x51e4d7d878992cf7ULL},
      {"storm/FIFO iWSQ", 0xb15c1259cffc4ac4ULL},
      {"storm/Harris Set", 0xba6578586be1d8b6ULL},
      {"storm/LIFO WSQ", 0xe4a2386eb00b00a4ULL},
      {"storm/LIFO iWSQ", 0x7bea06d44f98776bULL},
      {"storm/Lamport Ring", 0x604ae329d2e2183cULL},
      {"storm/LazyList Set", 0x717b325e540df59bULL},
      {"storm/MS2 Queue", 0x229ed0ca7f6d804bULL},
      {"storm/MSN Queue", 0x4140fe6efbda68ebULL},
      {"storm/Michael Allocator", 0x8af14a0d444fee2cULL},
      {"storm/Peterson Lock", 0xab9f73dfdee32ac9ULL},
      {"storm/Treiber Stack", 0xa92182698b3ca306ULL},
      {"storm/litmus-iriw", 0x4e90aa84f91239daULL},
      {"storm/litmus-lb", 0x5c86491f55896ef3ULL},
      {"storm/litmus-mp", 0x951e92f98f49292fULL},
      {"storm/litmus-sb", 0x54b61110b31a2028ULL},
      {"storm/litmus-sb-reseeded", 0x54b61110b31a2028ULL},
      {"storm/litmus-sb-twice", 0xd068d995ac4f0054ULL},
      {"storm/litmus-wrc", 0xc79c8c4bdd261530ULL},
      {"switch/Anchor WSQ", 0xfbb61eb51b5c40d5ULL},
      {"switch/Anchor iWSQ", 0x8efc90e33b1d064dULL},
      {"switch/Chase-Lev Full", 0xb489a3852da81c5eULL},
      {"switch/Chase-Lev WSQ", 0xa39c9154027fdbc8ULL},
      {"switch/Cilk THE WSQ", 0x3fbd1ebc9775c15dULL},
      {"switch/FIFO WSQ", 0x00f5cf131f07d020ULL},
      {"switch/FIFO iWSQ", 0x312acaaf05f28776ULL},
      {"switch/Harris Set", 0xb35f30b2a272f24fULL},
      {"switch/LIFO WSQ", 0x051eea7b9c584321ULL},
      {"switch/LIFO iWSQ", 0xbf6ab9c36b893935ULL},
      {"switch/Lamport Ring", 0xcafb2670a7c69eb8ULL},
      {"switch/LazyList Set", 0x104ea00d6523ea7cULL},
      {"switch/MS2 Queue", 0x1eccdc17f3121a6bULL},
      {"switch/MSN Queue", 0x9fc3c5db89ee4f53ULL},
      {"switch/Michael Allocator", 0x9481e249148fca7aULL},
      {"switch/Peterson Lock", 0x8541cbacaa63c969ULL},
      {"switch/Treiber Stack", 0xa1d8003eafdd86dfULL},
      {"switch/litmus-iriw", 0x7b470e1d2f5e13bbULL},
      {"switch/litmus-lb", 0xf8b19c9d0e3bf786ULL},
      {"switch/litmus-mp", 0x1896f17187fe5f70ULL},
      {"switch/litmus-sb", 0x56431e345646cbe0ULL},
      {"switch/litmus-sb-reseeded", 0x56431e345646cbe0ULL},
      {"switch/litmus-sb-twice", 0x5a98157a082592cbULL},
      {"switch/litmus-wrc", 0xfebd3f851bf5a564ULL},
  };
  return Pins;
}

} // namespace
