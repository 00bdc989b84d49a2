//===- Harness.cpp - Resilient execution supervisor -----------------------===//

#include "harness/Harness.h"

#include "vm/ExecContext.h"
#include "vm/Prepared.h"

#include <cmath>

using namespace dfence;
using namespace dfence::harness;

bool harness::isDiscardedOutcome(vm::Outcome O) {
  return O == vm::Outcome::StepLimit || O == vm::Outcome::Deadlock ||
         O == vm::Outcome::Timeout;
}

/// Seed remix for retry attempt \p Attempt (1-based): splitmix-style so
/// nearby seeds do not produce correlated schedules.
static uint64_t remixSeed(uint64_t Seed, uint64_t Salt, unsigned Attempt) {
  uint64_t Z = Seed + Salt * Attempt;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

/// Deadline handling: when \p DL is armed, each attempt's watchdog is
/// capped at the time remaining, and an expired deadline yields a
/// synthetic Timeout without running at all. Capping WallClockMs never changes the *content* of an
/// execution that completes (the watchdog only decides timeout-vs-
/// complete), so deadline-capped runs stay bit-identical to uncapped
/// ones whenever they finish in time.
SupervisedExec harness::runSupervised(const vm::PreparedProgram &P,
                                      size_t ClientIdx,
                                      vm::ExecContext &Ctx,
                                      vm::ExecConfig EC,
                                      const ExecPolicy &Policy,
                                      const Deadline &DL) {
  if (Policy.ExecWallMs != 0)
    EC.WallClockMs = Policy.ExecWallMs;

  SupervisedExec SE;
  uint64_t BaseSeed = EC.Seed;
  size_t BaseSteps = EC.MaxSteps;
  for (unsigned Attempt = 0;; ++Attempt) {
    if (Attempt > 0) {
      EC.Seed = remixSeed(BaseSeed, Policy.RetrySeedSalt, Attempt);
      double Grown = static_cast<double>(BaseSteps) *
                     std::pow(Policy.StepBudgetGrowth, Attempt);
      EC.MaxSteps = Grown > static_cast<double>(BaseSteps)
                        ? static_cast<size_t>(Grown)
                        : BaseSteps;
    }
    if (DL.armed()) {
      if (DL.expired()) {
        // No time left for this attempt (or any retry): report an
        // immediate Timeout instead of starting work we would only
        // kill. Counts as timed-out AND discarded, like a watchdog
        // expiry that exhausted its retries.
        SE.Result = vm::ExecResult();
        SE.Result.Out = vm::Outcome::Timeout;
        SE.Result.Message = "wall-clock deadline expired";
        SE.Attempts = Attempt == 0 ? 1 : Attempt;
        SE.UsedSeed = EC.Seed;
        SE.UsedMaxSteps = EC.MaxSteps;
        SE.TimedOut = true;
        SE.Discarded = true;
        return SE;
      }
      uint32_t Cap = DL.remainingMs();
      if (EC.WallClockMs == 0 || EC.WallClockMs > Cap)
        EC.WallClockMs = Cap;
    }
    Ctx.run(P, ClientIdx, EC, SE.Result);
    SE.Attempts = Attempt + 1;
    SE.UsedSeed = EC.Seed;
    SE.UsedMaxSteps = EC.MaxSteps;
    if (SE.Result.Out == vm::Outcome::Timeout)
      SE.TimedOut = true;
    if (!isDiscardedOutcome(SE.Result.Out))
      break;
    if (Attempt >= Policy.MaxRetries) {
      SE.Discarded = true;
      break;
    }
  }
  return SE;
}

void Supervisor::fold(const ir::Module &M, const vm::Client &C,
                      vm::ExecConfig EC, const SupervisedExec &SE) {
  Stats.Executions += 1;
  Stats.Retries += SE.Attempts - 1;
  if (SE.Discarded)
    Stats.Discarded += 1;
  if (SE.TimedOut)
    Stats.TimedOut += 1;
  // Violations the VM itself detects (memory safety, assertion failures)
  // are worth a bundle without the caller's help; discarded executions
  // are not, they carry no diagnostic value beyond their count.
  if (CaptureBundles && !SE.Discarded &&
      (SE.Result.Out == vm::Outcome::MemSafety ||
       SE.Result.Out == vm::Outcome::AssertFail)) {
    EC.Seed = SE.UsedSeed;
    EC.MaxSteps = SE.UsedMaxSteps;
    capture(M, C, EC, SE.Result, SE.Result.Message);
  }
}

void Supervisor::capture(const ir::Module &M, const vm::Client &C,
                         const vm::ExecConfig &EC, const vm::ExecResult &R,
                         const std::string &Message) {
  if (!CaptureBundles || Bundles.size() >= MaxBundles)
    return;
  ReproBundle B = makeBundle(M, C, EC, R, Message);
  B.SpecName = SpecName;
  B.SeqSpecName = SeqSpecName;
  B.CacheMode = CacheMode;
  B.RequestId = RequestId;
  Bundles.push_back(std::move(B));
}
