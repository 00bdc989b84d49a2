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

/// Mixed into the seed on each retry so the schedule actually changes.
static constexpr uint64_t RetrySeedSalt = 0x9e3779b97f4a7c15ULL;

/// Seed remix for retry attempt \p Attempt (1-based): splitmix-style so
/// nearby seeds do not produce correlated schedules.
static uint64_t remixSeed(uint64_t Seed, unsigned Attempt) {
  uint64_t Z = Seed + RetrySeedSalt * Attempt;
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
  SupervisedExec SE;
  runSupervised(P, ClientIdx, Ctx, EC, Policy, DL, SE);
  return SE;
}

void harness::runSupervised(const vm::PreparedProgram &P, size_t ClientIdx,
                            vm::ExecContext &Ctx, vm::ExecConfig EC,
                            const ExecPolicy &Policy, const Deadline &DL,
                            SupervisedExec &SE) {
  if (Policy.ExecWallMs != 0)
    EC.WallClockMs = Policy.ExecWallMs;

  SE.Attempts = 1;
  SE.Discarded = false;
  SE.TimedOut = false;
  uint64_t BaseSeed = EC.Seed;
  size_t BaseSteps = EC.MaxSteps;
  for (unsigned Attempt = 0;; ++Attempt) {
    if (Attempt > 0) {
      EC.Seed = remixSeed(BaseSeed, Attempt);
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
        return;
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
}
