//===- Checkers.cpp -------------------------------------------------------===//

#include "spec/Checkers.h"

#include "support/Diagnostics.h"
#include "support/FlatKeySet.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <typeinfo>
#include <unordered_set>

using namespace dfence;
using namespace dfence::spec;
using vm::EmptyVal;
using vm::History;
using vm::OpRecord;

namespace {

bool isEmptyWsqOp(const OpRecord &Op) {
  return (Op.Func == "take" || Op.Func == "steal") && Op.Completed &&
         Op.Ret == EmptyVal;
}

/// One thread's reusable search storage. A check resets what it uses and
/// keeps every capacity, so steady-state checks on a worker allocate
/// nothing here.
struct SearchScratch {
  /// The history ops the search orders (indices into History::Ops);
  /// mask bit I stands for View[I].
  std::vector<uint32_t> View;
  /// Operation-level SC: each thread's view positions in program order.
  std::vector<std::vector<uint32_t>> PerThread;
  /// Depth D's candidates live at [D * View.size(), (D + 1) * View.size()).
  std::vector<uint32_t> Candidates;
  /// States[D] is the spec state after D ops; each depth assigns into it.
  std::vector<std::unique_ptr<SpecState>> States;
  /// Memo of (linearized-set, spec-state) keys known to fail.
  FlatKeySet Failed;
};

/// Shared DFS over sequentializations. Candidate generation is the only
/// difference between the two orders.
class SequentializationSearch {
public:
  SequentializationSearch(const History &H, const SpecFactory &Factory,
                          const CheckerLimits &Limits, Criterion C,
                          SearchScratch &S)
      : Ops(H.Ops), Limits(Limits),
        RealTime(C != Criterion::SequentialConsistency), S(S) {
    S.View.clear();
    for (size_t I = 0; I != Ops.size(); ++I)
      if (C != Criterion::RelaxedLinearizability ||
          !isConcurrentEmptyWsqOp(H, I))
        S.View.push_back(static_cast<uint32_t>(I));
    N = S.View.size();
    if (N > Limits.MaxOps)
      reportFatalError(
          strformat("history of %zu operations exceeds checker limit %zu",
                    N, Limits.MaxOps));
    for (uint32_t I : S.View)
      if (!Ops[I].Completed)
        reportFatalError("checker requires a complete history");
    if (!RealTime) {
      // Per-thread program order, by invocation time.
      for (auto &Seq : S.PerThread)
        Seq.clear();
      for (size_t I = 0; I != N; ++I) {
        uint32_t T = op(I).Thread;
        if (T >= S.PerThread.size())
          S.PerThread.resize(T + 1);
        NumThreads = std::max<size_t>(NumThreads, T + 1);
        S.PerThread[T].push_back(static_cast<uint32_t>(I));
      }
      for (size_t T = 0; T != NumThreads; ++T)
        std::sort(S.PerThread[T].begin(), S.PerThread[T].end(),
                  [&](uint32_t A, uint32_t B) {
                    return op(A).InvokeSeq < op(B).InvokeSeq;
                  });
    }
    S.Candidates.resize(N * N);
    S.Failed.clear();
    // One state per depth, reused across checks while the spec type
    // stays the same (a serve worker sees many specs in turn).
    std::unique_ptr<SpecState> Initial = Factory();
    if (S.States.size() < N + 1)
      S.States.resize(N + 1);
    for (size_t D = 1; D <= N; ++D)
      if (!S.States[D] || typeid(*S.States[D]) != typeid(*Initial))
        S.States[D] = Initial->clone();
    S.States[0] = std::move(Initial);
  }

  CheckResult search() {
    CheckResult R;
    if (N != 0)
      R.Ok = dfs(0, 0);
    R.OutOfBudget = OutOfBudget;
    return R;
  }

private:
  const OpRecord &op(size_t ViewIdx) const { return Ops[S.View[ViewIdx]]; }

  bool dfs(uint64_t Mask, size_t Depth) {
    uint64_t Full = N == 64 ? ~0ULL : ((1ULL << N) - 1);
    if (Mask == Full)
      return true;
    if (++Visited > Limits.MaxVisitedStates) {
      OutOfBudget = true;
      return true; // Budget exhausted: accept, and report it.
    }
    const SpecState &State = *S.States[Depth];
    uint64_t Key = hashCombine(Mask, State.hash());
    if (S.Failed.contains(Key))
      return false;

    uint32_t *Cands = S.Candidates.data() + Depth * N;
    size_t NumCands = collectCandidates(Mask, Cands);
    SpecState &Next = *S.States[Depth + 1];
    for (size_t C = 0; C != NumCands; ++C) {
      uint32_t I = Cands[C];
      Next.assign(State);
      if (!Next.apply(op(I)))
        continue;
      if (dfs(Mask | (1ULL << I), Depth + 1))
        return true;
    }
    S.Failed.insert(Key);
    return false;
  }

  size_t collectCandidates(uint64_t Mask, uint32_t *Out) const {
    size_t Num = 0;
    if (RealTime) {
      // Linearizability: an op is schedulable when no other pending op
      // responded strictly before it was invoked. With MinResp the
      // minimum response among pending ops, that is InvokeSeq <= MinResp
      // (equality is an overlap, not a precedence).
      uint64_t MinResp = ~0ULL;
      for (size_t I = 0; I != N; ++I)
        if (!(Mask & (1ULL << I)))
          MinResp = std::min(MinResp, op(I).RespondSeq);
      for (size_t I = 0; I != N; ++I)
        if (!(Mask & (1ULL << I)) && op(I).InvokeSeq <= MinResp)
          Out[Num++] = static_cast<uint32_t>(I);
      return Num;
    }
    // Operation-level SC: the next pending op of each thread.
    for (size_t T = 0; T != NumThreads; ++T) {
      for (uint32_t I : S.PerThread[T]) {
        if (Mask & (1ULL << I))
          continue;
        Out[Num++] = I;
        break;
      }
    }
    return Num;
  }

  const std::vector<OpRecord> &Ops;
  const CheckerLimits &Limits;
  bool RealTime;
  SearchScratch &S;
  size_t N = 0;
  size_t NumThreads = 0;
  size_t Visited = 0;
  bool OutOfBudget = false;
};

} // namespace

CheckResult spec::checkHistory(const History &H, const SpecFactory &Factory,
                               Criterion C, const CheckerLimits &Limits) {
  thread_local SearchScratch Scratch;
  SequentializationSearch S(H, Factory, Limits, C, Scratch);
  return S.search();
}

bool spec::isLinearizable(const History &H, const SpecFactory &Factory,
                          const CheckerLimits &Limits) {
  return checkHistory(H, Factory, Criterion::Linearizability, Limits).Ok;
}

bool spec::isSequentiallyConsistent(const History &H,
                                    const SpecFactory &Factory,
                                    const CheckerLimits &Limits) {
  return checkHistory(H, Factory, Criterion::SequentialConsistency, Limits)
      .Ok;
}

bool spec::isConcurrentEmptyWsqOp(const History &H, size_t I) {
  const OpRecord &Op = H.Ops[I];
  if (!isEmptyWsqOp(Op))
    return false;
  for (size_t K = 0; K != H.Ops.size(); ++K) {
    if (K == I)
      continue;
    const OpRecord &Other = H.Ops[K];
    // Overlap = neither strictly precedes the other.
    if (!Other.precedes(Op) && !Op.precedes(Other))
      return true;
  }
  return false;
}

std::string spec::checkNoGarbageTasks(const History &H) {
  std::unordered_set<vm::Word> Produced;
  for (const OpRecord &Op : H.Ops)
    if (Op.Func == "put" || Op.Func == "enqueue")
      if (!Op.Args.empty())
        Produced.insert(Op.Args[0]);
  for (const OpRecord &Op : H.Ops) {
    if (Op.Func != "take" && Op.Func != "steal" && Op.Func != "dequeue")
      continue;
    if (!Op.Completed || Op.Ret == EmptyVal)
      continue;
    if (!Produced.count(Op.Ret))
      return strformat("garbage task %lld returned by %s on thread %u",
                       static_cast<long long>(Op.Ret), Op.Func.c_str(),
                       Op.Thread);
  }
  return std::string();
}
