//===- Convergence.cpp - Per-round convergence telemetry ------------------===//

#include "obs/Convergence.h"

using namespace dfence;
using namespace dfence::obs;

Json obs::roundRecordJson(const RoundRecord &R) {
  Json O = Json::object();
  O.set("round", Json::number(static_cast<uint64_t>(R.Round)));
  O.set("executions", Json::number(R.Executions));
  O.set("violations", Json::number(R.Violations));
  O.set("newPredicates", Json::number(R.NewPredicates));
  O.set("distinctPredicates", Json::number(R.DistinctPredicates));
  O.set("fences", Json::number(static_cast<uint64_t>(R.FencesEnforced)));
  O.set("cleanStreak", Json::number(static_cast<uint64_t>(R.CleanStreak)));
  O.set("truncated", Json::boolean(R.Truncated));
  Json Cache = Json::object();
  Cache.set("checkHits", Json::number(R.CheckCacheHits));
  Cache.set("checkMisses", Json::number(R.CheckCacheMisses));
  Cache.set("execHits", Json::number(R.ExecCacheHits));
  Cache.set("execMisses", Json::number(R.ExecCacheMisses));
  O.set("cache", std::move(Cache));
  Json Sat = Json::object();
  Sat.set("clauses", Json::number(R.SatClauses));
  Sat.set("models", Json::number(R.SatModels));
  Sat.set("nodes", Json::number(R.SatNodes));
  Sat.set("truncated", Json::boolean(R.SatTruncated));
  Sat.set("solveUs", Json::number(R.SatSolveUs));
  O.set("sat", std::move(Sat));
  O.set("roundWallUs", Json::number(R.RoundWallUs));
  return O;
}

void RoundLogWriter::write(const RoundRecord &R) {
  std::string Line = roundRecordJson(R).dump();
  std::lock_guard<std::mutex> G(Mu);
  OS << Line << "\n";
  OS.flush();
}
