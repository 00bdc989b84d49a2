//===- Convergence.cpp - Per-round convergence telemetry ------------------===//

#include "obs/Convergence.h"

using namespace dfence;
using namespace dfence::obs;

void RoundLogWriter::write(const Json &Line) {
  std::string Text = Line.dump();
  std::lock_guard<std::mutex> G(Mu);
  OS << Text << "\n";
  OS.flush();
}
