//===- quickstart.cpp - Five-minute tour of the DFENCE library ------------===//
//
// Compiles a tiny concurrent MiniC program, shows a relaxed-memory
// violation on PSO, synthesizes the missing fence, and verifies the
// repaired program. Build and run:
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
//
//===----------------------------------------------------------------------===//

#include "frontend/Compiler.h"
#include "ir/Printer.h"
#include "synth/Synthesizer.h"
#include "vm/Interp.h"

#include <cstdio>

using namespace dfence;

// A classic unsafe publication: the writer fills a record, then publishes
// the pointer and raises a flag. Under PSO the three stores may become
// visible in any order, so the reader can dereference null (or read a
// half-initialized record).
static const char *Source = R"(
global int FLAG = 0;
global int BOX = 0;

struct Record {
  int r_value;
}

int publish(int v) {
  int r = malloc(sizeof(Record));
  r->r_value = v;
  BOX = r;
  FLAG = 1;
  return 0;
}

int consume() {
  int f = FLAG;
  if (f == 1) {
    int r = BOX;
    return r->r_value;
  }
  return 0;
}
)";

int main() {
  // 1. Compile MiniC into the concurrent IR.
  frontend::CompileResult CR = frontend::compileMiniC(Source);
  if (!CR.Ok) {
    std::fprintf(stderr, "compile error: %s\n", CR.Error.c_str());
    return 1;
  }
  std::printf("== compiled %u source lines into %u IR instructions ==\n",
              CR.SourceLines, CR.Module.totalInstrCount());

  // 2. A concurrent client: one publisher, one consumer (two attempts).
  vm::Client Client;
  {
    vm::ThreadScript Writer, Reader;
    vm::MethodCall Pub;
    Pub.Func = "publish";
    Pub.Args = {vm::Arg(42)};
    Writer.Calls = {Pub};
    vm::MethodCall Con;
    Con.Func = "consume";
    Reader.Calls = {Con, Con};
    Client.Threads = {Writer, Reader};
  }

  // 3. Expose a violation on PSO with the flush-delaying scheduler.
  std::printf("\n== hunting for a PSO violation ==\n");
  for (uint64_t Seed = 1; Seed <= 5000; ++Seed) {
    vm::ExecConfig Cfg;
    Cfg.Model = vm::MemModel::PSO;
    Cfg.Seed = Seed;
    Cfg.FlushProb = 0.3;
    vm::ExecResult R = vm::runExecution(CR.Module, Client, Cfg);
    if (R.Out == vm::Outcome::MemSafety) {
      std::printf("seed %llu: %s\n",
                  static_cast<unsigned long long>(Seed),
                  R.Message.c_str());
      break;
    }
  }

  // 4. Synthesize fences (memory safety is always checked).
  std::printf("\n== synthesizing fences ==\n");
  synth::SynthConfig Cfg;
  Cfg.Model = vm::MemModel::PSO;
  Cfg.Spec = synth::SpecKind::MemorySafety;
  Cfg.ExecsPerRound = 300;
  Cfg.FlushProb = 0.3;
  synth::SynthResult R = synth::synthesize(CR.Module, {Client}, Cfg);
  bool Converged = R.Status == synth::SynthStatus::Converged;
  std::printf("converged: %s after %u round(s), %llu executions "
              "(%llu violating)\n",
              Converged ? "yes" : "no", R.Rounds,
              static_cast<unsigned long long>(R.TotalExecutions),
              static_cast<unsigned long long>(R.ViolatingExecutions));
  for (const synth::InsertedFence &F : R.Fences)
    std::printf("inserted fence: %s\n", F.str().c_str());

  // 5. Show the repaired publisher.
  std::printf("\n== repaired function ==\n%s",
              ir::printFunction(R.FencedModule.function(
                  *R.FencedModule.findFunction("publish"))).c_str());
  return Converged ? 0 : 1;
}
