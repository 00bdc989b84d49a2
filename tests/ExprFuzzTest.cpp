//===- ExprFuzzTest.cpp - Differential testing of expression codegen ------===//
//
// Generates random expression trees, renders them as MiniC, and checks
// the compiled+interpreted result against a reference evaluator running
// on the same tree — catching precedence, signedness and codegen bugs.
// Also throws random token soup at the lexer/parser to verify error
// paths never crash.
//
//===----------------------------------------------------------------------===//

#include "frontend/Compiler.h"
#include "programs/Benchmark.h"
#include "support/Rng.h"
#include "vm/Interp.h"

#include <gtest/gtest.h>

using namespace dfence;

namespace {

/// A random expression tree over three variables a,b,c.
struct ExprNode {
  enum Kind { Const, Var, Unary, Binary } K = Const;
  int64_t Value = 0;       // Const
  int VarIdx = 0;          // Var: 0..2
  char UOp = '-';          // Unary: '-' or '!'
  std::string BOp;         // Binary spelling
  std::unique_ptr<ExprNode> L, R;
};

std::unique_ptr<ExprNode> genExpr(Rng &R, int Depth) {
  auto N = std::make_unique<ExprNode>();
  uint64_t Pick = R.nextBelow(Depth <= 0 ? 2 : 5);
  switch (Pick) {
  case 0:
    N->K = ExprNode::Const;
    N->Value = static_cast<int64_t>(R.nextBelow(201)) - 100;
    break;
  case 1:
    N->K = ExprNode::Var;
    N->VarIdx = static_cast<int>(R.nextBelow(3));
    break;
  case 2:
    N->K = ExprNode::Unary;
    N->UOp = R.nextBool(0.5) ? '-' : '!';
    N->L = genExpr(R, Depth - 1);
    break;
  default: {
    static const char *Ops[] = {"+",  "-",  "*",  "/", "%", "==",
                                "!=", "<",  "<=", ">", ">=", "&",
                                "|",  "^",  "&&", "||"};
    N->K = ExprNode::Binary;
    N->BOp = Ops[R.nextBelow(std::size(Ops))];
    N->L = genExpr(R, Depth - 1);
    N->R = genExpr(R, Depth - 1);
    break;
  }
  }
  return N;
}

std::string render(const ExprNode &N) {
  switch (N.K) {
  case ExprNode::Const:
    // Negative literals render via unary minus, as MiniC parses them.
    return N.Value < 0
               ? "(-" + std::to_string(-N.Value) + ")"
               : std::to_string(N.Value);
  case ExprNode::Var:
    return std::string(1, static_cast<char>('a' + N.VarIdx));
  case ExprNode::Unary:
    return std::string("(") + N.UOp + render(*N.L) + ")";
  case ExprNode::Binary:
    return "(" + render(*N.L) + " " + N.BOp + " " + render(*N.R) + ")";
  }
  return "0";
}

int64_t evalRef(const ExprNode &N, const int64_t Vars[3]) {
  switch (N.K) {
  case ExprNode::Const:
    return N.Value;
  case ExprNode::Var:
    return Vars[N.VarIdx];
  case ExprNode::Unary: {
    int64_t V = evalRef(*N.L, Vars);
    return N.UOp == '-' ? -V : (V == 0 ? 1 : 0);
  }
  case ExprNode::Binary: {
    int64_t A = evalRef(*N.L, Vars);
    if (N.BOp == "&&")
      return (A != 0 && evalRef(*N.R, Vars) != 0) ? 1 : 0;
    if (N.BOp == "||")
      return (A != 0 || evalRef(*N.R, Vars) != 0) ? 1 : 0;
    int64_t B = evalRef(*N.R, Vars);
    if (N.BOp == "+") return static_cast<int64_t>(
        static_cast<uint64_t>(A) + static_cast<uint64_t>(B));
    if (N.BOp == "-") return static_cast<int64_t>(
        static_cast<uint64_t>(A) - static_cast<uint64_t>(B));
    if (N.BOp == "*") return static_cast<int64_t>(
        static_cast<uint64_t>(A) * static_cast<uint64_t>(B));
    if (N.BOp == "/") return B == 0 ? 0 : A / B;
    if (N.BOp == "%") return B == 0 ? 0 : A % B;
    if (N.BOp == "==") return A == B;
    if (N.BOp == "!=") return A != B;
    if (N.BOp == "<") return A < B;
    if (N.BOp == "<=") return A <= B;
    if (N.BOp == ">") return A > B;
    if (N.BOp == ">=") return A >= B;
    if (N.BOp == "&") return A & B;
    if (N.BOp == "|") return A | B;
    if (N.BOp == "^") return A ^ B;
    ADD_FAILURE() << "unknown op " << N.BOp;
    return 0;
  }
  }
  return 0;
}

class ExprFuzzTest : public ::testing::TestWithParam<int> {};

} // namespace

TEST_P(ExprFuzzTest, CompiledExpressionsMatchReference) {
  Rng R(static_cast<uint64_t>(GetParam()) * 2654435761u + 17);
  for (int Case = 0; Case < 10; ++Case) {
    auto Tree = genExpr(R, 5);
    std::string Body = render(*Tree);
    std::string Src =
        "int f(int a, int b, int c) { return " + Body + "; }";
    frontend::CompileResult CR = frontend::compileMiniC(Src);
    ASSERT_TRUE(CR.Ok) << CR.Error << "\n" << Src;
    int64_t Vars[3] = {
        static_cast<int64_t>(R.nextBelow(41)) - 20,
        static_cast<int64_t>(R.nextBelow(41)) - 20,
        static_cast<int64_t>(R.nextBelow(41)) - 20,
    };
    ir::Word Got = vm::runSequential(
        CR.Module, "f",
        {static_cast<ir::Word>(Vars[0]), static_cast<ir::Word>(Vars[1]),
         static_cast<ir::Word>(Vars[2])});
    int64_t Want = evalRef(*Tree, Vars);
    EXPECT_EQ(static_cast<int64_t>(Got), Want) << Src;
  }
}

INSTANTIATE_TEST_SUITE_P(Random, ExprFuzzTest, ::testing::Range(0, 40));

//===----------------------------------------------------------------------===//
// Parser robustness: random token soup must error out, never crash.
//===----------------------------------------------------------------------===//

class ParserFuzzTest : public ::testing::TestWithParam<int> {};

TEST_P(ParserFuzzTest, GarbageNeverCrashes) {
  Rng R(static_cast<uint64_t>(GetParam()) * 40503 + 29);
  static const char *Tokens[] = {
      "int",  "global", "while", "if",    "else",  "return", "{",
      "}",    "(",      ")",     "[",     "]",     ";",      ",",
      "=",    "==",     "+",     "-",     "*",     "/",      "x",
      "y",    "f",      "42",    "->",    "&",     "!",      "cas",
      "struct", "const", "break", "continue", "fence",
  };
  for (int Case = 0; Case < 20; ++Case) {
    std::string Src;
    unsigned Len = 1 + static_cast<unsigned>(R.nextBelow(40));
    for (unsigned I = 0; I < Len; ++I) {
      Src += Tokens[R.nextBelow(std::size(Tokens))];
      Src += ' ';
    }
    frontend::CompileResult CR = frontend::compileMiniC(Src);
    if (!CR.Ok) {
      EXPECT_FALSE(CR.Error.empty()) << Src;
    }
    // Valid-by-chance programs are fine too; the property is no crash
    // and a diagnostic on failure.
  }
}

TEST_P(ParserFuzzTest, TruncatedBenchmarksNeverCrash) {
  Rng R(static_cast<uint64_t>(GetParam()) * 7121 + 5);
  const std::string &Src = programs::chaseLevSource();
  for (int Case = 0; Case < 10; ++Case) {
    size_t Cut = R.nextBelow(Src.size());
    frontend::CompileResult CR = frontend::compileMiniC(
        Src.substr(0, Cut));
    if (!CR.Ok) {
      EXPECT_FALSE(CR.Error.empty());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Random, ParserFuzzTest, ::testing::Range(0, 20));
