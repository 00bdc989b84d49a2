//===- SupportTest.cpp - Tests for the support library --------------------===//

#include "support/FlatKeySet.h"
#include "support/Json.h"
#include "support/Rng.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

using namespace dfence;

TEST(RngTest, DeterministicFromSeed) {
  Rng A(42), B(42);
  for (int I = 0; I < 1000; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 100; ++I)
    Same += A.next() == B.next();
  EXPECT_LT(Same, 5);
}

TEST(RngTest, ReseedResets) {
  Rng A(7);
  uint64_t First = A.next();
  A.next();
  A.reseed(7);
  EXPECT_EQ(A.next(), First);
}

TEST(RngTest, NextBelowInRange) {
  Rng R(3);
  for (uint64_t Bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
    for (int I = 0; I < 200; ++I)
      EXPECT_LT(R.nextBelow(Bound), Bound);
  }
}

TEST(RngTest, NextBelowCoversAllValues) {
  Rng R(11);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 1000; ++I)
    Seen.insert(R.nextBelow(8));
  EXPECT_EQ(Seen.size(), 8u);
}

TEST(RngTest, NextBoolRespectsProbability) {
  Rng R(5);
  int True05 = 0;
  for (int I = 0; I < 10000; ++I)
    True05 += R.nextBool(0.5);
  EXPECT_NEAR(True05, 5000, 300);
  EXPECT_FALSE(R.nextBool(0.0));
  EXPECT_TRUE(R.nextBool(1.0));
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng R(9);
  for (int I = 0; I < 1000; ++I) {
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(StringUtilsTest, Join) {
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"a"}, ","), "a");
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
}

TEST(StringUtilsTest, Strformat) {
  EXPECT_EQ(strformat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(strformat("empty"), "empty");
}

TEST(StringUtilsTest, Padding) {
  EXPECT_EQ(padLeft("ab", 4), "  ab");
  EXPECT_EQ(padLeft("abcd", 2), "abcd");
  EXPECT_EQ(padRight("ab", 4), "ab  ");
}

TEST(StringUtilsTest, HashCombineSpreads) {
  std::set<uint64_t> H;
  for (uint64_t I = 0; I < 1000; ++I)
    H.insert(hashCombine(0, I));
  EXPECT_EQ(H.size(), 1000u);
}

//===----------------------------------------------------------------------===//
// Json
//===----------------------------------------------------------------------===//

TEST(FlatKeySetTest, MatchesStdSetAcrossGrowthAndClears) {
  // Keys include the all-ones value the slot array uses for "free", and
  // clear() must forget every key while keeping the set reusable.
  FlatKeySet S;
  Rng R(0xf1a7);
  for (int Round = 0; Round != 4; ++Round) {
    std::set<uint64_t> Ref;
    for (int I = 0; I != 3000; ++I) {
      uint64_t K = R.nextBelow(4) == 0 ? ~0ULL - R.nextBelow(3)
                                       : R.nextBelow(2000);
      EXPECT_EQ(S.insert(K), Ref.insert(K).second) << K;
      uint64_t Q = R.nextBelow(2000);
      EXPECT_EQ(S.contains(Q), Ref.count(Q) != 0) << Q;
    }
    EXPECT_EQ(S.size(), Ref.size());
    EXPECT_TRUE(S.contains(~0ULL) == (Ref.count(~0ULL) != 0));
    S.clear();
    EXPECT_EQ(S.size(), 0u);
    for (uint64_t K : Ref)
      EXPECT_FALSE(S.contains(K)) << K;
  }
}

TEST(JsonTest, ParsesScalarsAndContainers) {
  std::string Error;
  auto J = Json::parse(
      R"({"a": 1, "b": -2.5, "c": "s\"x", "d": [true, false, null]})",
      Error);
  ASSERT_TRUE(J) << Error;
  EXPECT_EQ(J->find("a")->asU64(), 1u);
  EXPECT_EQ(J->find("b")->asDouble(), -2.5);
  EXPECT_EQ(J->find("c")->asString(), "s\"x");
  const Json *D = J->find("d");
  ASSERT_TRUE(D && D->isArray());
  EXPECT_EQ(D->items().size(), 3u);
  EXPECT_TRUE(D->items()[0].asBool());
  EXPECT_FALSE(D->items()[1].asBool(true));
  EXPECT_TRUE(D->items()[2].isNull());
}

TEST(JsonTest, PreservesU64SeedPrecision) {
  // Doubles lose integers above 2^53; the raw-text representation must
  // round-trip a full 64-bit seed exactly.
  uint64_t Seed = 0xfedcba9876543210ULL;
  Json J = Json::object();
  J.set("seed", Json::number(Seed));
  std::string Error;
  auto Back = Json::parse(J.dump(), Error);
  ASSERT_TRUE(Back) << Error;
  EXPECT_EQ(Back->find("seed")->asU64(), Seed);
}

TEST(JsonTest, DumpParseRoundTripNested) {
  Json Inner = Json::array();
  Inner.push(Json::number(static_cast<int64_t>(-7)));
  Inner.push(Json::string("x\ny"));
  Json J = Json::object();
  J.set("list", std::move(Inner));
  J.set("flag", Json::boolean(true));
  std::string Error;
  auto Back = Json::parse(J.dump(2), Error);
  ASSERT_TRUE(Back) << Error;
  EXPECT_EQ(Back->find("list")->items()[0].asI64(), -7);
  EXPECT_EQ(Back->find("list")->items()[1].asString(), "x\ny");
  EXPECT_TRUE(Back->find("flag")->asBool());
}

TEST(JsonTest, RejectsMalformedInput) {
  std::string Error;
  EXPECT_FALSE(Json::parse("{", Error));
  EXPECT_FALSE(Json::parse("[1,]", Error));
  EXPECT_FALSE(Json::parse("\"unterminated", Error));
  EXPECT_FALSE(Json::parse("{\"a\": 1} trailing", Error));
  EXPECT_FALSE(Error.empty());
}

TEST(JsonTest, ParsesUnicodeEscapes) {
  std::string Error;
  auto J = Json::parse("\"a\\u00e9b\\n\"", Error);
  ASSERT_TRUE(J) << Error;
  EXPECT_EQ(J->asString(), "a\xc3\xa9"
                           "b\n");
}
