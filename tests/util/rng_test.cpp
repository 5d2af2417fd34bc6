#include "util/rng.h"

#include <gtest/gtest.h>

#include <set>

namespace vpna::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkIsIndependentOfParentDrawCount) {
  Rng a(7);
  Rng b(7);
  (void)b.next();  // perturb the parent
  (void)b.next();
  Rng fa = a.fork("child");
  Rng fb = b.fork("child");
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fa.next(), fb.next());
}

TEST(Rng, ForkLabelsProduceDistinctStreams) {
  Rng a(7);
  Rng x = a.fork("x");
  Rng y = a.fork("y");
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (x.next() == y.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformIntInRange) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng r(3);
  EXPECT_EQ(r.uniform_int(9, 9), 9);
}

TEST(Rng, UniformIntCoversRange) {
  Rng r(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(r.uniform_int(0, 9));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, NormalHasRoughlyCorrectMoments) {
  Rng r(17);
  double sum = 0, sq = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) {
    const double v = r.normal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / kN;
  const double var = sq / kN - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(Rng, ChanceExtremes) {
  Rng r(23);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng r(29);
  int hits = 0;
  constexpr int kN = 10000;
  for (int i = 0; i < kN; ++i)
    if (r.chance(0.3)) ++hits;
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.03);
}

TEST(Rng, SampleIndicesDistinct) {
  Rng r(31);
  const auto sample = r.sample_indices(100, 20);
  EXPECT_EQ(sample.size(), 20u);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (auto i : sample) EXPECT_LT(i, 100u);
}

TEST(Rng, SampleIndicesFullPopulation) {
  Rng r(37);
  const auto sample = r.sample_indices(5, 5);
  std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(Rng, SampleIndicesThrowsWhenKTooLarge) {
  Rng r(41);
  EXPECT_THROW((void)r.sample_indices(3, 4), std::invalid_argument);
}

TEST(Fnv1a, StableKnownValues) {
  EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_NE(fnv1a("a"), fnv1a("b"));
  EXPECT_EQ(fnv1a("vpn"), fnv1a("vpn"));
}

}  // namespace
}  // namespace vpna::util
