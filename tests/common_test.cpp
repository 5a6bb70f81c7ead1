#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>

#include "common/complex.hpp"
#include "common/prng.hpp"
#include "common/strings.hpp"
#include "common/timer.hpp"

namespace qts {
namespace {

TEST(Complex, ApproxEqualWithinEps) {
  EXPECT_TRUE(approx_equal(cplx{1.0, 2.0}, cplx{1.0 + 1e-12, 2.0 - 1e-12}));
  EXPECT_FALSE(approx_equal(cplx{1.0, 2.0}, cplx{1.0 + 1e-8, 2.0}));
}

TEST(Complex, ApproxZeroAndOne) {
  EXPECT_TRUE(approx_zero(cplx{1e-12, -1e-12}));
  EXPECT_FALSE(approx_zero(cplx{1e-8, 0.0}));
  EXPECT_TRUE(approx_one(cplx{1.0 + 1e-12, 0.0}));
  EXPECT_FALSE(approx_one(cplx{1.0, 1e-8}));
}

TEST(Complex, BucketedIsStable) {
  const cplx a{0.123456789, -0.987654321};
  EXPECT_EQ(bucketed(a), bucketed(a + cplx{1e-12, -1e-12}));
}

TEST(Complex, HashAgreesOnEqualBuckets) {
  const cplx a{0.5, -0.25};
  EXPECT_EQ(hash_value(a), hash_value(a + cplx{1e-12, 1e-12}));
}

TEST(Complex, HashSeparatesDistantValues) {
  EXPECT_NE(hash_value(cplx{0.5, 0.0}), hash_value(cplx{0.25, 0.0}));
}

TEST(Complex, NegativeZeroSharesBucketWithZero) {
  EXPECT_EQ(hash_value(cplx{-0.0, 0.0}), hash_value(cplx{0.0, -0.0}));
}

TEST(Complex, BucketedNeverSaturates) {
  // Past 2^63 grid steps (about 9.22e8 at kEps) llround overflows to one
  // value, so every large weight ratio would share a bucket.
  const cplx b1 = bucketed(cplx{1e9, 0.0});
  const cplx b2 = bucketed(cplx{2e9, 0.0});
  const cplx b3 = bucketed(cplx{-3e9, 0.0});
  EXPECT_NE(b1, b2);
  EXPECT_NE(b1, b3);
  EXPECT_NE(b2, b3);
  EXPECT_NE(bucketed(cplx{0.0, 1e9}), bucketed(cplx{0.0, 2e9}));
  EXPECT_EQ(bucketed(cplx{1e9, 0.0}).real(), 1e19);
}

TEST(Complex, BucketedMatchesLlroundAtHalfwayPoints) {
  // Bit for bit what llround gave wherever it did not overflow, so every
  // unique-table and add-cache key below that range is unchanged; -0.0 and
  // everything in (-0.5, 0) give +0.0, as `llround(x) + 0.0` does.
  const auto same_bits = [](double x) {
    const double want = static_cast<double>(std::llround(x)) + 0.0;
    const double got = bucketed(cplx{x, 0.0}, 1.0).real();
    return std::memcmp(&want, &got, sizeof want) == 0;
  };
  for (const double k : {0.0, 1.0, 2.0, 7.0, 1e6, 4503599627370495.0, 1e17}) {
    for (const double x : {k, k + 0.5, k - 0.5, std::nextafter(k + 0.5, 0.0),
                           std::nextafter(k + 0.5, 1e300), std::nextafter(k - 0.5, 0.0),
                           std::nextafter(k - 0.5, 1e300)}) {
      EXPECT_TRUE(same_bits(x)) << x;
      EXPECT_TRUE(same_bits(-x)) << -x;
    }
  }
  EXPECT_TRUE(same_bits(0.49999999999999994));  // where x + 0.5 would round up
}

TEST(Complex, ToStringFormats) {
  EXPECT_EQ(to_string(cplx{1.0, 0.5}), "1+0.5i");
  EXPECT_EQ(to_string(cplx{-0.25, -1.0}), "-0.25-1i");
}

TEST(Prng, DeterministicForFixedSeed) {
  Prng a(42);
  Prng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
  }
}

TEST(Prng, UniformIntRespectsBounds) {
  Prng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Prng, UniformInHalfOpenUnitInterval) {
  Prng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Prng, UnitVectorHasUnitNorm) {
  Prng rng(11);
  const auto v = rng.unit_vector(16);
  double n2 = 0.0;
  for (const auto& a : v) n2 += std::norm(a);
  EXPECT_NEAR(n2, 1.0, 1e-12);
}

TEST(Strings, SplitDropsEmptyPieces) {
  const auto parts = split("a,,b, c", ", ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(Strings, TrimRemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  hello\t"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \n "), "");
}

TEST(Strings, Padding) {
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("abcde", 3), "abcde");
}

TEST(Strings, FormatFixed) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(2.0, 0), "2");
}

TEST(Timer, DeadlineNeverFiresByDefault) {
  const Deadline d;
  EXPECT_FALSE(d.expired());
  EXPECT_NO_THROW(d.check());
}

TEST(Timer, DeadlineFiresAfterBudget) {
  const auto d = Deadline::after(1e-9);
  // Sleep-free: the budget is one nanosecond, already spent by now.
  EXPECT_TRUE(d.expired());
  EXPECT_THROW(d.check(), DeadlineExceeded);
}

TEST(Timer, NonPositiveBudgetNeverFires) {
  const auto d = Deadline::after(0.0);
  EXPECT_FALSE(d.expired());
}

TEST(Timer, WallTimerAdvances) {
  WallTimer t;
  volatile double sink = 0.0;
  for (int i = 0; i < 100000; ++i) sink = sink + 1.0;
  EXPECT_GT(t.seconds(), 0.0);
}

}  // namespace
}  // namespace qts
