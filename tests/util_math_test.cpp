// Tests for util/math: bisection root finding and monotone inversion.

#include "util/math.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace hu = heteroplace::util;

TEST(AlmostEqual, ExactAndNear) {
  EXPECT_TRUE(hu::almost_equal(1.0, 1.0));
  EXPECT_TRUE(hu::almost_equal(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(hu::almost_equal(1.0, 1.1));
}

TEST(AlmostEqual, RelativeToleranceForLargeNumbers) {
  EXPECT_TRUE(hu::almost_equal(1e12, 1e12 * (1.0 + 1e-10)));
  EXPECT_FALSE(hu::almost_equal(1e12, 1.001e12));
}

TEST(Bisect, FindsRootOfLinearFunction) {
  const auto r = hu::bisect_increasing([](double x) { return x - 3.0; }, 0.0, 10.0);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x, 3.0, 1e-8);
}

TEST(Bisect, FindsRootOfNonlinearFunction) {
  const auto r = hu::bisect_increasing([](double x) { return x * x * x - 8.0; }, 0.0, 10.0);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x, 2.0, 1e-7);
}

TEST(Bisect, RootBelowIntervalClampsToLo) {
  const auto r = hu::bisect_increasing([](double x) { return x + 5.0; }, 0.0, 10.0);
  EXPECT_TRUE(r.converged);
  EXPECT_DOUBLE_EQ(r.x, 0.0);
}

TEST(Bisect, RootAboveIntervalClampsToHi) {
  const auto r = hu::bisect_increasing([](double x) { return x - 50.0; }, 0.0, 10.0);
  EXPECT_TRUE(r.converged);
  EXPECT_DOUBLE_EQ(r.x, 10.0);
}

TEST(Bisect, HandlesFlatRegions) {
  // Piecewise: -1 below 2, 0 on [2,4], +1 above 4 — any x in [2,4] is a root.
  const auto f = [](double x) { return x < 2.0 ? -1.0 : (x > 4.0 ? 1.0 : 0.0); };
  const auto r = hu::bisect_increasing(f, 0.0, 10.0);
  EXPECT_TRUE(r.converged);
  EXPECT_GE(r.x, 2.0 - 1e-6);
  EXPECT_LE(r.x, 4.0 + 1e-6);
}

TEST(InvertDecreasing, RoundTripsThroughTheFunction) {
  const auto g = [](double x) { return 10.0 - 2.0 * x; };
  const double x = hu::invert_decreasing(g, 4.0, 0.0, 10.0);
  EXPECT_NEAR(x, 3.0, 1e-7);
}

TEST(InvertDecreasing, ClampsOutOfRangeTargets) {
  const auto g = [](double x) { return 10.0 - x; };
  EXPECT_DOUBLE_EQ(hu::invert_decreasing(g, 100.0, 0.0, 10.0), 0.0);
  EXPECT_DOUBLE_EQ(hu::invert_decreasing(g, -100.0, 0.0, 10.0), 10.0);
}

TEST(LerpAt, InterpolatesAndExtrapolates) {
  EXPECT_DOUBLE_EQ(hu::lerp_at(0.0, 0.0, 10.0, 100.0, 5.0), 50.0);
  EXPECT_DOUBLE_EQ(hu::lerp_at(0.0, 0.0, 10.0, 100.0, 20.0), 200.0);  // extrapolation
  EXPECT_DOUBLE_EQ(hu::lerp_at(1.0, 7.0, 1.0, 9.0, 1.0), 7.0);        // degenerate segment
}

// Property sweep: inversion round-trips for a family of monotone functions.
class InvertRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(InvertRoundTrip, ExpCurve) {
  const double k = GetParam();
  const auto g = [k](double x) { return std::exp(-k * x); };
  for (double target : {0.1, 0.3, 0.5, 0.7, 0.9}) {
    const double x = hu::invert_decreasing(g, target, 0.0, 1000.0, 1e-10);
    EXPECT_NEAR(g(x), target, 1e-6) << "k=" << k << " target=" << target;
  }
}

INSTANTIATE_TEST_SUITE_P(Steepness, InvertRoundTrip,
                         ::testing::Values(0.1, 0.5, 1.0, 2.0, 5.0, 10.0));
