#include "util/optimize.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace manytiers::util {
namespace {

TEST(MaximizeScalar, FindsParabolaPeak) {
  const auto opt = maximize_scalar(
      [](double x) { return -(x - 2.0) * (x - 2.0) + 5.0; }, 0.0, 10.0);
  EXPECT_NEAR(opt.x, 2.0, 1e-7);
  EXPECT_NEAR(opt.value, 5.0, 1e-10);
}

TEST(MaximizeScalar, HandlesBoundaryMaximum) {
  const auto opt = maximize_scalar([](double x) { return x; }, 0.0, 1.0);
  EXPECT_NEAR(opt.x, 1.0, 1e-6);
}

TEST(MaximizeScalar, RejectsEmptyInterval) {
  EXPECT_THROW(maximize_scalar([](double x) { return x; }, 1.0, 1.0),
               std::invalid_argument);
}

TEST(MaximizeScalar, MatchesClosedFormProfitPeak) {
  // CED single-flow profit (v/p)^a (p - c): peak at p = a c / (a - 1).
  const double a = 2.0, c = 1.0;
  const auto opt = maximize_scalar(
      [&](double p) { return std::pow(1.0 / p, a) * (p - c); }, 1.01, 50.0);
  EXPECT_NEAR(opt.x, a * c / (a - 1.0), 1e-5);
}

TEST(FindRoot, SolvesLinearEquation) {
  const double r = find_root([](double x) { return 2.0 * x - 3.0; }, 0.0, 5.0);
  EXPECT_NEAR(r, 1.5, 1e-10);
}

TEST(FindRoot, SolvesTranscendentalEquation) {
  const double r =
      find_root([](double x) { return std::cos(x) - x; }, 0.0, 1.0);
  EXPECT_NEAR(r, 0.7390851332, 1e-8);
}

TEST(FindRoot, ReturnsExactEndpointRoot) {
  EXPECT_DOUBLE_EQ(find_root([](double x) { return x; }, 0.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(find_root([](double x) { return x - 1.0; }, 0.0, 1.0), 1.0);
}

TEST(FindRoot, RejectsNonBracketingInterval) {
  EXPECT_THROW(find_root([](double x) { return x + 10.0; }, 0.0, 1.0),
               std::invalid_argument);
}

TEST(FindRoot, BracketedFormSkipsEndpointsAndMatchesExactly) {
  const auto f = [](double x) { return std::cos(x) - x; };
  int calls = 0;
  const auto counted = [&](double x) {
    ++calls;
    return f(x);
  };
  const double bracketed =
      find_root_bracketed(counted, 0.0, f(0.0), 1.0, f(1.0), 1e-10);
  const int midpoint_calls = calls;
  calls = 0;
  const double plain = find_root(counted, 0.0, 1.0, 1e-10);
  EXPECT_EQ(bracketed, plain);
  EXPECT_EQ(calls, midpoint_calls + 2);  // find_root adds both endpoints
  EXPECT_THROW(find_root_bracketed(f, 0.0, 1.0, 1.0, 2.0),
               std::invalid_argument);
}

TEST(FixedPoint, ConvergesToSqrt) {
  // x = (x + 2/x)/2 converges to sqrt(2).
  const auto res =
      fixed_point([](double x) { return (x + 2.0 / x) / 2.0; }, 1.0);
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(res.x, std::sqrt(2.0), 1e-9);
}

TEST(FixedPoint, ReportsNonConvergence) {
  const auto res = fixed_point([](double x) { return -2.0 * x + 1.0; }, 5.0,
                               1e-12, 50, 1.0);
  EXPECT_FALSE(res.converged);
}

TEST(FixedPoint, ValidatesDamping) {
  EXPECT_THROW(fixed_point([](double x) { return x; }, 0.0, 1e-9, 10, 0.0),
               std::invalid_argument);
  EXPECT_THROW(fixed_point([](double x) { return x; }, 0.0, 1e-9, 10, 1.5),
               std::invalid_argument);
}

TEST(GradientAscent, MaximizesConcaveQuadratic) {
  const auto res = gradient_ascent(
      [](std::span<const double> x) {
        return -(x[0] - 1.0) * (x[0] - 1.0) - (x[1] + 2.0) * (x[1] + 2.0);
      },
      {0.0, 0.0});
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(res.x[0], 1.0, 1e-3);
  EXPECT_NEAR(res.x[1], -2.0, 1e-3);
  EXPECT_NEAR(res.value, 0.0, 1e-5);
}

TEST(GradientAscent, RespectsLowerBounds) {
  GradientAscentOptions opts;
  opts.lower_bounds = {2.0};
  const auto res = gradient_ascent(
      [](std::span<const double> x) { return -x[0] * x[0]; }, {5.0}, opts);
  // Unconstrained max is x = 0, but the bound pins it at 2.
  EXPECT_NEAR(res.x[0], 2.0, 1e-6);
}

TEST(GradientAscent, StartBelowBoundIsProjectedUp) {
  GradientAscentOptions opts;
  opts.lower_bounds = {1.0};
  const auto res = gradient_ascent(
      [](std::span<const double> x) { return -(x[0] - 3.0) * (x[0] - 3.0); },
      {0.0}, opts);
  EXPECT_NEAR(res.x[0], 3.0, 1e-3);
}

TEST(GradientAscent, ValidatesInputs) {
  EXPECT_THROW(gradient_ascent([](std::span<const double>) { return 0.0; }, {}),
               std::invalid_argument);
  GradientAscentOptions opts;
  opts.lower_bounds = {0.0, 0.0};
  EXPECT_THROW(gradient_ascent([](std::span<const double>) { return 0.0; },
                               {1.0}, opts),
               std::invalid_argument);
}

}  // namespace
}  // namespace manytiers::util
