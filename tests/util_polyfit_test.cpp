#include "util/polyfit.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "util/rng.h"

namespace greenhetero {
namespace {

TEST(Polynomial, Evaluation) {
  const Polynomial p{{1.0, 2.0, 3.0}};  // 1 + 2x + 3x^2
  EXPECT_DOUBLE_EQ(p(0.0), 1.0);
  EXPECT_DOUBLE_EQ(p(1.0), 6.0);
  EXPECT_DOUBLE_EQ(p(2.0), 17.0);
  EXPECT_EQ(p.degree(), 2u);
}

TEST(Polynomial, Derivative) {
  const Polynomial p{{1.0, 2.0, 3.0}};  // d/dx = 2 + 6x
  EXPECT_DOUBLE_EQ(p.derivative_at(0.0), 2.0);
  EXPECT_DOUBLE_EQ(p.derivative_at(2.0), 14.0);
}

TEST(Polyfit, RecoversExactQuadratic) {
  // y = 3 - 0.5 x + 0.25 x^2 sampled exactly.
  const std::vector<double> x = {0.0, 1.0, 2.0, 3.0, 4.0};
  std::vector<double> y;
  for (double xi : x) y.push_back(3.0 - 0.5 * xi + 0.25 * xi * xi);
  const Polynomial p = polyfit(x, y, 2);
  ASSERT_EQ(p.coefficients.size(), 3u);
  EXPECT_NEAR(p.coefficients[0], 3.0, 1e-9);
  EXPECT_NEAR(p.coefficients[1], -0.5, 1e-9);
  EXPECT_NEAR(p.coefficients[2], 0.25, 1e-9);
}

TEST(Polyfit, RecoversLine) {
  const std::vector<double> x = {10.0, 20.0, 30.0};
  const std::vector<double> y = {5.0, 7.0, 9.0};
  const Polynomial p = polyfit(x, y, 1);
  EXPECT_NEAR(p(25.0), 8.0, 1e-9);
}

TEST(Polyfit, HandlesLargeOffsets) {
  // Centring keeps the normal equations stable around x ~ 1e5.
  const std::vector<double> x = {100000.0, 100001.0, 100002.0, 100003.0};
  std::vector<double> y;
  for (double xi : x) {
    const double d = xi - 100000.0;
    y.push_back(1.0 + d + 2.0 * d * d);
  }
  const Polynomial p = polyfit(x, y, 2);
  EXPECT_NEAR(p(100001.5), 1.0 + 1.5 + 2.0 * 2.25, 1e-4);
}

TEST(Polyfit, NoisyFitIsClose) {
  Rng rng(5);
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 50; ++i) {
    const double xi = i * 0.2;
    x.push_back(xi);
    y.push_back(2.0 + 0.8 * xi - 0.1 * xi * xi + rng.gaussian(0.0, 0.05));
  }
  const Quadratic q = quadratic_fit(x, y);
  EXPECT_NEAR(q.a, -0.1, 0.02);
  EXPECT_NEAR(q.b, 0.8, 0.05);
  EXPECT_NEAR(q.c, 2.0, 0.1);
}

TEST(Polyfit, TooFewSamplesThrows) {
  const std::vector<double> x = {1.0, 2.0};
  const std::vector<double> y = {1.0, 2.0};
  EXPECT_THROW((void)polyfit(x, y, 2), FitError);
}

TEST(Polyfit, MismatchedSizesThrow) {
  const std::vector<double> x = {1.0, 2.0, 3.0};
  const std::vector<double> y = {1.0, 2.0};
  EXPECT_THROW((void)polyfit(x, y, 1), FitError);
}

TEST(Polyfit, DegenerateXThrows) {
  const std::vector<double> x = {2.0, 2.0, 2.0, 2.0};
  const std::vector<double> y = {1.0, 2.0, 3.0, 4.0};
  EXPECT_THROW((void)polyfit(x, y, 2), FitError);
}

TEST(FitRmse, ZeroForExactFit) {
  const std::vector<double> x = {0.0, 1.0, 2.0, 3.0};
  std::vector<double> y;
  for (double xi : x) y.push_back(1.0 + xi);
  const Polynomial p = polyfit(x, y, 1);
  EXPECT_NEAR(fit_rmse(p, x, y), 0.0, 1e-10);
}

TEST(QuadraticFit, MatchesPolyfitBitwise) {
  // quadratic_fit is polyfit(x, y, 2) on fixed-size arrays; the two must
  // agree to the last bit on any sample set, including the database's
  // (server power in watts, throughput) shape and far-off scales.
  Rng rng{20240517};
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  int singular = 0;
  for (int fit = 0; fit < 20000; ++fit) {
    const int n = rng.uniform_int(3, 64);
    const double scale = fit % 3 == 0 ? 1.0 : (fit % 3 == 1 ? 1e3 : 1e-3);
    const double lo = rng.uniform(-2.0, 2.0) * scale;
    const double hi = lo + rng.uniform(0.01, 4.0) * scale;
    const double a = rng.uniform(-1.0, 1.0);
    const double b = rng.uniform(-10.0, 10.0);
    const double c = rng.uniform(-100.0, 100.0);
    std::vector<double> x(static_cast<std::size_t>(n));
    std::vector<double> y(x.size());
    for (std::size_t k = 0; k < x.size(); ++k) {
      x[k] = rng.uniform(lo, hi);
      y[k] = (a * x[k] + b) * x[k] + c + rng.uniform(-1.0, 1.0);
    }
    SCOPED_TRACE("fit " + std::to_string(fit));
    Polynomial p;
    try {
      p = polyfit(x, y, 2);
    } catch (const FitError&) {
      // Tiny spreads hit the absolute singularity threshold: both paths
      // must refuse alike.
      ASSERT_THROW((void)quadratic_fit(x, y), FitError);
      ++singular;
      continue;
    }
    const Quadratic q = quadratic_fit(x, y);
    ASSERT_EQ(p.coefficients.size(), 3u);
    ASSERT_EQ(bits(q.c), bits(p.coefficients[0]));
    ASSERT_EQ(bits(q.b), bits(p.coefficients[1]));
    ASSERT_EQ(bits(q.a), bits(p.coefficients[2]));
  }
  EXPECT_LT(singular, 20000 / 3);  // most fits must reach the comparison
  // Degenerate inputs fail the same way on both paths.
  const std::vector<double> same_x(5, 2.0);
  const std::vector<double> ys = {1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_THROW((void)polyfit(same_x, ys, 2), FitError);
  EXPECT_THROW((void)quadratic_fit(same_x, ys), FitError);
  const std::vector<double> two = {1.0, 2.0};
  EXPECT_THROW((void)quadratic_fit(two, two), FitError);
}

TEST(Quadratic, Operations) {
  const Quadratic q{-2.0, 8.0, 1.0};
  EXPECT_DOUBLE_EQ(q(0.0), 1.0);
  EXPECT_DOUBLE_EQ(q(1.0), 7.0);
  EXPECT_DOUBLE_EQ(q.slope(1.0), 4.0);
  EXPECT_TRUE(q.concave());
  EXPECT_DOUBLE_EQ(q.vertex(), 2.0);
  EXPECT_FALSE((Quadratic{1.0, 0.0, 0.0}).concave());
}

TEST(LinearSystem, SolvesSmallSystem) {
  // 2x + y = 5; x - y = 1 -> x = 2, y = 1.
  auto x = solve_linear_system({{2.0, 1.0}, {1.0, -1.0}}, {5.0, 1.0});
  ASSERT_EQ(x.size(), 2u);
  EXPECT_NEAR(x[0], 2.0, 1e-12);
  EXPECT_NEAR(x[1], 1.0, 1e-12);
}

TEST(LinearSystem, SingularThrows) {
  EXPECT_THROW(
      (void)solve_linear_system({{1.0, 1.0}, {2.0, 2.0}}, {1.0, 2.0}),
      FitError);
}

}  // namespace
}  // namespace greenhetero
