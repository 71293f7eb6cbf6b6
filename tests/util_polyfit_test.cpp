#include "util/polyfit.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace greenhetero {
namespace {

// The general degree-d least squares that quadratic_fit specialises —
// the reference QuadraticFit.MatchesPolyfitBitwise compares it against,
// kept verbatim: normal equations over centred x, partially pivoted
// elimination, binomial re-expansion.  Coefficients low-order-first.
std::vector<double> solve_linear_system(std::vector<std::vector<double>> a,
                                        std::vector<double> b) {
  const std::size_t n = b.size();
  if (a.size() != n) {
    throw FitError("linear system: dimension mismatch");
  }
  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivoting.
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::fabs(a[r][col]) > std::fabs(a[pivot][col])) pivot = r;
    }
    if (std::fabs(a[pivot][col]) < 1e-12) {
      throw FitError("linear system: singular matrix");
    }
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = a[r][col] / a[col][col];
      for (std::size_t c = col; c < n; ++c) {
        a[r][c] -= factor * a[col][c];
      }
      b[r] -= factor * b[col];
    }
  }
  std::vector<double> x(n, 0.0);
  for (std::size_t row = n; row-- > 0;) {
    double sum = b[row];
    for (std::size_t c = row + 1; c < n; ++c) {
      sum -= a[row][c] * x[c];
    }
    x[row] = sum / a[row][row];
  }
  return x;
}

std::vector<double> polyfit(std::span<const double> x,
                            std::span<const double> y, std::size_t degree) {
  if (x.size() != y.size()) {
    throw FitError("polyfit: x/y size mismatch");
  }
  const std::size_t terms = degree + 1;
  if (x.size() < terms) {
    throw FitError("polyfit: need at least degree+1 samples");
  }
  const double x_mean = [&] {
    double s = 0.0;
    for (double v : x) s += v;
    return s / static_cast<double>(x.size());
  }();

  std::vector<std::vector<double>> ata(terms, std::vector<double>(terms, 0.0));
  std::vector<double> aty(terms, 0.0);
  for (std::size_t k = 0; k < x.size(); ++k) {
    const double xc = x[k] - x_mean;
    double pow_i = 1.0;
    std::vector<double> powers(terms);
    for (std::size_t i = 0; i < terms; ++i) {
      powers[i] = pow_i;
      pow_i *= xc;
    }
    for (std::size_t i = 0; i < terms; ++i) {
      for (std::size_t j = 0; j < terms; ++j) {
        ata[i][j] += powers[i] * powers[j];
      }
      aty[i] += powers[i] * y[k];
    }
  }
  std::vector<double> centred = solve_linear_system(std::move(ata), aty);

  // Expand p(x - x_mean) back to coefficients in x via binomial expansion.
  std::vector<double> result(terms, 0.0);
  for (std::size_t i = 0; i < terms; ++i) {
    // centred[i] * (x - m)^i = centred[i] * sum_j C(i,j) x^j (-m)^(i-j)
    for (std::size_t j = 0; j <= i; ++j) {
      double binom = 1.0;
      for (std::size_t t = 0; t < j; ++t) {
        binom = binom * static_cast<double>(i - t) / static_cast<double>(t + 1);
      }
      result[j] += centred[i] * binom *
                   std::pow(-x_mean, static_cast<double>(i - j));
    }
  }
  return result;
}

TEST(Polyfit, RecoversExactQuadratic) {
  // y = 3 - 0.5 x + 0.25 x^2 sampled exactly.
  const std::vector<double> x = {0.0, 1.0, 2.0, 3.0, 4.0};
  std::vector<double> y;
  for (double xi : x) y.push_back(3.0 - 0.5 * xi + 0.25 * xi * xi);
  const Quadratic q = quadratic_fit(x, y);
  EXPECT_NEAR(q.c, 3.0, 1e-9);
  EXPECT_NEAR(q.b, -0.5, 1e-9);
  EXPECT_NEAR(q.a, 0.25, 1e-9);
}

TEST(Polyfit, RecoversLine) {
  const std::vector<double> x = {10.0, 20.0, 30.0};
  const std::vector<double> y = {5.0, 7.0, 9.0};
  const Quadratic q = quadratic_fit(x, y);
  EXPECT_NEAR(q.a, 0.0, 1e-9);
  EXPECT_NEAR(q(25.0), 8.0, 1e-9);
}

TEST(Polyfit, HandlesLargeOffsets) {
  // Centring keeps the normal equations stable around x ~ 1e5.
  const std::vector<double> x = {100000.0, 100001.0, 100002.0, 100003.0};
  std::vector<double> y;
  for (double xi : x) {
    const double d = xi - 100000.0;
    y.push_back(1.0 + d + 2.0 * d * d);
  }
  const Quadratic q = quadratic_fit(x, y);
  EXPECT_NEAR(q(100001.5), 1.0 + 1.5 + 2.0 * 2.25, 1e-4);
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
  EXPECT_THROW((void)quadratic_fit(x, y), FitError);
}

TEST(Polyfit, MismatchedSizesThrow) {
  const std::vector<double> x = {1.0, 2.0, 3.0};
  const std::vector<double> y = {1.0, 2.0};
  EXPECT_THROW((void)quadratic_fit(x, y), FitError);
}

TEST(Polyfit, DegenerateXThrows) {
  const std::vector<double> x = {2.0, 2.0, 2.0, 2.0};
  const std::vector<double> y = {1.0, 2.0, 3.0, 4.0};
  EXPECT_THROW((void)quadratic_fit(x, y), FitError);
}

TEST(QuadraticFit, MatchesPolyfitBitwise) {
  // quadratic_fit is the reference polyfit(x, y, 2) on fixed-size arrays;
  // the two must
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
    std::vector<double> p;
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
    ASSERT_EQ(p.size(), 3u);
    ASSERT_EQ(bits(q.c), bits(p[0]));
    ASSERT_EQ(bits(q.b), bits(p[1]));
    ASSERT_EQ(bits(q.a), bits(p[2]));
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
  EXPECT_DOUBLE_EQ(q.vertex(), 2.0);
}

}  // namespace
}  // namespace greenhetero
