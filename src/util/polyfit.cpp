#include "util/polyfit.h"

#include <array>
#include <cmath>
#include <utility>

namespace greenhetero {

double Polynomial::operator()(double x) const {
  double result = 0.0;
  for (std::size_t i = coefficients.size(); i-- > 0;) {
    result = result * x + coefficients[i];
  }
  return result;
}

double Polynomial::derivative_at(double x) const {
  double result = 0.0;
  for (std::size_t i = coefficients.size(); i-- > 1;) {
    result = result * x + static_cast<double>(i) * coefficients[i];
  }
  return result;
}

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

Polynomial polyfit(std::span<const double> x, std::span<const double> y,
                   std::size_t degree) {
  if (x.size() != y.size()) {
    throw FitError("polyfit: x/y size mismatch");
  }
  const std::size_t terms = degree + 1;
  if (x.size() < terms) {
    throw FitError("polyfit: need at least degree+1 samples");
  }
  // Normal equations: (V^T V) c = V^T y with Vandermonde V.  For the small
  // degrees used here (<= 3) this is numerically fine after centring x.
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
  return Polynomial{std::move(result)};
}

double fit_rmse(const Polynomial& poly, std::span<const double> x,
                std::span<const double> y) {
  if (x.size() != y.size() || x.empty()) {
    throw FitError("fit_rmse: bad sample set");
  }
  double sum_sq = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double err = poly(x[i]) - y[i];
    sum_sq += err * err;
  }
  return std::sqrt(sum_sq / static_cast<double>(x.size()));
}

Quadratic quadratic_fit(std::span<const double> x, std::span<const double> y) {
  // polyfit(x, y, 2) on fixed-size arrays: the same operations in the same
  // order (centring, normal equations, partially pivoted elimination, the
  // binomial re-expansion), so the coefficients are bitwise equal to the
  // general path's — src/CMakeLists.txt pins -ffp-contract=off, so neither
  // path fuses multiply-adds — without its per-sample and per-row
  // allocations.
  constexpr std::size_t kTerms = 3;
  if (x.size() != y.size()) {
    throw FitError("polyfit: x/y size mismatch");
  }
  if (x.size() < kTerms) {
    throw FitError("polyfit: need at least degree+1 samples");
  }
  double x_mean = 0.0;
  for (double v : x) x_mean += v;
  x_mean /= static_cast<double>(x.size());

  std::array<std::array<double, kTerms>, kTerms> ata{};
  std::array<double, kTerms> aty{};
  for (std::size_t k = 0; k < x.size(); ++k) {
    const double xc = x[k] - x_mean;
    std::array<double, kTerms> powers;
    double pow_i = 1.0;
    for (std::size_t i = 0; i < kTerms; ++i) {
      powers[i] = pow_i;
      pow_i *= xc;
    }
    for (std::size_t i = 0; i < kTerms; ++i) {
      for (std::size_t j = 0; j < kTerms; ++j) {
        ata[i][j] += powers[i] * powers[j];
      }
      aty[i] += powers[i] * y[k];
    }
  }

  // solve_linear_system(ata, aty).
  for (std::size_t col = 0; col < kTerms; ++col) {
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < kTerms; ++r) {
      if (std::fabs(ata[r][col]) > std::fabs(ata[pivot][col])) pivot = r;
    }
    if (std::fabs(ata[pivot][col]) < 1e-12) {
      throw FitError("linear system: singular matrix");
    }
    std::swap(ata[col], ata[pivot]);
    std::swap(aty[col], aty[pivot]);
    for (std::size_t r = col + 1; r < kTerms; ++r) {
      const double factor = ata[r][col] / ata[col][col];
      for (std::size_t c = col; c < kTerms; ++c) {
        ata[r][c] -= factor * ata[col][c];
      }
      aty[r] -= factor * aty[col];
    }
  }
  std::array<double, kTerms> centred{};
  for (std::size_t row = kTerms; row-- > 0;) {
    double sum = aty[row];
    for (std::size_t c = row + 1; c < kTerms; ++c) {
      sum -= ata[row][c] * centred[c];
    }
    centred[row] = sum / ata[row][row];
  }

  // Expand p(x - x_mean) back to coefficients in x.
  std::array<double, kTerms> result{};
  for (std::size_t i = 0; i < kTerms; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double binom = 1.0;
      for (std::size_t t = 0; t < j; ++t) {
        binom = binom * static_cast<double>(i - t) / static_cast<double>(t + 1);
      }
      result[j] += centred[i] * binom *
                   std::pow(-x_mean, static_cast<double>(i - j));
    }
  }
  return Quadratic{result[2], result[1], result[0]};
}

}  // namespace greenhetero
