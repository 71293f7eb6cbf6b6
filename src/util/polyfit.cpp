#include "util/polyfit.h"

#include <array>
#include <cmath>
#include <utility>

namespace greenhetero {

Quadratic quadratic_fit(std::span<const double> x, std::span<const double> y) {
  // Degree-2 least squares on fixed-size arrays: centring, normal
  // equations, partially pivoted elimination, the binomial re-expansion.
  // The coefficients are bitwise those of the general degree-d procedure
  // (QuadraticFit.MatchesPolyfitBitwise keeps it as a reference);
  // src/CMakeLists.txt pins -ffp-contract=off, so no multiply-add fuses.
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

  // Solve ata * centred = aty.
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
