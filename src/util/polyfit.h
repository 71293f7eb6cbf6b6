// Least-squares polynomial fitting.
//
// GreenHetero's performance-power database fits `Perf = l*P^2 + m*P + n`
// (Section IV-B.2 of the paper: quadratic chosen as the complexity /
// accuracy sweet spot).  This module provides general degree-d least squares
// via normal equations with Gaussian elimination, plus the quadratic
// convenience type the database uses.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <stdexcept>
#include <vector>

namespace greenhetero {

/// Thrown when a fit is requested with too few points or a singular system.
class FitError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Coefficients low-order-first: value(x) = c[0] + c[1] x + ... + c[d] x^d.
struct Polynomial {
  std::vector<double> coefficients;

  [[nodiscard]] double operator()(double x) const;
  [[nodiscard]] double derivative_at(double x) const;
  [[nodiscard]] std::size_t degree() const {
    return coefficients.empty() ? 0 : coefficients.size() - 1;
  }
};

/// Least-squares fit of a degree-`degree` polynomial to (x, y) samples.
/// Requires at least degree + 1 samples; throws FitError otherwise or when
/// the normal equations are singular (e.g. all x identical).
[[nodiscard]] Polynomial polyfit(std::span<const double> x,
                                 std::span<const double> y,
                                 std::size_t degree);

/// Root-mean-square error of `poly` over the given samples.
[[nodiscard]] double fit_rmse(const Polynomial& poly,
                              std::span<const double> x,
                              std::span<const double> y);

/// A quadratic y = a x^2 + b x + c with the operations the Solver needs.
struct Quadratic {
  double a = 0.0;
  double b = 0.0;
  double c = 0.0;

  [[nodiscard]] double operator()(double x) const { return (a * x + b) * x + c; }
  [[nodiscard]] double slope(double x) const { return 2.0 * a * x + b; }
  /// Is the quadratic concave (diminishing returns), i.e. a <= 0?
  [[nodiscard]] bool concave() const { return a <= 0.0; }
  /// x of the vertex; only meaningful when a != 0.
  [[nodiscard]] double vertex() const { return -b / (2.0 * a); }
};

/// Quadratic least squares over (x, y); needs >= 3 samples.  Bitwise equal
/// to `polyfit(x, y, 2)`, without allocating.
[[nodiscard]] Quadratic quadratic_fit(std::span<const double> x,
                                      std::span<const double> y);

/// Solve a small dense linear system A x = b in place (partial pivoting).
/// Throws FitError when singular.  Exposed for tests.
[[nodiscard]] std::vector<double> solve_linear_system(
    std::vector<std::vector<double>> a, std::vector<double> b);

}  // namespace greenhetero
