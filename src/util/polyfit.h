// Least-squares quadratic fitting.
//
// GreenHetero's performance-power database fits `Perf = l*P^2 + m*P + n`
// (Section IV-B.2 of the paper: quadratic chosen as the complexity /
// accuracy sweet spot).  This module provides that quadratic and its least
// squares fit: normal equations over centred x, solved by partially pivoted
// Gaussian elimination.
#pragma once

#include <span>
#include <stdexcept>

namespace greenhetero {

/// Thrown when a fit is requested with too few points or a singular system.
class FitError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A quadratic y = a x^2 + b x + c with the operations the Solver needs.
struct Quadratic {
  double a = 0.0;
  double b = 0.0;
  double c = 0.0;

  [[nodiscard]] double operator()(double x) const { return (a * x + b) * x + c; }
  /// x of the vertex; only meaningful when a != 0.
  [[nodiscard]] double vertex() const { return -b / (2.0 * a); }
};

/// Quadratic least squares over (x, y), without allocating.  Throws
/// FitError with fewer than 3 samples, mismatched sizes, or a singular
/// system (e.g. all x identical).
[[nodiscard]] Quadratic quadratic_fit(std::span<const double> x,
                                      std::span<const double> y);

}  // namespace greenhetero
