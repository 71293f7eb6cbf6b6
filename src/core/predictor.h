// Time-series prediction of renewable supply and rack demand
// (Section IV-B.1 of the paper).
//
// GreenHetero uses Holt double exponential smoothing: a level equation
// S_t = alpha*O_t + (1-alpha)(S_{t-1} + B_{t-1}), a trend equation
// B_t = beta*(S_t - S_{t-1}) + (1-beta)*B_{t-1}, and the one-step forecast
// P_{t+1} = S_t + B_t.  alpha and beta are trained on past records by
// minimising the squared one-step prediction error (Equation 5).
#pragma once

#include <span>
#include <stdexcept>
#include <vector>

namespace greenhetero {

class PredictorError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct HoltParams {
  double alpha = 0.5;  ///< level smoothing, in [0, 1]
  double beta = 0.3;   ///< trend smoothing, in [0, 1]
  void validate() const;

  template <class Self, class Io>
  static void fields(Self& self, Io& io) {
    io.f64(self.alpha);
    io.f64(self.beta);
    if constexpr (Io::kLoading) self.validate();
  }
};

class HoltPredictor {
 public:
  explicit HoltPredictor(HoltParams params = {});

  void observe(double value);
  /// One-step-ahead forecast; requires ready().
  [[nodiscard]] double predict() const;
  [[nodiscard]] bool ready() const { return count_ >= 2; }

  [[nodiscard]] const HoltParams& params() const { return params_; }
  [[nodiscard]] double level() const { return level_; }
  [[nodiscard]] double trend() const { return trend_; }

  template <class Self, class Io>
  static void fields(Self& self, Io& io) {
    io.object(self.params_);
    io.f64(self.level_);
    io.f64(self.trend_);
    io.f64(self.previous_);
    io.i64(self.count_);
  }

 private:
  HoltParams params_;
  double level_ = 0.0;
  double trend_ = 0.0;
  double previous_ = 0.0;
  int count_ = 0;
};

/// Sum of squared one-step prediction errors of a Holt predictor replayed
/// over `history` (the Delta-D^2 objective of Equation 5).
[[nodiscard]] double holt_sse(std::span<const double> history,
                              HoltParams params);

/// Train (alpha, beta) over `history`: coarse grid scan of the unit square
/// (step 1/grid_steps), then a refinement in steps of step/8 whose +-step
/// window follows the incumbent — each improvement re-centres the rows still
/// to come.  Starting from the default parameters, a candidate replaces the
/// incumbent, in scan order, only if its holt_sse is lower by more than a
/// 1e-12 relative tolerance.
/// Candidates are replayed in lockstep blocks (core/holt_lanes.h) whose
/// per-lane arithmetic is holt_sse's, on the widest vector kernel the CPU
/// supports, and a block is abandoned once none of its partial SSEs can
/// still beat the incumbent; the result is bitwise that of a one-at-a-time
/// scan.  Needs at least 3 observations.
[[nodiscard]] HoltParams train_holt(std::span<const double> history,
                                    int grid_steps = 20);

}  // namespace greenhetero
