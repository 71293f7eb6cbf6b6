// Time-series prediction of renewable supply and rack demand
// (Section IV-B.1 of the paper).
//
// GreenHetero uses Holt double exponential smoothing: a level equation
// S_t = alpha*O_t + (1-alpha)(S_{t-1} + B_{t-1}), a trend equation
// B_t = beta*(S_t - S_{t-1}) + (1-beta)*B_{t-1}, and the one-step forecast
// P_{t+1} = S_t + B_t.  alpha and beta are trained on past records by
// minimising the squared one-step prediction error (Equation 5).
//
// The paper notes any proven predictor can be swapped in; the SeriesPredictor
// interface plus the naive baselines here support exactly that (and the A2
// ablation bench).
#pragma once

#include <deque>
#include <memory>
#include <span>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace greenhetero::checkpoint {
class Writer;
class Reader;
}  // namespace greenhetero::checkpoint

namespace greenhetero {

enum class PredictorKind;

class PredictorError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Common interface: feed observations, ask for the next-epoch forecast.
class SeriesPredictor {
 public:
  virtual ~SeriesPredictor() = default;
  virtual void observe(double value) = 0;
  /// One-step-ahead forecast; requires ready().
  [[nodiscard]] virtual double predict() const = 0;
  [[nodiscard]] virtual bool ready() const = 0;
  virtual void reset() = 0;

  /// Concrete model tag, so a checkpoint can reconstruct the right type
  /// (retraining replaces predictor objects, so the deployed parameters
  /// can differ from the configured ones).
  [[nodiscard]] virtual PredictorKind kind() const = 0;
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

class HoltPredictor final : public SeriesPredictor {
 public:
  explicit HoltPredictor(HoltParams params = {});

  void observe(double value) override;
  [[nodiscard]] double predict() const override;
  [[nodiscard]] bool ready() const override { return count_ >= 2; }
  void reset() override;

  [[nodiscard]] const HoltParams& params() const { return params_; }
  [[nodiscard]] double level() const { return level_; }
  [[nodiscard]] double trend() const { return trend_; }

  [[nodiscard]] PredictorKind kind() const override;
  template <class Self, class Io>
  static void fields(Self& self, Io& io);

 private:
  HoltParams params_;
  double level_ = 0.0;
  double trend_ = 0.0;
  double previous_ = 0.0;
  int count_ = 0;
};

/// Baseline: forecast = last observation.
class LastValuePredictor final : public SeriesPredictor {
 public:
  void observe(double value) override;
  [[nodiscard]] double predict() const override;
  [[nodiscard]] bool ready() const override { return seen_; }
  void reset() override;

  [[nodiscard]] PredictorKind kind() const override;
  template <class Self, class Io>
  static void fields(Self& self, Io& io);

 private:
  double last_ = 0.0;
  bool seen_ = false;
};

/// Baseline: forecast = mean of the last `window` observations.
class MovingAveragePredictor final : public SeriesPredictor {
 public:
  explicit MovingAveragePredictor(int window);

  void observe(double value) override;
  [[nodiscard]] double predict() const override;
  [[nodiscard]] bool ready() const override { return !values_.empty(); }
  void reset() override;

  [[nodiscard]] PredictorKind kind() const override;
  template <class Self, class Io>
  static void fields(Self& self, Io& io);

 private:
  int window_;
  std::deque<double> values_;
  double sum_ = 0.0;
};

/// Holt-Winters additive seasonal smoothing (the paper's reference [37] is
/// Kalekar's Holt-Winters tutorial; plain Holt is the special case it
/// actually deploys).  Solar generation has a strong diurnal season —
/// with 15-minute epochs, period = 96 — which the seasonal term captures:
///
///   S_t = alpha*(O_t - I_{t-p}) + (1-alpha)(S_{t-1} + B_{t-1})
///   B_t = beta*(S_t - S_{t-1}) + (1-beta)*B_{t-1}
///   I_t = delta*(O_t - S_t) + (1-delta)*I_{t-p}
///   P_{t+1} = S_t + B_t + I_{t+1-p}
class HoltWintersPredictor final : public SeriesPredictor {
 public:
  /// `period` observations per season (96 for 15-minute epochs over a day).
  HoltWintersPredictor(HoltParams params, int period, double delta = 0.3);

  void observe(double value) override;
  [[nodiscard]] double predict() const override;
  /// Ready once a full season plus one observation has been seen.
  [[nodiscard]] bool ready() const override;
  void reset() override;

  [[nodiscard]] int period() const { return period_; }

  [[nodiscard]] PredictorKind kind() const override;
  template <class Self, class Io>
  static void fields(Self& self, Io& io);

 private:
  [[nodiscard]] double seasonal(int offset) const;

  HoltParams params_;
  int period_;
  double delta_;
  double level_ = 0.0;
  double trend_ = 0.0;
  std::vector<double> season_;  ///< ring buffer of seasonal indices
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

/// Which forecasting model the controller deploys.  The paper ships Holt
/// and explicitly invites swapping in "any other proven prediction
/// approaches"; the alternatives here support that and the A2 ablation.
enum class PredictorKind {
  kHolt,         ///< double exponential smoothing (the paper's choice)
  kHoltWinters,  ///< adds the additive diurnal seasonal term
  kLastValue,    ///< naive baseline
  kMovingAverage ///< short-window mean baseline
};
inline constexpr int kPredictorKindCount = 4;

[[nodiscard]] std::string_view to_string(PredictorKind kind);

/// Factory.  `season_period` is used by Holt-Winters (observations per
/// day); the moving-average window defaults to 4 epochs.
[[nodiscard]] std::unique_ptr<SeriesPredictor> make_predictor(
    PredictorKind kind, int season_period, HoltParams params = {});

/// Checkpoint a predictor polymorphically: a kind tag followed by the
/// concrete type's field list.  load_predictor reconstructs the concrete type
/// and restores its full state (including constructor parameters, which
/// retraining may have changed from the configured values).
void save_predictor(checkpoint::Writer& w, const SeriesPredictor& predictor);
[[nodiscard]] std::unique_ptr<SeriesPredictor> load_predictor(
    checkpoint::Reader& r);

}  // namespace greenhetero
