#include "core/predictor.h"

#include <algorithm>
#include <limits>

#include "checkpoint/serializer.h"

namespace greenhetero {

void HoltParams::validate() const {
  if (alpha < 0.0 || alpha > 1.0 || beta < 0.0 || beta > 1.0) {
    throw PredictorError("holt: alpha and beta must lie in [0, 1]");
  }
}

HoltPredictor::HoltPredictor(HoltParams params) : params_(params) {
  params_.validate();
}

void HoltPredictor::observe(double value) {
  if (count_ == 0) {
    level_ = value;
    trend_ = 0.0;
  } else if (count_ == 1) {
    trend_ = value - previous_;
    level_ = value;
  } else {
    const double prev_level = level_;
    level_ = params_.alpha * value +
             (1.0 - params_.alpha) * (prev_level + trend_);
    trend_ = params_.beta * (level_ - prev_level) +
             (1.0 - params_.beta) * trend_;
  }
  previous_ = value;
  ++count_;
}

double HoltPredictor::predict() const {
  if (!ready()) {
    throw PredictorError("holt: needs at least 2 observations");
  }
  return level_ + trend_;
}

void HoltPredictor::reset() {
  level_ = trend_ = previous_ = 0.0;
  count_ = 0;
}

PredictorKind HoltPredictor::kind() const { return PredictorKind::kHolt; }

void HoltPredictor::save_state(checkpoint::Writer& w) const {
  w.f64(params_.alpha);
  w.f64(params_.beta);
  w.f64(level_);
  w.f64(trend_);
  w.f64(previous_);
  w.i64(count_);
}

void HoltPredictor::load_state(checkpoint::Reader& r) {
  params_.alpha = r.f64();
  params_.beta = r.f64();
  params_.validate();
  level_ = r.f64();
  trend_ = r.f64();
  previous_ = r.f64();
  count_ = static_cast<int>(r.i64());
}

void LastValuePredictor::observe(double value) {
  last_ = value;
  seen_ = true;
}

double LastValuePredictor::predict() const {
  if (!seen_) {
    throw PredictorError("last-value: no observations");
  }
  return last_;
}

void LastValuePredictor::reset() {
  last_ = 0.0;
  seen_ = false;
}

PredictorKind LastValuePredictor::kind() const {
  return PredictorKind::kLastValue;
}

void LastValuePredictor::save_state(checkpoint::Writer& w) const {
  w.f64(last_);
  w.boolean(seen_);
}

void LastValuePredictor::load_state(checkpoint::Reader& r) {
  last_ = r.f64();
  seen_ = r.boolean();
}

MovingAveragePredictor::MovingAveragePredictor(int window) : window_(window) {
  if (window <= 0) {
    throw PredictorError("moving average: window must be positive");
  }
}

void MovingAveragePredictor::observe(double value) {
  values_.push_back(value);
  sum_ += value;
  if (static_cast<int>(values_.size()) > window_) {
    sum_ -= values_.front();
    values_.pop_front();
  }
}

double MovingAveragePredictor::predict() const {
  if (values_.empty()) {
    throw PredictorError("moving average: no observations");
  }
  return sum_ / static_cast<double>(values_.size());
}

void MovingAveragePredictor::reset() {
  values_.clear();
  sum_ = 0.0;
}

PredictorKind MovingAveragePredictor::kind() const {
  return PredictorKind::kMovingAverage;
}

void MovingAveragePredictor::save_state(checkpoint::Writer& w) const {
  w.i64(window_);
  checkpoint::save(w, values_);
  w.f64(sum_);
}

void MovingAveragePredictor::load_state(checkpoint::Reader& r) {
  window_ = static_cast<int>(r.i64());
  if (window_ <= 0) {
    throw checkpoint::CheckpointError("moving average: bad window");
  }
  checkpoint::load(r, values_);
  sum_ = r.f64();
}

HoltWintersPredictor::HoltWintersPredictor(HoltParams params, int period,
                                           double delta)
    : params_(params), period_(period), delta_(delta) {
  params_.validate();
  if (period < 2) {
    throw PredictorError("holt-winters: period must be at least 2");
  }
  if (delta < 0.0 || delta > 1.0) {
    throw PredictorError("holt-winters: delta must lie in [0, 1]");
  }
  season_.assign(static_cast<std::size_t>(period), 0.0);
}

double HoltWintersPredictor::seasonal(int offset) const {
  // Index of the season slot `offset` observations ahead of the next one.
  const int slot = (count_ + offset) % period_;
  return season_[static_cast<std::size_t>(slot)];
}

void HoltWintersPredictor::observe(double value) {
  const auto slot = static_cast<std::size_t>(count_ % period_);
  if (count_ < period_) {
    // First season: bootstrap the level as a running mean and store raw
    // deviations as the initial seasonal indices.
    if (count_ == 0) {
      level_ = value;
    } else {
      level_ += (value - level_) / static_cast<double>(count_ + 1);
    }
    season_[slot] = value - level_;
  } else {
    const double prev_level = level_;
    const double index = season_[slot];
    level_ = params_.alpha * (value - index) +
             (1.0 - params_.alpha) * (level_ + trend_);
    trend_ = params_.beta * (level_ - prev_level) +
             (1.0 - params_.beta) * trend_;
    season_[slot] = delta_ * (value - level_) + (1.0 - delta_) * index;
  }
  ++count_;
}

double HoltWintersPredictor::predict() const {
  if (!ready()) {
    throw PredictorError("holt-winters: needs a full season of observations");
  }
  return level_ + trend_ + seasonal(0);
}

bool HoltWintersPredictor::ready() const { return count_ > period_; }

void HoltWintersPredictor::reset() {
  level_ = trend_ = 0.0;
  std::fill(season_.begin(), season_.end(), 0.0);
  count_ = 0;
}

PredictorKind HoltWintersPredictor::kind() const {
  return PredictorKind::kHoltWinters;
}

void HoltWintersPredictor::save_state(checkpoint::Writer& w) const {
  w.f64(params_.alpha);
  w.f64(params_.beta);
  w.i64(period_);
  w.f64(delta_);
  w.f64(level_);
  w.f64(trend_);
  checkpoint::save(w, season_);
  w.i64(count_);
}

void HoltWintersPredictor::load_state(checkpoint::Reader& r) {
  params_.alpha = r.f64();
  params_.beta = r.f64();
  params_.validate();
  period_ = static_cast<int>(r.i64());
  delta_ = r.f64();
  level_ = r.f64();
  trend_ = r.f64();
  checkpoint::load(r, season_);
  count_ = static_cast<int>(r.i64());
  if (period_ < 2 ||
      season_.size() != static_cast<std::size_t>(period_)) {
    throw checkpoint::CheckpointError("holt-winters: bad period/season");
  }
}

double holt_sse(std::span<const double> history, HoltParams params) {
  params.validate();
  if (history.size() < 3) {
    throw PredictorError("holt training: need at least 3 observations");
  }
  HoltPredictor predictor(params);
  double sse = 0.0;
  for (std::size_t i = 0; i < history.size(); ++i) {
    if (predictor.ready()) {
      const double err = predictor.predict() - history[i];
      sse += err * err;
    }
    predictor.observe(history[i]);
  }
  return sse;
}

std::string_view to_string(PredictorKind kind) {
  switch (kind) {
    case PredictorKind::kHolt:
      return "Holt";
    case PredictorKind::kHoltWinters:
      return "Holt-Winters";
    case PredictorKind::kLastValue:
      return "last-value";
    case PredictorKind::kMovingAverage:
      return "moving-average";
  }
  return "?";
}

std::unique_ptr<SeriesPredictor> make_predictor(PredictorKind kind,
                                                int season_period,
                                                HoltParams params) {
  switch (kind) {
    case PredictorKind::kHolt:
      return std::make_unique<HoltPredictor>(params);
    case PredictorKind::kHoltWinters:
      return std::make_unique<HoltWintersPredictor>(params, season_period);
    case PredictorKind::kLastValue:
      return std::make_unique<LastValuePredictor>();
    case PredictorKind::kMovingAverage:
      return std::make_unique<MovingAveragePredictor>(4);
  }
  throw PredictorError("unknown predictor kind");
}

void save_predictor(checkpoint::Writer& w,
                    const SeriesPredictor& predictor) {
  w.u8(static_cast<std::uint8_t>(predictor.kind()));
  predictor.save_state(w);
}

std::unique_ptr<SeriesPredictor> load_predictor(checkpoint::Reader& r) {
  const std::uint8_t tag = r.u8();
  std::unique_ptr<SeriesPredictor> predictor;
  switch (static_cast<PredictorKind>(tag)) {
    case PredictorKind::kHolt:
      predictor = std::make_unique<HoltPredictor>();
      break;
    case PredictorKind::kHoltWinters:
      // Placeholder constructor arguments; load_state overwrites them.
      predictor = std::make_unique<HoltWintersPredictor>(HoltParams{}, 2);
      break;
    case PredictorKind::kLastValue:
      predictor = std::make_unique<LastValuePredictor>();
      break;
    case PredictorKind::kMovingAverage:
      predictor = std::make_unique<MovingAveragePredictor>(1);
      break;
    default:
      throw checkpoint::CheckpointError("predictor: bad kind tag " +
                                        std::to_string(tag));
  }
  predictor->load_state(r);
  return predictor;
}

namespace {

// Candidates replayed in lockstep.  The Holt recurrence is a chain of
// dependent FP operations, so one candidate at a time is bound by FP
// latency; 16 independent chains keep the pipes busy on baseline SSE2.
constexpr int kHoltLanes = 16;

/// Up to kHoltLanes (alpha, beta) candidates and, after replay_lanes, the
/// SSE of each.  Fixed-size, so training allocates nothing.
struct HoltLaneBlock {
  double alpha[kHoltLanes] = {};
  double beta[kHoltLanes] = {};
  double sse[kHoltLanes] = {};
  int size = 0;

  void add(HoltParams candidate) {
    candidate.validate();
    alpha[size] = candidate.alpha;
    beta[size] = candidate.beta;
    ++size;
  }
  [[nodiscard]] bool full() const { return size == kHoltLanes; }
};

/// holt_sse for every candidate in `block` at once.  Each lane performs
/// HoltPredictor::observe/predict's arithmetic op for op (the first two
/// observations seed level and trend identically for every candidate), so
/// block.sse[k] is bitwise holt_sse(history, {alpha[k], beta[k]}).  Lanes
/// past block.size replay a copy of lane 0 and are ignored.
void replay_lanes(std::span<const double> history, HoltLaneBlock& block) {
  double alpha[kHoltLanes];
  double beta[kHoltLanes];
  double keep_level[kHoltLanes];
  double keep_trend[kHoltLanes];
  double level[kHoltLanes];
  double trend[kHoltLanes];
  double sse[kHoltLanes];
  for (int k = 0; k < kHoltLanes; ++k) {
    const int src = k < block.size ? k : 0;
    alpha[k] = block.alpha[src];
    beta[k] = block.beta[src];
    keep_level[k] = 1.0 - alpha[k];
    keep_trend[k] = 1.0 - beta[k];
    level[k] = history[1];
    trend[k] = history[1] - history[0];
    sse[k] = 0.0;
  }
  for (std::size_t i = 2; i < history.size(); ++i) {
    const double value = history[i];
    for (int k = 0; k < kHoltLanes; ++k) {
      const double forecast = level[k] + trend[k];
      const double err = forecast - value;
      sse[k] += err * err;
      const double prev_level = level[k];
      level[k] = alpha[k] * value + keep_level[k] * forecast;
      trend[k] = beta[k] * (level[k] - prev_level) + keep_trend[k] * trend[k];
    }
  }
  std::copy_n(sse, block.size, block.sse);
}

}  // namespace

HoltParams train_holt(std::span<const double> history, int grid_steps) {
  if (history.size() < 3) {
    throw PredictorError("holt training: need at least 3 observations");
  }
  grid_steps = std::max(grid_steps, 4);
  // Start from the defaults: a candidate must *strictly* beat the incumbent
  // to win.  On degenerate histories (e.g. a constant overnight-zero solar
  // series) every (alpha, beta) ties at SSE 0 and the defaults must survive
  // — alpha = 0 would freeze the predictor at its initial level forever.
  HoltParams best{};
  double best_sse = holt_sse(history, best);
  const auto improves = [&](double sse) {
    return sse < best_sse - 1e-12 * (1.0 + best_sse);
  };
  // Candidates are replayed a block at a time, but the incumbent is updated
  // strictly in candidate order, so the result equals a one-at-a-time scan.
  // The fold stops at the first lane whose beta fails `in_bounds` (checked
  // against the live incumbent) and reports whether every lane was consumed.
  HoltLaneBlock block;
  const auto evaluate_and_fold = [&](auto in_bounds) {
    replay_lanes(history, block);
    int k = 0;
    for (; k < block.size && in_bounds(block.beta[k]); ++k) {
      if (improves(block.sse[k])) {
        best_sse = block.sse[k];
        best = HoltParams{block.alpha[k], block.beta[k]};
      }
    }
    const bool consumed_all = k == block.size;
    block.size = 0;
    return consumed_all;
  };
  const auto unbounded = [](double) { return true; };
  const double step = 1.0 / grid_steps;
  for (int i = 0; i <= grid_steps; ++i) {
    for (int j = 0; j <= grid_steps; ++j) {
      block.add(HoltParams{i * step, j * step});
      if (block.full()) evaluate_and_fold(unbounded);
    }
  }
  if (block.size > 0) evaluate_and_fold(unbounded);
  // Local refinement in steps of step/8.  The window follows the incumbent:
  // both loop bounds re-read `best`, so every improvement re-centres the
  // remaining rows (and the end of the current row) on the new winner.
  // Rows with `a` outside [0, 1] evaluate nothing.
  const double fine = step / 8.0;
  const auto within_row = [&](double b) { return b <= best.beta + step; };
  for (double a = best.alpha - step; a <= best.alpha + step; a += fine) {
    if (a < 0.0 || a > 1.0) continue;
    double b = best.beta - step;
    for (;;) {
      // Speculate on the row's next in-range values of b under the current
      // bound; an improvement can move the bound either way, which the fold
      // re-checks lane by lane.
      for (; !block.full() && within_row(b); b += fine) {
        if (b >= 0.0 && b <= 1.0) block.add(HoltParams{a, b});
      }
      if (block.size == 0 || !evaluate_and_fold(within_row)) break;
    }
  }
  return best;
}

}  // namespace greenhetero
