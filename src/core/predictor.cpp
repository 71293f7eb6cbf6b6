#include "core/predictor.h"

#include <algorithm>

#include "core/holt_lanes.h"

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

HoltParams train_holt(std::span<const double> history, int grid_steps) {
  return holt_lanes::train(history, grid_steps, holt_lanes::dispatched());
}

}  // namespace greenhetero
