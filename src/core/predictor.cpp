#include "core/predictor.h"

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
