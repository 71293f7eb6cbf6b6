#include "trace/wind.h"

#include <cmath>
#include <numbers>

#include "util/rng.h"

namespace greenhetero {

namespace {

/// Standard normal CDF.
double phi(double z) { return 0.5 * std::erfc(-z / std::numbers::sqrt2); }

/// Weibull quantile function.
double weibull_quantile(double u, double shape, double scale) {
  u = std::min(std::max(u, 1e-12), 1.0 - 1e-12);
  return scale * std::pow(-std::log(1.0 - u), 1.0 / shape);
}

}  // namespace

double wind_power_fraction(const WindModel& model, double speed_ms) {
  if (speed_ms < model.cut_in_ms || speed_ms >= model.cut_out_ms) {
    return 0.0;
  }
  if (speed_ms >= model.rated_ms) {
    return 1.0;
  }
  // Cubic growth between cut-in and rated.
  const double num = std::pow(speed_ms, 3.0) - std::pow(model.cut_in_ms, 3.0);
  const double den =
      std::pow(model.rated_ms, 3.0) - std::pow(model.cut_in_ms, 3.0);
  return num / den;
}

PowerTrace generate_wind_trace(const WindModel& model, int days,
                               std::uint64_t seed, Minutes interval) {
  if (days <= 0) {
    throw TraceError("wind: days must be positive");
  }
  if (interval.value() <= 0.0) {
    throw TraceError("wind: interval must be positive");
  }
  if (model.cut_in_ms >= model.rated_ms ||
      model.rated_ms >= model.cut_out_ms) {
    throw TraceError("wind: require cut-in < rated < cut-out speeds");
  }
  if (model.persistence < 0.0 || model.persistence >= 1.0) {
    throw TraceError("wind: persistence must be in [0, 1)");
  }
  Rng rng(seed);
  const auto samples_per_day =
      static_cast<std::size_t>(std::llround(24.0 * 60.0 / interval.value()));
  const std::size_t total = samples_per_day * static_cast<std::size_t>(days);

  std::vector<Watts> samples;
  samples.reserve(total);
  // AR(1) latent Gaussian; innovation variance keeps z ~ N(0, 1).
  const double innovation =
      std::sqrt(1.0 - model.persistence * model.persistence);
  double z = rng.gaussian(0.0, 1.0);
  for (std::size_t i = 0; i < total; ++i) {
    z = model.persistence * z + rng.gaussian(0.0, innovation);
    const double speed =
        weibull_quantile(phi(z), model.weibull_shape, model.weibull_scale);
    samples.push_back(model.rated_power * wind_power_fraction(model, speed));
  }
  return PowerTrace{interval, std::move(samples)};
}

}  // namespace greenhetero
