#include "core/monitor.h"

#include <algorithm>
#include <stdexcept>

namespace greenhetero {

Monitor::Monitor(double noise_fraction, Rng rng)
    : noise_fraction_(noise_fraction), rng_(rng) {
  if (noise_fraction < 0.0 || noise_fraction > 0.5) {
    throw std::invalid_argument("monitor: noise fraction must be in [0, 0.5]");
  }
}

double Monitor::noisy(double value) {
  if (noise_fraction_ == 0.0 || value == 0.0) return value;
  const double factor =
      std::max(0.0, rng_.gaussian(1.0, noise_fraction_));
  return value * factor;
}

void Monitor::set_dropout_rate(double rate) {
  if (rate < 0.0 || rate > 1.0) {
    throw std::invalid_argument("monitor: dropout rate must be in [0, 1]");
  }
  dropout_rate_ = rate;
}

ServerSample Monitor::sample_group(const Rack& rack, std::size_t group) {
  if (dropout_rate_ > 0.0 && rng_.bernoulli(dropout_rate_)) {
    return ServerSample{Watts{0.0}, 0.0};  // dropped reading
  }
  const ServerSim& server = rack.group_representative(group);
  return ServerSample{Watts{noisy(server.draw().value())},
                      noisy(server.throughput())};
}

}  // namespace greenhetero
