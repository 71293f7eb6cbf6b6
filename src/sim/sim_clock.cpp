#include "sim/sim_clock.h"

#include <cmath>

namespace greenhetero {

SimClock::SimClock(Minutes epoch, Minutes substep)
    : epoch_(epoch), substep_(substep) {
  if (epoch.value() <= 0.0 || substep.value() <= 0.0) {
    throw std::invalid_argument("clock: epoch and substep must be positive");
  }
  const double ratio = epoch.value() / substep.value();
  substeps_ = static_cast<std::size_t>(std::llround(ratio));
  if (substeps_ == 0 ||
      std::fabs(ratio - static_cast<double>(substeps_)) > 1e-9) {
    throw std::invalid_argument(
        "clock: epoch must be an integer multiple of the substep");
  }
}

bool SimClock::advance_substep() {
  now_ += substep_;
  ++substep_in_epoch_;
  if (substep_in_epoch_ == substeps_) {
    substep_in_epoch_ = 0;
    ++epoch_index_;
    return true;
  }
  return false;
}

}  // namespace greenhetero
