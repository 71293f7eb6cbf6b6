// Simulation clock: epoch/substep time arithmetic for the rack simulator.
#pragma once

#include <cstddef>
#include <stdexcept>

#include "util/units.h"

namespace greenhetero {

class SimClock {
 public:
  SimClock(Minutes epoch, Minutes substep);

  [[nodiscard]] Minutes now() const { return now_; }
  [[nodiscard]] Minutes epoch_length() const { return epoch_; }
  [[nodiscard]] Minutes substep_length() const { return substep_; }
  [[nodiscard]] std::size_t substeps_per_epoch() const { return substeps_; }
  [[nodiscard]] std::size_t epoch_index() const { return epoch_index_; }

  /// Advance one substep; returns true when this crossed an epoch boundary.
  bool advance_substep();

  /// Checkpoint the position (the epoch and substep lengths come from
  /// configuration).
  template <class Self, class Io>
  static void fields(Self& self, Io& io) {
    io.f64(self.now_);
    io.cursor(self.substep_in_epoch_, self.substeps_ - 1,
              "sim clock: substep in epoch");
    io.u64(self.epoch_index_);
  }

 private:
  Minutes epoch_;
  Minutes substep_;
  std::size_t substeps_;
  Minutes now_{0.0};
  std::size_t substep_in_epoch_ = 0;
  std::size_t epoch_index_ = 0;
};

}  // namespace greenhetero
