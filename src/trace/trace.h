// Fixed-interval power time series.
//
// Both the renewable supply (NREL irradiance is reported every 15 minutes)
// and the rack demand pattern are represented as a `PowerTrace`: a start-
// aligned sequence of watt samples at a constant interval, with step-wise
// lookup (a sample holds until the next one).
#pragma once

#include <cstddef>
#include <filesystem>
#include <stdexcept>
#include <vector>

#include "util/units.h"

namespace greenhetero {

class TraceError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class PowerTrace {
 public:
  PowerTrace() = default;
  PowerTrace(Minutes interval, std::vector<Watts> samples);

  [[nodiscard]] Minutes interval() const { return interval_; }
  [[nodiscard]] std::size_t size() const { return samples_.size(); }
  [[nodiscard]] bool empty() const { return samples_.empty(); }
  [[nodiscard]] Minutes duration() const {
    return interval_ * static_cast<double>(samples_.size());
  }

  [[nodiscard]] Watts sample(std::size_t index) const;
  [[nodiscard]] const std::vector<Watts>& samples() const { return samples_; }

  /// Step lookup: the value in force at elapsed time `t` from trace start.
  /// Out-of-range times clamp to the first/last sample.
  [[nodiscard]] Watts at(Minutes t) const;

  /// Mean power over the whole trace.
  [[nodiscard]] Watts mean_power() const;
  [[nodiscard]] Watts peak_power() const;

  /// CSV export for external tools: columns `minute,watts`.
  void save_csv(const std::filesystem::path& path) const;

 private:
  Minutes interval_{15.0};
  std::vector<Watts> samples_;
};

}  // namespace greenhetero
