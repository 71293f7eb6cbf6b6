#include "trace/trace.h"

#include <algorithm>
#include <cmath>

#include "util/csv.h"

namespace greenhetero {

PowerTrace::PowerTrace(Minutes interval, std::vector<Watts> samples)
    : interval_(interval), samples_(std::move(samples)) {
  if (interval.value() <= 0.0) {
    throw TraceError("trace: interval must be positive");
  }
}

Watts PowerTrace::sample(std::size_t index) const {
  if (index >= samples_.size()) {
    throw TraceError("trace: sample index out of range");
  }
  return samples_[index];
}

Watts PowerTrace::at(Minutes t) const {
  if (samples_.empty()) {
    throw TraceError("trace: empty");
  }
  const double idx = std::floor(t.value() / interval_.value());
  const auto clamped = static_cast<std::size_t>(
      std::clamp(idx, 0.0, static_cast<double>(samples_.size() - 1)));
  return samples_[clamped];
}

Watts PowerTrace::mean_power() const {
  if (samples_.empty()) {
    throw TraceError("trace: empty");
  }
  Watts total{0.0};
  for (Watts w : samples_) total += w;
  return total / static_cast<double>(samples_.size());
}

Watts PowerTrace::peak_power() const {
  if (samples_.empty()) {
    throw TraceError("trace: empty");
  }
  return *std::max_element(samples_.begin(), samples_.end());
}

void PowerTrace::save_csv(const std::filesystem::path& path) const {
  CsvTable table({"minute", "watts"});
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    table.add_numeric_row(
        {interval_.value() * static_cast<double>(i), samples_[i].value()});
  }
  table.save(path);
}

}  // namespace greenhetero
