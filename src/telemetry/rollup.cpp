#include "telemetry/rollup.h"

#include <cmath>
#include <ostream>
#include <stdexcept>
#include <string>

#include "telemetry/metrics.h"

namespace greenhetero::telemetry {

namespace {

/// The `health_<state>` occupancy keys, in HealthState order.  The names
/// come from the metric catalog's HealthState label set rather than from
/// core/health.h: telemetry sits *below* core (the controller emits through
/// it), so this file must not include upward.  The static_assert below ties
/// them to the catalog and telemetry_test pins the catalog against core's
/// to_string, so they cannot drift silently.
constexpr std::array<std::string_view, catalog::kHealthStates.size()>
    kHealthKeys = {"health_normal", "health_degraded", "health_safe",
                   "health_recovering"};

constexpr bool health_keys_match_catalog() {
  for (std::size_t s = 0; s < kHealthKeys.size(); ++s) {
    if (!kHealthKeys[s].starts_with("health_") ||
        kHealthKeys[s].substr(7) != catalog::kHealthStates[s]) {
      return false;
    }
  }
  return true;
}
static_assert(health_keys_match_catalog());

}  // namespace

std::span<const TraceField> RollupWindow::trace_fields(
    Fields& storage) const {
  const double n = epochs > 0 ? static_cast<double>(epochs) : 1.0;
  std::size_t count = 0;
  const auto add = [&](std::string_view key, TraceValue value) {
    storage[count++] = {key, value};
  };
  add("window_start_min", start_min);
  add("window_end_min", end_min);
  add("epochs", epochs);
  add("epu", epu_sum / n);
  add("shortfall_w", shortfall_sum_w / n);
  add("grid_w", grid_sum_w / n);
  for (std::size_t s = 0; s < health_occupancy.size(); ++s) {
    add(kHealthKeys[s], health_occupancy[s]);
  }
  if (has_loss) {
    for (LossBucket b : all_loss_buckets()) {
      add(watts_key(b), loss_sums_w[static_cast<std::size_t>(b)] / n);
    }
  }
  return std::span(storage).first(count);
}

void append_rollup_line(std::string& out, const RollupWindow& window,
                        int rack_id) {
  RollupWindow::Fields storage;
  append_event_line(out, window.emitted_t_min, rack_id, "rollup",
                    window.trace_fields(storage));
}

Rollup::Rollup(double window_min) : window_min_(window_min) {
  if (!std::isfinite(window_min_) || window_min_ < 0.0) {
    throw std::invalid_argument(
        "rollup: window must be finite and non-negative");
  }
}

void Rollup::open_window(double start_min) {
  current_ = RollupWindow{};
  current_.start_min = start_min;
  current_.end_min = start_min + window_min_;
  window_open_ = true;
}

RollupWindow Rollup::close_window(double emitted_t) {
  current_.emitted_t_min = emitted_t;
  window_open_ = false;
  windows_.push_back(current_);
  return current_;
}

std::optional<RollupWindow> Rollup::observe_epoch(
    const RollupSample& sample) {
  if (!enabled()) return std::nullopt;
  // Window of this epoch: floor(t/W) with a tolerance so an epoch starting
  // exactly on a boundary (the common case: epoch and window lengths are
  // round numbers) lands in the window it opens, not the one it closes.
  const double index = std::floor((sample.t_min + 1e-9) / window_min_);
  const double start = index * window_min_;
  std::optional<RollupWindow> closed;
  if (window_open_ && start > current_.start_min + 1e-9) {
    // Stamp the closing event with the *current* epoch's time: the window
    // end lies in the past, and a past-stamped event would sort before
    // events the streaming sink already flushed.
    closed = close_window(sample.t_min);
  }
  if (!window_open_) open_window(start);
  ++current_.epochs;
  current_.epu_sum += sample.epu;
  current_.shortfall_sum_w += sample.shortfall_w;
  current_.grid_sum_w += sample.grid_w;
  if (sample.health_state >= 0 &&
      static_cast<std::size_t>(sample.health_state) <
          current_.health_occupancy.size()) {
    ++current_.health_occupancy[static_cast<std::size_t>(
        sample.health_state)];
  }
  if (sample.loss != nullptr) {
    current_.has_loss = true;
    for (LossBucket b : all_loss_buckets()) {
      current_.loss_sums_w[static_cast<std::size_t>(b)] +=
          sample.loss->bucket(b);
    }
  }
  return closed;
}

std::optional<RollupWindow> Rollup::flush(double now_min) {
  if (!enabled() || !window_open_ || current_.epochs == 0) {
    return std::nullopt;
  }
  return close_window(now_min);
}

void Rollup::write_jsonl(std::ostream& out, int rack_id) const {
  std::string buffer = trace_header_json();
  buffer += '\n';
  for (const RollupWindow& window : windows_) {
    append_rollup_line(buffer, window, rack_id);
  }
  const std::lock_guard<std::mutex> lock(trace_writer_mutex());
  out << buffer;
}

}  // namespace greenhetero::telemetry
