#include "telemetry/rollup.h"

#include <algorithm>
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
/// it), so this file must not include upward.  telemetry_test pins the
/// catalog against core's to_string so they cannot drift silently.
TraceKey health_key(std::size_t state) {
  static const std::array<TraceKey, catalog::kHealthStates.size()> kKeys = [] {
    std::array<TraceKey, catalog::kHealthStates.size()> keys;
    for (std::size_t s = 0; s < keys.size(); ++s) {
      keys[s] = TraceKey::intern("health_" +
                                 std::string(catalog::kHealthStates[s]));
    }
    return keys;
  }();
  return kKeys[state];
}

/// Exact-sample percentile (same convention as the trace analyzer): the
/// ceil(q*n)-th smallest value of a sorted sample set.
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank > 0 ? rank - 1 : 0)];
}

}  // namespace

TraceFields RollupWindow::to_trace_fields() const {
  const double n = epochs > 0 ? static_cast<double>(epochs) : 1.0;
  TraceFields fields{
      {"window_start_min", start_min},
      {"window_end_min", end_min},
      {"epochs", epochs},
      {"epu", epu_sum / n},
      {"shortfall_w", shortfall_sum_w / n},
      {"grid_w", grid_sum_w / n},
  };
  for (std::size_t s = 0; s < health_occupancy.size(); ++s) {
    fields.emplace_back(health_key(s), health_occupancy[s]);
  }
  if (has_loss) {
    for (LossBucket b : all_loss_buckets()) {
      fields.emplace_back(watts_key(b),
                          loss_sums_w[static_cast<std::size_t>(b)] / n);
    }
  }
  if (span_count > 0) {
    fields.emplace_back(TraceKey("span_count"), span_count);
    fields.emplace_back(TraceKey("span_p50_ns"), span_p50_ns);
    fields.emplace_back(TraceKey("span_p99_ns"), span_p99_ns);
  }
  return fields;
}

TraceEvent make_rollup_event(const RollupWindow& window, int rack_id) {
  TraceEvent event;
  event.sim_minutes = window.emitted_t_min;
  event.rack_id = rack_id;
  event.phase = "rollup";
  event.fields = window.to_trace_fields();
  return event;
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
  span_durs_ns_.clear();
  window_open_ = true;
}

RollupWindow Rollup::close_window(double emitted_t) {
  std::sort(span_durs_ns_.begin(), span_durs_ns_.end());
  current_.span_count = span_durs_ns_.size();
  current_.span_p50_ns = percentile(span_durs_ns_, 0.50);
  current_.span_p99_ns = percentile(span_durs_ns_, 0.99);
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

void Rollup::observe_span(double dur_ns) {
  if (!enabled() || !window_open_) return;
  span_durs_ns_.push_back(dur_ns);
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
    buffer += make_rollup_event(window, rack_id).to_json();
    buffer += '\n';
  }
  const std::lock_guard<std::mutex> lock(trace_writer_mutex());
  out << buffer;
}

namespace {

void save_window(checkpoint::Writer& w, const RollupWindow& window) {
  w.f64(window.start_min);
  w.f64(window.end_min);
  w.f64(window.emitted_t_min);
  w.u64(window.epochs);
  w.f64(window.epu_sum);
  w.f64(window.shortfall_sum_w);
  w.f64(window.grid_sum_w);
  for (std::size_t occ : window.health_occupancy) w.u64(occ);
  w.boolean(window.has_loss);
  for (double v : window.loss_sums_w) w.f64(v);
  w.u64(window.span_count);
  w.f64(window.span_p50_ns);
  w.f64(window.span_p99_ns);
}

void load_window(checkpoint::Reader& r, RollupWindow& window) {
  window.start_min = r.f64();
  window.end_min = r.f64();
  window.emitted_t_min = r.f64();
  window.epochs = static_cast<std::size_t>(r.u64());
  window.epu_sum = r.f64();
  window.shortfall_sum_w = r.f64();
  window.grid_sum_w = r.f64();
  for (std::size_t& occ : window.health_occupancy) {
    occ = static_cast<std::size_t>(r.u64());
  }
  window.has_loss = r.boolean();
  for (double& v : window.loss_sums_w) v = r.f64();
  window.span_count = static_cast<std::size_t>(r.u64());
  window.span_p50_ns = r.f64();
  window.span_p99_ns = r.f64();
}

}  // namespace

void Rollup::save_state(checkpoint::Writer& w) const {
  w.boolean(window_open_);
  save_window(w, current_);
  checkpoint::save(w, span_durs_ns_);
  w.seq(windows_.size());
  for (const RollupWindow& window : windows_) save_window(w, window);
}

void Rollup::load_state(checkpoint::Reader& r) {
  window_open_ = r.boolean();
  load_window(r, current_);
  checkpoint::load(r, span_durs_ns_);
  const std::size_t count = r.seq();
  windows_.clear();
  windows_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    RollupWindow window;
    load_window(r, window);
    windows_.push_back(window);
  }
}

}  // namespace greenhetero::telemetry
