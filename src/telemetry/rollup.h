// Fixed-window telemetry rollups: the compact per-rack time series that
// keeps a datacenter-scale run analyzable without a full-detail trace.
//
// The simulator feeds one RollupSample per epoch; the aggregator buckets
// samples into consecutive [k*W, (k+1)*W) windows of the configured width
// and, when a sample crosses into the next window, closes the previous one
// into a WindowRecord: epoch count, mean EPU / shortfall / grid watts,
// health-state occupancy (epochs spent in each state) and per-bucket loss-
// ledger means (when the ledger ran).
//
// Each closed window is emitted as a "rollup" trace event stamped with the
// *closing* epoch's time (never a past timestamp, so the streaming sink's
// watermark merge stays correct) and retained — a run of days is only a
// handful of records per rack — so --rollup-out can write the series file
// (schema header + the same rollup JSON lines) after the run.
#pragma once

#include <array>
#include <cstddef>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "telemetry/ledger.h"
#include "telemetry/tracing.h"

namespace greenhetero::telemetry {

/// One epoch's contribution, distilled from the EpochRecord + health state
/// (+ the loss record the ledger just closed, when enabled).
struct RollupSample {
  double t_min = 0.0;
  double epu = 0.0;
  double shortfall_w = 0.0;
  double grid_w = 0.0;
  int health_state = 0;  ///< static_cast<int>(HealthState)
  const EpochLossRecord* loss = nullptr;  ///< null without --ledger
};

/// A closed aggregation window.
struct RollupWindow {
  double start_min = 0.0;
  double end_min = 0.0;
  /// Timestamp the matching "rollup" trace event carried (the closing
  /// epoch's now); reused by write_jsonl so the series file's lines are
  /// byte-identical to the trace's.
  double emitted_t_min = 0.0;
  std::size_t epochs = 0;
  double epu_sum = 0.0;
  double shortfall_sum_w = 0.0;
  double grid_sum_w = 0.0;
  /// Epochs spent in each HealthState (normal/degraded/safe/recovering).
  std::array<std::size_t, 4> health_occupancy{};
  bool has_loss = false;
  std::array<double, kLossBucketCount> loss_sums_w{};

  /// Room for every "rollup" field: six means and counts, the health
  /// occupancy and the loss-bucket means.
  static constexpr std::size_t kMaxFields = 6 + 4 + kLossBucketCount;
  using Fields = std::array<TraceField, kMaxFields>;

  /// The "rollup" event payload (means, not sums), written into `storage`;
  /// returns the used prefix.
  [[nodiscard]] std::span<const TraceField> trace_fields(
      Fields& storage) const;

  template <class Self, class Io>
  static void fields(Self& self, Io& io) {
    io.f64(self.start_min);
    io.f64(self.end_min);
    io.f64(self.emitted_t_min);
    io.u64(self.epochs);
    io.f64(self.epu_sum);
    io.f64(self.shortfall_sum_w);
    io.f64(self.grid_sum_w);
    for (auto& occ : self.health_occupancy) io.u64(occ);
    io.boolean(self.has_loss);
    for (auto& v : self.loss_sums_w) io.f64(v);
  }
};

class Rollup {
 public:
  /// window_min <= 0 disables the aggregator (observe_epoch becomes a
  /// no-op).
  explicit Rollup(double window_min = 0.0);

  [[nodiscard]] bool enabled() const { return window_min_ > 0.0; }
  [[nodiscard]] double window_min() const { return window_min_; }
  [[nodiscard]] const std::vector<RollupWindow>& windows() const {
    return windows_;
  }

  /// Feed one epoch; returns the window this sample *closed* (to be
  /// emitted as a "rollup" trace event stamped `emitted_t_min`), if any.
  std::optional<RollupWindow> observe_epoch(const RollupSample& sample);

  /// Close the trailing partial window at end of run (emitted_t stamped
  /// with `now_min`); returns it for emission, or nullopt if empty.
  std::optional<RollupWindow> flush(double now_min);

  /// Schema header + one rollup event line per closed window — the
  /// --rollup-out SERIES.jsonl format, itself a valid analyzer input.
  void write_jsonl(std::ostream& out, int rack_id) const;

  /// Checkpoint the open window's running sums and the closed-window
  /// history (window_min comes from configuration).
  template <class Self, class Io>
  static void fields(Self& self, Io& io) {
    io.boolean(self.window_open_);
    io.object(self.current_);
    io.objects(self.windows_);
  }

 private:
  [[nodiscard]] RollupWindow close_window(double emitted_t);
  void open_window(double start_min);

  double window_min_;
  bool window_open_ = false;
  RollupWindow current_;
  std::vector<RollupWindow> windows_;
};

/// Append the "rollup" line of a closed window to `out`: the bytes the live
/// trace carries, reused by the --rollup-out series file.
void append_rollup_line(std::string& out, const RollupWindow& window,
                        int rack_id);

}  // namespace greenhetero::telemetry
