#include "telemetry/ledger.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace greenhetero::telemetry {

namespace {
constexpr std::array<LossBucket, kLossBucketCount> kAllBuckets = {
    LossBucket::kFault,           LossBucket::kIdleFloor,
    LossBucket::kSolverClamp,     LossBucket::kDvfsQuantization,
    LossBucket::kPredictionError, LossBucket::kCurtailed,
    LossBucket::kGridCap,         LossBucket::kBatteryStored,
    LossBucket::kBatteryRoundTrip,
};
}  // namespace

std::string_view to_string(LossBucket bucket) {
  switch (bucket) {
    case LossBucket::kFault:
      return "fault";
    case LossBucket::kIdleFloor:
      return "idle_floor";
    case LossBucket::kSolverClamp:
      return "solver_clamp";
    case LossBucket::kDvfsQuantization:
      return "dvfs_quantization";
    case LossBucket::kPredictionError:
      return "prediction_error";
    case LossBucket::kCurtailed:
      return "curtailed";
    case LossBucket::kGridCap:
      return "grid_cap";
    case LossBucket::kBatteryStored:
      return "battery_stored";
    case LossBucket::kBatteryRoundTrip:
      return "battery_round_trip";
  }
  return "unknown";
}

std::span<const LossBucket> all_loss_buckets() { return kAllBuckets; }

std::string_view watts_key(LossBucket bucket) {
  // In LossBucket order: to_string(bucket) + "_w".
  static constexpr std::array<std::string_view, kLossBucketCount> kKeys = {
      "fault_w",
      "idle_floor_w",
      "solver_clamp_w",
      "dvfs_quantization_w",
      "prediction_error_w",
      "curtailed_w",
      "grid_cap_w",
      "battery_stored_w",
      "battery_round_trip_w",
  };
  return kKeys[static_cast<std::size_t>(bucket)];
}

double EpochLossRecord::bucket_sum_w() const {
  double sum = 0.0;
  for (double b : buckets) sum += b;
  return sum;
}

double EpochLossRecord::invariant_error_w() const {
  return std::fabs(bucket_sum_w() - residual_w());
}

void LossLedger::begin_epoch(double start_min, double rack_peak_w) {
  if (open_) {
    throw std::logic_error("loss ledger: epoch already open");
  }
  open_ = true;
  steps_ = 0;
  start_min_ = start_min;
  rack_peak_w_ = rack_peak_w;
  predicted_renewable_w_ = 0.0;
  planned_green_w_ = 0.0;
  supply_sum_ = 0.0;
  useful_sum_ = 0.0;
  bucket_sums_.fill(0.0);
}

void LossLedger::set_plan(double predicted_renewable_w,
                          double planned_green_w) {
  predicted_renewable_w_ = std::max(0.0, predicted_renewable_w);
  planned_green_w_ = std::max(0.0, planned_green_w);
}

void LossLedger::post_step(const StepInputs& in) {
  if (!open_) {
    throw std::logic_error("loss ledger: post_step without an open epoch");
  }
  auto& b = bucket_sums_;
  const auto add = [&b](LossBucket bucket, double watts) {
    b[static_cast<std::size_t>(bucket)] += watts;
  };

  const double shortfall = std::max(0.0, in.shortfall_w);
  const double supply = in.renewable_w + in.battery_to_load_w +
                        in.grid_to_load_w + in.grid_to_battery_w + shortfall;
  supply_sum_ += supply;
  useful_sum_ += in.load_w;
  ++steps_;

  // Battery charging: the stored share comes back as battery-to-load supply
  // in a later step (deferred, not lost); the round-trip share is gone.
  const double charge = in.renewable_to_battery_w + in.grid_to_battery_w;
  const double eff = std::clamp(in.round_trip_efficiency, 0.0, 1.0);
  const double stored = charge * eff;
  add(LossBucket::kBatteryStored, stored);
  add(LossBucket::kBatteryRoundTrip, charge - stored);

  // Shortfall: watts the plan needed but no source delivered.  With a
  // source fault active (grid/solar outage, battery derate) the fault is
  // the cause; otherwise the grid budget cap is what stopped coverage.
  add(in.source_fault_active ? LossBucket::kFault : LossBucket::kGridCap,
      shortfall);

  // Curtailment waterfall: each candidate claims what it can explain, in
  // fixed priority order; the unclaimed remainder is genuine surplus.
  double remaining = std::max(0.0, in.curtailed_w);
  const auto claim = [&](LossBucket bucket, double candidate) {
    const double taken = std::clamp(candidate, 0.0, remaining);
    add(bucket, taken);
    remaining -= taken;
  };
  claim(LossBucket::kFault, in.gaps.fault_w);
  claim(LossBucket::kIdleFloor, in.gaps.idle_floor_w);
  claim(LossBucket::kSolverClamp, in.gaps.solver_clamp_w);
  claim(LossBucket::kDvfsQuantization, in.gaps.dvfs_quantization_w);
  // Prediction error: renewable the rack could have drawn (capped at its
  // full-tilt peak) beyond what the plan offered as green supply.
  const double usable = std::min(in.renewable_w, rack_peak_w_);
  claim(LossBucket::kPredictionError,
        std::max(0.0, usable - planned_green_w_));
  add(LossBucket::kCurtailed, remaining);
}

EpochLossRecord LossLedger::end_epoch() {
  if (!open_) {
    throw std::logic_error("loss ledger: end_epoch without an open epoch");
  }
  open_ = false;
  EpochLossRecord record;
  record.start_min = start_min_;
  const double n = steps_ > 0 ? static_cast<double>(steps_) : 1.0;
  record.supply_w = supply_sum_ / n;
  record.useful_w = useful_sum_ / n;
  for (std::size_t i = 0; i < kLossBucketCount; ++i) {
    record.buckets[i] = bucket_sums_[i] / n;
  }
  epochs_.push_back(record);
  return record;
}

}  // namespace greenhetero::telemetry
