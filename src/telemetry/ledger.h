// EPU loss-attribution ledger.
//
// The paper's headline metric, EPU = sum(P_throughput) / sum(P_supply),
// says how much supplied power became useful work but not *why* the rest
// did not.  The ledger answers that: per epoch it decomposes the residual
//
//   P_supply - P_throughput
//
// into named, additive buckets, where per substep
//
//   P_supply     = renewable production + battery-to-load + grid-to-load
//                  + grid-to-battery + shortfall (planned watts no source
//                  could deliver), and
//   P_throughput = power delivered to the servers (the load).
//
// The decomposition is exact by construction: battery charging splits into
// the stored (deferred-supply) part and the round-trip loss, shortfall is
// attributed to an active plant fault or the grid budget cap, and curtailed
// renewable is claimed by cause candidates in a fixed waterfall order —
// fault, idle floor, solver clamp, DVFS quantization, prediction error —
// with the unclaimed remainder reported as genuine surplus curtailment.
// A unit test asserts sum(buckets) == residual within 1e-6 W on every epoch.
//
// Contributions are computed by the layers that own them and posted here:
// the controller (prediction layer) posts the plan via set_plan(), the
// Enforcer attributes per-group enforcement gaps (solver clamp / DVFS
// quantization / idle floor / fault) and the simulator posts one StepInputs
// per substep from the executed PowerFlows.  The ledger itself depends on
// nothing outside telemetry, so it stays usable from any layer.
//
// Everything here runs on the simulation clock — records are a pure
// function of (scenario, seed) and golden traces stay byte-identical.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <string_view>
#include <vector>

namespace greenhetero::telemetry {

/// Where a supplied-but-not-consumed watt went.  Order is the waterfall
/// claim priority for curtailed renewable (most specific cause first).
enum class LossBucket : int {
  kFault = 0,           ///< active plant/server fault absorbed the power
  kIdleFloor = 1,       ///< group budget below the idle floor: servers slept
  kSolverClamp = 2,     ///< allocation beyond a group's peak (clamp to range)
  kDvfsQuantization = 3,///< budget vs. the nearest lower power state in S_N
  kPredictionError = 4, ///< Holt under-forecast: unplanned renewable surplus
  kCurtailed = 5,       ///< genuine surplus: nothing could have consumed it
  kGridCap = 6,         ///< shortfall against the grid budget cap
  kBatteryStored = 7,   ///< charged energy that returns later (deferred)
  kBatteryRoundTrip = 8,///< charging loss (1 - round-trip efficiency)
};

inline constexpr std::size_t kLossBucketCount = 9;

[[nodiscard]] std::string_view to_string(LossBucket bucket);
/// All buckets in enum order (iteration helper for exports and tests).
[[nodiscard]] std::span<const LossBucket> all_loss_buckets();
/// The `<bucket>_w` trace field key of `loss_ledger` and `rollup` events.
[[nodiscard]] std::string_view watts_key(LossBucket bucket);

/// Per-group enforcement-gap candidates for one substep (watts), attributed
/// by the Enforcer from budget-vs-draw per group.  These are *candidates*:
/// the ledger only charges them against power that was actually curtailed.
struct StepGaps {
  double fault_w = 0.0;
  double idle_floor_w = 0.0;
  double solver_clamp_w = 0.0;
  double dvfs_quantization_w = 0.0;
};

/// One epoch's decomposition, all values epoch-mean watts.
struct EpochLossRecord {
  double start_min = 0.0;
  double supply_w = 0.0;  ///< mean supplied power (see header comment)
  double useful_w = 0.0;  ///< mean power delivered to the load
  std::array<double, kLossBucketCount> buckets{};

  [[nodiscard]] double bucket(LossBucket b) const {
    return buckets[static_cast<std::size_t>(b)];
  }
  [[nodiscard]] double residual_w() const { return supply_w - useful_w; }
  [[nodiscard]] double bucket_sum_w() const;
  /// |sum(buckets) - residual|; the ledger invariant bounds this by 1e-6 W.
  [[nodiscard]] double invariant_error_w() const;
  /// Epoch EPU under the ledger's supply definition.
  [[nodiscard]] double epu() const {
    return supply_w > 0.0 ? useful_w / supply_w : 1.0;
  }

  template <class Self, class Io>
  static void fields(Self& self, Io& io) {
    io.f64(self.start_min);
    io.f64(self.supply_w);
    io.f64(self.useful_w);
    for (auto& v : self.buckets) io.f64(v);
  }
};

/// Accumulates one epoch at a time; end_epoch() appends the epoch means to
/// the history.  Disabled ledgers simply never receive calls (the owner
/// checks TelemetryConfig::loss_ledger), so fault-free goldens are
/// unaffected by the feature existing.
class LossLedger {
 public:
  /// Everything the simulator knows about one executed substep.
  struct StepInputs {
    double renewable_w = 0.0;         ///< metered renewable production
    double battery_to_load_w = 0.0;
    double grid_to_load_w = 0.0;
    double renewable_to_battery_w = 0.0;
    double grid_to_battery_w = 0.0;
    double curtailed_w = 0.0;
    double load_w = 0.0;              ///< power delivered to the servers
    double shortfall_w = 0.0;         ///< planned watts no source delivered
    double round_trip_efficiency = 1.0;
    /// A renewable/grid/battery fault is active: shortfall is fault-induced
    /// rather than a grid-budget-cap effect.
    bool source_fault_active = false;
    StepGaps gaps;
  };

  /// Open an epoch.  `rack_peak_w` caps the prediction-error claim: surplus
  /// beyond what the rack could draw at full tilt is not a forecasting loss.
  void begin_epoch(double start_min, double rack_peak_w);

  /// Posted by the controller at plan time (the prediction layer owns the
  /// forecast): the renewable forecast and the green power the plan offers
  /// the servers (server budget minus planned grid share).
  void set_plan(double predicted_renewable_w, double planned_green_w);

  void post_step(const StepInputs& in);

  [[nodiscard]] bool epoch_open() const { return open_; }
  /// Close the epoch: append and return the epoch-mean record.
  EpochLossRecord end_epoch();

  [[nodiscard]] const std::vector<EpochLossRecord>& epochs() const {
    return epochs_;
  }

  /// Checkpoint the full ledger: an epoch may be mid-accumulation when the
  /// snapshot lands (it never is at the epoch barrier, but the fields are
  /// cheap and the invariant is "resume = exact state").
  template <class Self, class Io>
  static void fields(Self& self, Io& io) {
    io.boolean(self.open_);
    io.i64(self.steps_);
    io.f64(self.start_min_);
    io.f64(self.rack_peak_w_);
    io.f64(self.predicted_renewable_w_);
    io.f64(self.planned_green_w_);
    io.f64(self.supply_sum_);
    io.f64(self.useful_sum_);
    for (auto& v : self.bucket_sums_) io.f64(v);
    io.objects(self.epochs_);
  }

 private:
  bool open_ = false;
  int steps_ = 0;
  double start_min_ = 0.0;
  double rack_peak_w_ = 0.0;
  double predicted_renewable_w_ = 0.0;
  double planned_green_w_ = 0.0;
  double supply_sum_ = 0.0;
  double useful_sum_ = 0.0;
  std::array<double, kLossBucketCount> bucket_sums_{};
  std::vector<EpochLossRecord> epochs_;
};

}  // namespace greenhetero::telemetry
