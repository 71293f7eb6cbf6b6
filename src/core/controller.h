// GreenHetero Controller (Figures 4 and 5, Algorithm 1).
//
// The per-rack decision maker.  Each scheduling epoch it:
//  1. checks the database for the current (server config, workload) pairs —
//     missing entries trigger a *training run* epoch (Algorithm 1 lines 3-5);
//  2. otherwise predicts renewable supply and rack demand (Holt double
//     exponential smoothing, alpha/beta retrained periodically on history),
//     selects power sources (Cases A/B/C/grid), and asks the configured
//     policy for the power allocation ratios (lines 7-8);
//  3. at epoch end, folds the Monitor's runtime feedback back into the
//     database when the policy updates it (lines 9-10).
//
// The controller never touches ground truth: every observation flows
// through the Monitor (which injects measurement noise).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/database.h"
#include "core/health.h"
#include "core/monitor.h"
#include "core/policies.h"
#include "core/predictor.h"
#include "core/solver.h"
#include "core/source_selector.h"
#include "power/power_bus.h"
#include "server/rack.h"
#include "util/units.h"

namespace greenhetero {

struct ControllerConfig {
  PolicyKind policy = PolicyKind::kGreenHetero;
  Minutes epoch{15.0};
  Minutes training_duration{10.0};
  Minutes training_sample_interval{2.0};
  /// Relative std-dev of Monitor measurement noise.
  double profiling_noise = 0.03;
  std::uint64_t seed = 42;
  SelectorConfig selector;
};

/// What the controller decided for one epoch.
struct EpochPlan {
  bool training_run = false;
  SourceDecision source;
  Allocation allocation;       ///< empty for training epochs
  Watts predicted_renewable{0.0};
  Watts predicted_demand{0.0};
  /// True when the allocation came from the safe-mode fallback (last-known-
  /// good ratios or a Uniform split) instead of the solver.
  bool safe_mode = false;
};

/// Everything the simulator observed over one epoch, fed back at its end.
struct EpochFeedback {
  Watts observed_renewable{0.0};
  Watts observed_demand{0.0};
  /// Epoch-mean unmet planned load (sources under-delivered the plan).
  Watts shortfall{0.0};
  /// True for normal runtime epochs: evaluate the health signals and step
  /// the degradation state machine.  Training epochs (and legacy callers)
  /// leave it false — their feedback carries no plausibility information.
  bool evaluate_health = false;
};

class GreenHeteroController {
 public:
  explicit GreenHeteroController(ControllerConfig config);

  [[nodiscard]] const ControllerConfig& config() const { return config_; }
  [[nodiscard]] const AllocationPolicy& policy() const { return *policy_; }
  [[nodiscard]] const PerfPowerDatabase& database() const { return db_; }
  [[nodiscard]] Monitor& monitor() { return monitor_; }

  /// Does any (group, workload) pair of `rack` lack a database record?
  /// Only meaningful for database-driven policies; false otherwise.
  [[nodiscard]] bool needs_training(const Rack& rack) const;

  /// Plan one epoch.  `demand_hint` is the rack's demanded power for the
  /// epoch (from the load pattern); prediction falls back to it until the
  /// predictors have warmed up.
  [[nodiscard]] EpochPlan plan_epoch(const Rack& rack,
                                     const RackPowerPlant& plant,
                                     Minutes now, Watts demand_hint);

  /// Lowest fraction of the operating range the training run's ondemand
  /// governor visits (a loaded machine stays in the upper states).
  static constexpr double kTrainingSweepFloor = 0.4;

  /// Epochs of history Holt's alpha/beta are (re)trained on: one day of
  /// 15-minute epochs.
  static constexpr std::size_t kHoltTrainingWindow = 96;
  /// Retrain cadence in epochs (the first training happens at the third
  /// epoch, as soon as the window holds 3 points).
  static constexpr int kHoltRetrainEvery = 24;

  /// Health thresholds.  A group sample below this fraction of its
  /// allocated per-server power counts as divergent (normal DVFS
  /// quantisation stays well above it).
  static constexpr double kDivergenceRatio = 0.5;
  /// Epoch-mean shortfall above this fraction of the planned budget counts
  /// as a bad epoch (transient prediction error stays below it).
  static constexpr double kShortfallFraction = 0.25;

  /// The DVFS sweep fractions of a training run: `sample_count` points
  /// spread over the upper [kTrainingSweepFloor, 1] of the operating range
  /// (the stand-in for the wandering ondemand governor — see DESIGN.md).
  [[nodiscard]] std::vector<double> training_sweep() const;
  [[nodiscard]] int training_sample_count() const;

  /// Store a finished training run's samples for one group.
  void record_training(ProfileKey key, std::span<const ServerSample> samples);

  /// Epoch-end bookkeeping: feed the predictors with the epoch's observed
  /// renewable/demand averages, evaluate feedback plausibility (stale or
  /// divergent samples, solver failure, persistent shortfall) against the
  /// last plan, step the health state machine, and — unless feedback is
  /// quarantined — fold one runtime sample per group into the database.
  void finish_epoch(const Rack& rack, const EpochFeedback& feedback);

  /// Legacy form: predictor/database feedback only, no health evaluation.
  void finish_epoch(const Rack& rack, Watts observed_renewable,
                    Watts observed_demand);

  /// The degradation state machine (normal → degraded → safe → recovering).
  [[nodiscard]] const HealthTracker& health() const { return health_; }

  /// Direct database access for benches that pre-train out of band.
  [[nodiscard]] PerfPowerDatabase& mutable_database() { return db_; }

  /// Checkpoint everything the controller mutates over a run: database,
  /// monitor RNG/dropout, both Holt predictors (with the parameters the
  /// last retrain deployed), histories, and the health/safe-mode state.
  template <class Self, class Io>
  static void fields(Self& self, Io& io);

 private:
  void maybe_retrain_holt();

  /// Safe-mode allocation: last-known-good ratios when they still fit the
  /// rack, otherwise a Uniform split (count_i / total_servers).
  [[nodiscard]] Allocation safe_allocation(const Rack& rack) const;

  ControllerConfig config_;
  std::unique_ptr<AllocationPolicy> policy_;
  PerfPowerDatabase db_;
  Monitor monitor_;
  PowerSourceSelector selector_;
  HoltPredictor supply_predictor_;
  HoltPredictor demand_predictor_;
  std::vector<double> supply_history_;
  std::vector<double> demand_history_;
  int epochs_seen_ = 0;

  HealthTracker health_;
  /// The most recent plan, for epoch-end plausibility checks.
  Watts last_budget_{0.0};
  Allocation last_allocation_;
  bool last_solver_failed_ = false;
  /// Snapshot of the last allocation observed under healthy feedback.
  Allocation last_good_allocation_;
};

}  // namespace greenhetero
