// Runtime invariant checker: a registry of machine-checked physical and
// algorithmic invariants installed as an optional observer on the simulator
// and the fleet coordinator.
//
// The properties asserted here are re-statements of guarantees the engine is
// designed around — energy conservation at every node, the battery's DoD
// floor and single-charging-source rule (Section IV-B.1), PAR vectors on the
// unit simplex (Section IV-B.3), EPU in [0, 1] (Equation 1) and the loss
// ledger's exact decomposition — evaluated on live state every substep and
// epoch instead of post hoc in individual tests.  A failed check raises a
// structured InvariantViolation carrying the invariant's name, the epoch and
// substep indices, the simulation time and the offending values.
//
// The checker is pull-only: it reads simulator state and never emits
// telemetry or mutates anything, so enabling it cannot change a run's
// behaviour, and a disabled checker (the default) costs one null-pointer
// test per substep — golden traces stay byte-identical either way.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>

#include "power/energy_ledger.h"
#include "power/power_bus.h"
#include "server/rack.h"
#include "sim/run_report.h"
#include "telemetry/ledger.h"
#include "util/units.h"

namespace greenhetero::check {

/// A failed invariant.  what() renders the full context in one line; the
/// structured accessors let harnesses (the fuzzer's shrinker, tests) key on
/// the invariant name and location without parsing the message.
class InvariantViolation : public std::runtime_error {
 public:
  InvariantViolation(std::string name, std::string details,
                     double sim_minutes, long epoch_index, long substep_index);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::string& details() const { return details_; }
  [[nodiscard]] double sim_minutes() const { return sim_minutes_; }
  /// Index of the epoch being checked (0-based; -1 when outside an epoch).
  [[nodiscard]] long epoch_index() const { return epoch_index_; }
  /// Substep index within the epoch (-1 for epoch-level invariants).
  [[nodiscard]] long substep_index() const { return substep_index_; }

 private:
  std::string name_;
  std::string details_;
  double sim_minutes_ = 0.0;
  long epoch_index_ = -1;
  long substep_index_ = -1;
};

/// One registry entry: the stable invariant name (used in violations and in
/// docs) and what it asserts.
struct InvariantInfo {
  std::string_view name;
  std::string_view description;
};

/// The full invariant taxonomy, in evaluation order (substep checks first,
/// then epoch checks).
[[nodiscard]] std::span<const InvariantInfo> invariant_registry();

class InvariantChecker {
 public:
  /// Everything the simulator knows right after executing one substep.
  struct SubstepContext {
    const Rack* rack = nullptr;
    const RackPowerPlant* plant = nullptr;
    PowerFlows flows;
    /// Renewable production available this substep (pre-execution meter).
    Watts renewable_available{0.0};
    /// Unmet planned load after degradation.
    Watts shortfall{0.0};
    Minutes now{0.0};
    /// Substep length the flows were applied for.
    Minutes dt{0.0};
    /// The battery's terminal meters (total_discharged /
    /// total_charged_input) just before the flows were applied.
    WattHours battery_discharged_before{0.0};
    WattHours battery_charged_before{0.0};
  };

  /// Everything known at the end of one epoch.
  struct EpochContext {
    const EpochRecord* record = nullptr;
    const EnergyLedger* ledger = nullptr;
    /// Run-level EPU so far (EpuMeter::epu()).
    double run_epu = 0.0;
    /// DoD floor as a SoC fraction (1 - depth_of_discharge).
    double floor_soc = 0.0;
    /// The just-closed loss-ledger epoch; null when the ledger is disabled.
    const telemetry::EpochLossRecord* loss = nullptr;
  };

  /// Evaluate every substep-level invariant; throws InvariantViolation on
  /// the first failure.
  void check_substep(const SubstepContext& ctx);

  /// Evaluate every epoch-level invariant; throws InvariantViolation on the
  /// first failure and advances the epoch counter.
  void check_epoch(const EpochContext& ctx);

  /// PAR-vector invariant on its own (reused by the fuzzer to re-validate
  /// recorded — possibly mutated — ratio vectors outside a simulator).
  static void check_ratios(std::span<const double> ratios,
                           double sim_minutes = 0.0, long epoch_index = -1);

  /// Fleet-level invariant: every grid share finite and non-negative, and
  /// the shares must never over-commit the datacenter budget.
  static void check_grid_shares(std::span<const Watts> shares, Watts total,
                                double sim_minutes = 0.0,
                                long epoch_index = -1);

  [[nodiscard]] std::uint64_t checks_passed() const { return checks_; }
  [[nodiscard]] std::uint64_t substeps_checked() const { return substeps_; }
  [[nodiscard]] std::uint64_t epochs_checked() const { return epochs_; }

  /// Checkpoint the counters, so a resumed run's "invariants: N checks"
  /// report line matches the uninterrupted run's.
  template <class Self, class Io>
  static void fields(Self& self, Io& io) {
    io.u64(self.checks_);
    io.u64(self.substeps_);
    io.u64(self.epochs_);
    io.i64(self.substep_in_epoch_);
  }

 private:
  [[noreturn]] void fail(std::string_view name, std::string details,
                         double sim_minutes) const;

  std::uint64_t checks_ = 0;
  std::uint64_t substeps_ = 0;
  std::uint64_t epochs_ = 0;
  long substep_in_epoch_ = 0;
};

}  // namespace greenhetero::check
