// Run report: per-epoch records and run-level aggregates of one simulation.
//
// This is what every bench prints from — each Figure 8/11 series is a column
// of the epoch records, each Figure 9/10/12/13/14 bar is an aggregate.
#pragma once

#include <vector>

#include "power/energy_ledger.h"
#include "power/power_bus.h"
#include "telemetry/metrics.h"
#include "util/csv.h"
#include "util/units.h"

namespace greenhetero {

struct EpochRecord {
  Minutes start{0.0};
  bool training = false;
  PowerCase source_case = PowerCase::kRenewableSufficient;
  Watts predicted_renewable{0.0};
  Watts actual_renewable{0.0};  ///< epoch mean
  Watts budget{0.0};            ///< server power budget the solver split
  std::vector<double> ratios;   ///< PAR per group
  double throughput = 0.0;      ///< epoch-mean rack throughput
  double epu = 0.0;             ///< epoch EPU
  double battery_soc = 0.0;     ///< state of charge at epoch end
  Watts battery_discharge{0.0}; ///< epoch-mean battery-to-load power
  Watts battery_charge{0.0};    ///< epoch-mean charging input power
  Watts grid_power{0.0};        ///< epoch-mean grid draw (load + charging)
  Watts shortfall{0.0};         ///< epoch-mean unmet planned load
};

struct RunReport {
  std::vector<EpochRecord> epochs;
  /// True when the run was cut short by a stop request (SIGINT/SIGTERM):
  /// the report covers only the completed epochs, and a final checkpoint
  /// was written if checkpointing was configured.
  bool interrupted = false;
  EnergyLedger ledger;
  double total_work = 0.0;      ///< metric-unit-hours of useful work
  double overall_epu = 0.0;     ///< energy-weighted EPU of the whole run
  double battery_cycles = 0.0;  ///< equivalent DoD-deep cycles consumed
  double grid_cost = 0.0;       ///< $ (energy + demand charge)
  WattHours grid_energy{0.0};
  /// Metrics accumulated by the simulator's telemetry over this run (empty
  /// when telemetry is disabled).
  telemetry::MetricsSnapshot metrics;

  /// Mean rack throughput over non-training epochs.
  [[nodiscard]] double mean_throughput() const;
  /// Mean PAR of group `g` over non-training epochs with a live budget.
  [[nodiscard]] double mean_ratio(std::size_t g) const;
  [[nodiscard]] int epochs_in_case(PowerCase c) const;

  /// Full per-epoch dump for plotting.
  [[nodiscard]] CsvTable to_csv() const;
};

}  // namespace greenhetero
