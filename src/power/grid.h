// Utility grid supply with a rack-level power budget and a cost model.
//
// The paper caps grid draw per rack (1000 W in the Fig. 8 runs; swept in
// Fig. 12) because peak grid power carries heavy demand charges (it cites up
// to $13.61/kW from Parasol/GreenSwitch).  The grid is the last-resort
// source: it powers the rack and recharges the battery only when renewable
// and battery are exhausted.
#pragma once

#include <stdexcept>

#include "util/units.h"

namespace greenhetero {

class GridError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct GridSpec {
  Watts budget{1000.0};            ///< max simultaneous draw for this rack
  double energy_price = 0.10e-3;   ///< $ per Wh (0.10 $/kWh)
  double demand_charge = 13.61e-3; ///< $ per W of billing-period peak draw
  /// Time-of-use tariff: energy drawn with hour-of-day inside
  /// [peak_start_hour, peak_end_hour) is billed at energy_price *
  /// peak_multiplier.  1.0 disables TOU (flat tariff).
  double peak_multiplier = 1.0;
  double peak_start_hour = 17.0;
  double peak_end_hour = 21.0;

  [[nodiscard]] bool in_peak(double hour_of_day) const {
    return peak_multiplier != 1.0 && hour_of_day >= peak_start_hour &&
           hour_of_day < peak_end_hour;
  }
};

class GridSupply {
 public:
  explicit GridSupply(GridSpec spec);

  [[nodiscard]] const GridSpec& spec() const { return spec_; }
  /// The effective budget; zero while an outage fault is active.
  [[nodiscard]] Watts budget() const {
    return outage_ ? Watts{0.0} : spec_.budget;
  }

  /// Change the budget (fleet-coordinated reallocation); throws GridError
  /// on negative budgets.  During an outage the new budget is remembered
  /// and takes effect once the feed returns.
  void set_budget(Watts budget);

  /// Fault injection: utility feed down — the budget reads zero until the
  /// outage clears.
  void set_outage(bool outage) { outage_ = outage; }
  [[nodiscard]] bool in_outage() const { return outage_; }

  /// Draw `power` for `dt` at local `hour_of_day` (for the TOU tariff);
  /// throws GridError when over budget.  Returns the energy delivered.
  WattHours draw(Watts power, Minutes dt, double hour_of_day = 0.0);

  [[nodiscard]] WattHours total_energy() const { return energy_; }
  [[nodiscard]] WattHours peak_tariff_energy() const { return peak_energy_; }
  [[nodiscard]] Watts peak_draw() const { return peak_; }

  /// Billing: TOU-weighted energy cost plus demand charge on the peak.
  [[nodiscard]] double total_cost() const;

  /// Checkpoint the metered totals, the fleet-set budget (set_budget
  /// mutates the spec) and the outage flag; tariff fields are rebuilt from
  /// configuration on resume.
  template <class Self, class Io>
  static void fields(Self& self, Io& io) {
    io.f64(self.spec_.budget);
    io.boolean(self.outage_);
    io.f64(self.energy_);
    io.f64(self.peak_energy_);
    io.f64(self.peak_);
  }

 private:
  GridSpec spec_;
  bool outage_ = false;
  WattHours energy_{0.0};
  WattHours peak_energy_{0.0};  ///< share billed at the peak tariff
  Watts peak_{0.0};
};

}  // namespace greenhetero
