// Rack-level battery model.
//
// The paper provisions each rack with 10 x 12 V / 100 Ah lead-acid batteries
// (12 kWh), operated at a 40% depth of discharge (DoD) to preserve lifetime
// (~1300 recharge cycles), with 80% round-trip energy efficiency and the
// rules of Section IV-B.1: only one source charges the battery at a time,
// and when the DoD floor is hit the battery stops supplying until recharged.
#pragma once

#include <limits>
#include <stdexcept>

#include "util/units.h"

namespace greenhetero {

class BatteryError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct BatterySpec {
  WattHours capacity{12000.0};        ///< total nameplate energy
  double depth_of_discharge = 0.4;    ///< usable fraction of capacity
  double round_trip_efficiency = 0.8; ///< fraction of charged energy returned
  Watts max_charge_power{2000.0};     ///< charge acceptance limit
  Watts max_discharge_power{3000.0};  ///< discharge rate limit
  int rated_cycles = 1300;            ///< lifetime at the given DoD

  /// Fraction of nameplate capacity lost per equivalent DoD-deep cycle
  /// (capacity fade).  0 disables ageing.
  double capacity_fade_per_cycle = 0.0;

  /// Peukert effect: discharging above `nominal_discharge_power` drains
  /// stored energy faster than it delivers — the drain rate is
  /// P * (P / nominal)^(k-1) for delivered power P.  k = 1 disables it.
  double peukert_exponent = 1.0;
  Watts nominal_discharge_power{600.0};

  /// Self-discharge: fraction of *stored* energy lost per month of standing
  /// (lead-acid ~3%/month; Li-ion ~1-2%).  0 disables it.
  double self_discharge_per_month = 0.0;

  /// Lowest stored energy the controller will discharge to (fraction of the
  /// *nameplate* capacity — the BMS floor does not move as the pack ages).
  [[nodiscard]] WattHours floor_energy() const {
    return capacity * (1.0 - depth_of_discharge);
  }
  void validate() const;
};

/// Chemistry presets.  Lead-acid matches the paper's pack (Section V-A.2)
/// with realistic fade and Peukert behaviour; Li-ion is the modern
/// alternative the extension benches compare against.
[[nodiscard]] BatterySpec lead_acid_spec(WattHours capacity);
[[nodiscard]] BatterySpec li_ion_spec(WattHours capacity);

/// Battery charge state and energy bookkeeping.  Charging losses are applied
/// on the way in (stored = accepted * efficiency), so energy drawn out equals
/// energy stored — the asymmetry matches how the simulator meters flows at
/// the battery terminals.
class Battery {
 public:
  explicit Battery(BatterySpec spec);

  [[nodiscard]] const BatterySpec& spec() const { return spec_; }
  /// Fraction of charged input energy that comes back out on discharge.
  [[nodiscard]] double round_trip_efficiency() const {
    return spec_.round_trip_efficiency;
  }
  [[nodiscard]] WattHours stored() const { return stored_; }
  /// State of charge as a fraction of nameplate capacity.
  [[nodiscard]] double soc() const { return stored_ / spec_.capacity; }
  /// Nameplate capacity minus ageing fade (never below the BMS floor).
  [[nodiscard]] WattHours effective_capacity() const;
  /// Rate at which stored energy drains when delivering `power`
  /// (>= power due to the Peukert effect).
  [[nodiscard]] Watts drain_rate(Watts power) const;
  /// True when discharged down to the DoD floor.
  [[nodiscard]] bool at_floor() const;
  [[nodiscard]] bool full() const;

  /// Highest power the battery can sustain for `dt` without violating the
  /// discharge rate limit or the DoD floor.
  ///
  /// The answer is a pure function of (stored energy, dt) — the spec is
  /// fixed at construction — and the controller asks it dozens of times per
  /// epoch on the same state, so the last answer is memoised and returned
  /// while both keys compare equal.  No other mutable state enters the
  /// answer, so nothing invalidates the memo explicitly (every mutator that
  /// moves the answer moves the stored-energy key), and a hit returns
  /// bitwise the value the bisection would.  Thread contract: the memo makes
  /// this const method write, so one thread drives a battery at a time (a
  /// shard steps only its own racks; the fleet reads batteries only at the
  /// epoch barrier).
  [[nodiscard]] Watts max_discharge(Minutes dt) const;

  /// Highest *input* power the battery can accept for `dt` (rate limit and
  /// remaining headroom, accounting for charge efficiency).
  [[nodiscard]] Watts max_charge(Minutes dt) const;

  /// Discharge at `power` for `dt`.  `power` must not exceed
  /// max_discharge(dt) (throws BatteryError).  Returns energy delivered.
  WattHours discharge(Watts power, Minutes dt);

  /// Charge with `power` at the input terminals for `dt`; must not exceed
  /// max_charge(dt).  Returns the energy actually stored (after losses).
  WattHours charge(Watts power, Minutes dt);

  /// Apply self-discharge for `dt` of standing time (the simulator calls
  /// this once per substep).  Stored energy never drops below the BMS
  /// floor from self-discharge alone.
  void stand(Minutes dt);

  /// Fault injection: an additional `fraction` of nameplate capacity is
  /// unavailable (cell failure) on top of ageing fade; stored energy above
  /// the derated capacity is clamped away.  0 clears the fault; throws
  /// BatteryError outside [0, 0.9].
  void set_fault_derate(double fraction);
  [[nodiscard]] double fault_derate() const { return fault_derate_; }

  /// Cycle wear: total discharged energy divided by the energy of one
  /// DoD-deep cycle.
  [[nodiscard]] double equivalent_cycles() const;

  /// Total energy metered at the terminals since construction.
  [[nodiscard]] WattHours total_discharged() const { return discharged_; }
  [[nodiscard]] WattHours total_charged_input() const { return charged_in_; }

  /// Checkpoint the mutable charge/wear/fault state (the spec is rebuilt
  /// from configuration on resume; the max_discharge memo is not saved).
  template <class Self, class Io>
  static void fields(Self& self, Io& io) {
    io.f64(self.stored_);
    io.f64(self.fault_derate_);
    io.f64(self.discharged_);
    io.f64(self.charged_in_);
  }

 private:
  /// The uncached max_discharge(): bisection on the monotone drain rate,
  /// with the predicate skipped outside a certified bracket around the
  /// closed-form root.
  [[nodiscard]] Watts bisect_max_discharge(Minutes dt) const;
  /// Closed-form inverse of drain_rate: the power whose drain rate is
  /// `drain` (exact in real arithmetic, within a few ulps in doubles).
  [[nodiscard]] Watts invert_drain_rate(Watts drain) const;

  BatterySpec spec_;
  WattHours stored_;
  double fault_derate_ = 0.0;
  WattHours discharged_{0.0};
  WattHours charged_in_{0.0};

  // max_discharge memo: the (stored_, dt) keys of the last answer.  NaN
  // keys never compare equal, so the first call always bisects.
  mutable double memo_stored_ = std::numeric_limits<double>::quiet_NaN();
  mutable double memo_dt_ = std::numeric_limits<double>::quiet_NaN();
  mutable Watts memo_max_discharge_{0.0};
};

}  // namespace greenhetero
