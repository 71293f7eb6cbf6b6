#include "power/battery.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace greenhetero {

void BatterySpec::validate() const {
  if (capacity.value() <= 0.0) {
    throw BatteryError("battery: capacity must be positive");
  }
  if (depth_of_discharge <= 0.0 || depth_of_discharge > 1.0) {
    throw BatteryError("battery: DoD must be in (0, 1]");
  }
  if (round_trip_efficiency <= 0.0 || round_trip_efficiency > 1.0) {
    throw BatteryError("battery: efficiency must be in (0, 1]");
  }
  if (max_charge_power.value() < 0.0 || max_discharge_power.value() < 0.0) {
    throw BatteryError("battery: power limits must be non-negative");
  }
  if (rated_cycles <= 0) {
    throw BatteryError("battery: rated cycles must be positive");
  }
  if (capacity_fade_per_cycle < 0.0 || capacity_fade_per_cycle > 0.1) {
    throw BatteryError("battery: fade per cycle must be in [0, 0.1]");
  }
  if (peukert_exponent < 1.0 || peukert_exponent > 2.0) {
    throw BatteryError("battery: Peukert exponent must be in [1, 2]");
  }
  if (nominal_discharge_power.value() <= 0.0) {
    throw BatteryError("battery: nominal discharge power must be positive");
  }
  if (self_discharge_per_month < 0.0 || self_discharge_per_month > 0.5) {
    throw BatteryError("battery: self-discharge must be in [0, 0.5]/month");
  }
}

BatterySpec lead_acid_spec(WattHours capacity) {
  BatterySpec spec;
  spec.capacity = capacity;
  spec.depth_of_discharge = 0.4;
  spec.round_trip_efficiency = 0.8;
  spec.max_charge_power = Watts{capacity.value() / 6.0};   // ~C/6
  spec.max_discharge_power = Watts{capacity.value() / 4.0};
  spec.rated_cycles = 1300;
  // ~20% capacity loss over the rated cycle life.
  spec.capacity_fade_per_cycle = 0.2 / 1300.0;
  spec.peukert_exponent = 1.15;
  spec.nominal_discharge_power = Watts{capacity.value() / 20.0};  // C/20
  spec.self_discharge_per_month = 0.03;
  return spec;
}

BatterySpec li_ion_spec(WattHours capacity) {
  BatterySpec spec;
  spec.capacity = capacity;
  spec.depth_of_discharge = 0.8;
  spec.round_trip_efficiency = 0.95;
  spec.max_charge_power = Watts{capacity.value() / 2.0};   // ~C/2
  spec.max_discharge_power = Watts{capacity.value()};      // ~1C
  spec.rated_cycles = 4000;
  spec.capacity_fade_per_cycle = 0.2 / 4000.0;
  spec.peukert_exponent = 1.02;
  spec.nominal_discharge_power = Watts{capacity.value() / 5.0};  // C/5
  spec.self_discharge_per_month = 0.015;
  return spec;
}

Battery::Battery(BatterySpec spec) : spec_(spec), stored_(spec.capacity) {
  spec_.validate();
}

WattHours Battery::effective_capacity() const {
  const double fade =
      spec_.capacity_fade_per_cycle * equivalent_cycles() + fault_derate_;
  const WattHours faded = spec_.capacity * std::max(0.0, 1.0 - fade);
  return max(faded, spec_.floor_energy());
}

void Battery::set_fault_derate(double fraction) {
  if (fraction < 0.0 || fraction > 0.9) {
    throw BatteryError("battery: fault derate must be in [0, 0.9]");
  }
  fault_derate_ = fraction;
  // Energy held in the failed cells is gone (the conservation ledger meters
  // only terminal flows, so this does not unbalance the books).
  stored_ = min(stored_, effective_capacity());
}

Watts Battery::drain_rate(Watts power) const {
  if (power.value() <= 0.0) return Watts{0.0};
  if (spec_.peukert_exponent <= 1.0 ||
      power.value() <= spec_.nominal_discharge_power.value()) {
    return power;
  }
  const double factor = std::pow(
      power.value() / spec_.nominal_discharge_power.value(),
      spec_.peukert_exponent - 1.0);
  return power * factor;
}

Watts Battery::invert_drain_rate(Watts drain) const {
  if (spec_.peukert_exponent <= 1.0 ||
      drain.value() <= spec_.nominal_discharge_power.value()) {
    return drain;
  }
  // drain = P^k / nominal^(k-1)  =>  P = (drain * nominal^(k-1))^(1/k).
  const double k = spec_.peukert_exponent;
  const double nominal = spec_.nominal_discharge_power.value();
  return Watts{std::pow(drain.value() * std::pow(nominal, k - 1.0), 1.0 / k)};
}

bool Battery::at_floor() const {
  return stored_.value() <= spec_.floor_energy().value() + 1e-9;
}

bool Battery::full() const {
  return stored_.value() >= effective_capacity().value() - 1e-9;
}

Watts Battery::max_discharge(Minutes dt) const {
  if (dt.value() <= 0.0) {
    throw BatteryError("battery: dt must be positive");
  }
  if (stored_.value() == memo_stored_ && dt.value() == memo_dt_) {
    return memo_max_discharge_;
  }
  memo_stored_ = stored_.value();
  memo_dt_ = dt.value();
  memo_max_discharge_ = bisect_max_discharge(dt);
  return memo_max_discharge_;
}

Watts Battery::bisect_max_discharge(Minutes dt) const {
  const WattHours available{
      std::max(0.0, stored_.value() - spec_.floor_energy().value())};
  // The highest deliverable power P satisfies drain_rate(P) * dt <=
  // available; drain_rate is monotone in P, so bisect.
  const auto fits = [&](double p) {
    return (drain_rate(Watts{p}) * dt).value() <= available.value();
  };
  double lo = 0.0;
  double hi = spec_.max_discharge_power.value();
  if (fits(hi)) {
    return Watts{hi};
  }
  // Stored exactly at the floor (discharge() clamps there): when not even
  // the loop's smallest midpoint hi * 2^-48 fits, no midpoint does and the
  // loop below would return +0.0 after 48 steps.
  if (available.value() == 0.0 && !fits(std::ldexp(hi, -48))) {
    return Watts{0.0};
  }
  // Certified bracket: fits(a) holds and fits(b) fails, so by monotonicity
  // every midpoint <= a fits and every midpoint >= b does not.  The
  // bisection below takes the same 48 steps as an uncertified one and
  // evaluates the predicate only strictly inside (a, b); without a tighter
  // certificate the bracket stays [0, hi] (0 always fits) and every
  // midpoint is evaluated.
  double a = 0.0;
  double b = hi;
  const double guess = invert_drain_rate(available / dt).value();
  if (spec_.peukert_exponent <= 1.0) {
    // Linear pack: fits(p) is p * dt / 60 <= available, monotone at every
    // ulp in IEEE arithmetic, so the bracket closes to adjacent doubles.
    // Probe the closed-form root (the least normal double when nothing is
    // available: its drain is already positive), then step one ulp towards
    // the side still uncertain.
    double probe = std::max(guess, std::numeric_limits<double>::min());
    for (int i = 0; i < 6 && probe > a && probe < b; ++i) {
      const bool fit = fits(probe);
      (fit ? a : b) = probe;
      probe = fit ? std::nextafter(a, b) : std::nextafter(b, a);
    }
  } else {
    // Peukert pack: std::pow is accurate to about an ulp but not certified
    // monotone at every ulp, so certify edges a relative 1e-9 off the
    // root and keep a 1e-12 guard band inside them: a midpoint beyond the
    // band differs from the certified edge by far more than pow's error.
    const double lower = guess * (1.0 - 1e-9);
    const double upper = guess * (1.0 + 1e-9);
    if (lower > a && lower < b && fits(lower)) a = lower * (1.0 - 1e-12);
    if (upper > a && upper < b && !fits(upper)) b = upper * (1.0 + 1e-12);
  }
  for (int i = 0; i < 48; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (mid <= a || (mid < b && fits(mid))) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return Watts{lo};
}

Watts Battery::max_charge(Minutes dt) const {
  if (dt.value() <= 0.0) {
    throw BatteryError("battery: dt must be positive");
  }
  const WattHours headroom{
      std::max(0.0, effective_capacity().value() - stored_.value())};
  // Input energy needed to fill the headroom given charging losses.
  const WattHours input_needed = headroom / spec_.round_trip_efficiency;
  return min(input_needed / dt, spec_.max_charge_power);
}

WattHours Battery::discharge(Watts power, Minutes dt) {
  if (power.value() < 0.0) {
    throw BatteryError("battery: discharge power must be non-negative");
  }
  if (power.value() > max_discharge(dt).value() + 1e-6) {
    throw BatteryError("battery: discharge exceeds available power");
  }
  const WattHours delivered = power * dt;
  const WattHours drained = drain_rate(power) * dt;
  stored_ -= drained;
  if (stored_.value() < spec_.floor_energy().value()) {
    stored_ = spec_.floor_energy();  // absorb rounding error
  }
  discharged_ += delivered;
  return delivered;
}

WattHours Battery::charge(Watts power, Minutes dt) {
  if (power.value() < 0.0) {
    throw BatteryError("battery: charge power must be non-negative");
  }
  if (power.value() > max_charge(dt).value() + 1e-6) {
    throw BatteryError("battery: charge exceeds acceptance limit");
  }
  const WattHours input = power * dt;
  const WattHours stored = input * spec_.round_trip_efficiency;
  stored_ = min(effective_capacity(), stored_ + stored);
  charged_in_ += input;
  return stored;
}

void Battery::stand(Minutes dt) {
  if (dt.value() < 0.0) {
    throw BatteryError("battery: stand duration must be non-negative");
  }
  if (spec_.self_discharge_per_month <= 0.0) return;
  constexpr double kMinutesPerMonth = 30.0 * 24.0 * 60.0;
  const double keep = std::pow(1.0 - spec_.self_discharge_per_month,
                               dt.value() / kMinutesPerMonth);
  stored_ = max(spec_.floor_energy(), stored_ * keep);
}

double Battery::equivalent_cycles() const {
  const double cycle_energy =
      spec_.capacity.value() * spec_.depth_of_discharge;
  return discharged_.value() / cycle_energy;
}

}  // namespace greenhetero
