#include "check/invariants.h"

#include <cmath>
#include <sstream>

namespace greenhetero::check {

namespace {

/// Absolute watt tolerance for flow comparisons; conservation checks scale
/// it with the magnitudes involved so multi-kilowatt plants are not held to
/// sub-microwatt arithmetic.
constexpr double kWattTol = 1e-6;

double rel_tol(double scale) { return kWattTol * std::max(1.0, scale); }

constexpr InvariantInfo kRegistry[] = {
    {"substep-flows-finite",
     "every power flow is finite and non-negative"},
    {"substep-energy-conservation",
     "load + shortfall equals the rack draw, and renewable flows sum to the "
     "metered availability"},
    {"substep-single-charging-source",
     "the battery never charges from renewable and grid simultaneously"},
    {"substep-charge-xor-discharge",
     "the battery never charges while discharging"},
    {"substep-grid-within-budget",
     "grid draw (load + charging) never exceeds the per-rack budget"},
    {"substep-battery-soc-bounds",
     "battery stored energy stays within [DoD floor, effective capacity]"},
    {"substep-battery-metered-flow",
     "the battery's terminal meters move by exactly the returned flows: "
     "discharged = battery_to_load * dt, charged input = battery_input * "
     "dt"},
    {"substep-allocation-within-range",
     "every operating server draws within its [idle, peak] range (sleeping "
     "servers draw zero)"},
    {"epoch-par-ratios-valid",
     "PAR values are finite, non-negative and sum to at most 1"},
    {"epoch-epu-bounds", "epoch and run EPU lie in [0, 1]"},
    {"epoch-energy-conservation",
     "the energy ledger's conservation error stays ~0"},
    {"epoch-battery-dod-floor",
     "reported SoC respects the DoD floor and never exceeds 1"},
    {"epoch-loss-residual",
     "the loss ledger's bucket sum matches the supply residual within "
     "1e-6 W"},
    {"epoch-record-finite",
     "every numeric field of the epoch record is finite with the right sign"},
};

[[noreturn]] void raise(std::string_view name, std::string details,
                        double sim_minutes, long epoch_index,
                        long substep_index) {
  throw InvariantViolation(std::string(name), std::move(details), sim_minutes,
                           epoch_index, substep_index);
}

}  // namespace

InvariantViolation::InvariantViolation(std::string name, std::string details,
                                       double sim_minutes, long epoch_index,
                                       long substep_index)
    : std::runtime_error("invariant '" + name + "' violated at t=" +
                         std::to_string(sim_minutes) + "min (epoch " +
                         std::to_string(epoch_index) + ", substep " +
                         std::to_string(substep_index) + "): " + details),
      name_(std::move(name)),
      details_(std::move(details)),
      sim_minutes_(sim_minutes),
      epoch_index_(epoch_index),
      substep_index_(substep_index) {}

std::span<const InvariantInfo> invariant_registry() { return kRegistry; }

void InvariantChecker::fail(std::string_view name, std::string details,
                            double sim_minutes) const {
  raise(name, std::move(details), sim_minutes, static_cast<long>(epochs_),
        substep_in_epoch_);
}

void InvariantChecker::check_substep(const SubstepContext& ctx) {
  const double t = ctx.now.value();
  const PowerFlows& f = ctx.flows;

  // substep-flows-finite
  const double fields[] = {f.renewable_to_load.value(),
                           f.battery_to_load.value(),
                           f.grid_to_load.value(),
                           f.renewable_to_battery.value(),
                           f.grid_to_battery.value(),
                           f.renewable_curtailed.value(),
                           ctx.shortfall.value()};
  static constexpr const char* kFieldNames[] = {
      "renewable_to_load", "battery_to_load",      "grid_to_load",
      "renewable_to_battery", "grid_to_battery",   "renewable_curtailed",
      "shortfall"};
  for (std::size_t i = 0; i < std::size(fields); ++i) {
    if (!std::isfinite(fields[i]) || fields[i] < -kWattTol) {
      std::ostringstream msg;
      msg << kFieldNames[i] << " = " << fields[i] << " W";
      fail("substep-flows-finite", msg.str(), t);
    }
  }
  ++checks_;

  // substep-energy-conservation
  const double draw = ctx.rack->total_draw().value();
  const double covered = f.load().value() + ctx.shortfall.value();
  if (std::fabs(covered - draw) > rel_tol(draw)) {
    std::ostringstream msg;
    msg << "load " << f.load().value() << " W + shortfall "
        << ctx.shortfall.value() << " W != rack draw " << draw << " W";
    fail("substep-energy-conservation", msg.str(), t);
  }
  const double available = ctx.renewable_available.value();
  const double renewable_total = f.renewable_total().value();
  if (std::fabs(renewable_total - available) > rel_tol(available)) {
    std::ostringstream msg;
    msg << "renewable flows sum to " << renewable_total
        << " W but availability was " << available << " W";
    fail("substep-energy-conservation", msg.str(), t);
  }
  ++checks_;

  // substep-single-charging-source
  if (f.renewable_to_battery.value() > kWattTol &&
      f.grid_to_battery.value() > kWattTol) {
    std::ostringstream msg;
    msg << "renewable_to_battery " << f.renewable_to_battery.value()
        << " W and grid_to_battery " << f.grid_to_battery.value()
        << " W both active";
    fail("substep-single-charging-source", msg.str(), t);
  }
  ++checks_;

  // substep-charge-xor-discharge
  if (f.battery_input().value() > kWattTol &&
      f.battery_to_load.value() > kWattTol) {
    std::ostringstream msg;
    msg << "charging at " << f.battery_input().value()
        << " W while discharging " << f.battery_to_load.value() << " W";
    fail("substep-charge-xor-discharge", msg.str(), t);
  }
  ++checks_;

  // substep-grid-within-budget
  const double grid_draw = (f.grid_to_load + f.grid_to_battery).value();
  const double grid_budget = ctx.plant->grid().budget().value();
  if (grid_draw > grid_budget + rel_tol(grid_budget)) {
    std::ostringstream msg;
    msg << "grid draw " << grid_draw << " W exceeds budget " << grid_budget
        << " W" << (ctx.plant->grid().in_outage() ? " (outage active)" : "");
    fail("substep-grid-within-budget", msg.str(), t);
  }
  ++checks_;

  // substep-battery-soc-bounds
  const Battery& battery = ctx.plant->battery();
  const double stored = battery.stored().value();
  const double floor = battery.spec().floor_energy().value();
  const double ceiling = battery.effective_capacity().value();
  if (!std::isfinite(stored) || stored < floor - rel_tol(floor) ||
      stored > ceiling + rel_tol(ceiling)) {
    std::ostringstream msg;
    msg << "stored " << stored << " Wh outside [" << floor << ", " << ceiling
        << "] Wh (SoC " << battery.soc() << ")";
    fail("substep-battery-soc-bounds", msg.str(), t);
  }
  ++checks_;

  // substep-battery-metered-flow
  const double metered_out =
      (battery.total_discharged() - ctx.battery_discharged_before).value();
  const double booked_out = (f.battery_to_load * ctx.dt).value();
  const double metered_in =
      (battery.total_charged_input() - ctx.battery_charged_before).value();
  const double booked_in = (f.battery_input() * ctx.dt).value();
  if (std::fabs(metered_out - booked_out) >
          rel_tol(battery.total_discharged().value()) ||
      std::fabs(metered_in - booked_in) >
          rel_tol(battery.total_charged_input().value())) {
    std::ostringstream msg;
    msg.precision(12);
    msg << "battery metered " << metered_out << " Wh out / " << metered_in
        << " Wh in, flows book " << booked_out << " Wh out / " << booked_in
        << " Wh in";
    fail("substep-battery-metered-flow", msg.str(), t);
  }
  ++checks_;

  // substep-allocation-within-range
  const Rack& rack = *ctx.rack;
  for (std::size_t g = 0; g < rack.group_count(); ++g) {
    const PerfCurve& curve = rack.group_curve(g);
    const double idle = curve.idle_power().value();
    const double peak = curve.peak_power().value();
    const double rep = rack.group_representative(g).draw().value();
    if (rep > kWattTol && (rep < idle - kWattTol || rep > peak + kWattTol)) {
      std::ostringstream msg;
      msg << "group " << g << " server draws " << rep << " W outside ["
          << idle << ", " << peak << "] W";
      fail("substep-allocation-within-range", msg.str(), t);
    }
    const double group = rack.group_draw(g).value();
    const double cap = peak * static_cast<double>(rack.group(g).count);
    if (!std::isfinite(group) || group < -kWattTol ||
        group > cap + rel_tol(cap)) {
      std::ostringstream msg;
      msg << "group " << g << " draws " << group << " W, cap " << cap << " W";
      fail("substep-allocation-within-range", msg.str(), t);
    }
  }
  ++checks_;

  ++substeps_;
  ++substep_in_epoch_;
}

void InvariantChecker::check_ratios(std::span<const double> ratios,
                                    double sim_minutes, long epoch_index) {
  double sum = 0.0;
  for (std::size_t i = 0; i < ratios.size(); ++i) {
    if (!std::isfinite(ratios[i]) || ratios[i] < -1e-9) {
      std::ostringstream msg;
      msg << "ratio[" << i << "] = " << ratios[i];
      raise("epoch-par-ratios-valid", msg.str(), sim_minutes, epoch_index, -1);
    }
    sum += ratios[i];
  }
  if (sum > 1.0 + 1e-6) {
    std::ostringstream msg;
    msg << "ratios sum to " << sum << " > 1";
    raise("epoch-par-ratios-valid", msg.str(), sim_minutes, epoch_index, -1);
  }
}

void InvariantChecker::check_grid_shares(std::span<const Watts> shares,
                                         Watts total, double sim_minutes,
                                         long epoch_index) {
  double sum = 0.0;
  for (std::size_t i = 0; i < shares.size(); ++i) {
    const double share = shares[i].value();
    if (!std::isfinite(share) || share < -kWattTol) {
      std::ostringstream msg;
      msg << "grid share[" << i << "] = " << share << " W";
      raise("substep-grid-within-budget", msg.str(), sim_minutes, epoch_index,
            -1);
    }
    sum += share;
  }
  if (sum > total.value() + rel_tol(total.value())) {
    std::ostringstream msg;
    msg << "grid shares sum to " << sum << " W, fleet budget "
        << total.value() << " W";
    raise("substep-grid-within-budget", msg.str(), sim_minutes, epoch_index,
          -1);
  }
}

void InvariantChecker::check_epoch(const EpochContext& ctx) {
  const EpochRecord& r = *ctx.record;
  const double t = r.start.value();
  substep_in_epoch_ = -1;  // epoch-level context in violations

  // epoch-par-ratios-valid
  check_ratios(r.ratios, t, static_cast<long>(epochs_));
  ++checks_;

  // epoch-epu-bounds
  if (!std::isfinite(r.epu) || r.epu < 0.0 || r.epu > 1.0 + 1e-9) {
    fail("epoch-epu-bounds", "epoch EPU = " + std::to_string(r.epu), t);
  }
  if (!std::isfinite(ctx.run_epu) || ctx.run_epu < 0.0 ||
      ctx.run_epu > 1.0 + 1e-9) {
    fail("epoch-epu-bounds", "run EPU = " + std::to_string(ctx.run_epu), t);
  }
  ++checks_;

  // epoch-energy-conservation
  const double error = ctx.ledger->conservation_error();
  if (!(error <= 1e-5)) {  // catches NaN too
    fail("epoch-energy-conservation",
         "ledger conservation error = " + std::to_string(error) + " Wh", t);
  }
  ++checks_;

  // epoch-battery-dod-floor
  if (!std::isfinite(r.battery_soc) || r.battery_soc < ctx.floor_soc - 1e-6 ||
      r.battery_soc > 1.0 + 1e-9) {
    std::ostringstream msg;
    msg << "SoC " << r.battery_soc << " outside [" << ctx.floor_soc << ", 1]";
    fail("epoch-battery-dod-floor", msg.str(), t);
  }
  ++checks_;

  // epoch-loss-residual
  if (ctx.loss != nullptr) {
    const double residual = ctx.loss->invariant_error_w();
    if (!(residual <= 1e-6)) {
      fail("epoch-loss-residual",
           "loss-ledger residual = " + std::to_string(residual) + " W", t);
    }
    ++checks_;
  }

  // epoch-record-finite
  const double values[] = {r.predicted_renewable.value(),
                           r.actual_renewable.value(),
                           r.budget.value(),
                           r.throughput,
                           r.battery_discharge.value(),
                           r.battery_charge.value(),
                           r.grid_power.value(),
                           r.shortfall.value()};
  static constexpr const char* kNames[] = {
      "predicted_renewable", "actual_renewable", "budget", "throughput",
      "battery_discharge",   "battery_charge",   "grid_power", "shortfall"};
  for (std::size_t i = 0; i < std::size(values); ++i) {
    // predicted_renewable is a forecast and may legitimately be clamped to
    // 0 elsewhere; everything recorded here must be finite and, except for
    // the forecast, non-negative.
    const bool sign_ok = i == 0 || values[i] >= -kWattTol;
    if (!std::isfinite(values[i]) || !sign_ok) {
      std::ostringstream msg;
      msg << kNames[i] << " = " << values[i];
      fail("epoch-record-finite", msg.str(), t);
    }
  }
  ++checks_;

  ++epochs_;
  substep_in_epoch_ = 0;
}

}  // namespace greenhetero::check
