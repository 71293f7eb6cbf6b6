// Synthetic wind production traces.
//
// The paper's green datacenter draws from "on-site renewable power supplies
// such as photovoltaic (PV) and wind".  This generator produces a turbine
// power trace from a standard pipeline:
//
//  - wind speed follows a Weibull distribution (shape ~2 is typical) with
//    AR(1) temporal persistence (a Gaussian copula keeps the marginal
//    Weibull while correlating successive samples);
//  - the turbine power curve is zero below cut-in, grows with the cube of
//    the speed up to the rated speed, holds rated power to cut-out, and
//    shuts down (storm protection) beyond it.
//
// Wind complements solar: it blows at night, so a hybrid plant flattens the
// Case C battery drain the solar-only runs show.
#pragma once

#include <cstdint>

#include "trace/trace.h"
#include "util/units.h"

namespace greenhetero {

struct WindModel {
  Watts rated_power{2000.0};
  double cut_in_ms = 3.0;    ///< m/s below which the turbine produces nothing
  double rated_ms = 12.0;    ///< m/s at which rated power is reached
  double cut_out_ms = 25.0;  ///< m/s storm shutdown
  double weibull_shape = 2.0;
  double weibull_scale = 7.5;   ///< m/s; mean speed ~ scale * 0.886 for k=2
  double persistence = 0.88;    ///< AR(1) coefficient per 15-minute step
};

/// Turbine output fraction of rated power at wind speed `speed_ms`.
[[nodiscard]] double wind_power_fraction(const WindModel& model,
                                         double speed_ms);

/// Generate `days` of production at `interval` sampling; deterministic in
/// `seed`.
[[nodiscard]] PowerTrace generate_wind_trace(const WindModel& model, int days,
                                             std::uint64_t seed,
                                             Minutes interval = Minutes{15.0});

}  // namespace greenhetero
