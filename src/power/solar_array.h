// On-site renewable generation as seen by one rack's PDU.
//
// Wraps a production trace and meters what the rack actually takes versus
// what is curtailed (produced but unused — solar is use-it-or-lose-it once
// the battery is full).
#pragma once

#include "trace/trace.h"
#include "util/units.h"

namespace greenhetero {

class SolarArray {
 public:
  explicit SolarArray(PowerTrace production);

  /// Power the array produces at elapsed time `t` from simulation start.
  [[nodiscard]] Watts available(Minutes t) const;

  /// Fault injection: while in outage (inverter trip, feed disconnect) the
  /// array produces nothing, regardless of the trace.
  void set_outage(bool outage) { outage_ = outage; }
  [[nodiscard]] bool in_outage() const { return outage_; }

  /// Record that `used` of the `available(t)` watts were consumed (load +
  /// battery charging) over a step of `dt`; the remainder is curtailed.
  /// Throws TraceError if `used` exceeds availability.
  void account_step(Minutes t, Watts used, Minutes dt);

  [[nodiscard]] WattHours total_produced() const { return produced_; }
  [[nodiscard]] WattHours total_used() const { return used_; }
  [[nodiscard]] WattHours total_curtailed() const { return produced_ - used_; }

  [[nodiscard]] const PowerTrace& trace() const { return trace_; }

  /// Checkpoint the metered totals and fault flag (the production trace is
  /// regenerated from configuration on resume).
  template <class Self, class Io>
  static void fields(Self& self, Io& io) {
    io.boolean(self.outage_);
    io.f64(self.produced_);
    io.f64(self.used_);
  }

 private:
  PowerTrace trace_;
  bool outage_ = false;
  WattHours produced_{0.0};
  WattHours used_{0.0};
};

}  // namespace greenhetero
