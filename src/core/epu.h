// Effective Power Utilization (Section III-A, Equation 1).
//
//   EPU = sum(P_throughput) / sum(P_supply)
//
// P_supply is the green power (renewable + battery) the scheduler made
// available to the servers; P_throughput is the share of it the servers
// actually converted into workload throughput.  Power allocated to a server
// that cannot use it — below its minimum operating power (the server sleeps)
// or beyond its peak (it cannot draw more) — is supplied but produces no
// throughput, which is exactly the waste EPU exposes.  Values lie in [0, 1];
// 1 means every supplied green watt ran a server.
#pragma once

#include "util/units.h"

namespace greenhetero {

class EpuMeter {
 public:
  /// Record one step: `green_supply` watts offered to the servers from green
  /// sources, of which `useful_draw` watts were actually drawn by operating
  /// servers (capped at the supply).
  void record(Watts green_supply, Watts useful_draw, Minutes dt);

  /// Energy-weighted EPU over everything recorded; 0 when nothing green was
  /// supplied.
  [[nodiscard]] double epu() const;

  [[nodiscard]] WattHours supplied() const { return supplied_; }
  [[nodiscard]] WattHours useful() const { return useful_; }

  /// Instantaneous EPU of a single observation (for per-epoch reporting).
  [[nodiscard]] static double instantaneous(Watts green_supply,
                                            Watts useful_draw);

  template <class Self, class Io>
  static void fields(Self& self, Io& io) {
    io.f64(self.supplied_);
    io.f64(self.useful_);
  }

 private:
  WattHours supplied_{0.0};
  WattHours useful_{0.0};
};

}  // namespace greenhetero
