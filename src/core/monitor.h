// Monitor module (Figure 4): the controller's window onto its servers.
//
// In the paper the Monitor reads renewable generation, battery state and
// per-server (power, performance) meters.  Here the simulator hands the
// plant readings to the controller as epoch feedback, and the Monitor
// samples the servers: the *measurement noise* of real profiling (the
// reason the database's limited training-run fits are imperfect and online
// updating pays off) is injected exactly here, so everything downstream of
// the Monitor sees the same imperfect world the real controller would.
#pragma once

#include <cstddef>

#include "server/rack.h"
#include "util/rng.h"
#include "util/units.h"

namespace greenhetero {

/// One (power, performance) observation of a single server.
struct ServerSample {
  Watts power{0.0};
  double throughput = 0.0;
};

class Monitor {
 public:
  /// `noise_fraction` is the relative std-dev of multiplicative gaussian
  /// measurement noise (0 = perfect meters).
  Monitor(double noise_fraction, Rng rng);

  [[nodiscard]] double noise_fraction() const { return noise_fraction_; }

  /// Fault injection: with this probability a server sample comes back as
  /// a dropped reading (zero power, zero throughput) — a flaky meter or a
  /// lost telemetry packet.  Downstream code treats zero-power samples as
  /// absent, so dropped readings degrade information, never correctness.
  void set_dropout_rate(double rate);
  [[nodiscard]] double dropout_rate() const { return dropout_rate_; }

  /// Observe one representative server of rack group `group` (the members
  /// are identical and share power equally, so one meter suffices).
  [[nodiscard]] ServerSample sample_group(const Rack& rack,
                                          std::size_t group);

  /// Checkpoint the noise stream position and the fault-mutable dropout
  /// rate (noise_fraction comes from configuration).
  template <class Self, class Io>
  static void fields(Self& self, Io& io) {
    io.f64(self.dropout_rate_);
    io.object(self.rng_);
  }

 private:
  [[nodiscard]] double noisy(double value);

  double noise_fraction_;
  double dropout_rate_ = 0.0;
  Rng rng_;
};

}  // namespace greenhetero
