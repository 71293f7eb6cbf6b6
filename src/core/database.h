// Performance-power database (Section IV-B.2, Figure 7).
//
// For every (server configuration, workload type) the database stores the
// profiling samples collected so far and a quadratic projection
// Perf = l*P^2 + m*P + n fitted over them.  Records are created by a
// training run (10 minutes under ample power, one sample every 2 minutes at
// varied frequency levels) and — for the full GreenHetero policy — refitted
// every epoch with the runtime feedback the Monitor reports (Algorithm 1,
// lines 7-10).  Sample history is bounded; the training-run seed samples are
// pinned so runtime points clustered at one operating power cannot swing the
// extrapolation wildly.
#pragma once

#include <compare>
#include <cstddef>
#include <map>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/monitor.h"
#include "server/server_spec.h"
#include "util/polyfit.h"
#include "util/units.h"
#include "workload/workload_spec.h"

namespace greenhetero {

class DatabaseError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct ProfileKey {
  ServerModel model;
  Workload workload;
  friend auto operator<=>(const ProfileKey&, const ProfileKey&) = default;
};

struct ProfileRecord {
  std::vector<double> powers;  ///< watts, training samples first
  std::vector<double> perfs;   ///< matching throughputs
  std::size_t pinned = 0;      ///< leading samples never evicted (training run)
  Quadratic fit;               ///< Perf = a*P^2 + b*P + c over the samples
  Watts min_power{0.0};        ///< lowest observed operating power
  Watts max_power{0.0};        ///< highest observed operating power
  int refit_count = 0;

  /// The paper's clamped projection (Section IV-B.3): zero below the
  /// operating range, flat above it, the fitted quadratic within.
  [[nodiscard]] double projected_perf(Watts p) const;
  /// Peak energy efficiency (throughput per watt at max observed power) —
  /// the ranking key of the GreenHetero-p policy.
  [[nodiscard]] double peak_efficiency() const;
};

class PerfPowerDatabase {
 public:
  /// Max samples kept per record (training samples are always retained).
  explicit PerfPowerDatabase(std::size_t max_samples_per_record = 64);

  [[nodiscard]] bool contains(ProfileKey key) const;
  [[nodiscard]] std::size_t size() const { return records_.size(); }

  /// Throws DatabaseError when the key is unknown (Algorithm 1 line 3 checks
  /// contains() first and triggers a training run instead).
  [[nodiscard]] const ProfileRecord& record(ProfileKey key) const;

  /// Seed a record with training-run samples (pinned).  Needs >= 3 samples
  /// at >= 3 distinct powers to fit the quadratic.
  void add_training_samples(ProfileKey key,
                            std::span<const ServerSample> samples);

  /// Append runtime feedback and refit (Algorithm 1 lines 8-10).  Unknown
  /// keys throw — feedback without a training run is a sequencing bug.
  ///
  /// Feedback arrives at whatever operating point the Enforcer chose, so
  /// successive epochs cluster around one power; a noisy pile-up there would
  /// tilt the quadratic.  Samples landing within ~1% of the observed range
  /// of an existing runtime sample are therefore merged into it with an
  /// exponential moving average (the fit converges at revisited operating
  /// points instead of wobbling); genuinely new powers are appended.
  void add_runtime_sample(ProfileKey key, const ServerSample& sample);

  /// Binary checkpoint of every record, fit coefficients included (resume
  /// must restore the exact fit so the next allocation is bit-identical):
  /// the database survives controller restarts this way.
  template <class Self, class Io>
  static void fields(Self& self, Io& io);

 private:
  void refit(ProfileRecord& record) const;

  std::size_t max_samples_;
  std::map<ProfileKey, ProfileRecord> records_;
};

}  // namespace greenhetero
