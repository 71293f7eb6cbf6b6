// Shared random/reference scenario builders for the test suite.
//
// Several suites need the same two fixtures: a noise-free training database
// matching a rack's ground-truth curves, and a solar-powered RackSimulator
// parameterised by seed.  They used to be copy-pasted per test file; the
// oracle and fuzzer suites made a third and fourth copy inevitable, so they
// live here instead.  Header-only on purpose — these are thin compositions
// of library calls, and each test binary already links the library.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/database.h"
#include "core/policies.h"
#include "core/solver.h"
#include "server/combinations.h"
#include "server/rack.h"
#include "sim/rack_simulator.h"
#include "trace/load_pattern.h"
#include "trace/solar.h"

namespace greenhetero::testgen {

/// Perfect training-run database: five noise-free samples per group spanning
/// idle..peak of that group's ground-truth curve.  With this database the
/// solver's only error source is the quadratic projection itself.
inline PerfPowerDatabase perfect_database(const Rack& rack) {
  PerfPowerDatabase db;
  for (std::size_t g = 0; g < rack.group_count(); ++g) {
    const PerfCurve& curve = rack.group_curve(g);
    std::vector<ServerSample> samples;
    for (double f : {0.0, 0.25, 0.5, 0.75, 1.0}) {
      const Watts p = curve.idle_power() +
                      (curve.peak_power() - curve.idle_power()) * f;
      samples.push_back({p, curve.throughput_at(p)});
    }
    db.add_training_samples({rack.group(g).model, rack.group_workload(g)},
                            samples);
  }
  return db;
}

/// The Solver's view of a rack fitted from a perfect database — real fitted
/// curves (as opposed to synthetic coefficients) for oracle cross-checks.
inline std::vector<GroupModel> real_group_models(const Rack& rack) {
  return group_models_from_db(rack, perfect_database(rack));
}

/// Knobs for the standard solar-plant simulator the property sweeps use.
/// Defaults reproduce the plainest configuration (Uniform policy, no noise,
/// flat demand); sweeps override just the axis they vary.
struct SolarSimParams {
  PolicyKind policy = PolicyKind::kUniform;
  std::uint64_t controller_seed = 0;
  std::uint64_t solar_seed = 0;
  Watts solar_capacity{2500.0};
  GridSpec grid{};
  double profiling_noise = 0.0;
  Workload workload = Workload::kSpecJbb;
  /// When set, drive demand with a generated load trace at this seed
  /// (otherwise the rack draws its static profile).
  bool generate_demand = false;
  std::uint64_t demand_seed = 0;
  int days = 2;
  /// Install the runtime invariant checker on the simulator.
  bool check = false;
};

/// A default-rack simulator on a standard solar + battery + grid plant.
inline RackSimulator make_solar_sim(const SolarSimParams& p) {
  Rack rack{default_runtime_rack(), p.workload};
  SimConfig cfg;
  cfg.controller.policy = p.policy;
  cfg.controller.profiling_noise = p.profiling_noise;
  cfg.controller.seed = p.controller_seed;
  cfg.check = p.check;
  if (p.generate_demand) {
    cfg.demand_trace = generate_load_trace(LoadPatternModel{},
                                           rack.peak_demand(), p.days,
                                           p.demand_seed);
  }
  return RackSimulator{
      std::move(rack),
      make_standard_plant(
          generate_solar_trace(high_solar_model(p.solar_capacity), p.days,
                               p.solar_seed),
          p.grid),
      std::move(cfg)};
}

/// Mean throughput over the non-training epochs where green supply fell
/// short of demand (every source case but A) — the paper's "renewable power
/// is insufficient" analysis.
inline double mean_throughput_insufficient(const RunReport& report) {
  double sum = 0.0;
  int count = 0;
  for (const auto& e : report.epochs) {
    if (e.training) continue;
    if (e.source_case == PowerCase::kRenewableSufficient) continue;
    sum += e.throughput;
    ++count;
  }
  return count > 0 ? sum / count : 0.0;
}

}  // namespace greenhetero::testgen
