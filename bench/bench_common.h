// The reproduction matrix behind `reproduce`: every paper figure, table and
// ablation is a named list of cells over two parameterised runners (a rack
// Scenario, and a fixed-budget policy sweep), rendered as exact JSON for
// bench/figures/ (gated by Figures.MatchCommitted) and as a stdout table.
// Also the BENCH_<name>.json report of the perf-gated benches.
#pragma once

#include <chrono>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/policies.h"
#include "server/combinations.h"
#include "sim/rack_simulator.h"
#include "telemetry/tracing.h"

namespace greenhetero::bench {

/// One rack run.  The defaults are the paper's runtime setup (Figures 8/11):
/// 5x E5-2620 + 5x i5-4460 on SPECjbb under the diurnal load pattern, a
/// 2.5 kW High solar trace, the 12 kWh lead-acid pack and a 1 kW grid cap.
struct Scenario {
  PolicyKind policy = PolicyKind::kGreenHetero;
  std::vector<ServerGroup> groups = default_runtime_rack();
  Workload workload = Workload::kSpecJbb;
  double hours = 24.0;
  std::uint64_t seed = 42;  ///< controller RNG
  double noise = 0.03;      ///< profiling noise
  /// The training run and its sampling scale with it (2/3, 2/15 of it).
  double epoch_min = 15.0;
  bool rapl = false;
  double rationing_min = 0.0;
  std::vector<WorkloadSwitch> schedule{};
  bool pretrain = true;  ///< start from a trained database (steady state)
  /// > 0: a constant green budget with no battery, grid or load pattern;
  /// the fields below are then unused.
  double fixed_budget_w = 0.0;
  bool low_trace = false;
  double solar_w = 2500.0;
  std::uint64_t solar_seed = 3;
  BatterySpec battery = paper_battery_spec();
  double grid_w = 1000.0;
  double tou = 1.0;          ///< evening (17-21 h) grid tariff multiplier
  /// Seed of the diurnal load pattern that caps demand; none: no cap.
  std::optional<std::uint64_t> load_seed = 5;
};

[[nodiscard]] RackSimulator make_sim(const Scenario& s);
/// make_sim, pretrain (unless disabled) and run for s.hours.
[[nodiscard]] RunReport run(const Scenario& s);

/// One policy's steady-state rack throughput and EPU, each the mean of its
/// per-budget values over a sweep.
struct PolicyResult {
  PolicyKind policy;
  double throughput = 0.0;
  double epu = 0.0;
};

/// Runs every policy on `base` at each constant green budget for 8 hours
/// (long enough for the database updates to converge).
[[nodiscard]] std::vector<PolicyResult> sweep(
    Scenario base, const std::vector<double>& budgets_w,
    const std::vector<PolicyKind>& policies = {std::begin(kAllPolicies),
                                               std::end(kAllPolicies)});

/// The paper's plant pins the per-server share: 55-85 W per server.
[[nodiscard]] std::vector<double> share_budgets(
    const std::vector<ServerGroup>& groups);
/// Fractions of the rack's full-tilt demand (by default the standard
/// insufficiency levels, 40-70%).
[[nodiscard]] std::vector<double> scarcity_budgets(
    const std::vector<ServerGroup>& groups, Workload workload,
    std::vector<double> fractions = {0.40, 0.50, 0.55, 0.60, 0.70});

/// The Figure 8/11 day (noise 0.02, seed 11), run once per process.
[[nodiscard]] const RunReport& paper_day(PolicyKind policy,
                                         bool low_trace = false);
/// Figures 9 and 10: the five policies on each Table I CPU workload over
/// the per-server share sweep, run once per process.
[[nodiscard]] const std::map<Workload, std::vector<PolicyResult>>&
workload_study();

/// The declared figure names, in output order.
[[nodiscard]] std::vector<std::string_view> figure_names();

struct Rendered {
  std::string json;  ///< doubles in shortest round-trip form, a row a line
  std::string text;  ///< the stdout view of the same values
};

/// Runs one figure's cells; std::invalid_argument for an unknown name.
[[nodiscard]] Rendered render(std::string_view name);

/// $GH_BENCH_OUT_DIR when set, else the current directory.
[[nodiscard]] std::string out_dir();

/// Machine-readable bench output: collects key figures during a bench run
/// and writes them as `BENCH_<name>.json` (one object; `wall_seconds` is
/// stamped automatically at write time) under out_dir().
class BenchReport {
 public:
  explicit BenchReport(std::string name);

  void set(const std::string& key, double value);

  /// Path the report will be (or was) written to.
  [[nodiscard]] std::string path() const;
  void write() const;

 private:
  std::string name_;
  std::vector<std::pair<std::string, double>> fields_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace greenhetero::bench
