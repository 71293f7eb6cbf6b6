// Determinism contract of the parallel fleet path: the same fleet stepped
// with 1, 2 or 8 worker threads must produce byte-identical reports, merged
// traces and metric snapshots (wall-clock latency series and the streaming
// sink's queue gauges excluded — those are non-deterministic even
// sequentially).  The TSan CI job runs this same
// binary to prove the parallel path is also race-free.
#include "fleet/fleet.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "faults/fault_plan.h"
#include "server/combinations.h"
#include "trace/solar.h"
#include "trace_file.h"

namespace greenhetero {
namespace {

RackSimulator make_rack_sim(Watts solar_capacity, std::uint64_t seed,
                            const FaultPlan& faults) {
  Rack rack{default_runtime_rack(), Workload::kSpecJbb};
  SimConfig cfg;
  cfg.controller.policy = PolicyKind::kGreenHetero;
  cfg.controller.seed = seed;
  cfg.controller.epoch = Minutes{15.0};
  // Run the determinism sweeps under the invariant checker: it must neither
  // perturb the byte-identity contract nor trip on any thread count.
  cfg.check = true;
  cfg.faults = faults;
  GridSpec grid;
  grid.budget = Watts{500.0};  // overwritten by the fleet each epoch
  PowerTrace trace =
      generate_solar_trace(high_solar_model(solar_capacity), 2, seed);
  return RackSimulator{std::move(rack),
                       make_standard_plant(std::move(trace), grid),
                       std::move(cfg)};
}

struct RunArtifacts {
  FleetReport report;
  std::string trace;    ///< merged JSONL trace
  std::string metrics;  ///< fleet-wide snapshot, wall-clock series removed
};

RunArtifacts run_fleet(std::size_t threads, const FaultPlan& faults = {}) {
  // Deliberately asymmetric solar provisioning so the proportional planner
  // makes non-trivial decisions that depend on every rack's state.
  const double capacities[] = {300.0, 1200.0, 2400.0, 4800.0};
  std::vector<RackSimulator> racks;
  for (std::size_t i = 0; i < 4; ++i) {
    racks.push_back(make_rack_sim(Watts{capacities[i]},
                                  50 + static_cast<std::uint64_t>(i), faults));
  }
  FleetConfig cfg;
  cfg.total_grid_budget = Watts{2000.0};
  cfg.mode = GridShareMode::kDemandProportional;
  cfg.check = true;  // exercises divide_grid_budget's over-commit invariant
  cfg.threads = threads;
  const testtrace::ScratchDir scratch;
  cfg.trace_stream = telemetry::StreamSinkConfig{scratch / "trace.jsonl"};
  Fleet fleet{std::move(racks), cfg};
  EXPECT_EQ(fleet.threads(), threads);
  fleet.pretrain();

  RunArtifacts artifacts;
  artifacts.report = fleet.run(Minutes{6.0 * 60.0});
  artifacts.trace = testtrace::streamed_trace(fleet);
  artifacts.metrics =
      testtrace::deterministic_prometheus(fleet.metrics_snapshot());
  return artifacts;
}

void expect_identical_reports(const FleetReport& a, const FleetReport& b) {
  // Exact equality on purpose: the parallel path must be byte-identical to
  // the sequential one, not merely close.
  EXPECT_EQ(a.total_work, b.total_work);
  EXPECT_EQ(a.grid_energy.value(), b.grid_energy.value());
  EXPECT_EQ(a.grid_cost, b.grid_cost);
  EXPECT_EQ(a.peak_grid_allocation.value(), b.peak_grid_allocation.value());
  ASSERT_EQ(a.racks.size(), b.racks.size());
  for (std::size_t i = 0; i < a.racks.size(); ++i) {
    const RunReport& ra = a.racks[i];
    const RunReport& rb = b.racks[i];
    EXPECT_EQ(ra.total_work, rb.total_work) << "rack " << i;
    EXPECT_EQ(ra.overall_epu, rb.overall_epu) << "rack " << i;
    EXPECT_EQ(ra.battery_cycles, rb.battery_cycles) << "rack " << i;
    EXPECT_EQ(ra.grid_cost, rb.grid_cost) << "rack " << i;
    EXPECT_EQ(ra.grid_energy.value(), rb.grid_energy.value()) << "rack " << i;
    ASSERT_EQ(ra.epochs.size(), rb.epochs.size()) << "rack " << i;
    for (std::size_t e = 0; e < ra.epochs.size(); ++e) {
      const EpochRecord& ea = ra.epochs[e];
      const EpochRecord& eb = rb.epochs[e];
      EXPECT_EQ(ea.start.value(), eb.start.value());
      EXPECT_EQ(ea.training, eb.training);
      EXPECT_EQ(ea.source_case, eb.source_case);
      EXPECT_EQ(ea.budget.value(), eb.budget.value());
      EXPECT_EQ(ea.ratios, eb.ratios);
      EXPECT_EQ(ea.throughput, eb.throughput);
      EXPECT_EQ(ea.epu, eb.epu);
      EXPECT_EQ(ea.battery_soc, eb.battery_soc);
      EXPECT_EQ(ea.grid_power.value(), eb.grid_power.value());
      EXPECT_EQ(ea.shortfall.value(), eb.shortfall.value());
    }
  }
}

TEST(FleetParallel, ByteIdenticalAcrossThreadCounts) {
  const RunArtifacts sequential = run_fleet(1);
  ASSERT_GT(sequential.report.total_work, 0.0);
  for (const std::size_t threads : {2u, 8u}) {
    const RunArtifacts parallel = run_fleet(threads);
    SCOPED_TRACE("threads=" + std::to_string(threads));
    expect_identical_reports(sequential.report, parallel.report);
    EXPECT_EQ(sequential.trace, parallel.trace);
    EXPECT_EQ(sequential.metrics, parallel.metrics);
  }
}

TEST(FleetParallel, ChaosFaultsStayDeterministic) {
  // Randomized fault plans stress every recovery path; faults are replayed
  // per rack from the plan, so the parallel run must still match exactly.
  for (const std::uint64_t seed : {23u, 47u}) {
    const FaultPlan plan = make_random_plan(seed, Minutes{6.0 * 60.0},
                                            default_runtime_rack().size());
    const RunArtifacts sequential = run_fleet(1, plan);
    const RunArtifacts parallel = run_fleet(4, plan);
    SCOPED_TRACE("fault seed " + std::to_string(seed));
    expect_identical_reports(sequential.report, parallel.report);
    EXPECT_EQ(sequential.trace, parallel.trace);
    EXPECT_EQ(sequential.metrics, parallel.metrics);
  }
}

TEST(FleetParallel, ZeroThreadsResolvesToHardwareConcurrency) {
  std::vector<RackSimulator> racks;
  racks.push_back(make_rack_sim(Watts{2000.0}, 9, {}));
  FleetConfig cfg;
  cfg.total_grid_budget = Watts{1000.0};
  cfg.threads = 0;
  const Fleet fleet{std::move(racks), cfg};
  EXPECT_EQ(fleet.threads(), util::ThreadPool::hardware_threads());
}

}  // namespace
}  // namespace greenhetero
