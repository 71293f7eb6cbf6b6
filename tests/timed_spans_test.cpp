// Which runs keep span wall times (Telemetry::timed, derived from
// RunConfig::keeps_wall_times).  A run keeps them when something reads
// them: the profiler, span records, a metrics file or a checkpoint
// directory.  A timed run carries gh_span_ns series; a run with none of
// those readers reads no clock in its spans and carries no gh_span_ns
// series, streamed trace or not.  The fleet derives the flag for the
// coordinator and every rack context from its own run knobs.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fleet/fleet.h"
#include "server/combinations.h"
#include "sim/rack_simulator.h"
#include "trace/solar.h"
#include "trace_file.h"

namespace greenhetero {
namespace {

using testtrace::ScratchDir;

const Minutes kHorizon{3.0 * 60.0};

RackSimulator make_rack(SimConfig cfg, std::uint64_t seed = 42) {
  Rack rack{default_runtime_rack(), Workload::kSpecJbb};
  cfg.controller.policy = PolicyKind::kGreenHetero;
  cfg.controller.seed = seed;
  GridSpec grid;
  grid.budget = Watts{800.0};
  return RackSimulator{
      std::move(rack),
      make_standard_plant(
          generate_solar_trace(high_solar_model(Watts{2500.0}), 1, seed),
          grid),
      std::move(cfg)};
}

bool has_span_series(const MetricsSnapshot& snapshot) {
  for (const telemetry::SnapshotEntry& entry : snapshot.entries) {
    if (entry.name == "gh_span_ns") return true;
  }
  return false;
}

/// A timed run's report carries the plan span's latency series (in a
/// telemetry-on build; an OFF build compiles every span away).
void expect_plan_series(const MetricsSnapshot& snapshot) {
#if GH_TELEMETRY_ENABLED
  const telemetry::SnapshotEntry* plan =
      snapshot.find("gh_span_ns", {{"span", "plan"}});
  ASSERT_NE(plan, nullptr);
  EXPECT_GT(plan->count, 0u);
#else
  EXPECT_FALSE(has_span_series(snapshot));
#endif
}

TEST(TimedSpans, RackWithMetricsFileCarriesSpanSeries) {
  const ScratchDir scratch;
  SimConfig cfg;
  cfg.metrics_out = (scratch / "metrics.json").string();
  RackSimulator sim = make_rack(cfg);
  EXPECT_TRUE(sim.telemetry().timed());
  sim.pretrain();
  const RunReport report = sim.run(kHorizon);
  expect_plan_series(report.metrics);
#if GH_TELEMETRY_ENABLED
  EXPECT_NE(testtrace::read_file(scratch / "metrics.json").find("gh_span_ns"),
            std::string::npos);
#endif
}

TEST(TimedSpans, RackWithoutReaderCarriesNoSpanSeries) {
  // A streamed trace reads events, not span wall times.
  const ScratchDir scratch;
  SimConfig cfg;
  cfg.trace_stream = telemetry::StreamSinkConfig{scratch / "trace.jsonl"};
  RackSimulator sim = make_rack(cfg);
  EXPECT_TRUE(sim.telemetry().traced());
  EXPECT_FALSE(sim.telemetry().timed());
  sim.pretrain();
  const RunReport report = sim.run(kHorizon);
  EXPECT_FALSE(has_span_series(report.metrics));
  // The rest of the registry is fed as before.
  EXPECT_NE(report.metrics.find("gh_substeps_total"), nullptr);
}

TEST(TimedSpans, ProfileKeepsWallTimes) {
  SimConfig cfg;
  cfg.telemetry.profile = true;
  RackSimulator sim = make_rack(cfg);
  EXPECT_TRUE(sim.telemetry().timed());
  sim.pretrain();
  const RunReport report = sim.run(kHorizon);
  expect_plan_series(report.metrics);
#if GH_TELEMETRY_ENABLED
  EXPECT_EQ(sim.telemetry().profiler().report().count("epoch/plan"), 1u);
#endif
}

TEST(TimedSpans, SpanRecordsKeepWallTimes) {
  SimConfig cfg;
  cfg.telemetry.spans = true;
  RackSimulator sim = make_rack(cfg);
  EXPECT_TRUE(sim.telemetry().timed());
  sim.pretrain();
  const RunReport report = sim.run(kHorizon);
  expect_plan_series(report.metrics);
#if GH_TELEMETRY_ENABLED
  EXPECT_FALSE(sim.telemetry().spans().records().empty());
#endif
}

TEST(TimedSpans, CheckpointDirKeepsWallTimes) {
  const ScratchDir scratch;
  SimConfig cfg;
  cfg.checkpoint_dir = (scratch / "ckpt").string();
  cfg.checkpoint_every = 4;
  RackSimulator sim = make_rack(cfg);
  EXPECT_TRUE(sim.telemetry().timed());
  sim.pretrain();
  const RunReport report = sim.run(kHorizon);
  expect_plan_series(report.metrics);
}

TEST(TimedSpans, FleetWithMetricsFileTimesEveryContext) {
  const ScratchDir scratch;
  std::vector<RackSimulator> racks;
  for (std::uint64_t i = 0; i < 3; ++i) racks.push_back(make_rack({}, 50 + i));
  FleetConfig cfg;
  cfg.total_grid_budget = Watts{2000.0};
  cfg.threads = 2;
  cfg.metrics_out = (scratch / "metrics.json").string();
  Fleet fleet{std::move(racks), cfg};
  EXPECT_TRUE(fleet.telemetry().timed());
  fleet.pretrain();
  (void)fleet.run(kHorizon);
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    SCOPED_TRACE("rack " + std::to_string(i));
    EXPECT_TRUE(fleet.rack(i).telemetry().timed());
    expect_plan_series(fleet.rack(i).telemetry().metrics().snapshot());
  }
#if GH_TELEMETRY_ENABLED
  EXPECT_NE(testtrace::read_file(scratch / "metrics.json").find("gh_span_ns"),
            std::string::npos);
#endif
}

TEST(TimedSpans, FleetWithoutReaderTimesNoContext) {
  // The fleet's knobs decide, not the ones a rack was built with: a rack's
  // own metrics file is never written once the rack runs in a fleet.
  const ScratchDir scratch;
  std::vector<RackSimulator> racks;
  for (std::uint64_t i = 0; i < 3; ++i) {
    SimConfig own;
    own.metrics_out = (scratch / ("rack" + std::to_string(i))).string();
    racks.push_back(make_rack(own, 50 + i));
    EXPECT_TRUE(racks.back().telemetry().timed());
  }
  FleetConfig cfg;
  cfg.total_grid_budget = Watts{2000.0};
  cfg.threads = 2;
  Fleet fleet{std::move(racks), cfg};
  EXPECT_FALSE(fleet.telemetry().timed());
  fleet.pretrain();
  const FleetReport report = fleet.run(kHorizon);
  EXPECT_FALSE(has_span_series(report.metrics));
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    SCOPED_TRACE("rack " + std::to_string(i));
    EXPECT_FALSE(fleet.rack(i).telemetry().timed());
    const MetricsSnapshot snapshot =
        fleet.rack(i).telemetry().metrics().snapshot();
    EXPECT_FALSE(has_span_series(snapshot));
    EXPECT_NE(snapshot.find("gh_substeps_total"), nullptr);
  }
}

}  // namespace
}  // namespace greenhetero
