// The epoch driver's stop path, for both of its runners.
//
// A stop requested before the run must end it after the first epoch with
// `interrupted` set, still write a checkpoint (even though the cadence
// would not) and the metrics file.  Clearing the flag and resuming from
// that checkpoint must then finish with a streamed trace, rollups and
// report byte-identical to an uninterrupted run, and metrics equal outside
// the wall-clock series.  Runs for a standalone RackSimulator and for a
// Fleet at 1 and 4 worker threads.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "fleet/fleet.h"
#include "server/combinations.h"
#include "sim/rack_simulator.h"
#include "trace/solar.h"
#include "trace_file.h"

namespace greenhetero {
namespace {

namespace fs = std::filesystem;

constexpr Minutes kDuration{12.0 * 60.0};

using testtrace::read_file;
using testtrace::ScratchDir;

/// Drop the wall-clock-dependent series (latency histograms, the sink's
/// backpressure gauges, the throughput gauge); the rest must match exactly.
std::string filter_wall_clock(const std::string& metrics) {
  std::istringstream in(metrics);
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("_ns") != std::string::npos ||
        line.find("gh_trace_stalls") != std::string::npos ||
        line.find("gh_trace_queue_depth") != std::string::npos ||
        line.find("gh_trace_queue_residency") != std::string::npos ||
        line.find("gh_rack_epochs_per_sec") != std::string::npos) {
      continue;
    }
    out += line + '\n';
  }
  return out;
}

std::string describe(const RunReport& report) {
  char totals[160];
  std::snprintf(totals, sizeof(totals), "%.17g %.17g %.17g %.17g %.17g\n",
                report.total_work, report.overall_epu, report.battery_cycles,
                report.grid_cost, report.grid_energy.value());
  return report.to_csv().to_string() + totals;
}

/// Everything one run leaves behind.
struct Outputs {
  bool interrupted = false;
  std::size_t epochs = 0;
  std::string trace;
  std::string rollups;
  std::string report;
  std::string metrics;
};

/// Streamed trace, metrics file and checkpoints under `dir`; the cadence is
/// far beyond the run, so only a stop request writes a snapshot.
void configure(RunConfig& cfg, const fs::path& dir, bool resume,
               const std::atomic<bool>& stop) {
  telemetry::StreamSinkConfig sink{dir / "trace.jsonl"};
  sink.resume = resume;
  cfg.trace_stream = sink;
  cfg.metrics_out = (dir / "metrics.prom").string();
  cfg.checkpoint_dir = (dir / "ckpt").string();
  cfg.checkpoint_every = 1000;
  cfg.stop_flag = &stop;
}

RackSimulator make_rack(std::uint64_t seed, SimConfig cfg) {
  cfg.controller.policy = PolicyKind::kGreenHetero;
  cfg.controller.seed = seed;
  cfg.telemetry.rollup_window_min = 60.0;
  GridSpec grid;
  grid.budget = Watts{500.0};
  return RackSimulator{
      Rack{default_runtime_rack(), Workload::kSpecJbb},
      make_standard_plant(
          generate_solar_trace(high_solar_model(Watts{2000.0}), 2, seed),
          grid),
      std::move(cfg)};
}

/// threads == 0 runs a standalone rack, otherwise a 3-rack fleet on that
/// many worker threads.  `snapshot` resumes before running.
Outputs run(std::size_t threads, const fs::path& dir,
            const std::atomic<bool>& stop,
            const std::optional<checkpoint::Snapshot>& snapshot) {
  fs::create_directories(dir);
  Outputs out;
  std::ostringstream rollups;
  if (threads == 0) {
    SimConfig cfg;
    configure(cfg, dir, snapshot.has_value(), stop);
    RackSimulator sim = make_rack(7, std::move(cfg));
    sim.pretrain();
    if (snapshot) sim.load_checkpoint(*snapshot);
    const RunReport report = sim.run(kDuration);
    sim.stream()->close();
    sim.telemetry().rollup().write_jsonl(rollups, sim.telemetry().rack_id());
    out.interrupted = report.interrupted;
    out.epochs = report.epochs.size();
    out.report = describe(report);
  } else {
    std::vector<RackSimulator> racks;
    for (std::uint64_t i = 0; i < 3; ++i) {
      racks.push_back(make_rack(40 + i, {}));
    }
    FleetConfig cfg;
    cfg.total_grid_budget = Watts{1200.0};
    cfg.mode = GridShareMode::kDemandProportional;
    cfg.threads = threads;
    configure(cfg, dir, snapshot.has_value(), stop);
    Fleet fleet{std::move(racks), cfg};
    fleet.pretrain();
    if (snapshot) fleet.load_checkpoint(*snapshot);
    const FleetReport report = fleet.run(kDuration);
    fleet.stream()->close();
    fleet.write_rollup_jsonl(rollups);
    out.interrupted = report.interrupted;
    out.epochs = report.racks.front().epochs.size();
    for (const RunReport& rack : report.racks) {
      EXPECT_EQ(rack.interrupted, report.interrupted);
      out.report += describe(rack);
    }
  }
  out.trace = read_file(dir / "trace.jsonl");
  out.rollups = rollups.str();
  out.metrics = filter_wall_clock(read_file(dir / "metrics.prom"));
  return out;
}

class StopFlag : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StopFlag, StopsAfterFirstEpochThenResumesByteIdentically) {
  const std::size_t threads = GetParam();
  ScratchDir scratch;
  std::atomic<bool> stop{false};
  const Outputs reference = run(threads, scratch / "ref", stop, std::nullopt);
  ASSERT_FALSE(reference.interrupted);
  ASSERT_EQ(reference.epochs, 48u);

  const fs::path dir = scratch / "stopped";
  stop = true;
  const Outputs stopped = run(threads, dir, stop, std::nullopt);
  EXPECT_TRUE(stopped.interrupted);
  EXPECT_EQ(stopped.epochs, 1u);
  EXPECT_FALSE(stopped.metrics.empty());
  const std::vector<fs::path> snapshots =
      checkpoint::list_snapshots(dir / "ckpt");
  ASSERT_EQ(snapshots.size(), 1u);
  EXPECT_EQ(checkpoint::load_snapshot(snapshots.front()).epoch_index, 1u);

  stop = false;
  const Outputs resumed =
      run(threads, dir, stop, checkpoint::load_latest(dir / "ckpt"));
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.epochs, reference.epochs);
  EXPECT_EQ(resumed.trace, reference.trace);
  EXPECT_EQ(resumed.rollups, reference.rollups);
  EXPECT_EQ(resumed.report, reference.report);
  EXPECT_EQ(resumed.metrics, reference.metrics);
}

INSTANTIATE_TEST_SUITE_P(
    Runners, StopFlag, ::testing::Values(0, 1, 4),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return info.param == 0 ? std::string("rack")
                             : "fleet_" + std::to_string(info.param) + "t";
    });

}  // namespace
}  // namespace greenhetero
