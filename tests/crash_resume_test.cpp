// Crash-equivalent resume: the kill-at-every-epoch matrix.
//
// One week of a 4-rack fleet (60-minute epochs, chaos fault plan, merged
// streaming sink, a checkpoint every epoch with pruning disabled) is run
// uninterrupted as the reference.  Then, for EVERY epoch e, a "crash" at
// that barrier is reconstructed: the final streamed file stands in for the
// arbitrary crash-time file (load_checkpoint truncates it back to the
// snapshot's durable watermark), a fresh fleet restores snapshot e and runs
// the remainder.  Trace, rollups and the final report must come out
// byte-identical to the uninterrupted run — at 1 worker thread and at 4.
//
// A standalone-rack variant proves the same contract for `simulate`
// resumes, including a resume landing after the final epoch (only the
// finalization tail re-runs).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "faults/fault_plan.h"
#include "fleet/fleet.h"
#include "server/combinations.h"
#include "sim/rack_simulator.h"
#include "telemetry/stream_sink.h"
#include "trace/solar.h"
#include "trace_file.h"

namespace greenhetero {
namespace {

namespace fs = std::filesystem;

constexpr double kWeekMinutes = 7.0 * 24.0 * 60.0;

using testtrace::read_file;
using testtrace::ScratchDir;

void write_file(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// A deliberately small rack (2 groups x 2 servers) so the quadratic
/// kill-at-every-epoch sweep stays fast; everything else exercises the full
/// pipeline (GreenHetero policy, health tracking, chaos faults, rollups).
RackSimulator make_rack(std::uint64_t seed, const FaultPlan& faults) {
  Rack rack{{{ServerModel::kXeonE5_2620, 2}, {ServerModel::kCoreI5_4460, 2}},
            Workload::kSpecJbb};
  SimConfig cfg;
  cfg.check = true;
  cfg.faults = faults;
  cfg.substep = Minutes{15.0};
  cfg.controller.policy = PolicyKind::kGreenHetero;
  cfg.controller.seed = seed;
  cfg.controller.epoch = Minutes{60.0};
  cfg.telemetry.rollup_window_min = 240.0;
  GridSpec grid;
  grid.budget = Watts{400.0};
  PowerTrace trace = generate_solar_trace(
      high_solar_model(Watts{900.0 + 300.0 * static_cast<double>(seed % 4)}),
      8, seed);
  return RackSimulator{std::move(rack),
                      make_standard_plant(std::move(trace), grid),
                      std::move(cfg)};
}

Fleet make_fleet(const FaultPlan& faults, std::size_t threads,
                 const fs::path& stream_path, bool resume,
                 const std::string& checkpoint_dir, std::size_t shards = 1,
                 std::size_t rack_count = 4) {
  std::vector<RackSimulator> racks;
  for (std::uint64_t i = 0; i < rack_count; ++i) {
    racks.push_back(make_rack(60 + i, faults));
  }
  FleetConfig cfg;
  cfg.total_grid_budget = Watts{250.0 * static_cast<double>(rack_count)};
  cfg.mode = GridShareMode::kDemandProportional;
  cfg.check = true;
  cfg.threads = threads;
  cfg.shards = shards;
  telemetry::StreamSinkConfig sink{stream_path, 64};
  sink.resume = resume;
  cfg.trace_stream = sink;
  cfg.checkpoint_dir = checkpoint_dir;
  cfg.checkpoint_every = 1;
  cfg.checkpoint_keep = 0;  // retain every snapshot for the sweep
  Fleet fleet{std::move(racks), cfg};
  fleet.pretrain();
  return fleet;
}

struct FleetArtifacts {
  std::string trace;    ///< streamed file bytes after close()
  std::string rollups;  ///< write_rollup_jsonl
  double total_work = 0.0;
  double grid_energy_wh = 0.0;
  double grid_cost = 0.0;
  double peak_grid_w = 0.0;
  std::vector<std::size_t> rack_epochs;
};

FleetArtifacts collect(Fleet& fleet, const FleetReport& report,
                       const fs::path& stream_path) {
  FleetArtifacts artifacts;
  fleet.stream()->close();
  artifacts.trace = read_file(stream_path);
  std::ostringstream rollups;
  fleet.write_rollup_jsonl(rollups);
  artifacts.rollups = rollups.str();
  artifacts.total_work = report.total_work;
  artifacts.grid_energy_wh = report.grid_energy.value();
  artifacts.grid_cost = report.grid_cost;
  artifacts.peak_grid_w = report.peak_grid_allocation.value();
  for (const RunReport& rack : report.racks) {
    artifacts.rack_epochs.push_back(rack.epochs.size());
  }
  return artifacts;
}

void expect_identical(const FleetArtifacts& got, const FleetArtifacts& want) {
  EXPECT_EQ(got.trace, want.trace);
  EXPECT_EQ(got.rollups, want.rollups);
  EXPECT_EQ(got.total_work, want.total_work);
  EXPECT_EQ(got.grid_energy_wh, want.grid_energy_wh);
  EXPECT_EQ(got.grid_cost, want.grid_cost);
  EXPECT_EQ(got.peak_grid_w, want.peak_grid_w);
  EXPECT_EQ(got.rack_epochs, want.rack_epochs);
}

TEST(CrashResume, KillAtEveryEpochMatrix) {
  ScratchDir scratch;
  const FaultPlan chaos = make_random_plan(31, Minutes{kWeekMinutes}, 2);
  ASSERT_GT(chaos.size(), 0u);

  // Reference: uninterrupted, one snapshot per epoch, none pruned.
  const fs::path ref_path = scratch / "ref.jsonl";
  const fs::path ckpt_dir = scratch / "ckpt";
  FleetArtifacts reference;
  {
    Fleet fleet = make_fleet(chaos, 1, ref_path, false, ckpt_dir.string());
    const FleetReport report = fleet.run(Minutes{kWeekMinutes});
    EXPECT_FALSE(report.interrupted);
    reference = collect(fleet, report, ref_path);
  }
  const std::vector<fs::path> snapshots = checkpoint::list_snapshots(ckpt_dir);
  ASSERT_EQ(snapshots.size(), 7u * 24u);  // every 60-min epoch of the week

  // The crash side: for every epoch, restore that snapshot against a copy
  // of the FINAL streamed file — load_checkpoint's watermark truncation
  // must reconstruct the crash-time prefix from it — and run the rest.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    for (const fs::path& snapshot_path : snapshots) {
      const checkpoint::Snapshot snapshot =
          checkpoint::load_snapshot(snapshot_path);
      SCOPED_TRACE("epoch=" + std::to_string(snapshot.epoch_index));
      const fs::path resume_path = scratch / "resume.jsonl";
      write_file(resume_path, reference.trace);
      Fleet fleet = make_fleet(chaos, threads, resume_path, true, "");
      fleet.load_checkpoint(snapshot);
      const FleetReport report = fleet.run(Minutes{kWeekMinutes});
      EXPECT_FALSE(report.interrupted);
      expect_identical(collect(fleet, report, resume_path), reference);
      if (::testing::Test::HasFailure()) {
        return;  // one divergent epoch is enough diagnosis; stop the sweep
      }
    }
  }
}

TEST(CrashResume, ShardedKillAtEveryEpochMatrix) {
  // The same crash-equivalence contract on the sharded hierarchy: an 8-rack
  // 2-shard week, one snapshot per epoch, a crash reconstructed at every
  // barrier.  The resumed fleet runs with a different shard count than the
  // reference (snapshots carry no topology), so every epoch also re-proves
  // checkpoint portability across --shards.
  ScratchDir scratch;
  const FaultPlan chaos = make_random_plan(31, Minutes{kWeekMinutes}, 2);
  ASSERT_GT(chaos.size(), 0u);

  const fs::path ref_path = scratch / "ref.jsonl";
  const fs::path ckpt_dir = scratch / "ckpt";
  FleetArtifacts reference;
  {
    Fleet fleet = make_fleet(chaos, 1, ref_path, false, ckpt_dir.string(),
                             /*shards=*/1, /*rack_count=*/8);
    const FleetReport report = fleet.run(Minutes{kWeekMinutes});
    EXPECT_FALSE(report.interrupted);
    reference = collect(fleet, report, ref_path);
  }
  const std::vector<fs::path> snapshots = checkpoint::list_snapshots(ckpt_dir);
  ASSERT_EQ(snapshots.size(), 7u * 24u);

  for (const fs::path& snapshot_path : snapshots) {
    const checkpoint::Snapshot snapshot =
        checkpoint::load_snapshot(snapshot_path);
    SCOPED_TRACE("epoch=" + std::to_string(snapshot.epoch_index));
    const fs::path resume_path = scratch / "resume.jsonl";
    write_file(resume_path, reference.trace);
    Fleet fleet = make_fleet(chaos, 4, resume_path, true, "", /*shards=*/2,
                             /*rack_count=*/8);
    fleet.load_checkpoint(snapshot);
    const FleetReport report = fleet.run(Minutes{kWeekMinutes});
    EXPECT_FALSE(report.interrupted);
    expect_identical(collect(fleet, report, resume_path), reference);
    if (::testing::Test::HasFailure()) {
      return;  // one divergent epoch is enough diagnosis; stop the sweep
    }
  }
}

// ---------------------------------------------------------------------------
// Standalone-rack resume, including past-the-end snapshots.
// ---------------------------------------------------------------------------

RackSimulator make_standalone(const fs::path& stream_path, bool resume,
                              const std::string& checkpoint_dir) {
  RackSimulator sim = [&] {
    Rack rack{{{ServerModel::kXeonE5_2620, 2}, {ServerModel::kCoreI5_4460, 2}},
              Workload::kSpecJbb};
    SimConfig cfg;
    cfg.check = true;
    cfg.substep = Minutes{15.0};
    cfg.controller.policy = PolicyKind::kGreenHetero;
    cfg.controller.seed = 17;
    cfg.controller.epoch = Minutes{60.0};
    cfg.telemetry.rollup_window_min = 240.0;
    telemetry::StreamSinkConfig sink{stream_path, 64};
    sink.resume = resume;
    cfg.trace_stream = sink;
    cfg.checkpoint_dir = checkpoint_dir;
    cfg.checkpoint_every = 1;
    cfg.checkpoint_keep = 0;
    GridSpec grid;
    grid.budget = Watts{400.0};
    PowerTrace trace =
        generate_solar_trace(high_solar_model(Watts{1200.0}), 3, 17);
    return RackSimulator{std::move(rack),
                         make_standard_plant(std::move(trace), grid),
                         std::move(cfg)};
  }();
  sim.pretrain();
  return sim;
}

TEST(CrashResume, StandaloneRackResumesFromEverySnapshot) {
  ScratchDir scratch;
  const Minutes duration{48.0 * 60.0};
  const fs::path ref_path = scratch / "ref.jsonl";
  const fs::path ckpt_dir = scratch / "ckpt";

  std::string ref_trace;
  double ref_work = 0.0;
  {
    RackSimulator sim = make_standalone(ref_path, false, ckpt_dir.string());
    const RunReport report = sim.run(duration);
    EXPECT_FALSE(report.interrupted);
    sim.stream()->close();
    ref_trace = read_file(ref_path);
    ref_work = report.total_work;
  }
  const auto snapshots = checkpoint::list_snapshots(ckpt_dir);
  // 48 hourly epochs, snapshots at 1..48 — the last one sits AFTER the
  // final epoch, so resuming it re-runs only the finalization tail.
  ASSERT_EQ(snapshots.size(), 48u);

  for (const fs::path& snapshot_path : snapshots) {
    const checkpoint::Snapshot snapshot =
        checkpoint::load_snapshot(snapshot_path);
    SCOPED_TRACE("epoch=" + std::to_string(snapshot.epoch_index));
    const fs::path resume_path = scratch / "resume.jsonl";
    write_file(resume_path, ref_trace);
    RackSimulator sim = make_standalone(resume_path, true, "");
    sim.load_checkpoint(snapshot);
    const RunReport report = sim.run(duration);
    sim.stream()->close();
    EXPECT_EQ(read_file(resume_path), ref_trace);
    EXPECT_EQ(report.total_work, ref_work);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(CrashResume, RefusesForeignScenarioAndWrongKind) {
  ScratchDir scratch;
  const fs::path stream_path = scratch / "s.jsonl";
  const fs::path ckpt_dir = scratch / "ckpt";
  {
    RackSimulator sim = make_standalone(stream_path, false, ckpt_dir.string());
    (void)sim.run(Minutes{4.0 * 60.0});
    sim.stream()->close();
  }
  const auto latest = checkpoint::load_latest(ckpt_dir);
  ASSERT_TRUE(latest.has_value());

  // Same snapshot, different scenario fingerprint: refused.
  checkpoint::Snapshot tampered = *latest;
  tampered.config_hash = 0xBADC0DEu;
  RackSimulator sim = make_standalone(stream_path, true, "");
  EXPECT_THROW(sim.load_checkpoint(tampered), checkpoint::CheckpointError);

  // A fleet refuses a standalone-rack snapshot (payload kind mismatch).
  const fs::path fleet_stream = scratch / "fleet.jsonl";
  write_file(fleet_stream, "");
  Fleet fleet = make_fleet({}, 1, fleet_stream, true, "");
  EXPECT_THROW(fleet.load_checkpoint(*latest), checkpoint::CheckpointError);
}

}  // namespace
}  // namespace greenhetero
