// Scale-invariance contract of the sharded fleet hierarchy: the same fleet
// run with any --shards / --threads combination must produce byte-identical
// reports, merged traces and metric snapshots (wall-clock and streaming-
// queue series excluded).  Also pins that the shards' parallel deficit pass
// yields exactly the flat plan's shares, the shard geometry, and that a
// checkpoint taken under one shard count restores into any other.
#include "fleet/fleet.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "faults/fault_plan.h"
#include "fleet/shard.h"
#include "server/combinations.h"
#include "trace/solar.h"
#include "trace_file.h"
#include "util/rng.h"

namespace greenhetero {
namespace {

RackSimulator make_rack_sim(Watts solar_capacity, std::uint64_t seed,
                            const FaultPlan& faults, bool telemetry = true) {
  Rack rack{default_runtime_rack(), Workload::kSpecJbb};
  SimConfig cfg;
  cfg.telemetry.enabled = telemetry;
  cfg.controller.policy = PolicyKind::kGreenHetero;
  cfg.controller.seed = seed;
  cfg.controller.epoch = Minutes{15.0};
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
  std::string metrics;  ///< snapshot minus wall-clock series
};

RunArtifacts run_fleet(std::size_t shards, std::size_t threads,
                       const FaultPlan& faults = {}) {
  // Asymmetric solar provisioning so the proportional division makes
  // non-trivial decisions that depend on every rack's state.
  const double capacities[] = {300.0, 1200.0, 2400.0, 4800.0};
  std::vector<RackSimulator> racks;
  for (std::size_t i = 0; i < 4; ++i) {
    racks.push_back(make_rack_sim(Watts{capacities[i]},
                                  50 + static_cast<std::uint64_t>(i), faults));
  }
  FleetConfig cfg;
  cfg.total_grid_budget = Watts{2000.0};
  cfg.mode = GridShareMode::kDemandProportional;
  cfg.check = true;  // checks the grid shares every epoch
  cfg.threads = threads;
  cfg.shards = shards;
  const testtrace::ScratchDir scratch;
  cfg.trace_stream = telemetry::StreamSinkConfig{scratch / "trace.jsonl"};
  Fleet fleet{std::move(racks), cfg};
  EXPECT_EQ(fleet.shards(), std::min<std::size_t>(shards, 4));
  fleet.pretrain();

  RunArtifacts artifacts;
  artifacts.report = fleet.run(Minutes{6.0 * 60.0});
  artifacts.trace = testtrace::streamed_trace(fleet);
  artifacts.metrics =
      testtrace::deterministic_prometheus(fleet.metrics_snapshot());
  return artifacts;
}

void expect_identical_reports(const FleetReport& a, const FleetReport& b) {
  // Exact equality on purpose: sharding is pure execution topology and must
  // be byte-identical to the flat path, not merely close.
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
    ASSERT_EQ(ra.epochs.size(), rb.epochs.size()) << "rack " << i;
    for (std::size_t e = 0; e < ra.epochs.size(); ++e) {
      const EpochRecord& ea = ra.epochs[e];
      const EpochRecord& eb = rb.epochs[e];
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

TEST(FleetShard, ByteIdenticalAcrossShardAndThreadMatrix) {
  const RunArtifacts reference = run_fleet(1, 1);
  ASSERT_GT(reference.report.total_work, 0.0);
  for (const std::size_t shards : {2u, 4u}) {
    for (const std::size_t threads : {1u, 2u, 8u}) {
      const RunArtifacts sharded = run_fleet(shards, threads);
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      expect_identical_reports(reference.report, sharded.report);
      EXPECT_EQ(reference.trace, sharded.trace);
      EXPECT_EQ(reference.metrics, sharded.metrics);
    }
  }
}

TEST(FleetShard, ChaosFaultsStayDeterministicWhenSharded) {
  for (const std::uint64_t seed : {23u, 47u}) {
    const FaultPlan plan = make_random_plan(seed, Minutes{6.0 * 60.0},
                                            default_runtime_rack().size());
    const RunArtifacts reference = run_fleet(1, 1, plan);
    const RunArtifacts sharded = run_fleet(4, 8, plan);
    SCOPED_TRACE("fault seed " + std::to_string(seed));
    expect_identical_reports(reference.report, sharded.report);
    EXPECT_EQ(reference.trace, sharded.trace);
    EXPECT_EQ(reference.metrics, sharded.metrics);
  }
}

TEST(FleetShard, ZeroShardsDerivesFromThreadsCappedAtRacks) {
  const double capacities[] = {300.0, 1200.0, 2400.0, 4800.0};
  std::vector<RackSimulator> racks;
  for (std::size_t i = 0; i < 4; ++i) {
    racks.push_back(make_rack_sim(Watts{capacities[i]},
                                  50 + static_cast<std::uint64_t>(i), {}));
  }
  FleetConfig cfg;
  cfg.total_grid_budget = Watts{2000.0};
  cfg.threads = 16;
  cfg.shards = 0;  // derive: one shard per worker thread, capped at racks
  const Fleet fleet{std::move(racks), cfg};
  EXPECT_EQ(fleet.shards(), 4u);
}

TEST(FleetShard, ShardedSharesMatchTheFlatPlan) {
  // The shards fill the deficit vector in parallel; the shares must equal
  // the flat one-thread fleet's bit for bit at every epoch, and each rack
  // must receive the share planned for it.
  const double capacities[] = {300.0, 1200.0, 2400.0, 4800.0, 600.0};
  const auto make_fleet = [&](std::size_t shards, std::size_t threads) {
    std::vector<RackSimulator> racks;
    for (std::size_t i = 0; i < std::size(capacities); ++i) {
      racks.push_back(make_rack_sim(Watts{capacities[i]},
                                    60 + static_cast<std::uint64_t>(i), {},
                                    /*telemetry=*/false));
    }
    FleetConfig cfg;
    cfg.total_grid_budget = Watts{2500.0};
    cfg.mode = GridShareMode::kDemandProportional;
    cfg.threads = threads;
    cfg.shards = shards;
    Fleet fleet{std::move(racks), cfg};
    fleet.pretrain();
    return fleet;
  };
  for (const std::size_t shards : {2u, 3u, 5u}) {
    for (const std::size_t threads : {1u, 4u}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      Fleet flat = make_fleet(1, 1);
      Fleet sharded = make_fleet(shards, threads);
      for (int epoch = 0; epoch < 8; ++epoch) {
        const std::vector<Watts> plan = sharded.plan_grid_shares();
        const std::vector<Watts> reference = flat.plan_grid_shares();
        (void)flat.run(Minutes{15.0});
        (void)sharded.run(Minutes{15.0});
        for (std::size_t i = 0; i < sharded.size(); ++i) {
          EXPECT_EQ(plan[i].value(), reference[i].value())
              << "rack " << i << " epoch " << epoch;
          EXPECT_EQ(sharded.rack(i).plant().grid_budget().value(),
                    plan[i].value())
              << "rack " << i << " epoch " << epoch;
        }
      }
    }
  }
}

// --- shard geometry --------------------------------------------------------

TEST(Rebalancer, MakeShardsCoversEveryRackExactlyOnce) {
  for (const std::size_t racks : {1u, 7u, 64u, 1000u}) {
    for (const std::size_t shards : {1u, 2u, 3u, 8u, 2000u}) {
      const std::vector<Shard> topology = make_shards(racks, shards, 4);
      ASSERT_FALSE(topology.empty());
      EXPECT_LE(topology.size(), racks);
      std::size_t next = 0;
      for (const Shard& shard : topology) {
        EXPECT_EQ(shard.first_rack(), next);
        EXPECT_GE(shard.racks(), 1u);
        next += shard.racks();
      }
      EXPECT_EQ(next, racks);
    }
  }
}

// --- checkpoint portability across shard counts --------------------------

using testtrace::ScratchDir;

Fleet make_ckpt_fleet(
    std::size_t shards, const std::filesystem::path& dir, int every,
    std::optional<telemetry::StreamSinkConfig> stream = std::nullopt,
    bool telemetry = true, std::size_t threads = 1) {
  const double capacities[] = {300.0, 1200.0, 2400.0, 4800.0};
  std::vector<RackSimulator> racks;
  for (std::size_t i = 0; i < 4; ++i) {
    racks.push_back(make_rack_sim(Watts{capacities[i]},
                                  50 + static_cast<std::uint64_t>(i), {},
                                  telemetry));
  }
  FleetConfig cfg;
  cfg.telemetry.enabled = telemetry;
  cfg.total_grid_budget = Watts{2000.0};
  cfg.mode = GridShareMode::kDemandProportional;
  cfg.shards = shards;
  cfg.threads = threads;
  cfg.checkpoint_dir = dir.string();
  cfg.checkpoint_every = every;
  cfg.checkpoint_keep = 0;  // keep everything; the test picks its snapshot
  cfg.config_hash = 0xfeed;
  cfg.trace_stream = std::move(stream);
  Fleet fleet{std::move(racks), cfg};
  fleet.pretrain();
  return fleet;
}

TEST(FleetShard, CheckpointRestoresIntoDifferentShardCount) {
  ScratchDir scratch;
  // Snapshots carry no shard topology, so a checkpoint written under
  // --shards 4 must restore into --shards 2 (and any other count) and
  // finish byte-identical to the uninterrupted flat run.
  const std::filesystem::path reference_path = scratch / "reference.jsonl";
  const std::filesystem::path replay_path = scratch / "replay.jsonl";
  Fleet writer = make_ckpt_fleet(4, scratch.path() / "ckpt", 8,
                                 telemetry::StreamSinkConfig{reference_path});
  const FleetReport reference = writer.run(Minutes{6.0 * 60.0});
  const std::string reference_trace = testtrace::streamed_trace(writer);

  const std::vector<std::filesystem::path> snapshots =
      checkpoint::list_snapshots(scratch.path() / "ckpt");
  ASSERT_GE(snapshots.size(), 2u);
  // A strictly mid-run snapshot: epochs remain after it.
  const checkpoint::Snapshot snapshot =
      checkpoint::load_snapshot(snapshots[snapshots.size() - 2]);
  ASSERT_LT(snapshot.epoch_index, 24u);  // 6 h of 15-min epochs

  // The resumed sink truncates its file back to the snapshot's watermark
  // and continues from there.
  std::filesystem::copy_file(reference_path, replay_path);
  telemetry::StreamSinkConfig replay_stream{replay_path};
  replay_stream.resume = true;
  Fleet resumed =
      make_ckpt_fleet(2, scratch.path() / "ckpt", 8, replay_stream);
  resumed.load_checkpoint(snapshot);
  const FleetReport replay = resumed.run(Minutes{6.0 * 60.0});

  expect_identical_reports(reference, replay);
  EXPECT_EQ(reference_trace, testtrace::streamed_trace(resumed));
}

TEST(FleetShard, CheckpointBytesIdenticalAcrossShardCounts) {
  // Stronger than restorability: the snapshot payload itself must not
  // mention the topology, so the files written under different --shards
  // and --threads values are byte-for-byte the same, although each rack
  // serialises its chunk on whichever pool thread the topology gives it.
  // Telemetry is off: the metrics in a snapshot carry wall-clock span
  // histograms.
  ScratchDir reference_dir;
  Fleet reference =
      make_ckpt_fleet(1, reference_dir.path(), 8, std::nullopt, false, 1);
  (void)reference.run(Minutes{6.0 * 60.0});
  const std::vector<std::filesystem::path> lhs =
      checkpoint::list_snapshots(reference_dir.path());
  ASSERT_GE(lhs.size(), 1u);
  for (const std::size_t shards : {1u, 4u}) {
    for (const std::size_t threads : {1u, 2u, 4u}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      ScratchDir dir;
      Fleet fleet =
          make_ckpt_fleet(shards, dir.path(), 8, std::nullopt, false, threads);
      (void)fleet.run(Minutes{6.0 * 60.0});
      const std::vector<std::filesystem::path> rhs =
          checkpoint::list_snapshots(dir.path());
      ASSERT_EQ(lhs.size(), rhs.size());
      for (std::size_t i = 0; i < lhs.size(); ++i) {
        const checkpoint::Snapshot sa = checkpoint::load_snapshot(lhs[i]);
        const checkpoint::Snapshot sb = checkpoint::load_snapshot(rhs[i]);
        EXPECT_EQ(sa.epoch_index, sb.epoch_index);
        EXPECT_EQ(sa.payload, sb.payload) << "snapshot " << i;
      }
    }
  }
}

/// The series of a metrics file that are pure functions of the scenario:
/// the wall-clock ones (latency histograms, throughput, the sink's queue
/// and stall series) are dropped, as the crash fuzzer does.  A JSON dump is
/// one line; its entries split at each `,{"name":`.
std::vector<std::string> deterministic_series(const std::string& text,
                                              bool json) {
  const auto wall_clock = [](std::string_view item) {
    for (std::string_view marker :
         {"_ns", "gh_trace_stalls", "gh_trace_queue_depth",
          "gh_trace_queue_residency", "gh_rack_epochs_per_sec"}) {
      if (item.find(marker) != std::string_view::npos) return true;
    }
    return false;
  };
  const std::string_view separator = json ? ",{\"name\":" : "\n";
  std::vector<std::string> kept;
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t end = text.find(separator, begin);
    if (end == std::string::npos) end = text.size();
    const std::string_view item(text.data() + begin, end - begin);
    if (!wall_clock(item)) kept.emplace_back(item);
    begin = end + separator.size();
  }
  return kept;
}

TEST(FleetShard, MetricsFilesIdenticalAcrossThreadAndShardMatrix) {
  // The flushed metrics.json and its metrics.txt sibling: the racks' rows
  // are encoded from their registries on the shard pools, and the join and
  // the table's column width must not depend on the topology.  A flush
  // every 5 epochs plus the final one.  36 racks keep the dump above 512
  // entries in a -DGH_TELEMETRY=OFF build too, which has no span series.
  const auto run = [](std::size_t shards, std::size_t threads) {
    std::vector<RackSimulator> racks;
    for (std::size_t i = 0; i < 36; ++i) {
      racks.push_back(make_rack_sim(Watts{300.0 + 300.0 * i}, 60 + i, {}));
    }
    FleetConfig cfg;
    cfg.total_grid_budget = Watts{5000.0};
    cfg.mode = GridShareMode::kDemandProportional;
    cfg.threads = threads;
    cfg.shards = shards;
    const ScratchDir scratch;
    cfg.trace_stream = telemetry::StreamSinkConfig{scratch / "trace.jsonl"};
    cfg.metrics_out = (scratch / "metrics.json").string();
    cfg.metrics_flush_every = 5;
    Fleet fleet{std::move(racks), cfg};
    fleet.pretrain();
    (void)fleet.run(Minutes{4.0 * 60.0});
    // The rank merge is the (name, labels) sort, "rack" labels compared as
    // strings ("10" before "2").
    const MetricsSnapshot snap = fleet.metrics_snapshot();
    std::vector<telemetry::SnapshotEntry> sorted = snap.entries;
    std::sort(sorted.begin(), sorted.end(),
              [](const telemetry::SnapshotEntry& a,
                 const telemetry::SnapshotEntry& b) {
                if (a.name != b.name) return a.name < b.name;
                return a.labels < b.labels;
              });
    for (std::size_t k = 0; k < sorted.size(); ++k) {
      EXPECT_EQ(snap.entries[k].name, sorted[k].name) << "entry " << k;
      EXPECT_EQ(snap.entries[k].labels, sorted[k].labels) << "entry " << k;
    }
    return std::pair{testtrace::read_file(scratch / "metrics.json"),
                     testtrace::read_file(scratch / "metrics.txt")};
  };
  const auto [json, human] = run(1, 1);
  const std::vector<std::string> json_series = deterministic_series(json, true);
  const std::vector<std::string> human_series =
      deterministic_series(human, false);
  // More than 512 rows in all, from 37 registries encoded on the pools.
  std::size_t entries = 0;
  for (std::size_t at = json.find("{\"name\":"); at != std::string::npos;
       at = json.find("{\"name\":", at + 1)) {
    ++entries;
  }
  ASSERT_GT(entries, 2u * 256u);
  ASSERT_EQ(json_series.size(), human_series.size());
  for (const std::size_t shards : {1u, 2u}) {
    for (const std::size_t threads : {1u, 2u, 4u}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " threads=" + std::to_string(threads));
      const auto [other_json, other_human] = run(shards, threads);
      EXPECT_EQ(deterministic_series(other_json, true), json_series);
      EXPECT_EQ(deterministic_series(other_human, false), human_series);
    }
  }
}

}  // namespace
}  // namespace greenhetero
