// Scale-invariance contract of the sharded fleet hierarchy: the same fleet
// run with any --shards / --threads combination must produce byte-identical
// reports, merged traces and metric snapshots (wall-clock, streaming-queue
// and shard-topology series excluded — the latter describe the execution
// layout, not the simulation).  Also pins the rebalancer's conservation
// and equal-split guarantees and that a checkpoint taken under one shard
// count restores into any other.
#include "fleet/fleet.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "faults/fault_plan.h"
#include "fleet/rebalancer.h"
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
  std::string metrics;  ///< snapshot minus wall-clock and topology series
};

/// Prometheus rendering minus wall-clock series AND the shard-topology
/// gauges (gh_fleet_shards, gh_shard_*): topology series legitimately
/// differ between shard counts, everything else must not.
std::string deterministic_prometheus(const MetricsSnapshot& snapshot) {
  MetricsSnapshot filtered;
  for (const telemetry::SnapshotEntry& entry : snapshot.entries) {
    if (entry.name.ends_with("_ns")) continue;
    if (entry.name.ends_with("_per_sec")) continue;
    if (entry.name.starts_with("gh_trace_queue_")) continue;
    if (entry.name == "gh_trace_stalls_total") continue;
    if (entry.name == "gh_fleet_shards") continue;
    if (entry.name.starts_with("gh_shard_")) continue;
    filtered.entries.push_back(entry);
  }
  return filtered.to_prometheus();
}

RunArtifacts run_fleet(std::size_t shards, std::size_t threads,
                       const FaultPlan& faults = {}) {
  // Asymmetric solar provisioning so the proportional rebalancer makes
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
  cfg.check = true;  // enforces shard-grant conservation every epoch
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
  artifacts.metrics = deterministic_prometheus(fleet.metrics_snapshot());
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

TEST(FleetShard, ShardGrantsSumToBudgetAndAreVisibleAsMetrics) {
  const RunArtifacts run = run_fleet(3, 4);
  // The coordinator exported one grant/deficit/racks gauge per shard; the
  // grants from the final epoch must still conserve the fleet budget.
  double grant_sum = 0.0;
  std::size_t rack_sum = 0;
  for (std::size_t s = 0; s < 3; ++s) {
    const telemetry::Labels label{{"shard", std::to_string(s)}};
    const telemetry::SnapshotEntry* grant =
        run.report.metrics.find("gh_shard_grant_w", label);
    const telemetry::SnapshotEntry* racks =
        run.report.metrics.find("gh_shard_racks", label);
    ASSERT_NE(grant, nullptr) << "shard " << s;
    ASSERT_NE(racks, nullptr) << "shard " << s;
    EXPECT_GE(grant->value, 0.0);
    grant_sum += grant->value;
    rack_sum += static_cast<std::size_t>(racks->value);
  }
  EXPECT_EQ(rack_sum, 4u);
  EXPECT_LE(grant_sum, 2000.0 * (1.0 + 1e-9));
  EXPECT_GE(grant_sum, 2000.0 * (1.0 - 1e-9));
  const telemetry::SnapshotEntry* shards =
      run.report.metrics.find("gh_fleet_shards");
  ASSERT_NE(shards, nullptr);
  EXPECT_EQ(shards->value, 3.0);
}

// --- rebalancer unit surface ---------------------------------------------

std::vector<ShardSummary> summarize(const std::vector<double>& deficits,
                                    std::size_t shards) {
  const std::vector<Shard> topology =
      make_shards(deficits.size(), shards, /*threads=*/1);
  std::vector<ShardSummary> summaries;
  for (const Shard& shard : topology) {
    summaries.push_back(summarize_shard(
        shard.index(), shard.first_rack(),
        std::span<const double>{deficits}.subspan(shard.first_rack(),
                                                  shard.racks())));
  }
  return summaries;
}

TEST(Rebalancer, GrantsConserveBudgetOverRandomTopologies) {
  Rng rng{7};
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t racks = static_cast<std::size_t>(rng.uniform_int(1, 32));
    const std::size_t shards = static_cast<std::size_t>(rng.uniform_int(1, 8));
    const Watts budget{rng.uniform(100.0, 5100.0)};
    std::vector<double> deficits;
    for (std::size_t r = 0; r < racks; ++r) {
      // Mix of positive, zero and negative (surplus) deficits.
      deficits.push_back(rng.uniform(-200.0, 1200.0));
    }
    const std::vector<ShardSummary> summaries = summarize(deficits, shards);
    const RebalanceDecision decision =
        rebalance_grid_budget(budget, deficits, summaries);
    ASSERT_EQ(decision.grants.size(), summaries.size());
    double sum = 0.0;
    for (const Watts grant : decision.grants) {
      EXPECT_GE(grant.value(), 0.0);
      sum += grant.value();
    }
    // Clamped: the rebalancer's running total never exceeds the budget; an
    // independent re-sum like this one re-rounds, so allow one part in 1e12.
    EXPECT_LE(sum, budget.value() * (1.0 + 1e-12));
    // ...and conservative: the whole budget is handed out.
    EXPECT_NEAR(sum, budget.value(), budget.value() * 1e-9);
    // Rack shares must reproduce the flat divide_grid_budget bit for bit —
    // the two code paths may never drift apart.
    const std::vector<Watts> flat = divide_grid_budget(budget, deficits);
    ASSERT_EQ(flat.size(), racks);
    for (std::size_t r = 0; r < racks; ++r) {
      EXPECT_EQ(rack_share(decision, deficits[r]).value(), flat[r].value())
          << "rack " << r << " trial " << trial;
    }
  }
}

TEST(Rebalancer, DeficitMonotoneGrants) {
  // A shard with a strictly larger deficit sum never receives less.
  Rng rng{11};
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t racks = 8;
    const std::size_t shards = 4;
    std::vector<double> deficits;
    for (std::size_t r = 0; r < racks; ++r) {
      deficits.push_back(rng.uniform(0.0, 1500.0));
    }
    const std::vector<ShardSummary> summaries = summarize(deficits, shards);
    const RebalanceDecision decision =
        rebalance_grid_budget(Watts{3000.0}, deficits, summaries);
    ASSERT_FALSE(decision.equal_split);
    for (std::size_t a = 0; a < summaries.size(); ++a) {
      for (std::size_t b = 0; b < summaries.size(); ++b) {
        if (summaries[a].deficit_sum > summaries[b].deficit_sum) {
          EXPECT_GE(decision.grants[a].value(), decision.grants[b].value());
        }
      }
    }
  }
}

TEST(Rebalancer, EqualSplitIsHoistedOncePerEpoch) {
  // The equal-share fallback is computed once per rebalance, not per rack:
  // every rack sees the exact same bit pattern, so a rack entering
  // quarantine mid-epoch can never skew the shares handed out within that
  // epoch.
  const std::vector<double> zeros(7, 0.0);
  const std::vector<ShardSummary> summaries = summarize(zeros, 3);
  const RebalanceDecision decision =
      rebalance_grid_budget(Watts{1234.5}, zeros, summaries);
  EXPECT_TRUE(decision.equal_split);
  EXPECT_EQ(decision.equal_share.value(), 1234.5 / 7.0);
  const double first = rack_share(decision, 0.0).value();
  for (double d : {0.0, 100.0, -5.0}) {
    EXPECT_EQ(rack_share(decision, d).value(), first);
  }
}

TEST(Rebalancer, DegenerateInputsFallBackToEqualSplit) {
  const Watts budget{900.0};
  for (const double poison : {std::numeric_limits<double>::quiet_NaN(),
                              std::numeric_limits<double>::infinity(),
                              -std::numeric_limits<double>::infinity()}) {
    std::vector<double> deficits{100.0, poison, 300.0};
    const std::vector<ShardSummary> summaries = summarize(deficits, 2);
    const RebalanceDecision decision =
        rebalance_grid_budget(budget, deficits, summaries);
    EXPECT_TRUE(decision.equal_split);
    EXPECT_EQ(rack_share(decision, deficits[0]).value(), 300.0);
    double sum = 0.0;
    for (const Watts grant : decision.grants) sum += grant.value();
    EXPECT_NEAR(sum, 900.0, 1e-6);
  }
}

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
    bool telemetry = true) {
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
  // values are byte-for-byte the same.  Telemetry is off: the metrics in a
  // snapshot carry wall-clock span histograms and, by design, the
  // shard-topology gauges.
  ScratchDir a;
  ScratchDir b;
  Fleet one = make_ckpt_fleet(1, a.path(), 8, std::nullopt, false);
  Fleet four = make_ckpt_fleet(4, b.path(), 8, std::nullopt, false);
  (void)one.run(Minutes{6.0 * 60.0});
  (void)four.run(Minutes{6.0 * 60.0});
  const std::vector<std::filesystem::path> lhs =
      checkpoint::list_snapshots(a.path());
  const std::vector<std::filesystem::path> rhs =
      checkpoint::list_snapshots(b.path());
  ASSERT_EQ(lhs.size(), rhs.size());
  ASSERT_GE(lhs.size(), 1u);
  for (std::size_t i = 0; i < lhs.size(); ++i) {
    const checkpoint::Snapshot sa = checkpoint::load_snapshot(lhs[i]);
    const checkpoint::Snapshot sb = checkpoint::load_snapshot(rhs[i]);
    EXPECT_EQ(sa.epoch_index, sb.epoch_index);
    EXPECT_EQ(sa.payload, sb.payload) << "snapshot " << i;
  }
}

}  // namespace
}  // namespace greenhetero
