// Synthesis study: Figure 1 meets the headline claim.  Ten synthetic
// datacenters whose per-rack heterogeneity follows the Google survey
// distribution (2-5 server configurations), each run for a day under
// Uniform and GreenHetero — showing how the gain grows with the
// heterogeneity level, which is the paper's core thesis
// ("GreenHetero can provide even greater benefits for datacenters with
// higher levels of heterogeneity").
//
// --threads N spreads the 2x10 independent simulations over a worker pool
// (default 0 = one per hardware thread); the table is identical at any
// thread count because each run owns its rack, plant and RNG.
//
// A second, fleet-scale section benchmarks the sharded hierarchy: the same
// fleet (--racks, default 256; --hours, default 24) is run flat (--shards 1)
// and sharded (--shards, default 8), reporting rack-epochs/sec for both plus
// the SoA epoch-store footprint.  Both throughput figures are perf-gated
// against the committed baseline; the sharded one must not fall behind the
// flat one.  `--racks 10000 --shards 8` reproduces the 10k-rack scale
// configuration from the scale-invariance suite.  A flag outside the table
// below, or a value out of its range, exits 2 naming the flag.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "fleet/fleet.h"
#include "server/rack.h"
#include "sim/rack_simulator.h"
#include "trace/heterogeneity.h"
#include "trace/solar.h"
#include "util/options.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace greenhetero;

constexpr ServerModel kCpuModels[] = {
    ServerModel::kXeonE5_2620, ServerModel::kXeonE5_2650,
    ServerModel::kXeonE5_2603, ServerModel::kCoreI7_8700K,
    ServerModel::kCoreI5_4460};

std::vector<ServerGroup> pick_groups(int configs, Rng& rng) {
  std::vector<ServerModel> chosen;
  while (static_cast<int>(chosen.size()) < std::min(configs, 3)) {
    const ServerModel pick = kCpuModels[rng.uniform_int(0, 4)];
    bool seen = false;
    for (ServerModel m : chosen) seen |= m == pick;
    if (!seen) chosen.push_back(pick);
  }
  std::vector<ServerGroup> groups;
  for (ServerModel m : chosen) groups.push_back({m, 5});
  return groups;
}

struct DcResult {
  double work = 0.0;
  std::size_t epochs = 0;  ///< rack-epochs simulated
};

DcResult run_dc(const std::vector<ServerGroup>& groups, PolicyKind policy,
                std::uint64_t seed) {
  double servers = 0.0;
  for (const ServerGroup& g : groups) servers += g.count;
  const RunReport report = bench::run(
      bench::Scenario{.policy = policy, .groups = groups, .seed = seed,
                      .solar_w = 230.0 * servers, .solar_seed = seed,
                      .grid_w = 100.0 * servers, .load_seed = seed});
  return DcResult{report.total_work, report.epochs.size()};
}

/// A deliberately small rack (2 groups x 2 servers, hourly epochs) so the
/// fleet-scale section measures coordinator and shard overhead, not server
/// simulation detail.
RackSimulator make_fleet_rack(std::uint64_t seed) {
  Rack rack{{{ServerModel::kXeonE5_2620, 2}, {ServerModel::kCoreI5_4460, 2}},
            Workload::kSpecJbb};
  SimConfig cfg;
  cfg.controller.policy = PolicyKind::kGreenHetero;
  cfg.controller.seed = seed;
  cfg.controller.epoch = Minutes{60.0};
  cfg.substep = Minutes{15.0};
  GridSpec grid;
  grid.budget = Watts{400.0};
  // Four distinct solar traces reused across the fleet: enough asymmetry
  // for non-trivial proportional decisions without 10k trace generations.
  PowerTrace trace = generate_solar_trace(
      high_solar_model(Watts{900.0 + 300.0 * static_cast<double>(seed % 4)}),
      2, seed % 4);
  return RackSimulator{std::move(rack),
                       make_standard_plant(std::move(trace), grid),
                       std::move(cfg)};
}

struct FleetBenchResult {
  double rack_epochs_per_sec = 0.0;
  std::size_t rack_epochs = 0;
  std::size_t epoch_store_bytes = 0;
};

FleetBenchResult run_fleet_bench(std::size_t racks, std::size_t shards,
                                 double hours, std::size_t threads) {
  std::vector<RackSimulator> sims;
  sims.reserve(racks);
  for (std::size_t i = 0; i < racks; ++i) {
    sims.push_back(make_fleet_rack(static_cast<std::uint64_t>(i)));
  }
  FleetConfig cfg;
  cfg.total_grid_budget = Watts{250.0 * static_cast<double>(racks)};
  cfg.mode = GridShareMode::kDemandProportional;
  cfg.threads = threads;
  cfg.shards = shards;
  Fleet fleet{std::move(sims), cfg};
  fleet.pretrain();
  const auto start = std::chrono::steady_clock::now();
  const FleetReport report = fleet.run(Minutes{hours * 60.0});
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  FleetBenchResult result;
  for (const RunReport& r : report.racks) result.rack_epochs += r.epochs.size();
  result.rack_epochs_per_sec =
      seconds > 0.0 ? static_cast<double>(result.rack_epochs) / seconds : 0.0;
  result.epoch_store_bytes = fleet.epoch_store_bytes();
  return result;
}

constexpr util::OptionSpec kRows[] = {
    util::integer("threads", "0", 0, 1024,
                  "worker threads (0 = one per hardware thread)"),
    util::integer("racks", "256", 1, util::kIntMax, "fleet-scale racks"),
    util::integer("shards", "8", 1, 1024, "shards of the sharded fleet run"),
    util::above("hours", "24", 0, 24.0 * 36500, "fleet-scale hours"),
};
constexpr util::CommandSpec kCommand{"bench_datacenter_study", "", kRows,
                                     "gain vs heterogeneity, fleet scale"};

}  // namespace

int main(int argc, char** argv) {
  std::size_t threads = 0;
  std::size_t fleet_racks = 0;
  std::size_t fleet_shards = 0;
  double fleet_hours = 0.0;
  try {
    const util::Options options = util::parse_options(
        kCommand, {argv + 1, static_cast<std::size_t>(argc - 1)});
    threads = options.integer<std::size_t>("threads");
    fleet_racks = options.integer<std::size_t>("racks");
    fleet_shards = options.integer<std::size_t>("shards");
    fleet_hours = options.number("hours");
  } catch (const util::OptionError& e) {
    std::fprintf(stderr, "bench_datacenter_study: %s\n", e.what());
    return 2;
  }

  std::printf("=== Datacenter study: gain vs heterogeneity level (Figure 1 "
              "distribution) ===\n\n");
  std::printf("%-8s %9s  %-44s %8s\n", "DC", "#configs", "server types",
              "gain");

  // Draw every datacenter's configuration up front on this thread (fork is
  // order-insensitive, but pick_groups consumes the forked stream), then
  // fan the 2x10 independent simulations out over the pool and print the
  // table after the barrier — same rows, same order, any thread count.
  Rng rng(99);
  const auto& survey = google_datacenter_heterogeneity();
  std::vector<std::vector<ServerGroup>> dc_groups(survey.size());
  for (std::size_t dc = 0; dc < survey.size(); ++dc) {
    Rng dc_rng = rng.fork(dc);
    dc_groups[dc] = pick_groups(survey[dc].config_count, dc_rng);
  }

  // Job 2*dc is the Uniform run, 2*dc+1 the GreenHetero run.
  std::vector<DcResult> results(2 * survey.size());
  util::ThreadPool pool(threads);
  const auto sim_start = std::chrono::steady_clock::now();
  pool.parallel_for(results.size(), [&](std::size_t job) {
    const std::size_t dc = job / 2;
    const PolicyKind policy =
        job % 2 == 0 ? PolicyKind::kUniform : PolicyKind::kGreenHetero;
    results[job] = run_dc(dc_groups[dc], policy,
                          static_cast<std::uint64_t>(dc * 17 + 5));
  });
  const double sim_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    sim_start)
          .count();

  std::map<int, std::vector<double>> gains_by_level;
  for (std::size_t dc = 0; dc < survey.size(); ++dc) {
    const int configs = survey[dc].config_count;
    const double uniform = results[2 * dc].work;
    const double gh = results[2 * dc + 1].work;
    const double gain = uniform > 0.0 ? gh / uniform : 0.0;
    gains_by_level[std::min(configs, 3)].push_back(gain);

    std::string types;
    for (const auto& g : dc_groups[dc]) {
      if (!types.empty()) types += " + ";
      types += std::string(server_spec(g.model).name);
    }
    std::printf("%-8s %9d  %-44s %7.2fx\n", survey[dc].name, configs,
                types.c_str(), gain);
  }

  std::printf("\nMean gain by rack heterogeneity level:\n");
  bench::BenchReport bench_report("datacenter_study");
  for (const auto& [level, gains] : gains_by_level) {
    double sum = 0.0;
    for (double g : gains) sum += g;
    std::printf("  %d server type(s) per rack: %.2fx over %zu datacenters\n",
                level, sum / gains.size(), gains.size());
    bench_report.set("gain_level_" + std::to_string(level),
                     sum / gains.size());
  }

  // Simulation throughput (committed reference in
  // bench/baselines/BENCH_datacenter_study.json).
  std::size_t rack_epochs = 0;
  for (const DcResult& result : results) rack_epochs += result.epochs;
  const double rack_epochs_per_sec =
      sim_seconds > 0.0 ? static_cast<double>(rack_epochs) / sim_seconds : 0.0;
  std::printf("\nThroughput: %zu rack-epochs in %.2fs (%.0f rack-epochs/s, "
              "%zu threads)\n",
              rack_epochs, sim_seconds, rack_epochs_per_sec,
              pool.thread_count());
  bench_report.set("rack_epochs", static_cast<double>(rack_epochs));
  bench_report.set("rack_epochs_per_sec", rack_epochs_per_sec);

  // Fleet-scale section: flat vs sharded execution of one fleet.  Outputs
  // are byte-identical by contract (tests/fleet_shard_test.cpp); here only
  // the throughput and the SoA history footprint are at stake.
  std::printf("\n=== Fleet scale: %zu racks, %.0f h, flat vs %zu shards "
              "===\n\n",
              fleet_racks, fleet_hours, fleet_shards);
  const FleetBenchResult flat =
      run_fleet_bench(fleet_racks, 1, fleet_hours, threads);
  const FleetBenchResult sharded =
      run_fleet_bench(fleet_racks, fleet_shards, fleet_hours, threads);
  std::printf("  flat    (1 shard):  %8.0f rack-epochs/s (%zu rack-epochs)\n",
              flat.rack_epochs_per_sec, flat.rack_epochs);
  std::printf("  sharded (%zu shards): %7.0f rack-epochs/s (%zu "
              "rack-epochs)\n",
              fleet_shards, sharded.rack_epochs_per_sec, sharded.rack_epochs);
  std::printf("  epoch store: %.1f MiB SoA for %zu rack-epochs (%.0f "
              "bytes/record)\n",
              static_cast<double>(sharded.epoch_store_bytes) /
                  (1024.0 * 1024.0),
              sharded.rack_epochs,
              sharded.rack_epochs > 0
                  ? static_cast<double>(sharded.epoch_store_bytes) /
                        static_cast<double>(sharded.rack_epochs)
                  : 0.0);
  bench_report.set("fleet_flat_rack_epochs_per_sec",
                   flat.rack_epochs_per_sec);
  bench_report.set("fleet_sharded_rack_epochs_per_sec",
                   sharded.rack_epochs_per_sec);
  bench_report.set("fleet_rack_epochs",
                   static_cast<double>(sharded.rack_epochs));
  bench_report.set("fleet_epoch_store_bytes",
                   static_cast<double>(sharded.epoch_store_bytes));
  bench_report.write();
  std::printf("\nReading: every datacenter gains (1.2-1.5x), but the gain "
              "tracks the *diversity of the drawn power profiles* more than "
              "the raw type count — the paper's own Comb2/Comb4 result "
              "(similar profiles behave homogeneously) explains the spread "
              "within each level.\n");
  return 0;
}
