#include "scenarios.h"

#include <algorithm>
#include <chrono>
#include <climits>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "faults/fault_plan.h"
#include "server/combinations.h"
#include "server/rack.h"
#include "sim/rack_simulator.h"
#include "trace/load_pattern.h"
#include "trace/solar.h"

namespace rackbench {
namespace {

using namespace greenhetero;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// SplitMix64: the benchmark's own generator, so the inputs depend only on
/// the seed and never on library RNG internals.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  int uniform_int(int lo, int hi) {  // inclusive
    return lo + static_cast<int>(next() % static_cast<std::uint64_t>(
                                              hi - lo + 1));
  }

 private:
  std::uint64_t state_;
};

/// Independent stream for (seed, rack, purpose).
std::uint64_t derive(std::uint64_t seed, std::size_t rack,
                     std::uint64_t purpose) {
  SplitMix mix(seed ^ (0x5851f42d4c957f2dULL * (rack + 1)) ^
               (purpose << 56));
  mix.next();
  return mix.next();
}

enum Purpose : std::uint64_t {
  kSolarSeed = 1,
  kControllerSeed,
  kDemandSeed,
  kRackDraw,
  kScheduleDraw,
  kFaultDraw,
};

constexpr ServerModel kCpuModels[] = {
    ServerModel::kXeonE5_2620, ServerModel::kXeonE5_2650,
    ServerModel::kXeonE5_2603, ServerModel::kCoreI7_8700K,
    ServerModel::kCoreI5_4460};

constexpr Workload kChurnWorkloads[] = {
    Workload::kSpecJbb,      Workload::kWebSearch,    Workload::kMemcached,
    Workload::kStreamcluster, Workload::kFreqmine,    Workload::kBlackscholes,
    Workload::kCanneal,      Workload::kMcf};

/// Mixed-hardware rack i: the (i mod 10)-th choice of three distinct CPU
/// models out of five (the most the library's Rack accepts per PDU), with
/// 3-5 servers per group.  Cycling through the combinations, rather than
/// drawing them, keeps the fleet's hardware mix the same for every seed.
std::vector<ServerGroup> mixed_groups(std::size_t rack) {
  std::vector<std::vector<ServerModel>> combos;
  for (int a = 0; a < 5; ++a) {
    for (int b = a + 1; b < 5; ++b) {
      for (int c = b + 1; c < 5; ++c) {
        combos.push_back({kCpuModels[a], kCpuModels[b], kCpuModels[c]});
      }
    }
  }
  std::vector<ServerGroup> groups;
  const std::vector<ServerModel>& combo = combos[rack % combos.size()];
  for (std::size_t g = 0; g < combo.size(); ++g) {
    groups.push_back({combo[g], 3 + static_cast<int>((rack + g) % 3)});
  }
  return groups;
}

/// Rack i starts on the (i mod 8)-th workload of the pool and moves to the
/// next one every 3 hours, from a seeded epoch-aligned phase, so every
/// workload gets about the same share of the fleet's time whatever the seed.
std::vector<WorkloadSwitch> draw_schedule(SplitMix& rng, std::size_t rack,
                                          double minutes) {
  std::vector<WorkloadSwitch> schedule;
  std::size_t next = rack + 1;
  for (double t = 15.0 * rng.uniform_int(1, 12); t < minutes; t += 180.0) {
    schedule.push_back(
        {Minutes{t}, kChurnWorkloads[next++ % std::size(kChurnWorkloads)]});
  }
  return schedule;
}

/// Two rounds (one per half of the run) of: crash + explicit recover, DVFS
/// stuck, solar dropout, grid outage and monitor dropout.
FaultPlan draw_faults(SplitMix& rng, double minutes, int groups) {
  FaultPlan plan;
  const auto at = [&](int round) {
    const double half = minutes / 2.0;
    return Minutes{round * half + rng.uniform(0.1, 0.7) * half};
  };
  for (int round = 0; round < 2; ++round) {
    const int victim = rng.uniform_int(0, groups - 1);
    const Minutes crash = at(round);
    plan.add({crash, FaultKind::kServerCrash, Minutes{0.0}, victim, 0.0});
    plan.add({crash + Minutes{rng.uniform(60.0, 240.0)},
              FaultKind::kServerRecover, Minutes{0.0}, victim, 0.0});
    plan.add({at(round), FaultKind::kDvfsStuck,
              Minutes{rng.uniform(60.0, 240.0)},
              rng.uniform_int(0, groups - 1),
              static_cast<double>(rng.uniform_int(1, 4))});
    plan.add({at(round), FaultKind::kSolarDropout,
              Minutes{rng.uniform(30.0, 120.0)}, -1, 0.0});
    plan.add({at(round), FaultKind::kGridOutage,
              Minutes{rng.uniform(30.0, 120.0)}, -1, 0.0});
    plan.add({at(round), FaultKind::kMonitorDropout,
              Minutes{rng.uniform(60.0, 240.0)}, -1, rng.uniform(0.4, 0.8)});
  }
  return plan;
}

struct RackInputs {
  std::vector<RackSimulator> sims;
  Watts total_grid{0.0};
  double solar_gen = 0.0;
};

/// Times one generate_solar_trace call into `inputs.solar_gen`.
PowerTrace timed_solar(RackInputs& inputs, const SolarModel& model, int days,
                       std::uint64_t seed) {
  const Clock::time_point start = Clock::now();
  PowerTrace trace = generate_solar_trace(model, days, seed);
  inputs.solar_gen += seconds_since(start);
  return trace;
}

TelemetryConfig rack_telemetry(const Scenario& scenario,
                               const BuildOptions& options) {
  TelemetryConfig telemetry;
  telemetry.profile = options.profile;
  if (scenario.name == "fleet_ops_2t") {
    telemetry.rollup_window_min = 60.0;
    telemetry.loss_ledger = true;
  }
  return telemetry;
}

/// The `greenhetero fleet` rack: default rack on SPECjbb, paper plant with
/// solar capacity spread +/-50% around 1.8 kW across the fleet.
RackInputs default_racks(const Scenario& scenario,
                         const BuildOptions& options) {
  RackInputs inputs;
  const int days = static_cast<int>(std::ceil(scenario.hours / 24.0)) + 1;
  const std::size_t n = scenario.racks;
  inputs.sims.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double spread =
        n > 1 ? -1.0 + 2.0 * static_cast<double>(i) / (n - 1.0) : 0.0;
    SimConfig cfg;
    cfg.controller.policy = PolicyKind::kGreenHetero;
    cfg.controller.seed = derive(options.seed, i, kControllerSeed);
    cfg.telemetry = rack_telemetry(scenario, options);
    cfg.check = options.check;
    PowerTrace solar = timed_solar(
        inputs, high_solar_model(Watts{1800.0 * (1.0 + 0.5 * spread)}), days,
        derive(options.seed, i, kSolarSeed));
    inputs.sims.emplace_back(Rack{default_runtime_rack(), Workload::kSpecJbb},
                             make_standard_plant(std::move(solar), GridSpec{}),
                             std::move(cfg));
  }
  inputs.total_grid = Watts{800.0 * static_cast<double>(n)};
  return inputs;
}

/// Mixed racks under scarce green power, workload churn and faults.
RackInputs churn_racks(const Scenario& scenario,
                       const BuildOptions& options) {
  RackInputs inputs;
  const int days = static_cast<int>(std::ceil(scenario.hours / 24.0)) + 1;
  inputs.sims.reserve(scenario.racks);
  double peak_sum = 0.0;
  for (std::size_t i = 0; i < scenario.racks; ++i) {
    SplitMix rng(derive(options.seed, i, kRackDraw));
    const std::vector<ServerGroup> groups = mixed_groups(i);
    Rack rack{groups, kChurnWorkloads[i % std::size(kChurnWorkloads)]};
    const Watts peak = rack.peak_demand();
    peak_sum += peak.value();

    SimConfig cfg;
    cfg.controller.policy = PolicyKind::kGreenHetero;
    cfg.controller.seed = derive(options.seed, i, kControllerSeed);
    cfg.telemetry = rack_telemetry(scenario, options);
    cfg.check = options.check;
    cfg.rapl_enforcement = true;
    cfg.demand_trace = generate_load_trace(
        LoadPatternModel{}, peak, days, derive(options.seed, i, kDemandSeed));
    SplitMix schedule_rng(derive(options.seed, i, kScheduleDraw));
    cfg.workload_schedule =
        draw_schedule(schedule_rng, i, scenario.hours * 60.0);
    SplitMix fault_rng(derive(options.seed, i, kFaultDraw));
    cfg.faults = draw_faults(fault_rng, scenario.hours * 60.0,
                             static_cast<int>(groups.size()));

    PowerTrace solar = timed_solar(
        inputs, low_solar_model(peak * rng.uniform(0.6, 1.0)), days,
        derive(options.seed, i, kSolarSeed));
    GridSpec grid;
    grid.budget = peak * 0.3;
    inputs.sims.emplace_back(std::move(rack),
                             make_standard_plant(std::move(solar), grid),
                             std::move(cfg));
  }
  inputs.total_grid = Watts{0.25 * peak_sum};
  return inputs;
}

/// Small racks (2 groups x 2 servers, hourly epochs, 15-minute substeps):
/// per-rack compute is cheap, so the fleet, telemetry and checkpoint layers
/// dominate.
RackInputs small_racks(const Scenario& scenario,
                       const BuildOptions& options) {
  RackInputs inputs;
  const int days = static_cast<int>(std::ceil(scenario.hours / 24.0)) + 1;
  inputs.sims.reserve(scenario.racks);
  const std::size_t n = scenario.racks;
  for (std::size_t i = 0; i < n; ++i) {
    SimConfig cfg;
    cfg.controller.policy = PolicyKind::kGreenHetero;
    cfg.controller.seed = derive(options.seed, i, kControllerSeed);
    cfg.controller.epoch = Minutes{60.0};
    cfg.substep = Minutes{15.0};
    cfg.telemetry = rack_telemetry(scenario, options);
    cfg.check = options.check;
    GridSpec grid;
    grid.budget = Watts{400.0};
    // Solar capacity spread 500-1100 W across the fleet: low enough that
    // every rack draws grid power at night.
    const double spread = n > 1 ? static_cast<double>(i) / (n - 1.0) : 0.5;
    PowerTrace solar = timed_solar(
        inputs, high_solar_model(Watts{500.0 + 600.0 * spread}), days,
        derive(options.seed, i, kSolarSeed));
    inputs.sims.emplace_back(
        Rack{{{ServerModel::kXeonE5_2620, 2}, {ServerModel::kCoreI5_4460, 2}},
             Workload::kSpecJbb},
        make_standard_plant(std::move(solar), grid), std::move(cfg));
  }
  inputs.total_grid = Watts{250.0 * static_cast<double>(n)};
  return inputs;
}

}  // namespace

Scenario find_scenario(std::string_view name, bool tiny) {
  Scenario s;
  s.name = std::string(name);
  if (name == "rack_epoch_1t") {
    s.racks = 256;
    s.hours = 48.0;
    s.replay_hours = 12.0;
    s.chunk_hours = 2.0;
  } else if (name == "hetero_churn_1t") {
    s.racks = 64;
    s.hours = 72.0;
    s.replay_hours = 18.0;
    s.chunk_hours = 3.0;
  } else if (name == "fleet_ops_2t") {
    s.racks = 512;
    s.hours = 48.0;
    s.threads = 2;
    s.shards = 2;
    s.replay_hours = 12.0;
    // A multiple of the checkpoint and metrics-flush cadence (12 epochs),
    // which Fleet::run counts from the start of each call.
    s.chunk_hours = 12.0;
  } else {
    throw std::invalid_argument("unknown workload '" + s.name + "'");
  }
  if (tiny) {
    s.racks = std::min<std::size_t>(s.racks, 6);
    s.hours = 12.0;
    s.replay_hours = 6.0;
    s.chunk_hours = std::min(s.chunk_hours, s.hours);
  }
  return s;
}

BuiltFleet build_fleet(const Scenario& scenario, const BuildOptions& options) {
  const Clock::time_point start = Clock::now();
  BuiltFleet built;
  built.hours = options.hours.value_or(scenario.hours);

  // Inputs always cover the scenario's full horizon, so a shorter run
  // replays exactly the first epochs of a full one.
  RackInputs inputs;
  if (scenario.name == "hetero_churn_1t") {
    inputs = churn_racks(scenario, options);
  } else if (scenario.name == "fleet_ops_2t") {
    inputs = small_racks(scenario, options);
  } else {
    inputs = default_racks(scenario, options);
  }
  if (!options.out_dir.empty()) {
    std::filesystem::create_directories(options.out_dir);
  }

  FleetConfig cfg;
  cfg.total_grid_budget = inputs.total_grid;
  cfg.mode = GridShareMode::kDemandProportional;
  cfg.threads = options.threads.value_or(scenario.threads);
  cfg.shards = scenario.shards;
  cfg.check = options.check;
  cfg.telemetry.profile = options.profile;
  if (scenario.name == "fleet_ops_2t") {
    telemetry::StreamSinkConfig sink{options.out_dir / "trace.jsonl"};
    sink.resume = options.resume_stream;
    cfg.trace_stream = sink;
    cfg.metrics_out = (options.out_dir / "metrics.json").string();
    cfg.metrics_flush_every = 12;
    cfg.checkpoint_dir = (options.out_dir / "ckpt").string();
    cfg.checkpoint_every = 12;
  } else if (options.explicit_checkpoint) {
    cfg.checkpoint_dir = (options.out_dir / "ckpt").string();
    cfg.checkpoint_every = INT_MAX;
  }
  built.fleet = std::make_unique<Fleet>(std::move(inputs.sims), cfg);
  built.cost.solar_gen = inputs.solar_gen;

  const Clock::time_point pretrain_start = Clock::now();
  built.fleet->pretrain();
  built.cost.pretrain = seconds_since(pretrain_start);
  built.cost.total = seconds_since(start);
  return built;
}

}  // namespace rackbench
