// Controller overhead (google-benchmark): the paper calls the profiling and
// scheduling machinery "lightweight" — this pins numbers on it.  Plan and
// feedback are the per-epoch cost paid once per 15 minutes per rack; the
// plant substep (step planning + flow execution) is paid every minute.
//
// Plan and feedback are timed twice: bare (no telemetry context, so every
// metric and trace call is skipped) and traced, under an installed
// TelemetryScope the way a simulated rack runs them — the difference is
// what the hot-path telemetry costs.
//
// A custom main runs the google-benchmark suite and then re-times plan,
// feedback and the near-floor plant substep to emit the machine-readable
// BENCH_controller_micro.json via BenchReport.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_common.h"
#include "bench_timing.h"
#include "checkpoint/serializer.h"
#include "core/controller.h"
#include "core/enforcer.h"
#include "server/combinations.h"
#include "sim/rack_simulator.h"
#include "telemetry/telemetry.h"

namespace {

using namespace greenhetero;

struct Fixture {
  Fixture()
      : rack(default_runtime_rack(), Workload::kSpecJbb),
        plant(make_fixed_budget_plant(Watts{800.0}, Minutes{10000.0})),
        controller([] {
          ControllerConfig cfg;
          cfg.policy = PolicyKind::kGreenHetero;
          cfg.profiling_noise = 0.02;
          return cfg;
        }()) {
    // Seed the database like a completed training run.
    for (std::size_t g = 0; g < rack.group_count(); ++g) {
      const PerfCurve& curve = rack.group_curve(g);
      std::vector<ServerSample> samples;
      for (double f : controller.training_sweep()) {
        const Watts p = curve.idle_power() +
                        (curve.peak_power() - curve.idle_power()) * f;
        samples.push_back({p, curve.throughput_at(p)});
      }
      controller.record_training(
          {rack.group(g).model, rack.group_workload(g)}, samples);
    }
    rack.run_full_speed();
  }

  Rack rack;
  RackPowerPlant plant;
  GreenHeteroController controller;
};

/// An installed telemetry context for the traced timings.  tick() runs
/// once per timed epoch and clears the trace ring every 192 epochs (two
/// simulated days), as a streaming run drains it, so ring growth stays out
/// of the figure.
struct Traced {
  Traced() : scope(&telemetry) {}
  void tick() {
    if (++epochs % 192 == 0) telemetry.trace().lines().clear();
  }

  Telemetry telemetry;
  TelemetryScope scope;
  int epochs = 0;
};

/// One substep at night with the paper battery about 20 Wh above its DoD
/// floor: the 1-minute discharge limit (~1200 W) is energy-bound, so it
/// comes from the bisection, and the 1500 W draw splits battery-then-grid.
/// Every iteration first restores the plant to one of two near-floor
/// snapshots, alternating, so each substep starts on a battery state the
/// previous one did not leave behind — as in a run, where every substep's
/// discharge moves the state.
struct PlantSubstep {
  PlantSubstep()
      : plant(make_standard_plant(
            PowerTrace{Minutes{15.0}, std::vector<Watts>(96, Watts{0.0})},
            [] {
              GridSpec grid;
              grid.budget = Watts{800.0};
              return grid;
            }())) {
    // Drain 4780 of the 4800 usable Wh.
    PowerFlows drain;
    drain.battery_to_load = Watts{3000.0};
    plant.execute(drain, Minutes{0.0}, Minutes{95.6});
    for (std::string& snapshot : snapshots) {
      checkpoint::Writer w;
      checkpoint::save(w, plant);
      snapshot = w.buffer();
      PowerFlows step;  // 1 Wh more for the second snapshot
      step.battery_to_load = Watts{60.0};
      plant.execute(step, Minutes{95.6}, dt);
    }
    decision.source_case = PowerCase::kBatteryOnly;
    decision.server_budget = draw;
    decision.from_battery = plant.battery_discharge_available(dt);
    decision.from_grid = draw - decision.from_battery;
  }

  PowerFlows run() {
    next = 1 - next;
    checkpoint::Reader r{snapshots[next]};
    checkpoint::load(r, plant);
    const StepPlan step =
        Enforcer::plan_step(decision, Watts{0.0}, draw, plant, dt);
    return plant.execute(step.flows, Minutes{120.0}, dt);
  }

  RackPowerPlant plant;
  std::string snapshots[2];
  int next = 0;
  SourceDecision decision;
  Watts draw{1500.0};
  Minutes dt{1.0};
};

void BM_PlanEpoch(benchmark::State& state) {
  Fixture f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.controller.plan_epoch(f.rack, f.plant, Minutes{0.0}, Watts{900.0}));
  }
}
BENCHMARK(BM_PlanEpoch);

void BM_FinishEpoch(benchmark::State& state) {
  Fixture f;
  for (auto _ : state) {
    f.controller.finish_epoch(f.rack, Watts{800.0}, Watts{900.0});
  }
}
BENCHMARK(BM_FinishEpoch);

void BM_PlanEpochTraced(benchmark::State& state) {
  Fixture f;
  Traced traced;
  for (auto _ : state) {
    traced.tick();
    benchmark::DoNotOptimize(
        f.controller.plan_epoch(f.rack, f.plant, Minutes{0.0}, Watts{900.0}));
  }
}
BENCHMARK(BM_PlanEpochTraced);

void BM_FinishEpochTraced(benchmark::State& state) {
  Fixture f;
  Traced traced;
  for (auto _ : state) {
    traced.tick();
    f.controller.finish_epoch(f.rack, Watts{800.0}, Watts{900.0});
  }
}
BENCHMARK(BM_FinishEpochTraced);

void BM_PlantSubstep(benchmark::State& state) {
  PlantSubstep p;
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.run());
  }
}
BENCHMARK(BM_PlantSubstep);

void BM_FullEpochSimulation(benchmark::State& state) {
  // One complete 15-minute epoch (plan + 15 substeps + feedback).
  Rack rack{default_runtime_rack(), Workload::kSpecJbb};
  SimConfig cfg;
  cfg.controller.policy = PolicyKind::kGreenHetero;
  RackSimulator sim{std::move(rack),
                    make_fixed_budget_plant(Watts{800.0}, Minutes{1e7}),
                    std::move(cfg)};
  sim.pretrain();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.step_epoch());
  }
}
BENCHMARK(BM_FullEpochSimulation);

void BM_SimulatedDayWallclock(benchmark::State& state) {
  // Wall-clock cost of simulating 24 hours (96 epochs, 1440 substeps).
  for (auto _ : state) {
    Rack rack{default_runtime_rack(), Workload::kSpecJbb};
    SimConfig cfg;
    cfg.controller.policy = PolicyKind::kGreenHetero;
    RackSimulator sim{std::move(rack),
                      make_fixed_budget_plant(Watts{800.0}, Minutes{2000.0}),
                      std::move(cfg)};
    sim.pretrain();
    benchmark::DoNotOptimize(sim.run(Minutes{24.0 * 60.0}));
  }
}
BENCHMARK(BM_SimulatedDayWallclock)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();

  greenhetero::bench::BenchReport report("controller_micro");
  {
    Fixture f;
    report.set("plan_epoch_ns", greenhetero::bench::time_ns_per_op([&] {
                 return f.controller.plan_epoch(f.rack, f.plant, Minutes{0.0},
                                                Watts{900.0});
               }));
  }
  {
    Fixture f;
    report.set("finish_epoch_ns", greenhetero::bench::time_ns_per_op([&] {
                 f.controller.finish_epoch(f.rack, Watts{800.0},
                                           Watts{900.0});
                 return 0;
               }));
  }
  {
    Fixture f;
    Traced traced;
    report.set("plan_epoch_traced_ns", greenhetero::bench::time_ns_per_op([&] {
                 traced.tick();
                 return f.controller.plan_epoch(f.rack, f.plant, Minutes{0.0},
                                                Watts{900.0});
               }));
  }
  {
    Fixture f;
    Traced traced;
    report.set("finish_epoch_traced_ns",
               greenhetero::bench::time_ns_per_op([&] {
                 traced.tick();
                 f.controller.finish_epoch(f.rack, Watts{800.0},
                                           Watts{900.0});
                 return 0;
               }));
  }
  {
    PlantSubstep p;
    report.set("plant_substep_ns", greenhetero::bench::time_ns_per_op(
                                       [&] { return p.run(); }, 20000));
  }
  report.write();
  return 0;
}
