// Failure injection: flaky meters, renewable outages, and the deterministic
// FaultPlan/FaultInjector schedule with the controller's graceful-degradation
// path.  The controller must degrade (fewer samples, safe-mode allocations,
// grid fallback), never crash or corrupt its database — and every faulted
// run must still conserve energy and replay byte-identically by seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/health.h"
#include "faults/fault_injector.h"
#include "faults/fault_plan.h"
#include "fleet/fleet.h"
#include "server/combinations.h"
#include "sim/rack_simulator.h"
#include "trace/solar.h"
#include "trace_file.h"

namespace greenhetero {
namespace {

using testtrace::streamed_events;
using testtrace::streamed_trace;

/// Count the streamed trace's events with the given phase.
std::size_t count_events(RackSimulator& sim, std::string_view phase) {
  return testtrace::count_phase(streamed_events(sim), phase);
}

/// Copy of `trace` with samples in [from, from + length) zeroed — an
/// inverter trip, a curtailment order or a blown feeder.
PowerTrace with_outage(const PowerTrace& trace, Minutes from, Minutes length) {
  std::vector<Watts> samples = trace.samples();
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const double t = static_cast<double>(i) * trace.interval().value();
    if (t >= from.value() && t < from.value() + length.value()) {
      samples[i] = Watts{0.0};
    }
  }
  return PowerTrace{trace.interval(), std::move(samples)};
}

/// Every (server, workload) key the database holds a record for.
std::vector<ProfileKey> database_keys(const PerfPowerDatabase& db) {
  std::vector<ProfileKey> keys;
  for (int m = 0; m < kServerModelCount; ++m) {
    for (int w = 0; w < kWorkloadCount; ++w) {
      const ProfileKey key{static_cast<ServerModel>(m),
                           static_cast<Workload>(w)};
      if (db.contains(key)) keys.push_back(key);
    }
  }
  return keys;
}

TEST(FaultInjection, MonitorDropoutValidation) {
  Monitor monitor{0.0, Rng(1)};
  EXPECT_THROW(monitor.set_dropout_rate(-0.1), std::invalid_argument);
  EXPECT_THROW(monitor.set_dropout_rate(1.1), std::invalid_argument);
  monitor.set_dropout_rate(0.25);
  EXPECT_DOUBLE_EQ(monitor.dropout_rate(), 0.25);
}

TEST(FaultInjection, DroppedSamplesReadAsZero) {
  Rack rack{default_runtime_rack(), Workload::kSpecJbb};
  rack.run_full_speed();
  Monitor monitor{0.0, Rng(7)};
  monitor.set_dropout_rate(1.0);  // every reading lost
  const ServerSample s = monitor.sample_group(rack, 0);
  EXPECT_DOUBLE_EQ(s.power.value(), 0.0);
  EXPECT_DOUBLE_EQ(s.throughput, 0.0);
}

TEST(FaultInjection, TrainingRetriesUnderHeavyDropout) {
  // 60% of readings lost for the whole run: single training runs often
  // yield < 3 valid samples, so the controller must keep retrying until
  // one sticks — and the run must complete without throwing.
  Rack rack{default_runtime_rack(), Workload::kSpecJbb};
  SimConfig cfg;
  cfg.controller.policy = PolicyKind::kGreenHetero;
  cfg.controller.seed = 5;
  const Minutes horizon{8.0 * 60.0};
  cfg.faults.add({Minutes{0.0}, FaultKind::kMonitorDropout, horizon, -1, 0.6});
  RackSimulator sim{std::move(rack),
                    make_fixed_budget_plant(Watts{800.0}, Minutes{2000.0}),
                    std::move(cfg)};
  const RunReport report = sim.run(horizon);
  // Eventually both groups get trained and service resumes.
  EXPECT_EQ(sim.controller().database().size(), 2u);
  int training_epochs = 0;
  for (const auto& e : report.epochs) training_epochs += e.training ? 1 : 0;
  EXPECT_GE(training_epochs, 1);
  EXPECT_GT(report.epochs.back().throughput, 0.0);
  EXPECT_NEAR(report.ledger.conservation_error(), 0.0, 1e-6);
}

TEST(FaultInjection, RuntimeDropoutDoesNotPoisonTheDatabase) {
  Rack rack{default_runtime_rack(), Workload::kSpecJbb};
  SimConfig cfg;
  cfg.controller.policy = PolicyKind::kGreenHetero;
  cfg.controller.seed = 9;
  const Minutes horizon{6.0 * 60.0};
  cfg.faults.add({Minutes{0.0}, FaultKind::kMonitorDropout, horizon, -1, 0.5});
  RackSimulator sim{std::move(rack),
                    make_fixed_budget_plant(Watts{800.0}, Minutes{2000.0}),
                    std::move(cfg)};
  sim.pretrain();  // before the run, so the fault is not yet active
  const RunReport report = sim.run(horizon);
  // Every database sample is a real (positive-power) observation.
  for (const ProfileKey& key : database_keys(sim.controller().database())) {
    const ProfileRecord& rec = sim.controller().database().record(key);
    for (double p : rec.powers) {
      EXPECT_GT(p, 0.0);
    }
  }
  EXPECT_GT(report.total_work, 0.0);
}

TEST(FaultInjection, TraceOutageZeroesTheWindow) {
  const PowerTrace solar = high_solar_week(Watts{2500.0}, 3);
  const PowerTrace broken =
      with_outage(solar, Minutes{11.0 * 60.0}, Minutes{2.0 * 60.0});
  ASSERT_EQ(broken.size(), solar.size());
  EXPECT_DOUBLE_EQ(broken.at(Minutes{11.5 * 60.0}).value(), 0.0);
  EXPECT_DOUBLE_EQ(broken.at(Minutes{12.9 * 60.0}).value(), 0.0);
  EXPECT_DOUBLE_EQ(broken.at(Minutes{13.0 * 60.0}).value(),
                   solar.at(Minutes{13.0 * 60.0}).value());
}

TEST(FaultInjection, MiddayInverterTripIsRiddenThrough) {
  // Kill the solar feed for two midday hours: battery and grid must carry
  // the rack, and the run must conserve energy throughout.
  Rack rack{default_runtime_rack(), Workload::kSpecJbb};
  SimConfig cfg;
  cfg.controller.policy = PolicyKind::kGreenHetero;
  cfg.controller.seed = 13;
  GridSpec grid;
  grid.budget = Watts{1000.0};
  const PowerTrace solar =
      with_outage(high_solar_week(Watts{2500.0}, 3), Minutes{11.0 * 60.0},
                  Minutes{2.0 * 60.0});
  RackSimulator sim{std::move(rack), make_standard_plant(solar, grid),
                    std::move(cfg)};
  sim.pretrain();
  const RunReport report = sim.run(Minutes{24.0 * 60.0});
  EXPECT_NEAR(report.ledger.conservation_error(), 0.0, 1e-5);
  // During the outage window the rack still did useful work.
  double outage_throughput = 0.0;
  for (const auto& e : report.epochs) {
    const double hour = e.start.value() / 60.0;
    if (hour >= 11.25 && hour < 13.0) {
      outage_throughput += e.throughput;
      EXPECT_LT(e.actual_renewable.value(), 1.0);
    }
  }
  EXPECT_GT(outage_throughput, 0.0);
}

// ---------------------------------------------------------------------------
// FaultPlan / FaultInjector schedule mechanics.

TEST(FaultPlan, AddValidatesAndKeepsEventsSorted) {
  FaultPlan plan;
  plan.add({Minutes{120.0}, FaultKind::kGridOutage, Minutes{60.0}});
  plan.add({Minutes{30.0}, FaultKind::kServerCrash, Minutes{45.0}, 0});
  plan.add({Minutes{30.0}, FaultKind::kMonitorDropout, Minutes{15.0}, -1, 0.5});
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_DOUBLE_EQ(plan.events()[0].at.value(), 30.0);
  EXPECT_EQ(plan.events()[0].kind, FaultKind::kServerCrash);  // stable order
  EXPECT_DOUBLE_EQ(plan.events()[2].at.value(), 120.0);

  EXPECT_THROW(plan.add({Minutes{-1.0}, FaultKind::kGridOutage}),
               FaultPlanError);
  EXPECT_THROW(plan.add({Minutes{0.0}, FaultKind::kBatteryDerate,
                         Minutes{10.0}, -1, 1.5}),
               FaultPlanError);
  EXPECT_THROW(plan.add({Minutes{0.0}, FaultKind::kMonitorDropout,
                         Minutes{10.0}, -1, -0.2}),
               FaultPlanError);
  EXPECT_THROW(plan.add({Minutes{0.0}, FaultKind::kDvfsStuck,
                         Minutes{10.0}, 0, 2.5}),
               FaultPlanError);
  // A recovery event is an instant, not a window.
  EXPECT_THROW(plan.add({Minutes{0.0}, FaultKind::kServerRecover,
                         Minutes{10.0}, 0}),
               FaultPlanError);
}

TEST(FaultPlan, CsvRoundTripPreservesTheSchedule) {
  FaultPlan plan;
  plan.add({Minutes{15.0}, FaultKind::kServerCrash, Minutes{30.0}, 1});
  plan.add({Minutes{45.0}, FaultKind::kSolarStuck, Minutes{60.0}});
  plan.add({Minutes{90.0}, FaultKind::kBatteryDerate, Minutes{0.0}, -1, 0.3});
  // The same schedule as a --faults file spells it.
  const FaultPlan parsed = FaultPlan::parse_csv(
      CsvTable::parse("at_min,kind,duration_min,target,value\n"
                      "15,server_crash,30,1,0\n"
                      "45,solar_stuck,60,-1,0\n"
                      "90,battery_derate,0,-1,0.3\n"));
  ASSERT_EQ(parsed.size(), plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_DOUBLE_EQ(parsed.events()[i].at.value(),
                     plan.events()[i].at.value());
    EXPECT_EQ(parsed.events()[i].kind, plan.events()[i].kind);
    EXPECT_DOUBLE_EQ(parsed.events()[i].duration.value(),
                     plan.events()[i].duration.value());
    EXPECT_EQ(parsed.events()[i].target, plan.events()[i].target);
    EXPECT_DOUBLE_EQ(parsed.events()[i].value, plan.events()[i].value);
  }
}

TEST(FaultPlan, CsvRejectsUnknownKindWithRowContext) {
  const CsvTable table = CsvTable::parse(
      "at_min,kind,duration_min,target,value\n"
      "10,flux_capacitor,5,-1,0\n");
  try {
    (void)FaultPlan::parse_csv(table);
    FAIL() << "expected FaultPlanError";
  } catch (const FaultPlanError& e) {
    EXPECT_NE(std::string(e.what()).find("flux_capacitor"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("row"), std::string::npos);
  }
}

TEST(FaultPlan, KindNamesRoundTrip) {
  for (FaultKind kind :
       {FaultKind::kServerCrash, FaultKind::kServerRecover,
        FaultKind::kDvfsStuck, FaultKind::kDvfsOffset,
        FaultKind::kSolarDropout, FaultKind::kSolarStuck,
        FaultKind::kGridOutage, FaultKind::kBatteryDerate,
        FaultKind::kMonitorDropout}) {
    EXPECT_EQ(fault_kind_from_string(to_string(kind)), kind);
  }
  EXPECT_THROW((void)fault_kind_from_string("nonsense"), FaultPlanError);
}

TEST(FaultInjector, ExpandsWindowsAndFiresEachEdgeOnce) {
  FaultPlan plan;
  plan.add({Minutes{10.0}, FaultKind::kGridOutage, Minutes{20.0}});
  plan.add({Minutes{5.0}, FaultKind::kServerCrash, Minutes{0.0}, 0});
  FaultInjector injector{plan};
  EXPECT_EQ(injector.pending(), 3u);  // open-ended crash has no end edge

  EXPECT_TRUE(injector.take_due(Minutes{4.0}).empty());
  auto due = injector.take_due(Minutes{10.0});
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0].kind, FaultKind::kServerCrash);
  EXPECT_TRUE(due[0].begin);
  EXPECT_EQ(due[1].kind, FaultKind::kGridOutage);
  EXPECT_TRUE(due[1].begin);
  EXPECT_TRUE(injector.take_due(Minutes{10.0}).empty());  // no re-delivery

  due = injector.take_due(Minutes{60.0});
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].kind, FaultKind::kGridOutage);
  EXPECT_FALSE(due[0].begin);
  EXPECT_TRUE(injector.exhausted());
}

TEST(FaultPlan, RandomPlanIsSeedDeterministic) {
  const FaultPlan a = make_random_plan(99, Minutes{24.0 * 60.0}, 2);
  const FaultPlan b = make_random_plan(99, Minutes{24.0 * 60.0}, 2);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_GT(a.size(), 0u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.events()[i].at.value(), b.events()[i].at.value());
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_DOUBLE_EQ(a.events()[i].value, b.events()[i].value);
  }
  const FaultPlan c = make_random_plan(100, Minutes{24.0 * 60.0}, 2);
  bool differs = c.size() != a.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a.events()[i].at.value() != c.events()[i].at.value();
  }
  EXPECT_TRUE(differs);
}

// ---------------------------------------------------------------------------
// Health state machine.

TEST(HealthTracker, WalksTheFullStateMachineWithHysteresis) {
  HealthTracker tracker;
  HealthSignals bad;
  bad.divergent_samples = true;
  const HealthSignals good;

  EXPECT_EQ(tracker.state(), HealthState::kNormal);
  EXPECT_FALSE(tracker.quarantine());

  auto t = tracker.observe_epoch(bad);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->to, HealthState::kDegraded);
  EXPECT_TRUE(tracker.quarantine());
  EXPECT_FALSE(tracker.safe_mode());

  EXPECT_FALSE(tracker.observe_epoch(bad).has_value());  // still degraded
  t = tracker.observe_epoch(bad);                        // 3rd bad: safe
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->to, HealthState::kSafe);
  EXPECT_TRUE(tracker.safe_mode());

  t = tracker.observe_epoch(good);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->to, HealthState::kRecovering);
  EXPECT_TRUE(tracker.quarantine());  // still quarantined while recovering

  // A relapse while recovering drops straight back to degraded.
  t = tracker.observe_epoch(bad);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->to, HealthState::kDegraded);

  // Clean recovery: good epochs through recovering back to normal.
  ASSERT_TRUE(tracker.observe_epoch(good).has_value());  // -> recovering
  EXPECT_FALSE(tracker.observe_epoch(good).has_value());
  t = tracker.observe_epoch(good);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->to, HealthState::kNormal);
  EXPECT_FALSE(tracker.quarantine());
}

TEST(HealthSignals, ReasonNamesTheDominantSignal) {
  HealthSignals s;
  EXPECT_STREQ(s.reason(), "ok");
  s.excess_shortfall = true;
  EXPECT_STREQ(s.reason(), "excess_shortfall");
  s.solver_failed = true;
  EXPECT_STREQ(s.reason(), "solver_failed");
  s.stale_samples = true;
  EXPECT_STREQ(s.reason(), "stale_samples");
}

// ---------------------------------------------------------------------------
// Config validation (fail fast).

TEST(SimConfigValidation, RejectsBrokenConfigurations) {
  const auto make = [](SimConfig cfg) {
    Rack rack{default_runtime_rack(), Workload::kSpecJbb};
    return RackSimulator{std::move(rack),
                         make_fixed_budget_plant(Watts{800.0}, Minutes{60.0}),
                         std::move(cfg)};
  };
  SimConfig cfg;
  cfg.substep = Minutes{0.0};
  EXPECT_THROW(make(std::move(cfg)), std::invalid_argument);
  cfg = {};
  cfg.substep = Minutes{20.0};  // longer than the 15-minute epoch
  EXPECT_THROW(make(std::move(cfg)), std::invalid_argument);
  cfg = {};
  cfg.workload_schedule = {{Minutes{60.0}, Workload::kSpecJbb},
                           {Minutes{30.0}, Workload::kStreamcluster}};
  EXPECT_THROW(make(std::move(cfg)), std::invalid_argument);
  // A fault plan aimed at a group the rack does not have is a config bug.
  cfg = {};
  cfg.faults.add({Minutes{10.0}, FaultKind::kServerCrash, Minutes{5.0}, 7});
  EXPECT_THROW(make(std::move(cfg)), std::invalid_argument);
}

TEST(FleetConfigValidation, RejectsBadGridBudget) {
  FleetConfig config;
  config.total_grid_budget = Watts{-1.0};
  EXPECT_THROW(config.validate(), FleetError);
  config.total_grid_budget =
      Watts{std::numeric_limits<double>::quiet_NaN()};
  EXPECT_THROW(config.validate(), FleetError);
  config.total_grid_budget = Watts{500.0};
  EXPECT_NO_THROW(config.validate());
}

// ---------------------------------------------------------------------------
// Scheduled faults end-to-end: every kind runs through, conserves energy,
// and surfaces its telemetry.

/// Every faulted sim streams its trace to a file of its own, so the tests
/// can read the events back.
RackSimulator make_faulted_sim(FaultPlan plan, std::uint64_t seed = 42) {
  static const testtrace::ScratchDir scratch("gh-faults");
  static int sims = 0;
  Rack rack{default_runtime_rack(), Workload::kSpecJbb};
  SimConfig cfg;
  cfg.trace_stream = telemetry::StreamSinkConfig{
      scratch / ("trace-" + std::to_string(sims++) + ".jsonl")};
  cfg.controller.policy = PolicyKind::kGreenHetero;
  cfg.controller.seed = seed;
  // Fault scenarios are where conservation and SoC bounds are most likely to
  // slip; run every scheduled-fault test under the invariant checker.
  cfg.check = true;
  cfg.faults = std::move(plan);
  GridSpec grid;
  grid.budget = Watts{800.0};
  RackSimulator sim{
      std::move(rack),
      make_standard_plant(
          generate_solar_trace(high_solar_model(Watts{2500.0}), 1, seed),
          grid),
      std::move(cfg)};
  sim.pretrain();
  return sim;
}

TEST(ScheduledFaults, EveryKindRunsThroughAndConservesEnergy) {
  const std::vector<FaultEvent> cases = {
      {Minutes{60.0}, FaultKind::kServerCrash, Minutes{45.0}, 0},
      {Minutes{60.0}, FaultKind::kDvfsStuck, Minutes{45.0}, 1, 2.0},
      {Minutes{60.0}, FaultKind::kDvfsOffset, Minutes{45.0}, -1, -25.0},
      {Minutes{60.0}, FaultKind::kSolarDropout, Minutes{45.0}},
      {Minutes{60.0}, FaultKind::kSolarStuck, Minutes{45.0}},
      {Minutes{60.0}, FaultKind::kGridOutage, Minutes{45.0}},
      {Minutes{60.0}, FaultKind::kBatteryDerate, Minutes{45.0}, -1, 0.4},
      {Minutes{60.0}, FaultKind::kMonitorDropout, Minutes{45.0}, -1, 0.7},
  };
  for (const FaultEvent& event : cases) {
    SCOPED_TRACE(to_string(event.kind));
    FaultPlan plan;
    plan.add(event);
    RackSimulator sim = make_faulted_sim(std::move(plan));
    const RunReport report = sim.run(Minutes{4.0 * 60.0});
    EXPECT_NEAR(report.ledger.conservation_error(), 0.0, 1e-6);
    EXPECT_GT(report.total_work, 0.0);
    // The invariant checker observed the whole run (a violation throws).
    ASSERT_NE(sim.checker(), nullptr);
    EXPECT_GT(sim.checker()->substeps_checked(), 0u);
    EXPECT_EQ(sim.checker()->epochs_checked(), report.epochs.size());
    // Begin and end edges both surface in the trace.
    EXPECT_EQ(count_events(sim, "fault_inject"), 2u);
    const MetricsSnapshot snapshot = sim.metrics_snapshot();
    const auto* injected = snapshot.find(
        "gh_faults_injected_total",
        {{"kind", std::string(to_string(event.kind))}});
    ASSERT_NE(injected, nullptr);
    EXPECT_DOUBLE_EQ(injected->value, 1.0);
  }
}

TEST(ScheduledFaults, CrashMidEpochDegradesThenRecovers) {
  // Group 0 dies at minute 50 (mid-epoch) and stays dead for 100 minutes.
  FaultPlan plan;
  plan.add({Minutes{50.0}, FaultKind::kServerCrash, Minutes{100.0}, 0});
  RackSimulator sim = make_faulted_sim(std::move(plan));
  const RunReport report = sim.run(Minutes{6.0 * 60.0});

  EXPECT_NEAR(report.ledger.conservation_error(), 0.0, 1e-6);
  // The dead group's zero draw diverges from its allocation: the health
  // tracker must leave normal, quarantine feedback, and recover after the
  // crash clears.
  EXPECT_GE(count_events(sim, "degrade"), 1u);
  EXPECT_GE(count_events(sim, "recover"), 1u);
  EXPECT_EQ(sim.controller().health().state(), HealthState::kNormal);
  // Throughput comes back once the group rejoins.
  EXPECT_GT(report.epochs.back().throughput, 0.0);
  // No zero-power samples leaked into the fits while quarantined.
  for (const ProfileKey& key : database_keys(sim.controller().database())) {
    for (double p : sim.controller().database().record(key).powers) {
      EXPECT_GT(p, 0.0);
    }
  }
}

TEST(ScheduledFaults, GridOutageDuringBatteryOnlyOperation) {
  // At night the rack runs Case C (battery only) with grid fallback; kill
  // the grid for an hour and the run must ride through on the battery and
  // degrade cleanly, never throw.
  FaultPlan plan;
  plan.add({Minutes{2.0 * 60.0}, FaultKind::kGridOutage, Minutes{60.0}});
  RackSimulator sim = make_faulted_sim(std::move(plan), /*seed=*/7);
  const RunReport report = sim.run(Minutes{6.0 * 60.0});
  EXPECT_NEAR(report.ledger.conservation_error(), 0.0, 1e-6);
  EXPECT_GT(report.total_work, 0.0);
  // The grid delivered nothing during the outage window.
  for (const auto& e : report.epochs) {
    if (e.start.value() >= 2.0 * 60.0 && e.start.value() < 3.0 * 60.0) {
      EXPECT_DOUBLE_EQ(e.grid_power.value(), 0.0);
    }
  }
}

TEST(ScheduledFaults, StuckSolarSensorPoisonsTheFeedbackNotTheArray) {
  FaultPlan plan;
  plan.add({Minutes{8.0 * 60.0}, FaultKind::kSolarStuck, Minutes{3.0 * 60.0}});
  RackSimulator sim = make_faulted_sim(std::move(plan));
  const RunReport report = sim.run(Minutes{12.0 * 60.0});
  EXPECT_NEAR(report.ledger.conservation_error(), 0.0, 1e-6);

  // Ground truth keeps moving with the sun...
  double lo = 1e12, hi = -1.0;
  for (const auto& e : report.epochs) {
    if (e.start.value() >= 8.0 * 60.0 && e.start.value() < 11.0 * 60.0) {
      lo = std::min(lo, e.actual_renewable.value());
      hi = std::max(hi, e.actual_renewable.value());
    }
  }
  EXPECT_GT(hi - lo, 1.0);

  // ...while the controller's observation is frozen at the latched value.
  double first = -1.0;
  for (const json::Value& e : streamed_events(sim)) {
    if (e.string_or("phase", "") != "feedback") continue;
    const double t = e.number_or("t", -1.0);
    if (t < 8.0 * 60.0 || t >= 11.0 * 60.0) continue;
    const json::Value* observed = e.find("observed_renewable_w");
    ASSERT_NE(observed, nullptr);
    if (first < 0.0) {
      first = observed->as_number();
    } else {
      EXPECT_DOUBLE_EQ(observed->as_number(), first);
    }
  }
  EXPECT_GE(first, 0.0);
}

TEST(ScheduledFaults, BatteryDerateClampsStoredEnergy) {
  const BatterySpec spec = paper_battery_spec();
  Battery battery{spec};
  const double healthy_capacity = battery.effective_capacity().value();
  // Derate shrinks capacity but never below the depth-of-discharge floor
  // (the BMS keeps protecting the reserve even on a faulted pack).
  battery.set_fault_derate(0.3);
  EXPECT_DOUBLE_EQ(battery.effective_capacity().value(),
                   healthy_capacity * 0.7);
  EXPECT_LE(battery.stored().value(), healthy_capacity * 0.7 + 1e-9);
  battery.set_fault_derate(0.9);
  EXPECT_DOUBLE_EQ(battery.effective_capacity().value(),
                   spec.floor_energy().value());
  battery.set_fault_derate(0.0);
  EXPECT_DOUBLE_EQ(battery.fault_derate(), 0.0);
  EXPECT_THROW(battery.set_fault_derate(0.95), BatteryError);
  EXPECT_THROW(battery.set_fault_derate(-0.1), BatteryError);
}

TEST(ScheduledFaults, MonitorDropoutWindowRestoresTheBaseRate) {
  // The base rate is 0: the fault window is the only source of dropouts.
  FaultPlan plan;
  plan.add({Minutes{30.0}, FaultKind::kMonitorDropout, Minutes{60.0}, -1,
            0.8});
  Rack rack{default_runtime_rack(), Workload::kSpecJbb};
  SimConfig cfg;
  cfg.controller.seed = 3;
  cfg.faults = std::move(plan);
  RackSimulator sim{std::move(rack),
                    make_fixed_budget_plant(Watts{800.0}, Minutes{300.0}),
                    std::move(cfg)};
  sim.pretrain();
  (void)sim.run(Minutes{3.0 * 60.0});
  EXPECT_DOUBLE_EQ(sim.controller().monitor().dropout_rate(), 0.0);
}

// ---------------------------------------------------------------------------
// The acceptance scenario: crash + grid outage, full degradation cycle.

TEST(ScheduledFaults, CrashPlusGridOutageCompletesRecoversAndConserves) {
  FaultPlan plan;
  plan.add({Minutes{60.0}, FaultKind::kServerCrash, Minutes{90.0}, 0});
  plan.add({Minutes{90.0}, FaultKind::kGridOutage, Minutes{120.0}});
  RackSimulator sim = make_faulted_sim(std::move(plan));
  const RunReport report = sim.run(Minutes{8.0 * 60.0});

  EXPECT_NEAR(report.ledger.conservation_error(), 0.0, 1e-6);
  EXPECT_EQ(count_events(sim, "fault_inject"), 4u);
  EXPECT_GE(count_events(sim, "degrade"), 1u);
  EXPECT_GE(count_events(sim, "recover"), 1u);

  // Throughput during the crash drops below the clean tail, then recovers.
  double crash_window = 0.0, tail = 0.0;
  int crash_epochs = 0, tail_epochs = 0;
  for (const auto& e : report.epochs) {
    if (e.start.value() >= 60.0 && e.start.value() < 150.0) {
      crash_window += e.throughput;
      ++crash_epochs;
    } else if (e.start.value() >= 6.0 * 60.0) {
      tail += e.throughput;
      ++tail_epochs;
    }
  }
  ASSERT_GT(crash_epochs, 0);
  ASSERT_GT(tail_epochs, 0);
  EXPECT_GT(tail / tail_epochs, crash_window / crash_epochs);
  EXPECT_GT(report.epochs.back().throughput, 0.0);
}

// ---------------------------------------------------------------------------
// Determinism: same plan + same seed => byte-identical traces, pinned by a
// golden file; an empty plan leaves the fault-free golden untouched.

std::string run_faulted_trace() {
  FaultPlan plan;
  plan.add({Minutes{45.0}, FaultKind::kServerCrash, Minutes{60.0}, 0});
  plan.add({Minutes{75.0}, FaultKind::kGridOutage, Minutes{60.0}});
  RackSimulator sim = make_faulted_sim(std::move(plan));
  sim.run(Minutes{3.0 * 60.0});
  return streamed_trace(sim);
}

TEST(FaultDeterminism, SamePlanAndSeedProduceIdenticalTraces) {
  const std::string first = run_faulted_trace();
  const std::string second = run_faulted_trace();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(FaultDeterminism, FaultTraceMatchesGoldenFile) {
  const std::string golden_path =
      std::string(GH_TEST_DATA_DIR) + "/golden/trace_faults.jsonl";
  const std::string trace = run_faulted_trace();

  if (std::getenv("GH_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path);
    ASSERT_TRUE(out) << "cannot write " << golden_path;
    out << trace;
    GTEST_SKIP() << "golden file regenerated";
  }

  std::ifstream in(golden_path);
  ASSERT_TRUE(in) << "missing golden file " << golden_path
                  << " (run with GH_UPDATE_GOLDEN=1 to create it)";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(trace, golden.str())
      << "faulted trace diverged from golden; regenerate with "
         "GH_UPDATE_GOLDEN=1 if the change is intentional";
}

TEST(FaultDeterminism, EmptyPlanMatchesTheFaultFreeGolden) {
  // Zero-cost idle: an explicitly empty FaultPlan must reproduce the
  // fault-free golden trace byte for byte.
  RackSimulator sim = make_faulted_sim(FaultPlan{});
  sim.run(Minutes{3.0 * 60.0});
  const std::string trace = streamed_trace(sim);

  const std::string golden_path =
      std::string(GH_TEST_DATA_DIR) + "/golden/trace_short.jsonl";
  std::ifstream in(golden_path);
  ASSERT_TRUE(in) << "missing golden file " << golden_path;
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(trace, golden.str());
}

// ---------------------------------------------------------------------------
// Chaos: randomized plans over a fixed seed matrix must never break the run
// or the energy books.

TEST(ChaosFaults, RandomPlansSurviveTheSeedMatrix) {
  for (std::uint64_t seed : {11u, 23u, 47u, 89u}) {
    SCOPED_TRACE("chaos seed " + std::to_string(seed));
    const Minutes duration{6.0 * 60.0};
    FaultPlan plan = make_random_plan(seed, duration, 2);
    EXPECT_FALSE(plan.empty());
    RackSimulator sim = make_faulted_sim(std::move(plan), seed);
    const RunReport report = sim.run(duration);
    EXPECT_NEAR(report.ledger.conservation_error(), 0.0, 1e-6);
    EXPECT_GE(report.total_work, 0.0);
    EXPECT_GT(count_events(sim, "fault_inject"), 0u);
  }
}

}  // namespace
}  // namespace greenhetero
