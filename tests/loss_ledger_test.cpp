// EPU loss-attribution ledger: the per-step waterfall must decompose
// supply - useful into named buckets *exactly* (sum(buckets) == residual
// within 1e-6 W on every epoch), attribute shortfall to faults vs. the grid
// cap, split battery charging into stored and round-trip shares, and claim
// curtailed renewable in the fixed candidate order.  End-to-end runs cross-
// check the watt-domain ledger against the EnergyLedger's energy integrals.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string_view>
#include <unordered_set>

#include "faults/fault_plan.h"
#include "server/combinations.h"
#include "sim/rack_simulator.h"
#include "telemetry/ledger.h"
#include "trace/load_pattern.h"
#include "trace/solar.h"
#include "trace_file.h"

namespace greenhetero {
namespace {

namespace tel = telemetry;
using tel::LossBucket;
using tel::LossLedger;

TEST(LossBuckets, NamesAreUniqueAndEnumerableInOrder) {
  const auto buckets = tel::all_loss_buckets();
  ASSERT_EQ(buckets.size(), tel::kLossBucketCount);
  std::unordered_set<std::string_view> names;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    EXPECT_EQ(static_cast<std::size_t>(buckets[i]), i);  // enum order
    const std::string_view name = tel::to_string(buckets[i]);
    EXPECT_NE(name, "unknown");
    EXPECT_TRUE(names.insert(name).second) << "duplicate name " << name;
  }
}

TEST(LossLedger, GuardsEpochLifecycle) {
  LossLedger ledger;
  EXPECT_THROW(ledger.post_step({}), std::logic_error);
  EXPECT_THROW(ledger.end_epoch(), std::logic_error);
  ledger.begin_epoch(0.0, 1000.0);
  EXPECT_TRUE(ledger.epoch_open());
  EXPECT_THROW(ledger.begin_epoch(15.0, 1000.0), std::logic_error);
  (void)ledger.end_epoch();
  EXPECT_FALSE(ledger.epoch_open());
}

TEST(LossLedger, BatteryChargeSplitsIntoStoredAndRoundTrip) {
  LossLedger ledger;
  ledger.begin_epoch(0.0, 2000.0);
  ledger.set_plan(/*predicted_renewable_w=*/500.0, /*planned_green_w=*/500.0);
  LossLedger::StepInputs in;
  in.renewable_w = 500.0;       // 400 to load, 100 to battery
  in.load_w = 400.0;
  in.renewable_to_battery_w = 100.0;
  in.round_trip_efficiency = 0.8;
  ledger.post_step(in);
  const tel::EpochLossRecord rec = ledger.end_epoch();

  EXPECT_DOUBLE_EQ(rec.supply_w, 500.0);
  EXPECT_DOUBLE_EQ(rec.useful_w, 400.0);
  EXPECT_DOUBLE_EQ(rec.bucket(LossBucket::kBatteryStored), 80.0);
  EXPECT_DOUBLE_EQ(rec.bucket(LossBucket::kBatteryRoundTrip), 20.0);
  EXPECT_LT(rec.invariant_error_w(), 1e-6);
  EXPECT_DOUBLE_EQ(rec.epu(), 0.8);
}

TEST(LossLedger, ShortfallGoesToFaultOrGridCapByContext) {
  for (const bool faulted : {true, false}) {
    LossLedger ledger;
    ledger.begin_epoch(0.0, 2000.0);
    LossLedger::StepInputs in;
    in.grid_to_load_w = 300.0;
    in.load_w = 300.0;
    in.shortfall_w = 150.0;  // plan wanted 450 W, sources gave 300
    in.source_fault_active = faulted;
    ledger.post_step(in);
    const tel::EpochLossRecord rec = ledger.end_epoch();
    EXPECT_DOUBLE_EQ(rec.bucket(LossBucket::kFault), faulted ? 150.0 : 0.0);
    EXPECT_DOUBLE_EQ(rec.bucket(LossBucket::kGridCap), faulted ? 0.0 : 150.0);
    EXPECT_LT(rec.invariant_error_w(), 1e-6);
  }
}

TEST(LossLedger, CurtailmentWaterfallClaimsInPriorityOrder) {
  // 100 W curtailed against candidates fault=40, idle=30, clamp=20,
  // dvfs=20: the first four claim 40+30+20+10 and exhaust the curtailment,
  // so prediction error and genuine surplus get nothing.
  LossLedger ledger;
  ledger.begin_epoch(0.0, 2000.0);
  ledger.set_plan(600.0, 600.0);
  LossLedger::StepInputs in;
  in.renewable_w = 600.0;
  in.load_w = 500.0;
  in.curtailed_w = 100.0;
  in.gaps.fault_w = 40.0;
  in.gaps.idle_floor_w = 30.0;
  in.gaps.solver_clamp_w = 20.0;
  in.gaps.dvfs_quantization_w = 20.0;
  ledger.post_step(in);
  const tel::EpochLossRecord rec = ledger.end_epoch();

  EXPECT_DOUBLE_EQ(rec.bucket(LossBucket::kFault), 40.0);
  EXPECT_DOUBLE_EQ(rec.bucket(LossBucket::kIdleFloor), 30.0);
  EXPECT_DOUBLE_EQ(rec.bucket(LossBucket::kSolverClamp), 20.0);
  EXPECT_DOUBLE_EQ(rec.bucket(LossBucket::kDvfsQuantization), 10.0);
  EXPECT_DOUBLE_EQ(rec.bucket(LossBucket::kPredictionError), 0.0);
  EXPECT_DOUBLE_EQ(rec.bucket(LossBucket::kCurtailed), 0.0);
  EXPECT_LT(rec.invariant_error_w(), 1e-6);
}

TEST(LossLedger, PredictionErrorClaimsUnplannedUsableSurplus) {
  // The plan offered 200 W green but 800 W renewable arrived; the rack
  // could have drawn up to its 600 W peak, so 400 W of the curtailment is
  // a forecasting loss and the 200 W beyond peak is genuine surplus.
  LossLedger ledger;
  ledger.begin_epoch(0.0, /*rack_peak_w=*/600.0);
  ledger.set_plan(/*predicted_renewable_w=*/200.0, /*planned_green_w=*/200.0);
  LossLedger::StepInputs in;
  in.renewable_w = 800.0;
  in.load_w = 200.0;
  in.curtailed_w = 600.0;
  ledger.post_step(in);
  const tel::EpochLossRecord rec = ledger.end_epoch();

  EXPECT_DOUBLE_EQ(rec.bucket(LossBucket::kPredictionError), 400.0);
  EXPECT_DOUBLE_EQ(rec.bucket(LossBucket::kCurtailed), 200.0);
  EXPECT_LT(rec.invariant_error_w(), 1e-6);
}

TEST(LossLedger, EpochMeansAverageOverSteps) {
  LossLedger ledger;
  ledger.begin_epoch(30.0, 2000.0);
  LossLedger::StepInputs in;
  in.renewable_w = 100.0;
  in.load_w = 100.0;
  ledger.post_step(in);
  in.renewable_w = 300.0;
  in.load_w = 200.0;
  in.curtailed_w = 100.0;
  ledger.post_step(in);
  const tel::EpochLossRecord rec = ledger.end_epoch();
  EXPECT_DOUBLE_EQ(rec.start_min, 30.0);
  EXPECT_DOUBLE_EQ(rec.supply_w, 200.0);
  EXPECT_DOUBLE_EQ(rec.useful_w, 150.0);
  ASSERT_EQ(ledger.epochs().size(), 1u);
}

// ---------------------------------------------------------------------------
// End-to-end: the simulator posts real flows; the invariant must hold on
// every epoch and the watt ledger must integrate to the energy ledger.

RackSimulator make_ledger_sim(FaultPlan plan, std::uint64_t seed = 42) {
  Rack rack{default_runtime_rack(), Workload::kSpecJbb};
  SimConfig cfg;
  cfg.controller.policy = PolicyKind::kGreenHetero;
  cfg.controller.seed = seed;
  cfg.telemetry.loss_ledger = true;
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

TEST(LossLedgerEndToEnd, InvariantHoldsOnEveryFaultFreeEpoch) {
  RackSimulator sim = make_ledger_sim(FaultPlan{});
  const RunReport report = sim.run(Minutes{24.0 * 60.0});
  const auto& epochs = sim.telemetry().loss().epochs();
  ASSERT_EQ(epochs.size(), report.epochs.size());

  double round_trip_wh = 0.0;
  const double epoch_hours =
      sim.controller().config().epoch.value() / 60.0;
  for (const tel::EpochLossRecord& rec : epochs) {
    EXPECT_LT(rec.invariant_error_w(), 1e-6)
        << "epoch @" << rec.start_min << "min";
    EXPECT_DOUBLE_EQ(rec.bucket(LossBucket::kFault), 0.0)
        << "fault bucket charged on a fault-free run @" << rec.start_min;
    round_trip_wh += rec.bucket(LossBucket::kBatteryRoundTrip) * epoch_hours;
  }
  // Watt-domain ledger integrates to the energy-domain books.
  const double expected_wh =
      report.ledger
          .battery_round_trip_loss(
              sim.plant().battery().round_trip_efficiency())
          .value();
  EXPECT_NEAR(round_trip_wh, expected_wh, 1e-6 + 1e-9 * expected_wh);

  // The ledger's own EPU metrics made it into the snapshot.
  const auto* invariant =
      report.metrics.find("gh_loss_invariant_error_w");
  ASSERT_NE(invariant, nullptr);
  EXPECT_LT(invariant->value, 1e-6);
  const auto* epochs_total = report.metrics.find("gh_loss_epochs_total");
  ASSERT_NE(epochs_total, nullptr);
  EXPECT_DOUBLE_EQ(epochs_total->value,
                   static_cast<double>(report.epochs.size()));
}

TEST(LossLedgerEndToEnd, FaultsChargeTheFaultBucketAndKeepTheInvariant) {
  // Crash a server group at midday: the dead group can't consume its share
  // of the solar surplus, so once the (small) battery tops off, the
  // resulting curtailment is attributable to the fault — the waterfall
  // must book it as kFault, not kCurtailed.
  FaultPlan plan;
  plan.add({Minutes{720.0}, FaultKind::kServerCrash, Minutes{120.0}, 0});
  Rack rack{default_runtime_rack(), Workload::kSpecJbb};
  SimConfig cfg;
  cfg.controller.policy = PolicyKind::kGreenHetero;
  cfg.controller.seed = 42;
  cfg.telemetry.loss_ledger = true;
  cfg.faults = std::move(plan);
  cfg.demand_trace =
      generate_load_trace(LoadPatternModel{}, rack.peak_demand(), 2, 42);
  GridSpec grid;
  grid.budget = Watts{1000.0};
  RackSimulator sim{
      std::move(rack),
      RackPowerPlant{
          SolarArray{generate_solar_trace(high_solar_model(Watts{2500.0}), 2,
                                          42)},
          Battery{lead_acid_spec(WattHours{12'000.0})}, GridSupply{grid}},
      std::move(cfg)};
  sim.pretrain();
  (void)sim.run(Minutes{18.0 * 60.0});

  double fault_w = 0.0;
  for (const tel::EpochLossRecord& rec : sim.telemetry().loss().epochs()) {
    EXPECT_LT(rec.invariant_error_w(), 1e-6)
        << "epoch @" << rec.start_min << "min";
    if (rec.start_min >= 720.0 && rec.start_min < 840.0) {
      fault_w += rec.bucket(LossBucket::kFault);
    } else {
      EXPECT_DOUBLE_EQ(rec.bucket(LossBucket::kFault), 0.0)
          << "fault bucket charged outside the fault window @"
          << rec.start_min;
    }
  }
  EXPECT_GT(fault_w, 0.0) << "faulted window never charged the fault bucket";
}

TEST(LossLedgerEndToEnd, DisabledLedgerRecordsNothing) {
  const testtrace::ScratchDir scratch;
  Rack rack{default_runtime_rack(), Workload::kSpecJbb};
  SimConfig cfg;
  cfg.controller.policy = PolicyKind::kGreenHetero;
  cfg.controller.seed = 42;  // loss_ledger stays default-off
  cfg.trace_stream = tel::StreamSinkConfig{scratch / "trace.jsonl"};
  GridSpec grid;
  grid.budget = Watts{800.0};
  RackSimulator sim{
      std::move(rack),
      make_standard_plant(
          generate_solar_trace(high_solar_model(Watts{2500.0}), 1, 42), grid),
      std::move(cfg)};
  sim.pretrain();
  const RunReport report = sim.run(Minutes{2.0 * 60.0});
  EXPECT_TRUE(sim.telemetry().loss().epochs().empty());
  EXPECT_EQ(report.metrics.find("gh_loss_epochs_total"), nullptr);
  const std::vector<json::Value> events = testtrace::streamed_events(sim);
  EXPECT_FALSE(events.empty());
  EXPECT_EQ(testtrace::count_phase(events, "loss_ledger"), 0u);
}

}  // namespace
}  // namespace greenhetero
