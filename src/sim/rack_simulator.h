// Rack simulator: the epoch/substep engine that drives one rack, one power
// plant and one GreenHetero controller through simulated time.
//
// Per epoch it mirrors the paper's runtime loop: plan (training run or
// predict -> select sources -> solve -> enforce), then per substep cover the
// rack's actual draw renewable-first / battery / grid, degrade the
// enforcement if the plan overshot what the sources can deliver, meter every
// flow, and at epoch end feed observations back (predictors + database).
//
// Two plant factories cover the evaluation's setups: the standard solar +
// battery + grid plant of the 24-hour runs, and a constant-budget plant
// (battery and grid disabled) for the fixed-supply studies of Figures 3, 9
// and 10.
#pragma once

#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string_view>

#include "check/invariants.h"
#include "checkpoint/checkpoint.h"
#include "core/controller.h"
#include "core/enforcer.h"
#include "core/epu.h"
#include "faults/fault_injector.h"
#include "faults/fault_plan.h"
#include "server/power_cap.h"
#include "power/energy_ledger.h"
#include "power/power_bus.h"
#include "server/rack.h"
#include "sim/epoch_driver.h"
#include "sim/epoch_store.h"
#include "sim/run_report.h"
#include "sim/sim_clock.h"
#include "telemetry/stream_sink.h"
#include "telemetry/telemetry.h"
#include "trace/trace.h"

namespace greenhetero {

/// The paper's battery provision: 10 x 12V/100Ah lead-acid (12 kWh),
/// DoD 40%, 80% efficiency, 1300 rated cycles.
[[nodiscard]] BatterySpec paper_battery_spec();

/// Standard plant: given solar production, paper battery, budgeted grid.
[[nodiscard]] RackPowerPlant make_standard_plant(PowerTrace solar,
                                                 GridSpec grid = {});

/// Fixed-green-budget plant: constant renewable at `budget` for `duration`,
/// unusable battery, no grid — the Solver then receives exactly `budget`
/// every epoch (Figures 3/9/10 setup).
[[nodiscard]] RackPowerPlant make_fixed_budget_plant(Watts budget,
                                                     Minutes duration);

/// A scheduled workload switch: at `at` minutes from simulation start the
/// whole rack moves to `workload` (the paper's workloads "can be executed
/// iteratively"; arrivals of unseen workloads trigger training runs at
/// runtime — Algorithm 1 lines 3-5).
struct WorkloadSwitch {
  Minutes at{0.0};
  Workload workload = Workload::kSpecJbb;
};

/// The run-loop knobs (streamed trace, metrics flush, checkpointing, scenario
/// fingerprint, stop flag) are RunConfig's (sim/epoch_driver.h).
struct SimConfig : RunConfig {
  ControllerConfig controller;
  Minutes substep{1.0};
  /// Optional rack power-demand trace (watts); when absent the rack always
  /// demands its full-tilt peak power.
  std::optional<PowerTrace> demand_trace;
  /// Optional workload arrival schedule, applied at epoch boundaries in
  /// order; entries must be sorted by time.
  std::vector<WorkloadSwitch> workload_schedule;
  /// Enforcement realism: false (default) applies the SPC's budget->state
  /// map instantly; true drives each group through a RAPL-style feedback
  /// capping loop instead (one control update per substep), so state
  /// changes lag the decision like real hardware capping does.
  bool rapl_enforcement = false;
  /// Metrics + trace configuration for this simulator's Telemetry instance.
  TelemetryConfig telemetry;
  /// Deterministic fault schedule replayed against this rack (empty = no
  /// faults and exactly the fault-free behaviour, bit for bit).
  FaultPlan faults;
  /// Runtime invariant checking: evaluate the check/invariants.h registry on
  /// every substep and epoch, throwing check::InvariantViolation on the
  /// first failure.  The checker is pull-only (it never mutates simulator
  /// state or emits telemetry), so results are byte-identical either way;
  /// off (the default) costs one null-pointer test per substep.
  bool check = false;
  /// Fail fast on configurations the engine cannot honour: non-positive
  /// substep, substep longer than the epoch, an unsorted workload schedule,
  /// out-of-range controller knobs or run-loop knobs.  Throws
  /// std::invalid_argument.
  void validate() const;
};

class RackSimulator final : private EpochClient {
 public:
  RackSimulator(Rack rack, RackPowerPlant plant, SimConfig config);

  [[nodiscard]] const Rack& rack() const { return rack_; }
  [[nodiscard]] const RackPowerPlant& plant() const { return plant_; }
  [[nodiscard]] GreenHeteroController& controller() { return controller_; }
  [[nodiscard]] const GreenHeteroController& controller() const {
    return controller_;
  }

  /// Populate the database out-of-band (the paper's "workload has executed
  /// before" steady state): runs the training sweep under ample power
  /// without touching the plant or the report.
  void pretrain();

  /// Simulate `duration` minutes and return the report.  May be called
  /// repeatedly; state (battery, database, predictors) carries over.  After
  /// load_checkpoint, `duration` is the absolute horizon the resumed run
  /// completes (EpochDriver::run).
  RunReport run(Minutes duration);

  /// Advance exactly one scheduling epoch and return its record.  The fleet
  /// coordinator drives racks in lockstep through this; `run()` is a loop
  /// over it.  State carries over across calls.
  EpochRecord step_epoch();

  /// Replace the grid budget from the next planning decision on (the fleet
  /// coordinator reassigns shares of a datacenter-level budget per epoch).
  void set_grid_budget(Watts budget);

  /// Accumulated accounting since construction (used by run() and by the
  /// fleet coordinator to assemble reports).
  [[nodiscard]] const EnergyLedger& ledger() const { return ledger_; }
  [[nodiscard]] double overall_epu() const { return run_epu_.epu(); }
  [[nodiscard]] Minutes now() const { return clock_.now(); }
  /// Completed epochs since construction (the checkpoint cadence index).
  [[nodiscard]] std::size_t epoch_index() const override {
    return clock_.epoch_index();
  }

  /// This simulator's telemetry context (metrics registry + trace ring).
  [[nodiscard]] Telemetry& telemetry() { return *telemetry_; }
  [[nodiscard]] const Telemetry& telemetry() const { return *telemetry_; }
  /// The streaming sink (null unless SimConfig::trace_stream was set).
  [[nodiscard]] telemetry::StreamingTraceSink* stream() {
    return driver_.stream();
  }
  [[nodiscard]] const telemetry::StreamingTraceSink* stream() const {
    return driver_.stream();
  }

  /// Close the trailing partial rollup window (if the aggregator is on) and
  /// emit it as a final "rollup" event.  run() calls this at the end; the
  /// fleet coordinator calls it per rack before writing artifacts.
  void flush_rollup() override;

  /// Dump the flight recorder: ring contents + a metrics snapshot + the
  /// fault plan rendered as "fault_plan_row" context rows (delivered/pending
  /// as of now).  No-op returning an empty path unless the recorder is
  /// enabled (TelemetryConfig::flightrec_dir).  Called automatically when
  /// the health tracker leaves normal or an invariant fires; callable
  /// directly for run-abort hooks.
  std::filesystem::path dump_flight_record(std::string_view reason);
  /// Snapshot of all metrics accumulated so far.
  [[nodiscard]] MetricsSnapshot metrics_snapshot() const {
    return telemetry_->metrics().snapshot();
  }

  /// The invariant checker (counters for reporting); null unless
  /// SimConfig::check was set.
  [[nodiscard]] const check::InvariantChecker* checker() const {
    return checker_.get();
  }

  /// Serialize the complete resumable state (everything except what the
  /// configuration rebuilds deterministically) — RNG streams, sim clock,
  /// rack/plant/controller state, fault cursor, telemetry, completed-epoch
  /// history.  The streaming sink is NOT included; write_checkpoint /
  /// load_checkpoint handle it alongside.
  template <class Self, class Io>
  static void fields(Self& self, Io& io);

  /// EpochDriver::write_checkpoint / load_checkpoint for this rack.  Called
  /// by run() at the configured cadence; callable at any epoch barrier.
  void write_checkpoint() { driver_.write_checkpoint(*this); }
  void load_checkpoint(const checkpoint::Snapshot& snapshot) {
    driver_.load_checkpoint(*this, snapshot);
  }

 private:
  struct EpochStats;  // defined in the .cpp

  EpochRecord step_epoch_impl();
  /// The training sweep's group budgets (`budgets[i]`, resized to the group
  /// count): every server of group i at `fraction` of its [idle, peak]
  /// range, plus 0.01 W.
  void sweep_budgets(double fraction, std::vector<Watts>& budgets) const;
  /// Record one training run's samples for `key`, its zero-power (dropped)
  /// readings left out.  Returns null once the database holds the pair,
  /// otherwise why it does not: fewer than 3 valid samples or a degenerate
  /// fit.
  const char* record_training_run(ProfileKey key,
                                  std::span<const ServerSample> samples);
  void run_training_epoch(const EpochPlan& plan, EpochRecord& record);
  void run_normal_epoch(const EpochPlan& plan, Watts demand_hint,
                        EpochRecord& record);
  /// Emit the authoritative epoch_plan trace event + epoch counters.
  void record_epoch_telemetry(const EpochRecord& record);
  /// One substep: cover the rack draw, degrade on shortfall, execute flows.
  PowerFlows execute_substep(const SourceDecision& decision,
                             std::vector<Watts>& group_power,
                             EpochStats& stats);
  [[nodiscard]] Watts demand_at(Minutes t) const;
  void apply_workload_schedule(Minutes now);
  /// Replay every fault action due at `now` (no-op without a fault plan).
  void apply_due_faults(Minutes now);
  void apply_fault_action(const FaultAction& action, Minutes now);

  /// RAPL mode: apply per-group caps through the feedback controllers.
  void enforce_with_rapl(std::span<const Watts> group_power);

  // EpochClient: what run() hands the driver.
  [[nodiscard]] const RunConfig& run_config() const override {
    return config_;
  }
  std::size_t advance_epoch(std::size_t epoch) override;
  void restart_history() override { epochs_.reset(1); }
  [[nodiscard]] std::vector<telemetry::MetricsSource> metrics_sources()
      const override {
    return {{&telemetry_->metrics()}};
  }
  [[nodiscard]] std::uint64_t trace_dropped() const override {
    return telemetry_->trace().dropped();
  }
  void push_trace(telemetry::StreamingTraceSink* sink, bool final) override;
  void save_chunks(std::vector<checkpoint::Writer>& chunks) const override {
    checkpoint::save(chunks.emplace_back(), *this);
  }
  void load_state(checkpoint::Reader& r) override {
    checkpoint::load(r, *this);
  }

  Rack rack_;
  RackPowerPlant plant_;
  SimConfig config_;
  /// unique_ptr: the registry is non-copyable and the fleet stores
  /// simulators in a vector, so the context must stay movable.
  std::unique_ptr<Telemetry> telemetry_;
  /// The run() loop; owns the streaming sink when SimConfig::trace_stream
  /// is set.
  EpochDriver driver_;
  /// Previous epoch's health state, for the flight-recorder trigger edge.
  HealthState last_health_ = HealthState::kNormal;
  GreenHeteroController controller_;
  SimClock clock_;
  EnergyLedger ledger_;
  EpuMeter run_epu_;
  std::size_t next_switch_ = 0;
  std::vector<PowerCapController> rapl_;  ///< one per group (RAPL mode)
  /// Engaged only when the plan is non-empty, so fault-free runs take no
  /// extra work (and stay byte-identical to pre-fault builds).
  std::optional<FaultInjector> injector_;
  /// While a solar *sensor* is stuck, the value it keeps reporting (the
  /// physical array is unaffected; only the controller's feedback lies).
  std::optional<Watts> solar_sensor_stuck_;
  /// Engaged only when SimConfig::check is set; the hot path tests the
  /// pointer once per substep when off.
  std::unique_ptr<check::InvariantChecker> checker_;
  /// Completed-epoch history for the standalone run() report (SoA columns,
  /// racks() == 1).  Lives on the simulator (not run()'s stack) so
  /// checkpoints capture it and a resumed run reproduces the full report,
  /// first epoch to last.
  EpochRecordStore epochs_;
};

}  // namespace greenhetero
