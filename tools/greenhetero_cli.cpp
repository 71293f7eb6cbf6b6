// greenhetero — command-line front end to the library.
//
// Any unknown flag, `--help` included, prints the usage and exits 2.
//
// --metrics-out picks its format by extension: ".json" exports JSON, ".txt"
// a human-readable table (histograms with p50/p90/p99), anything else
// Prometheus text exposition.  The file is also rewritten mid-run every
// --metrics-every epochs (crash-safe temp-file + rename), so a long run's
// metrics survive an abort.
//
// --trace-out streams trace events to the file as the run progresses,
// through a bounded queue, so trace memory stays flat however long the run.
// gh_trace_queue_depth / gh_trace_stalls_total expose the backpressure.
// Without --trace-out (or --flightrec-dir) the run builds no trace events.
//
// --rollup-out writes a compact fixed-window per-rack series (mean EPU,
// shortfall, grid, health occupancy, loss buckets; --rollup-window minutes
// per window) that `analyze` renders as a rollup trend table; the same
// events are also embedded in the main trace.
//
// --flightrec-dir keeps a small always-on ring of recent full-detail events
// per rack and dumps it (plus a metrics snapshot and the fault plan) into
// the directory when a rack's health tracker leaves normal, an invariant
// fires, or the run aborts.
//
// --ledger records the per-epoch EPU loss ledger ("loss_ledger" trace
// events + gh_loss_* metrics); --spans-out enables control-loop span
// tracing and writes a Chrome trace_event JSON (chrome://tracing,
// Perfetto).  Both are off by default to keep traces byte-deterministic.
//
// fleet --threads N steps the racks on N worker threads per epoch (0 uses
// one per hardware thread; 1 forces the sequential path).
// --shards S splits the fleet into S contiguous rack groups, each stepping
// on its own slice of the worker pool with one cheap top-level budget
// exchange per epoch (0 derives one shard per worker thread); at 10k-rack
// scale this replaces the single global barrier with S small ones.
// Reports and traces are byte-identical for every thread and shard count.
//
// --check enables the runtime invariant checker (src/check/invariants.h):
// every substep and epoch is validated against the invariant registry and
// the first violation aborts the run with a structured diagnostic.  Results
// are byte-identical with or without it (the checker is read-only).
//
// fuzz generates seed-replayable random scenarios (rack mixes, solar
// traces, fault plans), runs each sequentially and in parallel with
// invariants on, cross-checks the solver against the brute-force oracle,
// and on failure prints a shrunk repro command line; exits 4 on failure.
//
// --profile-out enables the in-process profiler: every GH_SPAN phase gets
// wall ns and allocation bytes/counts attributed to its span path (root
// spans thread-CPU ns too), and the merged phase tree lands in FILE.json at
// the end of the run.
// Everything except the *_ns timings is byte-identical at any --threads;
// `analyze --perf FILE.json` renders it (--top N hot phases).
//
// analyze exits 0 when --diff stays within --threshold and 3 when it drifts
// beyond it — the CI trace gate keys off that.
//
// benchdiff applies the same exit-code contract to performance: it compares
// the *_ns (lower better) and *_per_sec (higher better) figures of a fresh
// BENCH_*.json against a committed baseline and exits 3 when any drifts past
// --threshold ("0.15" or "15%").  --trajectory appends one dated row
// (metrics + build info) to the committed history log.
//
// --checkpoint-dir enables durable checkpointing: every --checkpoint-every
// epochs the complete resumable state — RNG streams, clock,
// battery/server/controller state, fault cursors, telemetry, streamed-file
// watermarks — is written as a versioned, checksummed snapshot (temp file +
// rename; the newest --checkpoint-keep are retained).  --resume DIR reloads
// the latest valid snapshot and continues the run; final reports, traces,
// rollups and metrics come out byte-identical to an uninterrupted run at
// any thread count.  SIGINT/SIGTERM stop the run at the next epoch barrier:
// a last checkpoint is written, outputs are finalized for the completed
// epochs and the process exits 5.
//
// fuzz --crash drives real `fleet` and `simulate` child processes, SIGKILLs
// them at random points, resumes them via --resume and byte-compares the
// outputs against an uninterrupted reference; exits 4 on any divergence.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "analysis/benchdiff.h"
#include "analysis/perf_report.h"
#include "analysis/trace_analyzer.h"
#include "check/crash.h"
#include "check/fuzzer.h"
#include "checkpoint/checkpoint.h"
#include "cli_tables.h"
#include "core/policies.h"
#include "faults/fault_plan.h"
#include "fleet/fleet.h"
#include "power/carbon.h"
#include "server/combinations.h"
#include "sim/rack_simulator.h"
#include "trace/load_pattern.h"
#include "trace/solar.h"
#include "trace/statistics.h"
#include "trace/wind.h"
#include "util/atomic_file.h"
#include "util/logging.h"

namespace {

using namespace greenhetero;
using util::Options;

/// Set by the SIGINT/SIGTERM handler; the simulator/fleet polls it at every
/// epoch barrier, writes a final checkpoint and finalizes what completed.
std::atomic<bool> g_stop{false};

extern "C" void handle_stop_signal(int) {
  g_stop.store(true, std::memory_order_relaxed);
}

/// Exit code for a run cut short by SIGINT/SIGTERM (outputs are finalized
/// for the completed epochs and a last checkpoint was written).
constexpr int kExitInterrupted = 5;

/// The path of this very binary (for the crash fuzzer's re-exec); falls
/// back to argv[0] where /proc/self/exe is unavailable.
std::string g_argv0;

std::string self_exe_path() {
  std::error_code ec;
  const std::filesystem::path self =
      std::filesystem::read_symlink("/proc/self/exe", ec);
  if (!ec && !self.empty()) return self.string();
  return g_argv0;
}

/// Shared by simulate and fleet: one rack's fault plan, telemetry and
/// invariant-checker knobs.
SimConfig rack_config(Options& options) {
  SimConfig cfg;
  cfg.check = options.flag("check");
  cfg.telemetry.loss_ledger = options.flag("ledger");
  cfg.telemetry.spans = !options.text("spans-out").empty();
  cfg.telemetry.profile = !options.text("profile-out").empty();
  // --rollup-window alone also enables the aggregator (events land in the
  // main trace); --rollup-out alone defaults to hourly windows.
  cfg.telemetry.rollup_window_min = options.derive(
      "rollup-window", options.text("rollup-out").empty() ? 0.0 : 60.0);
  cfg.telemetry.flightrec_dir = options.text("flightrec-dir");
  if (const std::string& faults = options.text("faults"); !faults.empty()) {
    cfg.faults = FaultPlan::load_csv(faults);
    std::printf("fault plan: %zu event(s) from %s\n", cfg.faults.size(),
                faults.c_str());
  }
  return cfg;
}

/// What configure_run resolved: the --resume snapshot to load (if any) and
/// whether the run checkpoints at all.
struct RunSetup {
  std::optional<checkpoint::Snapshot> snapshot;
  bool checkpointing = false;
};

/// Shared by simulate and fleet: fill the run-loop knobs and install the
/// stop handlers.  --resume DIR implies checkpointing into DIR; a directory
/// without snapshots warns and starts fresh (a crash may land before the
/// first checkpoint ever gets written), but one whose snapshots all fail to
/// load is refused before --trace-out is touched: starting fresh would
/// truncate the interrupted run's trace.  Every derived scenario row must
/// be settled before this call: it fingerprints the scenario.
RunSetup configure_run(const Options& options, RunConfig& cfg) {
  RunSetup setup;
  cfg.checkpoint_dir = options.text("checkpoint-dir");
  cfg.checkpoint_every = options.integer<int>("checkpoint-every");
  cfg.checkpoint_keep = options.integer<int>("checkpoint-keep");
  if (const std::string& resume_dir = options.text("resume");
      !resume_dir.empty()) {
    if (cfg.checkpoint_dir.empty()) cfg.checkpoint_dir = resume_dir;
    setup.snapshot = checkpoint::load_latest(resume_dir);
    const std::size_t unloadable =
        setup.snapshot ? 0 : checkpoint::list_snapshots(resume_dir).size();
    if (unloadable > 0) {
      throw util::OptionError(
          "--resume: none of the " + std::to_string(unloadable) +
          " snapshot(s) in " + resume_dir +
          " loads; refusing to start fresh over them");
    }
    if (!setup.snapshot) {
      std::fprintf(stderr,
                   "resume: no valid snapshot in %s; starting fresh (will "
                   "checkpoint into it)\n",
                   resume_dir.c_str());
    }
  }
  setup.checkpointing = !cfg.checkpoint_dir.empty();
  if (const std::string& trace_out = options.text("trace-out");
      !trace_out.empty()) {
    telemetry::StreamSinkConfig sink_cfg{trace_out};
    // Resume mode defers the open/header; load_checkpoint truncates the
    // existing file to the durable watermark and reopens it for append.
    sink_cfg.resume = setup.snapshot.has_value();
    cfg.trace_stream = sink_cfg;
  }
  cfg.metrics_out = options.text("metrics-out");
  cfg.metrics_flush_every = options.integer<int>("metrics-every");
  cfg.config_hash = checkpoint::fnv1a(options.scenario_key());
  cfg.stop_flag = &g_stop;
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  return setup;
}

void dump_flight_records(RackSimulator& sim, std::string_view reason) {
  sim.dump_flight_record(reason);
}
void dump_flight_records(Fleet& fleet, std::string_view reason) {
  fleet.dump_flight_records(reason);
}

template <typename F>
void for_each_rack(RackSimulator& sim, F&& f) {
  f(sim);
}
template <typename F>
void for_each_rack(Fleet& fleet, F&& f) {
  for (std::size_t i = 0; i < fleet.size(); ++i) f(fleet.rack(i));
}

/// Shared by simulate and fleet: pretrain, resume from the snapshot (if
/// any) and run, dumping the flight recorders when the run aborts.
/// pretrain() always runs: load_checkpoint overwrites its effects (the
/// database, RNG streams and rack state all come from the snapshot), so
/// fresh and resumed runs take the identical construction path.
template <typename Runner>
auto resume_and_run(Runner& runner, const RunSetup& setup, Minutes duration) {
  runner.pretrain();
  if (setup.snapshot) {
    runner.load_checkpoint(*setup.snapshot);
    std::printf("resumed from %s (epoch %llu)\n",
                setup.snapshot->path.string().c_str(),
                static_cast<unsigned long long>(setup.snapshot->epoch_index));
  }
  try {
    return runner.run(duration);
  } catch (const check::InvariantViolation&) {
    throw;  // the offending rack already dumped its flight record
  } catch (const std::exception&) {
    dump_flight_records(runner, "run_abort");
    throw;
  }
}

/// Shared by simulate and fleet: the invariant counts, the health
/// transitions, the output files and the exit code.  A stopped run dumps the
/// flight recorders and exits 5.
template <typename Runner>
int finish_run(Runner& runner, const Options& options, const RunSetup& setup,
               bool interrupted, std::size_t epochs) {
  constexpr bool kFleet = std::is_same_v<Runner, Fleet>;
  unsigned long long checks = 0;
  unsigned long long substeps = 0;
  unsigned long long checked_epochs = 0;
  int dumps = 0;
  std::map<std::string, double> transitions;  // by target state
  for_each_rack(runner, [&](const RackSimulator& rack) {
    if (const check::InvariantChecker* checker = rack.checker()) {
      checks += checker->checks_passed();
      substeps += checker->substeps_checked();
      checked_epochs += checker->epochs_checked();
    }
    dumps += rack.telemetry().flightrec().dumps();
    for (const auto& e : rack.telemetry().metrics().snapshot().entries) {
      if (e.name == "gh_health_transitions_total") {
        transitions[e.labels.front().second] += e.value;
      }
    }
  });
  // Each transition is a degrade/recover trace event and a counter; the
  // controllers log them at debug level, so the run reports them once here.
  if (!transitions.empty()) {
    double total = 0.0;
    std::string by_state;
    for (const auto& [state, count] : transitions) {
      total += count;
      by_state += " " + state + "=" + telemetry::format_number(count);
    }
    std::fprintf(stderr, "health: %s transition(s) by target state:%s\n",
                 telemetry::format_number(total).c_str(), by_state.c_str());
  }
  if (options.flag("check")) {
    std::printf("  invariants:       %llu checks over %llu substeps / %llu "
                "rack-epochs, all passed\n",
                checks, substeps, checked_epochs);
  }
  if (telemetry::StreamingTraceSink* sink = runner.stream()) {
    sink->close();
    std::printf("  trace streamed to %s (%llu events, %llu stall(s), peak "
                "queue %zu)\n",
                sink->config().path.string().c_str(),
                static_cast<unsigned long long>(sink->events_written()),
                static_cast<unsigned long long>(sink->stalls()),
                sink->peak_queue_depth());
  }
  if (const std::string& path = options.text("rollup-out"); !path.empty()) {
    if constexpr (kFleet) {
      runner.save_rollup_jsonl(path);
    } else {
      std::ostringstream out;
      runner.telemetry().rollup().write_jsonl(out, runner.telemetry().rack_id());
      util::write_file_atomic(path, out.str());
    }
    std::printf("  rollup series written to %s\n", path.c_str());
  }
  if (const std::string& dir = options.text("flightrec-dir"); !dir.empty()) {
    std::printf("  flight recorder: %d dump(s) in %s\n", dumps, dir.c_str());
  }
  if (const std::string& path = options.text("spans-out"); !path.empty()) {
    if constexpr (kFleet) {
      runner.save_chrome_spans(path);
    } else {
      runner.telemetry().spans().save_chrome_trace(path);
    }
    std::printf("  spans written to %s (load in chrome://tracing)\n",
                path.c_str());
  }
  if (const std::string& path = options.text("profile-out"); !path.empty()) {
    telemetry::ProfileReport profile;
    if constexpr (kFleet) {
      profile = runner.profile_report();
    } else {
      profile = runner.telemetry().profiler().report();
    }
    telemetry::save_profile_json(profile, path);
    std::printf("  profile (%zu phases) written to %s (inspect with "
                "`greenhetero analyze --perf`)\n",
                profile.size(), path.c_str());
  }
  if (const std::string& path = options.text("metrics-out"); !path.empty()) {
    // run() already wrote the final snapshot (and the periodic ones).
    std::printf("  metrics written to %s\n", path.c_str());
  }
  if (!interrupted) return 0;
  dump_flight_records(runner, "interrupted");
  std::printf("interrupted after %zu epoch(s); outputs cover the completed "
              "prefix%s\n",
              epochs, setup.checkpointing ? ", resume with --resume" : "");
  return kExitInterrupted;
}

int cmd_info(Options& options) {
  if (options.flag("json")) {
    // Machine-readable build/feature flags; benchdiff --trajectory embeds
    // the same object so every history row records its build.
    std::printf("%s\n", telemetry::build_info_json().c_str());
    return 0;
  }
  std::printf("Servers (Table II):\n");
  for (const auto& s : all_server_specs()) {
    std::printf("  %-16s %d sockets, %4d cores @ %.3f GHz, %3.0f-%3.0f W\n",
                std::string(s.name).c_str(), s.sockets, s.cores,
                s.frequency_ghz, s.idle_power.value(), s.peak_power.value());
  }
  std::printf("\nWorkloads (Table I):\n");
  for (const auto& w : all_workload_specs()) {
    std::printf("  %-24s %-11s %s\n", std::string(w.name).c_str(),
                std::string(to_string(w.suite)).c_str(),
                std::string(w.metric).c_str());
  }
  std::printf("\nCombinations (Table IV):\n");
  for (const auto& c : table4_combinations()) {
    std::printf("  %-8s", std::string(c.name).c_str());
    for (const auto& g : c.groups) {
      std::printf(" %dx %s,", g.count,
                  std::string(server_spec(g.model).name).c_str());
    }
    std::printf("\b \n");
  }
  std::printf("\nPolicies (Table III): ");
  for (PolicyKind kind : kAllPolicies) {
    std::printf("%s ", std::string(to_string(kind)).c_str());
  }
  std::printf("\n");
  const telemetry::BuildInfo build = telemetry::build_info();
  std::printf("\nTelemetry build:\n");
  std::printf("  spans:            %s\n",
              build.probes_enabled ? "enabled"
                                   : "compiled out (-DGH_TELEMETRY=OFF)");
  std::printf("  trace schema:     v%d\n", build.trace_schema_version);
  std::printf("  builtin metrics:  %zu\n", build.builtin_metric_count);
  return 0;
}

int cmd_simulate(Options& options) {
  const std::string& policy_name = options.text("policy");
  PolicyKind policy = kAllPolicies[0];
  for (PolicyKind kind : kAllPolicies) {
    if (to_string(kind) == policy_name) policy = kind;
  }
  const Workload workload = workload_by_name(options.text("workload"));
  const int days = options.integer<int>("days");
  const Watts capacity{options.number("capacity")};
  const auto seed = options.integer<std::uint64_t>("seed");

  Rack rack{combination_by_name(options.text("comb")).groups, workload};
  SimConfig cfg = rack_config(options);
  cfg.controller.policy = policy;
  cfg.controller.seed = seed;
  const RunSetup setup = configure_run(options, cfg);
  cfg.demand_trace =
      generate_load_trace(LoadPatternModel{}, rack.peak_demand(),
                          days + 1, seed);
  GridSpec grid;
  grid.budget = Watts{options.number("grid")};

  const std::string& trace_kind = options.text("trace");
  const PowerTrace solar =
      trace_kind == "low"
          ? generate_solar_trace(low_solar_model(capacity), days + 1, seed)
          : generate_solar_trace(high_solar_model(capacity), days + 1, seed);

  const WattHours pack{options.number("battery-kwh") * 1000.0};
  const BatterySpec battery = options.text("chemistry") == "li"
                                  ? li_ion_spec(pack)
                                  : lead_acid_spec(pack);

  RackSimulator sim{std::move(rack),
                    RackPowerPlant{SolarArray{solar}, Battery{battery},
                                   GridSupply{grid}},
                    std::move(cfg)};
  const RunReport report =
      resume_and_run(sim, setup, Minutes{days * 24.0 * 60.0});

  std::printf("policy %s, workload %s, %d day(s), %s trace\n",
              policy_name.c_str(),
              std::string(workload_spec(workload).name).c_str(), days,
              trace_kind.c_str());
  std::printf("  mean throughput:  %.0f\n", report.mean_throughput());
  std::printf("  EPU:              %.1f%%\n", report.overall_epu * 100.0);
  std::printf("  renewable used:   %.1f kWh (%.0f%% of production)\n",
              (report.ledger.renewable_to_load() +
               report.ledger.renewable_to_battery()).value() / 1000.0,
              report.ledger.renewable_utilization() * 100.0);
  std::printf("  grid energy:      %.1f kWh  (cost $%.2f)\n",
              report.grid_energy.value() / 1000.0, report.grid_cost);
  std::printf("  battery cycles:   %.2f\n", report.battery_cycles);
  const CarbonReport carbon = carbon_report(report.ledger);
  std::printf("  CO2e:             %.1f kg (%.0f g/kWh; %.1f kg saved vs "
              "all-grid)\n",
              carbon.total_kg, carbon.effective_g_per_kwh, carbon.saved_kg);

  if (const std::string& csv = options.text("csv"); !csv.empty()) {
    report.to_csv().save(csv);
    std::printf("  per-epoch trail written to %s\n", csv.c_str());
  }
  return finish_run(sim, options, setup, report.interrupted,
                    report.epochs.size());
}

int cmd_analyze(Options& options) {
  const std::string& trace_path = options.text("trace");
  const std::string& perf_path = options.text("perf");
  if (trace_path.empty() && perf_path.empty()) {
    throw util::OptionError("--trace FILE.jsonl or --perf PROF.json is "
                            "required");
  }
  std::optional<analysis::TraceAnalysis> run;
  if (!trace_path.empty()) {
    run = analysis::analyze(analysis::load_trace(trace_path));
    print_report(std::cout, *run);
  }
  if (!perf_path.empty()) {
    const analysis::PerfProfile profile = analysis::load_profile(perf_path);
    if (run) std::cout << "\n";
    analysis::print_perf_report(std::cout, profile,
                                options.integer<std::size_t>("top"));
  }

  const std::string& baseline_path = options.text("diff");
  if (baseline_path.empty() || !run) return 0;
  const analysis::TraceAnalysis baseline =
      analysis::analyze(analysis::load_trace(baseline_path));
  const double threshold = options.number("threshold");
  const analysis::DiffResult result = analysis::diff(baseline, *run);
  std::cout << "\n";
  print_diff(std::cout, result, threshold);
  return analysis::exceeds_threshold(result, threshold) ? 3 : 0;
}

int cmd_policies(Options& options) {
  const std::vector<ServerGroup> groups =
      combination_by_name(options.text("comb")).groups;
  const Workload workload = workload_by_name(options.text("workload"));
  Rack probe{groups, workload};
  const Watts budget{
      options.derive("budget", probe.peak_demand().value() * 0.55)};
  std::printf("workload %s, green budget %.0f W\n\n",
              std::string(workload_spec(workload).name).c_str(),
              budget.value());
  std::printf("%-16s %14s %8s\n", "policy", "throughput", "EPU");
  for (PolicyKind policy : kAllPolicies) {
    Rack rack{groups, workload};
    SimConfig cfg;
    cfg.controller.policy = policy;
    cfg.controller.seed = 7;
    RackSimulator sim{std::move(rack),
                      make_fixed_budget_plant(budget, Minutes{10.0 * 60.0}),
                      std::move(cfg)};
    sim.pretrain();
    const RunReport report = sim.run(Minutes{6.0 * 60.0});
    std::printf("%-16s %14.0f %7.0f%%\n",
                std::string(to_string(policy)).c_str(),
                report.mean_throughput(), report.overall_epu * 100.0);
  }
  return 0;
}

int cmd_solve(Options& options) {
  Rack rack{combination_by_name(options.text("comb")).groups,
            workload_by_name(options.text("workload"))};
  const Watts budget{
      options.derive("budget", rack.peak_demand().value() * 0.55)};
  // Noise-free training database, then one Solver call.
  PerfPowerDatabase db;
  for (std::size_t g = 0; g < rack.group_count(); ++g) {
    const PerfCurve& curve = rack.group_curve(g);
    std::vector<ServerSample> samples;
    for (double f : {0.0, 0.25, 0.5, 0.75, 1.0}) {
      const Watts p = curve.idle_power() +
                      (curve.peak_power() - curve.idle_power()) * f;
      samples.push_back({p, curve.throughput_at(p)});
    }
    db.add_training_samples({rack.group(g).model, rack.group_workload(g)},
                            samples);
  }
  const Allocation a =
      make_policy(PolicyKind::kGreenHetero)->allocate(rack, db, budget);
  std::printf("budget %.0f W across %d servers:\n", budget.value(),
              rack.total_servers());
  for (std::size_t g = 0; g < rack.group_count(); ++g) {
    std::printf("  PAR %-16s %5.1f%%  (%.0f W, %.1f W/server)\n",
                std::string(server_spec(rack.group(g).model).name).c_str(),
                a.ratios[g] * 100.0, a.ratios[g] * budget.value(),
                a.ratios[g] * budget.value() / rack.group(g).count);
  }
  std::printf("  battery charge share %.1f%%; predicted rack perf %.0f\n",
              (1.0 - a.ratio_sum()) * 100.0, a.predicted_perf);
  return 0;
}

int cmd_traces(Options& options) {
  const std::string& kind = options.text("trace");
  const int days = options.integer<int>("days");
  const Watts capacity{options.number("capacity")};
  const std::string& out = options.text("out");
  PowerTrace trace = [&] {
    if (kind == "low") {
      return generate_solar_trace(low_solar_model(capacity), days, 3);
    }
    if (kind == "load") {
      return generate_load_trace(LoadPatternModel{}, capacity, days, 5);
    }
    if (kind == "wind") {
      WindModel model;
      model.rated_power = capacity;
      return generate_wind_trace(model, days, 3);
    }
    return generate_solar_trace(high_solar_model(capacity), days, 3);
  }();
  trace.save_csv(out);
  const TraceStatistics stats = analyze_trace(trace);
  std::printf("%s trace: %d day(s), %zu samples -> %s\n", kind.c_str(), days,
              trace.size(), out.c_str());
  std::printf("  mean %.0f W, peak %.0f W, load factor %.0f%%\n",
              stats.mean.value(), stats.peak.value(),
              stats.load_factor * 100.0);
  std::printf("  variability (CV) %.2f, lag-1 autocorrelation %.2f\n",
              stats.variability, stats.autocorrelation);
  std::printf("  mean ramp %.0f W/sample (max %.0f W), zero output %.0f%% "
              "of the time\n",
              stats.mean_ramp.value(), stats.max_ramp.value(),
              stats.zero_fraction * 100.0);
  return 0;
}

int cmd_fleet(Options& options) {
  const int racks = options.integer<int>("racks");
  const double asymmetry = options.number("asymmetry");
  const double hours = options.number("hours");
  const Watts total_grid{options.derive("grid", 800.0 * racks)};
  const GridShareMode mode = options.text("mode") == "static"
                                 ? GridShareMode::kStatic
                                 : GridShareMode::kDemandProportional;

  const SimConfig rack_cfg = rack_config(options);
  // Enough solar-trace days to cover the whole run, plus one of slack.
  const int solar_days = static_cast<int>(std::ceil(hours / 24.0)) + 1;
  std::vector<RackSimulator> sims;
  for (int i = 0; i < racks; ++i) {
    // Solar provisioning spread linearly around 1.8 kW by +/- asymmetry.
    const double spread =
        racks > 1 ? -1.0 + 2.0 * i / (racks - 1.0) : 0.0;
    const Watts solar_capacity{1800.0 * (1.0 + asymmetry * spread)};
    Rack rack{default_runtime_rack(), Workload::kSpecJbb};
    SimConfig cfg = rack_cfg;
    cfg.controller.policy = PolicyKind::kGreenHetero;
    cfg.controller.seed = 40 + static_cast<std::uint64_t>(i);
    sims.emplace_back(
        std::move(rack),
        make_standard_plant(
            generate_solar_trace(high_solar_model(solar_capacity), solar_days,
                                 40 + static_cast<std::uint64_t>(i)),
            GridSpec{}),
        std::move(cfg));
  }
  FleetConfig fleet_cfg;
  fleet_cfg.total_grid_budget = total_grid;
  fleet_cfg.mode = mode;
  fleet_cfg.threads = options.integer<std::size_t>("threads");
  fleet_cfg.shards = options.integer<std::size_t>("shards");
  fleet_cfg.check = rack_cfg.check;
  fleet_cfg.telemetry.profile = rack_cfg.telemetry.profile;
  const RunSetup setup = configure_run(options, fleet_cfg);
  Fleet fleet{std::move(sims), fleet_cfg};
  const FleetReport report =
      resume_and_run(fleet, setup, Minutes{hours * 60.0});
  std::printf("fleet of %d racks, %s grid sharing, %.0f W total grid, "
              "%zu thread(s), %zu shard(s), %.0f h\n",
              racks, to_string(mode).c_str(), total_grid.value(),
              fleet.threads(), fleet.shards(), hours);
  std::printf("  total work:       %.0f\n", report.total_work);
  std::printf("  grid energy:      %.1f kWh ($%.2f)\n",
              report.grid_energy.value() / 1000.0, report.grid_cost);
  std::printf("  peak grid draw:   %.0f W of %.0f W budget\n",
              report.peak_grid_allocation.value(), total_grid.value());
  std::printf("  epoch store:      %.1f MiB (%zu racks x %zu epochs, SoA)\n",
              static_cast<double>(fleet.epoch_store_bytes()) /
                  (1024.0 * 1024.0),
              report.racks.size(),
              report.racks.empty() ? 0 : report.racks.front().epochs.size());
  // At datacenter scale a per-rack line each is noise; print the first few
  // and fold the rest into an aggregate line.
  constexpr std::size_t kMaxRackLines = 16;
  const std::size_t shown = std::min(report.racks.size(), kMaxRackLines);
  for (std::size_t i = 0; i < shown; ++i) {
    std::printf("  rack %zu: work %.0f, EPU %.0f%%, battery %.2f cycles\n",
                i, report.racks[i].total_work,
                report.racks[i].overall_epu * 100.0,
                report.racks[i].battery_cycles);
  }
  if (report.racks.size() > shown) {
    double work = 0.0;
    double epu = 0.0;
    for (std::size_t i = shown; i < report.racks.size(); ++i) {
      work += report.racks[i].total_work;
      epu += report.racks[i].overall_epu;
    }
    std::printf("  ... %zu more rack(s): work %.0f, mean EPU %.0f%%\n",
                report.racks.size() - shown, work,
                epu / static_cast<double>(report.racks.size() - shown) *
                    100.0);
  }
  return finish_run(fleet, options, setup, report.interrupted,
                    report.racks.front().epochs.size());
}

/// Crash-recovery mode: SIGKILL real fleet and simulate child processes
/// mid-run, resume them from their checkpoints and byte-compare the outputs
/// against an uninterrupted reference.
int cmd_crash_fuzz(Options& options) {
  check::CrashFuzzOptions crash;
  crash.binary = self_exe_path();
  crash.work_dir = options.text("crash-dir");
  crash.seed = options.integer<std::uint64_t>("seed");
  crash.runs = options.integer<int>("runs");
  crash.max_kills = options.integer<int>("max-kills");
  crash.log = &std::cout;
  const check::CrashFuzzReport report = check::run_crash_fuzzer(crash);
  if (report.ok() && report.runs_executed > 0) {
    std::printf("crash fuzz: %d run(s) clean, %d kill(s) delivered, %d "
                "resume(s) (seed %llu)\n",
                report.runs_executed, report.kills_delivered, report.resumes,
                static_cast<unsigned long long>(crash.seed));
    return 0;
  }
  if (report.runs_executed == 0) {
    std::printf("crash fuzz: skipped (platform unsupported)\n");
    return 0;
  }
  for (const std::string& failure : report.failures) {
    std::printf("crash fuzz: %s\n", failure.c_str());
  }
  std::printf("crash fuzz: %d of %d run(s) FAILED; outputs kept under %s\n",
              report.runs_failed, report.runs_executed,
              crash.work_dir.string().c_str());
  return 4;
}

int cmd_fuzz(Options& options) {
  // Fault begin/end warnings from randomized plans would drown the per-run
  // progress lines; failures surface through the fuzz report instead.
  Logger::instance().set_level(LogLevel::kError);
  check::FuzzOptions fuzz;
  fuzz.seed = options.integer<std::uint64_t>("seed");
  fuzz.runs = options.integer<int>("runs");
  // Unset rows keep the fuzzer's "random per run" (-1) defaults.
  if (options.given("run")) fuzz.only_run = options.integer<int>("run");
  if (options.given("racks")) fuzz.racks = options.integer<int>("racks");
  if (options.given("epochs")) fuzz.epochs = options.integer<int>("epochs");
  if (options.given("shards")) fuzz.shards = options.integer<int>("shards");
  if (options.given("max-faults")) {
    fuzz.max_faults = options.integer<int>("max-faults");
  }
  fuzz.solver = options.flag("solver");
  fuzz.log = &std::cout;

  const check::FuzzReport report = check::run_fuzzer(fuzz);
  if (report.ok()) {
    std::printf("fuzz: %d run(s) clean (seed %llu)\n", report.runs_executed,
                static_cast<unsigned long long>(fuzz.seed));
    return 0;
  }
  std::printf("fuzz: run %d FAILED: %s\n",
              report.first_failure->scenario.run_index,
              report.first_failure->what.c_str());
  std::printf("fuzz: minimal repro: %s\n",
              report.shrunk->scenario.command_line().c_str());
  if (const std::string& repro_out = options.text("repro-out");
      !repro_out.empty()) {
    util::write_file_atomic(repro_out,
                            report.shrunk->scenario.command_line() + "\n" +
                                report.shrunk->what + "\n");
    std::printf("fuzz: repro written to %s\n", repro_out.c_str());
  }
  return 4;
}

int cmd_benchdiff(Options& options) {
  double threshold = 0.0;
  try {
    threshold = analysis::parse_bench_threshold(options.text("threshold"));
  } catch (const analysis::AnalyzerError& e) {
    throw util::OptionError(std::string("--threshold: ") + e.what());
  }
  const analysis::BenchComparison comparison = analysis::compare_bench(
      analysis::load_bench_report(options.text("CURRENT.json")),
      analysis::load_bench_report(options.text("BASELINE.json")), threshold);
  analysis::print_benchdiff(std::cout, comparison);

  if (const std::string& trajectory = options.text("trajectory");
      !trajectory.empty()) {
    std::string date = options.text("date");
    if (date.empty()) {
      const std::time_t now = std::time(nullptr);
      std::tm tm{};
#if defined(_WIN32)
      gmtime_s(&tm, &now);
#else
      gmtime_r(&now, &tm);
#endif
      char buffer[16];
      std::strftime(buffer, sizeof(buffer), "%Y-%m-%d", &tm);
      date = buffer;
    }
    analysis::append_trajectory(
        trajectory, analysis::trajectory_row(comparison, date,
                                             telemetry::build_info_json()));
    std::printf("trajectory row appended to %s\n", trajectory.c_str());
  }
  return comparison.drifted() ? 3 : 0;
}

using Handler = int (*)(Options&);

Handler handler_for(const util::CommandSpec* spec) {
  static const std::pair<const util::CommandSpec*, Handler> kHandlers[] = {
      {&cli::kSimulate, cmd_simulate}, {&cli::kFleet, cmd_fleet},
      {&cli::kFuzz, cmd_fuzz},         {&cli::kCrashFuzz, cmd_crash_fuzz},
      {&cli::kAnalyze, cmd_analyze},   {&cli::kBenchdiff, cmd_benchdiff},
      {&cli::kPolicies, cmd_policies}, {&cli::kSolve, cmd_solve},
      {&cli::kTraces, cmd_traces},     {&cli::kInfo, cmd_info}};
  for (const auto& [command, handler] : kHandlers) {
    if (command == spec) return handler;
  }
  throw std::logic_error("no handler for " + std::string(spec->name));
}

/// The table selected by argv[1] (and argv[2] for a mode such as
/// `fuzz --crash`), or null for an unknown subcommand.
const util::CommandSpec* find_command(int argc, char** argv) {
  if (argc < 2) return nullptr;
  const util::CommandSpec* plain = nullptr;
  for (const util::CommandSpec* spec : cli::kCommands) {
    if (spec->name != argv[1]) continue;
    if (spec->mode.empty()) {
      plain = spec;
    } else if (argc > 2 && spec->mode == argv[2]) {
      return spec;
    }
  }
  return plain;
}

/// Usage of every table of `name` (both fuzz modes), or the subcommand
/// list when `name` is unknown.
void print_usage(std::string_view name) {
  bool known = false;
  for (const util::CommandSpec* spec : cli::kCommands) {
    if (spec->name != name) continue;
    std::fprintf(stderr, "%s%s", known ? "\n" : "",
                 util::usage_text(*spec).c_str());
    known = true;
  }
  if (known) return;
  std::fprintf(stderr, "usage: greenhetero <command> [--flag value ...]\n");
  for (const util::CommandSpec* spec : cli::kCommands) {
    const std::string command =
        std::string(spec->name) +
        (spec->mode.empty() ? "" : " " + std::string(spec->mode));
    std::fprintf(stderr, "  %-14s %s\n", command.c_str(),
                 std::string(spec->summary).c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  g_argv0 = argv[0];
  const util::CommandSpec* spec = find_command(argc, argv);
  if (spec == nullptr) {
    print_usage(argc < 2 ? "" : argv[1]);
    return 2;
  }
  const int first = spec->mode.empty() ? 2 : 3;
  try {
    Options options = util::parse_options(
        *spec, {argv + first, static_cast<std::size_t>(argc - first)});
    return handler_for(spec)(options);
  } catch (const util::OptionError& e) {
    std::fprintf(stderr, "greenhetero %s: %s\n\n", argv[1], e.what());
    print_usage(spec->name);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
