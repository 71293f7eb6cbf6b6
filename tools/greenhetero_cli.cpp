// greenhetero — command-line front end to the library.
//
//   greenhetero simulate  [--policy P] [--workload W] [--comb CombN]
//                         [--days N] [--trace high|low] [--capacity W]
//                         [--grid W] [--battery-kwh K] [--chemistry lead|li]
//                         [--seed S] [--csv FILE] [--faults PLAN.csv]
//                         [--trace-out FILE.jsonl] [--stream on]
//                         [--metrics-out FILE] [--metrics-every N]
//                         [--rollup-out FILE.jsonl] [--rollup-window MIN]
//                         [--flightrec-dir DIR] [--ledger on]
//                         [--spans-out FILE.json] [--profile-out FILE.json]
//                         [--check on]
//                         [--checkpoint-dir DIR] [--checkpoint-every N]
//                         [--checkpoint-keep K] [--resume DIR]
//   greenhetero analyze   [--trace RUN.jsonl] [--diff BASELINE.jsonl]
//                         [--threshold T] [--perf PROF.json] [--top N]
//   greenhetero policies  [--workload W] [--budget W] [--comb CombN]
//   greenhetero solve     [--workload W] [--budget W] [--comb CombN]
//   greenhetero traces    [--trace high|low|load|wind] [--days N]
//                         [--capacity W] [--out FILE]
//   greenhetero fleet     [--racks N] [--asymmetry A] [--grid W]
//                         [--mode static|proportional] [--threads N]
//                         [--shards N]
//                         [--hours H] [--faults PLAN.csv]
//                         [--trace-out FILE.jsonl] [--stream on]
//                         [--metrics-out FILE] [--metrics-every N]
//                         [--rollup-out FILE.jsonl] [--rollup-window MIN]
//                         [--flightrec-dir DIR] [--ledger on]
//                         [--spans-out FILE.json] [--profile-out FILE.json]
//                         [--check on]
//                         [--checkpoint-dir DIR] [--checkpoint-every N]
//                         [--checkpoint-keep K] [--resume DIR]
//   greenhetero fuzz      [--seed S] [--runs N] [--run R] [--racks N]
//                         [--epochs E] [--shards N] [--max-faults F]
//                         [--solver on]
//   greenhetero fuzz      --crash [--seed S] [--runs N] [--max-kills K]
//                         [--crash-dir DIR]
//   greenhetero benchdiff CURRENT.json BASELINE.json [--threshold T]
//                         [--trajectory FILE.jsonl] [--date YYYY-MM-DD]
//   greenhetero info      [--json]  (servers, workloads, combinations,
//                         telemetry/build flags)
//
// --metrics-out picks its format by extension: ".json" exports JSON, ".txt"
// a human-readable table (histograms with p50/p90/p99), anything else
// Prometheus text exposition.  The file is also rewritten mid-run every
// --metrics-every epochs (default 128; crash-safe temp-file + rename), so a
// long run's metrics survive an abort.
//
// --stream on (with --trace-out) drains trace events to the file as the run
// progresses through a bounded queue instead of buffering the whole run —
// byte-identical output, flat memory.  gh_trace_queue_depth /
// gh_trace_stalls_total expose the backpressure.
//
// --rollup-out writes a compact fixed-window per-rack series (mean EPU,
// shortfall, grid, health occupancy, loss buckets; --rollup-window minutes
// per window, default 60) that `analyze` renders as a rollup trend table;
// the same events are also embedded in the main trace.
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
// fleet --threads N steps the racks on N worker threads per epoch (0, the
// default, uses one per hardware thread; 1 forces the sequential path).
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
// wall ns, thread-CPU ns and allocation bytes/counts attributed to its span
// path, and the merged phase tree lands in FILE.json at the end of the run.
// Everything except the *_ns timings is byte-identical at any --threads;
// `analyze --perf FILE.json` renders it (--top N hot phases, default 10).
//
// analyze exits 0 when --diff stays within --threshold (default 0.01) and
// 3 when it drifts beyond it — the CI trace gate keys off that.
//
// benchdiff applies the same exit-code contract to performance: it compares
// the *_ns (lower better) and *_per_sec (higher better) figures of a fresh
// BENCH_*.json against a committed baseline and exits 3 when any drifts past
// --threshold (default 10%; accepts "0.15" or "15%").  --trajectory appends
// one dated row (metrics + build info) to the committed history log.
//
// --checkpoint-dir enables durable checkpointing: every --checkpoint-every
// epochs (default 1) the complete resumable state — RNG streams, clock,
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
#include <atomic>
#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <ctime>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "analysis/benchdiff.h"
#include "analysis/perf_report.h"
#include "analysis/trace_analyzer.h"
#include "check/crash.h"
#include "check/fuzzer.h"
#include "checkpoint/checkpoint.h"
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

struct Args {
  std::map<std::string, std::string> options;
  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const {
    const auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  /// The whole value must parse as a finite number; anything else exits 2
  /// with a message naming the flag.
  [[nodiscard]] double number(const std::string& key, double fallback) const {
    const auto it = options.find(key);
    if (it == options.end()) return fallback;
    const std::string& text = it->second;
    double value = 0.0;
    const auto [end, error] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (error != std::errc{} || end != text.data() + text.size() ||
        !std::isfinite(value)) {
      std::fprintf(stderr, "--%s: '%s' is not a finite number\n",
                   key.c_str(), text.c_str());
      std::exit(2);
    }
    return value;
  }
};

Args parse_args(int argc, char** argv, int first) {
  Args args;
  for (int i = first; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument '%s'\n", key.c_str());
      std::exit(2);
    }
    key = key.substr(2);
    // A flag followed by another flag (or by nothing) is a bare switch:
    // `--check` reads as `--check on`.  No value ever starts with "--".
    if (i + 1 >= argc || std::strncmp(argv[i + 1], "--", 2) == 0) {
      args.options[key] = "on";
      continue;
    }
    args.options[key] = argv[++i];
  }
  return args;
}

/// Scenario fingerprint: FNV-1a over every (sorted) option that shapes the
/// simulation itself.  Output destinations, checkpoint knobs and the thread
/// count are excluded — changing where results land (or how many workers
/// compute them; results are byte-identical by contract) must not
/// invalidate a resume, while changing the scenario must.
std::uint64_t scenario_hash(const Args& args) {
  static const char* kExcluded[] = {
      "trace-out",  "rollup-out",     "metrics-out",      "metrics-every",
      "spans-out",  "csv",            "flightrec-dir",    "stream",
      "out",        "checkpoint-dir", "checkpoint-every", "checkpoint-keep",
      "resume",     "threads",        "repro-out",        "profile-out",
      "shards"};  // execution topology only; outputs are byte-identical
  std::string canon;
  for (const auto& [key, value] : args.options) {
    bool excluded = false;
    for (const char* e : kExcluded) {
      if (key == e) {
        excluded = true;
        break;
      }
    }
    if (excluded) continue;
    canon += key;
    canon += '=';
    canon += value;
    canon += '\n';
  }
  return checkpoint::fnv1a(canon);
}

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

/// Shared by simulate and fleet: the streaming / rollup / flight-recorder
/// knobs that configure a TelemetryConfig and the run's sink.
struct StreamOptions {
  bool stream = false;
  std::string trace_out;
  std::string rollup_out;
  double rollup_window_min = 0.0;
  std::string flightrec_dir;
  std::string metrics_out;
};

StreamOptions parse_stream_options(const Args& args) {
  StreamOptions opt;
  opt.trace_out = args.get("trace-out", "");
  opt.stream = !args.get("stream", "").empty();
  if (opt.stream && opt.trace_out.empty()) {
    std::fprintf(stderr, "--stream on requires --trace-out FILE.jsonl\n");
    std::exit(2);
  }
  opt.rollup_out = args.get("rollup-out", "");
  // --rollup-window alone also enables the aggregator (events land in the
  // main trace); --rollup-out alone defaults to hourly windows.
  opt.rollup_window_min =
      args.number("rollup-window", opt.rollup_out.empty() ? 0.0 : 60.0);
  opt.flightrec_dir = args.get("flightrec-dir", "");
  opt.metrics_out = args.get("metrics-out", "");
  return opt;
}

/// What configure_run resolved: the --resume snapshot to load (if any) and
/// whether the run checkpoints at all.
struct RunSetup {
  std::optional<checkpoint::Snapshot> snapshot;
  bool checkpointing = false;
};

/// Shared by simulate and fleet: fill the run-loop knobs and install the
/// stop handlers.  --resume DIR implies checkpointing into DIR; an empty or
/// invalid directory warns and starts fresh (a crash may land before the
/// first checkpoint ever gets written).
RunSetup configure_run(const Args& args, const StreamOptions& stream_opt,
                       RunConfig& cfg) {
  RunSetup setup;
  cfg.checkpoint_dir = args.get("checkpoint-dir", "");
  cfg.checkpoint_every = static_cast<int>(args.number("checkpoint-every", 1.0));
  cfg.checkpoint_keep = static_cast<int>(args.number("checkpoint-keep", 2.0));
  if (const std::string resume_dir = args.get("resume", "");
      !resume_dir.empty()) {
    if (cfg.checkpoint_dir.empty()) cfg.checkpoint_dir = resume_dir;
    setup.snapshot = checkpoint::load_latest(resume_dir);
    if (!setup.snapshot) {
      std::fprintf(stderr,
                   "resume: no valid snapshot in %s; starting fresh (will "
                   "checkpoint into it)\n",
                   resume_dir.c_str());
    }
  }
  setup.checkpointing = !cfg.checkpoint_dir.empty();
  if (stream_opt.stream) {
    telemetry::StreamSinkConfig sink_cfg{stream_opt.trace_out};
    // Resume mode defers the open/header; load_checkpoint truncates the
    // existing file to the durable watermark and reopens it for append.
    sink_cfg.resume = setup.snapshot.has_value();
    cfg.trace_stream = sink_cfg;
  }
  cfg.metrics_out = stream_opt.metrics_out;
  cfg.metrics_flush_every =
      static_cast<int>(args.number("metrics-every", 128.0));
  cfg.config_hash = scenario_hash(args);
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

/// Shared by simulate and fleet: the exit code.  A stopped run dumps the
/// flight recorders and exits 5.
template <typename Runner>
int epilogue(Runner& runner, bool interrupted, std::size_t epochs,
             const RunSetup& setup) {
  if (!interrupted) return 0;
  dump_flight_records(runner, "interrupted");
  std::printf("interrupted after %zu epoch(s); outputs cover the completed "
              "prefix%s\n",
              epochs, setup.checkpointing ? ", resume with --resume" : "");
  return kExitInterrupted;
}

void print_stream_stats(const telemetry::StreamingTraceSink& sink) {
  std::printf("  trace streamed to %s (%llu events, %llu stall(s), peak "
              "queue %zu)\n",
              sink.config().path.string().c_str(),
              static_cast<unsigned long long>(sink.events_written()),
              static_cast<unsigned long long>(sink.stalls()),
              sink.peak_queue_depth());
}

PolicyKind parse_policy(const std::string& name) {
  for (PolicyKind kind : kAllPolicies) {
    if (name == to_string(kind)) return kind;
  }
  std::fprintf(stderr, "unknown policy '%s' (try GreenHetero, Uniform, "
               "Manual, GreenHetero-p, GreenHetero-a)\n", name.c_str());
  std::exit(2);
}

std::vector<ServerGroup> parse_groups(const Args& args) {
  const std::string comb = args.get("comb", "");
  if (comb.empty()) return default_runtime_rack();
  return combination_by_name(comb).groups;
}

Workload parse_workload(const Args& args) {
  return workload_by_name(args.get("workload", "SPECjbb"));
}

int cmd_info(const Args& args) {
  if (!args.get("json", "").empty()) {
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
  std::printf("  probes/spans:     %s\n",
              build.probes_enabled ? "enabled"
                                   : "compiled out (-DGH_TELEMETRY=OFF)");
  std::printf("  trace schema:     v%d\n", build.trace_schema_version);
  std::printf("  builtin metrics:  %zu\n", build.builtin_metric_count);
  return 0;
}

int cmd_simulate(const Args& args) {
  const std::vector<ServerGroup> groups = parse_groups(args);
  const Workload workload = parse_workload(args);
  const PolicyKind policy = parse_policy(args.get("policy", "GreenHetero"));
  const int days = static_cast<int>(args.number("days", 1.0));
  const Watts capacity{args.number("capacity", 2500.0)};
  const auto seed = static_cast<std::uint64_t>(args.number("seed", 42.0));

  Rack rack{groups, workload};
  SimConfig cfg;
  cfg.controller.policy = policy;
  cfg.controller.seed = seed;
  cfg.telemetry.loss_ledger = !args.get("ledger", "").empty();
  cfg.check = !args.get("check", "").empty();
  const std::string spans_out = args.get("spans-out", "");
  cfg.telemetry.spans = !spans_out.empty();
  const std::string profile_out = args.get("profile-out", "");
  cfg.telemetry.profile = !profile_out.empty();
  const StreamOptions stream_opt = parse_stream_options(args);
  cfg.telemetry.rollup_window_min = stream_opt.rollup_window_min;
  cfg.telemetry.flightrec_dir = stream_opt.flightrec_dir;
  const RunSetup setup = configure_run(args, stream_opt, cfg);
  const std::string faults = args.get("faults", "");
  if (!faults.empty()) {
    cfg.faults = FaultPlan::load_csv(faults);
    std::printf("fault plan: %zu event(s) from %s\n", cfg.faults.size(),
                faults.c_str());
  }
  cfg.demand_trace =
      generate_load_trace(LoadPatternModel{}, rack.peak_demand(),
                          days + 1, seed);
  GridSpec grid;
  grid.budget = Watts{args.number("grid", 1000.0)};

  const std::string trace_kind = args.get("trace", "high");
  const PowerTrace solar =
      trace_kind == "low"
          ? generate_solar_trace(low_solar_model(capacity), days + 1, seed)
          : generate_solar_trace(high_solar_model(capacity), days + 1, seed);

  BatterySpec battery =
      args.get("chemistry", "lead") == "li"
          ? li_ion_spec(WattHours{args.number("battery-kwh", 12.0) * 1000.0})
          : lead_acid_spec(
                WattHours{args.number("battery-kwh", 12.0) * 1000.0});

  RackSimulator sim{std::move(rack),
                    RackPowerPlant{SolarArray{solar}, Battery{battery},
                                   GridSupply{grid}},
                    std::move(cfg)};
  const RunReport report =
      resume_and_run(sim, setup, Minutes{days * 24.0 * 60.0});

  std::printf("policy %s, workload %s, %d day(s), %s trace\n",
              std::string(to_string(policy)).c_str(),
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
  if (const check::InvariantChecker* checker = sim.checker()) {
    std::printf("  invariants:       %llu checks over %llu substeps / %llu "
                "epochs, all passed\n",
                static_cast<unsigned long long>(checker->checks_passed()),
                static_cast<unsigned long long>(checker->substeps_checked()),
                static_cast<unsigned long long>(checker->epochs_checked()));
  }
  const CarbonReport carbon = carbon_report(report.ledger);
  std::printf("  CO2e:             %.1f kg (%.0f g/kWh; %.1f kg saved vs "
              "all-grid)\n",
              carbon.total_kg, carbon.effective_g_per_kwh, carbon.saved_kg);

  const std::string csv = args.get("csv", "");
  if (!csv.empty()) {
    report.to_csv().save(csv);
    std::printf("  per-epoch trail written to %s\n", csv.c_str());
  }
  if (telemetry::StreamingTraceSink* sink = sim.stream()) {
    sink->close();
    print_stream_stats(*sink);
  } else if (!stream_opt.trace_out.empty()) {
    sim.telemetry().trace().save_jsonl(stream_opt.trace_out);
    std::printf("  trace (%zu events) written to %s\n",
                sim.telemetry().trace().size(), stream_opt.trace_out.c_str());
  }
  if (!stream_opt.rollup_out.empty()) {
    std::ostringstream out;
    sim.telemetry().rollup().write_jsonl(out, sim.telemetry().rack_id());
    util::write_file_atomic(stream_opt.rollup_out, out.str());
    std::printf("  rollup series (%zu windows) written to %s\n",
                sim.telemetry().rollup().windows().size(),
                stream_opt.rollup_out.c_str());
  }
  if (!stream_opt.flightrec_dir.empty()) {
    std::printf("  flight recorder: %d dump(s) in %s\n",
                sim.telemetry().flightrec().dumps(),
                stream_opt.flightrec_dir.c_str());
  }
  if (!spans_out.empty()) {
    sim.telemetry().spans().save_chrome_trace(spans_out);
    std::printf("  spans (%zu) written to %s (load in chrome://tracing)\n",
                sim.telemetry().spans().records().size(), spans_out.c_str());
  }
  if (!profile_out.empty()) {
    telemetry::save_profile_json(sim.telemetry().profiler().report(),
                                 profile_out);
    std::printf("  profile (%zu phases) written to %s (inspect with "
                "`greenhetero analyze --perf`)\n",
                sim.telemetry().profiler().report().size(),
                profile_out.c_str());
  }
  if (!stream_opt.metrics_out.empty()) {
    // run() already wrote the final snapshot (and the periodic ones).
    std::printf("  metrics (%zu series) written to %s\n",
                report.metrics.entries.size(), stream_opt.metrics_out.c_str());
  }
  return epilogue(sim, report.interrupted, report.epochs.size(), setup);
}

int cmd_analyze(const Args& args) {
  const std::string trace_path = args.get("trace", "");
  const std::string perf_path = args.get("perf", "");
  if (trace_path.empty() && perf_path.empty()) {
    std::fprintf(stderr,
                 "analyze: --trace FILE.jsonl or --perf PROF.json is "
                 "required\n");
    return 2;
  }
  std::optional<analysis::TraceAnalysis> run;
  if (!trace_path.empty()) {
    run = analysis::analyze(analysis::load_trace(trace_path));
    print_report(std::cout, *run);
  }
  if (!perf_path.empty()) {
    const analysis::PerfProfile profile = analysis::load_profile(perf_path);
    if (run) std::cout << "\n";
    analysis::print_perf_report(
        std::cout, profile,
        static_cast<std::size_t>(args.number("top", 10.0)));
  }

  const std::string baseline_path = args.get("diff", "");
  if (baseline_path.empty() || !run) return 0;
  const analysis::TraceAnalysis baseline =
      analysis::analyze(analysis::load_trace(baseline_path));
  const double threshold = args.number("threshold", 0.01);
  const analysis::DiffResult result = analysis::diff(baseline, *run);
  std::cout << "\n";
  print_diff(std::cout, result, threshold);
  return analysis::exceeds_threshold(result, threshold) ? 3 : 0;
}

int cmd_policies(const Args& args) {
  const std::vector<ServerGroup> groups = parse_groups(args);
  const Workload workload = parse_workload(args);
  Rack probe{groups, workload};
  const Watts budget{
      args.number("budget", probe.peak_demand().value() * 0.55)};

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

int cmd_solve(const Args& args) {
  const std::vector<ServerGroup> groups = parse_groups(args);
  const Workload workload = parse_workload(args);
  Rack rack{groups, workload};
  const Watts budget{
      args.number("budget", rack.peak_demand().value() * 0.55)};

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

int cmd_traces(const Args& args) {
  const std::string kind = args.get("trace", "high");
  const int days = static_cast<int>(args.number("days", 7.0));
  const Watts capacity{args.number("capacity", 2500.0)};
  const std::string out = args.get("out", "trace.csv");

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

int cmd_fleet(const Args& args) {
  const int racks = static_cast<int>(args.number("racks", 3.0));
  const double asymmetry = args.number("asymmetry", 0.5);
  const double hours = args.number("hours", 24.0);
  if (hours <= 0.0) {
    std::fprintf(stderr, "fleet: --hours must be positive\n");
    return 2;
  }
  const Watts total_grid{args.number("grid", 800.0 * racks)};
  const GridShareMode mode = args.get("mode", "proportional") == "static"
                                 ? GridShareMode::kStatic
                                 : GridShareMode::kDemandProportional;

  FaultPlan fault_plan;
  const std::string faults = args.get("faults", "");
  if (!faults.empty()) {
    fault_plan = FaultPlan::load_csv(faults);
    std::printf("fault plan: %zu event(s) from %s (every rack)\n",
                fault_plan.size(), faults.c_str());
  }

  const std::string spans_out = args.get("spans-out", "");
  const std::string profile_out = args.get("profile-out", "");
  const bool ledger = !args.get("ledger", "").empty();
  const bool check = !args.get("check", "").empty();
  const StreamOptions stream_opt = parse_stream_options(args);
  // Enough solar-trace days to cover the whole run, plus one of slack.
  const int solar_days = static_cast<int>(std::ceil(hours / 24.0)) + 1;
  std::vector<RackSimulator> sims;
  for (int i = 0; i < racks; ++i) {
    // Solar provisioning spread linearly around 1.8 kW by +/- asymmetry.
    const double spread =
        racks > 1 ? -1.0 + 2.0 * i / (racks - 1.0) : 0.0;
    const Watts solar_capacity{1800.0 * (1.0 + asymmetry * spread)};
    Rack rack{default_runtime_rack(), Workload::kSpecJbb};
    SimConfig cfg;
    cfg.controller.policy = PolicyKind::kGreenHetero;
    cfg.controller.seed = 40 + static_cast<std::uint64_t>(i);
    cfg.telemetry.loss_ledger = ledger;
    cfg.telemetry.spans = !spans_out.empty();
    cfg.telemetry.profile = !profile_out.empty();
    cfg.telemetry.rollup_window_min = stream_opt.rollup_window_min;
    cfg.telemetry.flightrec_dir = stream_opt.flightrec_dir;
    cfg.check = check;
    cfg.faults = fault_plan;
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
  fleet_cfg.threads = static_cast<std::size_t>(args.number("threads", 0.0));
  fleet_cfg.shards = static_cast<std::size_t>(args.number("shards", 1.0));
  fleet_cfg.check = check;
  fleet_cfg.telemetry.profile = !profile_out.empty();
  const RunSetup setup = configure_run(args, stream_opt, fleet_cfg);
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
  if (check) {
    unsigned long long checks = 0;
    unsigned long long substeps = 0;
    for (std::size_t i = 0; i < report.racks.size(); ++i) {
      if (const check::InvariantChecker* checker = fleet.rack(i).checker()) {
        checks += checker->checks_passed();
        substeps += checker->substeps_checked();
      }
    }
    std::printf("  invariants:       %llu checks over %llu substeps, all "
                "passed\n",
                checks, substeps);
  }
  if (telemetry::StreamingTraceSink* sink = fleet.stream()) {
    sink->close();
    print_stream_stats(*sink);
  } else if (!stream_opt.trace_out.empty()) {
    fleet.save_trace_jsonl(stream_opt.trace_out);
    std::printf("  merged trace written to %s\n",
                stream_opt.trace_out.c_str());
  }
  if (!stream_opt.rollup_out.empty()) {
    fleet.save_rollup_jsonl(stream_opt.rollup_out);
    std::printf("  merged rollup series written to %s\n",
                stream_opt.rollup_out.c_str());
  }
  if (!stream_opt.flightrec_dir.empty()) {
    std::size_t dumps = 0;
    for (std::size_t i = 0; i < report.racks.size(); ++i) {
      dumps += fleet.rack(i).telemetry().flightrec().dumps();
    }
    std::printf("  flight recorder: %zu dump(s) in %s\n", dumps,
                stream_opt.flightrec_dir.c_str());
  }
  if (!spans_out.empty()) {
    fleet.save_chrome_spans(spans_out);
    std::printf("  merged spans written to %s (one pid per rack)\n",
                spans_out.c_str());
  }
  if (!profile_out.empty()) {
    fleet.save_profile_json(profile_out);
    std::printf("  merged profile (%zu phases) written to %s (inspect with "
                "`greenhetero analyze --perf`)\n",
                fleet.profile_report().size(), profile_out.c_str());
  }
  if (!stream_opt.metrics_out.empty()) {
    // run() already wrote the merged snapshot (and the periodic ones).
    std::printf("  metrics written to %s\n", stream_opt.metrics_out.c_str());
  }
  return epilogue(fleet, report.interrupted,
                  report.racks.front().epochs.size(), setup);
}

int cmd_fuzz(const Args& args) {
  if (!args.get("crash", "").empty()) {
    // Crash-recovery mode: SIGKILL real fleet child processes mid-run,
    // resume them from their checkpoints and byte-compare the outputs
    // against an uninterrupted reference.
    check::CrashFuzzOptions options;
    options.binary = self_exe_path();
    options.work_dir = args.get("crash-dir", "crash-fuzz");
    options.seed = static_cast<std::uint64_t>(args.number("seed", 1.0));
    options.runs = static_cast<int>(args.number("runs", 5.0));
    options.max_kills = static_cast<int>(args.number("max-kills", 3.0));
    options.log = &std::cout;
    const check::CrashFuzzReport report = check::run_crash_fuzzer(options);
    if (report.ok() && report.runs_executed > 0) {
      std::printf("crash fuzz: %d run(s) clean, %d kill(s) delivered, %d "
                  "resume(s) (seed %llu)\n",
                  report.runs_executed, report.kills_delivered,
                  report.resumes,
                  static_cast<unsigned long long>(options.seed));
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
                options.work_dir.string().c_str());
    return 4;
  }
  // Fault begin/end warnings from randomized plans would drown the per-run
  // progress lines; failures surface through the fuzz report instead.
  Logger::instance().set_level(LogLevel::kError);
  check::FuzzOptions options;
  options.seed = static_cast<std::uint64_t>(args.number("seed", 1.0));
  options.runs = static_cast<int>(args.number("runs", 25.0));
  options.only_run = static_cast<int>(args.number("run", -1.0));
  options.racks = static_cast<int>(args.number("racks", -1.0));
  options.epochs = static_cast<int>(args.number("epochs", -1.0));
  options.max_faults = static_cast<int>(args.number("max-faults", -1.0));
  options.shards = static_cast<int>(args.number("shards", -1.0));
  // --solver on: solver-focused mode — every rack runs a solver-driven
  // policy and the oracle spot checks use heavier 4-group instances.
  options.solver = !args.get("solver", "").empty();
  options.log = &std::cout;

  const check::FuzzReport report = check::run_fuzzer(options);
  if (report.ok()) {
    std::printf("fuzz: %d run(s) clean (seed %llu)\n", report.runs_executed,
                static_cast<unsigned long long>(options.seed));
    return 0;
  }
  std::printf("fuzz: run %d FAILED: %s\n",
              report.first_failure->scenario.run_index,
              report.first_failure->what.c_str());
  std::printf("fuzz: minimal repro: %s\n",
              report.shrunk->scenario.command_line().c_str());
  const std::string repro_out = args.get("repro-out", "");
  if (!repro_out.empty()) {
    util::write_file_atomic(repro_out,
                            report.shrunk->scenario.command_line() + "\n" +
                                report.shrunk->what + "\n");
    std::printf("fuzz: repro written to %s\n", repro_out.c_str());
  }
  return 4;
}

/// Dispatched before parse_args (which rejects positional arguments): the
/// two report paths are positionals, everything after them is ordinary
/// --flag parsing.
int cmd_benchdiff(int argc, char** argv) {
  if (argc < 4 || std::strncmp(argv[2], "--", 2) == 0 ||
      std::strncmp(argv[3], "--", 2) == 0) {
    std::fprintf(stderr,
                 "usage: greenhetero benchdiff CURRENT.json BASELINE.json "
                 "[--threshold T] [--trajectory FILE.jsonl] "
                 "[--date YYYY-MM-DD]\n");
    return 2;
  }
  const Args args = parse_args(argc, argv, 4);
  const double threshold =
      analysis::parse_bench_threshold(args.get("threshold", "10%"));
  const analysis::BenchComparison comparison = analysis::compare_bench(
      analysis::load_bench_report(argv[2]),
      analysis::load_bench_report(argv[3]), threshold);
  analysis::print_benchdiff(std::cout, comparison);

  const std::string trajectory = args.get("trajectory", "");
  if (!trajectory.empty()) {
    std::string date = args.get("date", "");
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

void usage() {
  std::fprintf(stderr,
               "usage: greenhetero "
               "<simulate|fleet|fuzz|analyze|benchdiff|policies|solve|traces|"
               "info> [--option value ...]\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  g_argv0 = argv[0];
  const std::string command = argv[1];
  try {
    // benchdiff takes positional file arguments, so it dispatches before
    // the --flag-only parse below.
    if (command == "benchdiff") return cmd_benchdiff(argc, argv);
    const Args args = parse_args(argc, argv, 2);
    if (command == "info") return cmd_info(args);
    if (command == "simulate") return cmd_simulate(args);
    if (command == "analyze") return cmd_analyze(args);
    if (command == "policies") return cmd_policies(args);
    if (command == "solve") return cmd_solve(args);
    if (command == "traces") return cmd_traces(args);
    if (command == "fleet") return cmd_fleet(args);
    if (command == "fuzz") return cmd_fuzz(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  usage();
  return 2;
}
