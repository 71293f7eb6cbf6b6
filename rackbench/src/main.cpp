// rackbench: host cost of the GreenHetero rack-epoch loop.
//
//   rackbench --workload NAME --seed N --seconds S --trace 0|1
//             [--scratch DIR] [--tiny] [--plant-mismatch]
//
// --trace 0 (the end-to-end run) builds the workload's fleet from the seed
// and runs it repeatedly for about --seconds (at least three times), each
// time as consecutive timed Fleet::run chunks with a pass of the host probe
// (host_probe.h) after each chunk.  It reports the median over the runs of
// the run's time divided by the probe's median time in that run, scaled to
// the reference host, plus the median set-up time (each set-up likewise
// scaled by a probe pass just before it).  Every record is then checked:
// finite, EPU in [0, 1], bitwise equal across the repeated runs, and
// bitwise equal to an untimed prefix replay with the invariant checkers on.
//
// --trace 1 (the per-layer run) times the host probe, runs the workload
// once with the profiler on, adds the benchmark's own spans around metrics
// export, checkpoint write/load and train_holt, then re-runs it untraced at
// 1, 2 and 4 threads for parallel efficiency and profiler overhead; every
// leg must reproduce the traced run's records bit for bit.  Its times are
// as measured, not scaled.
//
// Both print a fingerprint line, one line per metric, and as the last line
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "checks.h"
#include "core/predictor.h"
#include "host_probe.h"
#include "scenarios.h"
#include "telemetry/profiler.h"
#include "telemetry/telemetry.h"
#include "util/logging.h"

namespace {

using namespace greenhetero;
using namespace rackbench;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/// Seed reserved for verifying performance claims; never tune on it.
constexpr std::uint64_t kHeldOutSeed = 7919;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path scratch;
  bool tiny = false;
  bool plant = false;
};

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (flag == "--plant-mismatch") {
      args.plant = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload.empty()) throw std::invalid_argument("--workload needed");
  if (args.scratch.empty()) {
    args.scratch = fs::current_path() / ".bench_build" /
                   ("rackbench-scratch-" + std::to_string(::getpid()));
  }
  return args;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double process_cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string number(double value) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, result.ptr);
}

std::string json_escape(const std::string& s) {
  std::string out;
  telemetry::append_json_escaped(out, s);
  return out;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;
};

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void print_fingerprint(const Args& args) {
  std::printf(
      "fingerprint {\"build_info\":%s,\"build_type\":\"%s\",\"compiler\":"
      "%s,\"nproc\":%ld,\"cpu_model\":%s,\"workload\":%s,"
      "\"seed\":%llu,\"held_out_seed\":%llu,\"trace\":%d,\"tiny\":%d}\n",
      telemetry::build_info_json().c_str(), RACKBENCH_BUILD_TYPE,
      json_escape(RACKBENCH_COMPILER).c_str(), ::sysconf(_SC_NPROCESSORS_ONLN),
      json_escape(cpu_model()).c_str(), json_escape(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed),
      static_cast<unsigned long long>(kHeldOutSeed), args.trace ? 1 : 0,
      args.tiny ? 1 : 0);
}

/// Sum of every counter/gauge series called `name`, over all label sets.
double sum_series(const MetricsSnapshot& snapshot, std::string_view name) {
  double sum = 0.0;
  for (const auto& entry : snapshot.entries) {
    if (entry.name == name && entry.kind != telemetry::MetricKind::kHistogram) {
      sum += entry.value;
    }
  }
  return sum;
}

/// The simulated results, which must repeat exactly for a given seed.
struct Simulated {
  double fleet_epu = 0.0;
  double work_per_rack_epoch = 0.0;
  double grid_kwh = 0.0;

  bool operator==(const Simulated&) const = default;
};

Simulated simulated(const FleetReport& report) {
  // Energy-weighted over racks: each rack's EPU weighted by the green
  // energy its servers drew.
  double weighted = 0.0;
  double weight = 0.0;
  for (const RunReport& rack : report.racks) {
    const double green = rack.ledger.green_load_energy().value();
    weighted += rack.overall_epu * green;
    weight += green;
  }
  Simulated s;
  s.fleet_epu = weight > 0.0 ? weighted / weight : 0.0;
  s.work_per_rack_epoch =
      report.total_work / static_cast<double>(rack_epochs(report));
  s.grid_kwh = report.grid_energy.value() / 1000.0;
  return s;
}

/// A freshly built fleet run over its whole horizon as consecutive timed
/// Fleet::run calls of `chunk_hours` each (the fleet's state carries over,
/// so the records equal those of one uninterrupted run), with an untimed
/// pass of `probe` after each call.
struct TimedRun {
  FleetReport report;  ///< every chunk's records; totals as of the last
  SetupCost setup;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> probe_s;  ///< one probe pass per chunk
  std::size_t rack_epochs = 0;
};

TimedRun timed_run(const Scenario& scenario, const BuildOptions& options,
                   double chunk_hours, HostProbe& probe) {
  BuiltFleet built = build_fleet(scenario, options);
  TimedRun run;
  run.setup = built.cost;
  for (double done = 0.0; done < built.hours; done += chunk_hours) {
    const double hours = std::min(chunk_hours, built.hours - done);
    const double cpu_begin = process_cpu_seconds();
    const Clock::time_point begin = Clock::now();
    FleetReport chunk = built.fleet->run(Minutes{hours * 60.0});
    run.wall_s += seconds_since(begin);
    run.cpu_s += process_cpu_seconds() - cpu_begin;
    run.probe_s.push_back(probe.run());
    for (std::size_t i = 0; i < run.report.racks.size(); ++i) {
      std::vector<EpochRecord>& all = run.report.racks[i].epochs;
      std::vector<EpochRecord>& tail = chunk.racks[i].epochs;
      all.insert(all.end(), std::make_move_iterator(tail.begin()),
                 std::make_move_iterator(tail.end()));
      tail = std::move(all);
    }
    run.report = std::move(chunk);
  }
  run.rack_epochs = rackbench::rack_epochs(run.report);
  return run;
}

/// Which power cases the workload's epochs went through.
void print_case_mix(const FleetReport& report) {
  std::map<std::string, std::size_t> mix;
  for (const RunReport& rack : report.racks) {
    for (const EpochRecord& r : rack.epochs) {
      ++mix[r.training ? "training" : to_string(r.source_case)];
    }
  }
  std::printf("epochs by case:");
  for (const auto& [name, count] : mix) std::printf(" %s=%zu", name.c_str(), count);
  std::printf("\n");
}

Outcome end_to_end(const Scenario& scenario, const Args& args) {
  constexpr int kMinRuns = 3;
  constexpr int kMaxRuns = 40;
  const int min_runs = args.tiny ? 1 : kMinRuns;
  Outcome out;
  HostProbe probe;
  std::vector<double> setup_s;
  std::vector<double> setup_ref_s;  ///< set-up at the reference host speed
  std::vector<double> epoch_us;      ///< per run, as measured
  std::vector<double> epoch_ref_us;  ///< per run, at the reference host speed
  std::vector<double> cpu_ref_us;    ///< per run, at the reference host speed
  std::vector<double> probe_s;       ///< every probe pass
  FleetReport reference;
  Simulated reference_sim;
  std::size_t reference_failed = 0;
  double first_run_rss_mb = 0.0;

  const Clock::time_point start = Clock::now();
  for (int rep = 0; rep < kMaxRuns; ++rep) {
    if (rep >= min_runs && seconds_since(start) >= args.seconds) break;
    BuildOptions options;
    options.seed = args.seed;
    options.out_dir = args.scratch / ("run" + std::to_string(rep));
    TimedRun run = timed_run(scenario, options, scenario.chunk_hours, probe);
    fs::remove_all(options.out_dir);

    const double n = static_cast<double>(run.rack_epochs);
    const double speed = HostProbe::kReferenceSeconds / median(run.probe_s);
    probe_s.insert(probe_s.end(), run.probe_s.begin(), run.probe_s.end());
    epoch_us.push_back(run.wall_s * 1e6 / n);
    epoch_ref_us.push_back(epoch_us.back() * speed);
    cpu_ref_us.push_back(run.cpu_s * 1e6 / n * speed);
    std::printf("run %d: setup %.3f s, %zu rack-epochs, %.3f us/rack-epoch "
                "wall (%.3f at reference speed), %.3f us cpu, probe %.3f ms, "
                "peak rss %.1f MiB\n",
                rep, run.setup.total, run.rack_epochs, epoch_us.back(),
                epoch_ref_us.back(), run.cpu_s * 1e6 / n,
                median(run.probe_s) * 1e3, peak_rss_mb());

    FailureMap failures(run.report);
    failures.mark_invalid(run.report);
    out.attempted += failures.attempted();
    if (rep == 0) {
      // Later runs reuse a heap that the worker threads' arenas have
      // fragmented, so the first run alone is the workload's footprint.
      first_run_rss_mb = peak_rss_mb();
      reference_failed = failures.failed();
      reference = std::move(run.report);
      reference_sim = simulated(reference);
      continue;
    }
    failures.mark_mismatches(run.report, reference, SIZE_MAX);
    out.failed += failures.failed();
    if (!(simulated(run.report) == reference_sim)) out.correct = false;
  }

  // Set-up is short next to a run, so it gets more samples than the runs,
  // taken back to back so each starts from the same heap state, each right
  // after a probe pass.
  const std::size_t setup_samples = args.tiny ? 1 : 41;
  while (setup_s.size() < setup_samples) {
    BuildOptions options;
    options.seed = args.seed;
    options.out_dir = args.scratch / "setup";
    const double speed = HostProbe::kReferenceSeconds / probe.run();
    setup_s.push_back(build_fleet(scenario, options).cost.total);
    setup_ref_s.push_back(setup_s.back() * speed);
    fs::remove_all(options.out_dir);
  }
  print_case_mix(reference);
  std::printf("median of %zu runs: %.3f us/rack-epoch wall, %.3f at "
              "reference speed; probe median %.3f ms; setup %.4f s, %.4f s "
              "at reference speed\n",
              epoch_us.size(), median(epoch_us), median(epoch_ref_us),
              median(probe_s) * 1e3, median(setup_s), median(setup_ref_s));

  // Untimed replay of a prefix with both invariant checkers on; the first
  // run's records over that prefix must match it bit for bit.
  BuildOptions replay_options;
  replay_options.seed = args.seed;
  replay_options.check = true;
  replay_options.hours = scenario.replay_hours;
  replay_options.out_dir = args.scratch / "replay";
  TimedRun replay =
      timed_run(scenario, replay_options, scenario.replay_hours, probe);
  fs::remove_all(replay_options.out_dir);
  if (args.plant) plant_mismatch(replay.report);
  const std::size_t prefix = replay.report.racks.front().epochs.size();
  FailureMap failures(reference);
  failures.mark_invalid(reference);
  failures.mark_mismatches(reference, replay.report, prefix);
  out.failed += failures.failed();
  std::printf("replay: %zu epochs x %zu racks checked; reference run "
              "invalid %zu, after replay %zu failed\n",
              prefix, replay.report.racks.size(), reference_failed,
              failures.failed());
  std::printf("record digest %016llx\n",
              static_cast<unsigned long long>(record_digest(reference)));

  out.correct = out.correct && out.failed == 0;
  const double attempted = static_cast<double>(out.attempted);
  out.metrics = {
      {"setup_s", median(setup_ref_s), "s"},
      {"rack_epoch_ref_us", median(epoch_ref_us), "us"},
      {"rack_epoch_cpu_ref_us", median(cpu_ref_us), "us"},
      {"peak_rss_mb", first_run_rss_mb, "MiB"},
      {"fleet_epu", reference_sim.fleet_epu, "ratio"},
      {"work_per_rack_epoch", reference_sim.work_per_rack_epoch, "work"},
      {"grid_kwh", reference_sim.grid_kwh, "kWh"},
      {"pass_frac", (attempted - static_cast<double>(out.failed)) / attempted,
       "ratio"},
  };
  return out;
}

/// Profile totals aggregated by leaf phase name ("solve", "feedback", ...).
struct Phase {
  double self_ns = 0.0;
  double self_allocs = 0.0;
  double wall_ns = 0.0;
};

std::map<std::string, Phase> phases_by_leaf(
    const telemetry::ProfileReport& report) {
  std::map<std::string, Phase> phases;
  for (const auto& [path, node] : report) {
    const auto slash = path.rfind('/');
    Phase& p = phases[slash == std::string::npos ? path
                                                 : path.substr(slash + 1)];
    p.self_ns += static_cast<double>(node.self_wall_ns);
    p.self_allocs += static_cast<double>(node.self_alloc_count);
    p.wall_ns += static_cast<double>(node.wall_ns);
  }
  return phases;
}

/// Mean µs of one train_holt call on 96-point windows of the run's
/// observed renewable series (windows wrap around when the run is short).
double train_holt_us(const FleetReport& report) {
  constexpr std::size_t kWindow = 96;
  constexpr std::size_t kMaxWindows = 256;
  std::vector<double> series;
  for (const RunReport& rack : report.racks) {
    for (const EpochRecord& r : rack.epochs) {
      series.push_back(r.actual_renewable.value());
    }
  }
  std::vector<std::vector<double>> windows;
  for (std::size_t begin = 0;
       windows.size() < kMaxWindows &&
       (windows.empty() || begin + kWindow <= series.size());
       begin += kWindow) {
    std::vector<double> w(kWindow);
    for (std::size_t k = 0; k < kWindow; ++k) {
      w[k] = series[(begin + k) % series.size()];
    }
    windows.push_back(std::move(w));
  }
  double sink = 0.0;
  std::size_t calls = 0;
  const Clock::time_point start = Clock::now();
  do {
    for (const auto& w : windows) {
      const HoltParams p = train_holt(w);
      sink += p.alpha + p.beta;
      ++calls;
    }
  } while (seconds_since(start) < 0.2);
  const double us = seconds_since(start) * 1e6 / static_cast<double>(calls);
  std::printf("train_holt: %zu calls on %zu windows (checksum %.6f)\n", calls,
              windows.size(), sink);
  return us;
}

std::uintmax_t newest_snapshot_bytes(const fs::path& dir) {
  const std::vector<fs::path> snapshots = checkpoint::list_snapshots(dir);
  return snapshots.empty() ? 0 : fs::file_size(snapshots.back());
}

Outcome per_layer(const Scenario& scenario, const Args& args) {
  Outcome out;
  std::vector<Metric>& m = out.metrics;
  const fs::path traced_dir = args.scratch / "traced";

  // The host's speed just before the traced run: the per-layer times are
  // as measured, so this relates them to the end-to-end run's
  // reference-speed figures.
  HostProbe probe;
  std::vector<double> probe_s;
  for (int pass = 0; pass < 9; ++pass) probe_s.push_back(probe.run());

  // 1. The traced run: profiler on in every rack and the coordinator.
  BuildOptions traced_options;
  traced_options.seed = args.seed;
  traced_options.profile = true;
  traced_options.explicit_checkpoint = true;
  traced_options.out_dir = traced_dir;
  BuiltFleet built = build_fleet(scenario, traced_options);
  Fleet& fleet = *built.fleet;
  const Clock::time_point run_begin = Clock::now();
  FleetReport reference = fleet.run(Minutes{built.hours * 60.0});
  const double traced_wall = seconds_since(run_begin);
  const double n = static_cast<double>(rack_epochs(reference));
  const double threads = static_cast<double>(fleet.threads());
  const double traced_us = traced_wall * 1e6 / n;

  FailureMap traced_failures(reference);
  traced_failures.mark_invalid(reference);
  out.attempted += traced_failures.attempted();
  out.failed += traced_failures.failed();

  std::map<std::string, Phase> phases = phases_by_leaf(fleet.profile_report());
  const auto us = [&](const char* leaf) {
    return phases[leaf].self_ns / 1e3 / n;
  };
  const auto allocs = [&](const char* leaf) {
    return phases[leaf].self_allocs / n;
  };
  double phase_sum_ns = 0.0;
  for (const auto& [leaf, p] : phases) phase_sum_ns += p.self_ns;

  const Clock::time_point export_begin = Clock::now();
  const MetricsSnapshot snapshot = fleet.metrics_snapshot();
  const std::string exported = snapshot.to_json();
  const double export_ms = seconds_since(export_begin) * 1e3;
  std::printf("metrics export: %zu series, %zu JSON bytes\n",
              snapshot.entries.size(), exported.size());

  double trace_events = 0.0;
  double trace_bytes = 0.0;
  double stalls = 0.0;
  if (telemetry::StreamingTraceSink* sink = fleet.stream()) {
    sink->flush();
    trace_events = static_cast<double>(sink->events_written());
    trace_bytes = static_cast<double>(fs::file_size(sink->config().path));
    stalls = static_cast<double>(sink->stalls());
  } else {
    trace_events = static_cast<double>(fleet.telemetry().trace().size());
    trace_bytes = static_cast<double>(fleet.telemetry().trace().approx_bytes());
    for (std::size_t i = 0; i < fleet.size(); ++i) {
      const telemetry::TraceRing& ring = fleet.rack(i).telemetry().trace();
      trace_events += static_cast<double>(ring.size());
      trace_bytes += static_cast<double>(ring.approx_bytes());
    }
  }

  const Clock::time_point write_begin = Clock::now();
  fleet.write_checkpoint();
  const double write_ms = seconds_since(write_begin) * 1e3;
  const fs::path ckpt_dir = traced_dir / "ckpt";
  const double ckpt_bytes = static_cast<double>(newest_snapshot_bytes(ckpt_dir));
  if (telemetry::StreamingTraceSink* sink = fleet.stream()) sink->close();

  m = {
      {"core.feedback_us", us("feedback"), "us"},
      {"core.feedback_allocs", allocs("feedback"), "count"},
      {"core.holt_retrains",
       sum_series(snapshot, "gh_predictor_retrains_total"), "count"},
      {"core.train_holt_us", train_holt_us(reference), "us"},
      {"core.solve_us", us("solve"), "us"},
      {"core.solve_allocs", allocs("solve"), "count"},
      {"core.solver_iters_per_call",
       sum_series(snapshot, "gh_solver_iterations_total") /
           std::max(1.0, sum_series(snapshot, "gh_solver_calls_total")),
       "count"},
      {"core.select_source_us", us("select_source"), "us"},
      {"core.select_source_allocs", allocs("select_source"), "count"},
      {"core.predict_us", us("predict"), "us"},
      {"core.plan_self_us", us("plan"), "us"},
      {"core.enforce_us", us("enforce"), "us"},
      {"core.training_epochs",
       sum_series(snapshot, "gh_training_epochs_total"), "count"},
      {"core.safe_mode_epochs",
       sum_series(snapshot, "gh_safe_mode_epochs_total"), "count"},
      {"core.health_transitions",
       sum_series(snapshot, "gh_health_transitions_total"), "count"},
      {"faults.injected", sum_series(snapshot, "gh_faults_injected_total"),
       "count"},
      {"sim.substeps_us", us("substeps"), "us"},
      {"sim.epoch_self_us", us("epoch"), "us"},
      {"sim.epoch_allocs", allocs("epoch"), "count"},
      {"sim.phase_sum_us", phase_sum_ns / 1e3 / n, "us"},
      {"fleet.traced_rack_epoch_us", traced_us, "us"},
      {"fleet.coordinator_share",
       std::max(0.0, 1.0 - phases["epoch"].wall_ns / 1e9 / threads /
                               traced_wall),
       "ratio"},
      {"fleet.epoch_store_bytes",
       static_cast<double>(fleet.epoch_store_bytes()) / n, "B"},
      {"telemetry.metric_series", static_cast<double>(snapshot.entries.size()),
       "count"},
      {"telemetry.trace_bytes", trace_bytes / n, "B"},
      {"telemetry.trace_events", trace_events / n, "count"},
      {"telemetry.stream_stalls", stalls, "count"},
      {"telemetry.metrics_export_ms", export_ms, "ms"},
      {"checkpoint.write_ms", write_ms, "ms"},
      {"checkpoint.bytes", ckpt_bytes, "B"},
      {"trace.solar_gen_ms", built.cost.solar_gen * 1e3, "ms"},
      {"sim.pretrain_ms", built.cost.pretrain * 1e3, "ms"},
      {"host.probe_ms", median(probe_s) * 1e3, "ms"},
  };
  built.fleet.reset();
  if (args.plant) plant_mismatch(reference);

  // 2. Load that checkpoint into a freshly built fleet; resuming at the
  // final epoch must reassemble the same records.
  {
    BuildOptions options = traced_options;
    options.profile = false;
    options.resume_stream = true;
    BuiltFleet fresh = build_fleet(scenario, options);
    const Clock::time_point load_begin = Clock::now();
    const std::optional<checkpoint::Snapshot> snapshot_file =
        checkpoint::load_latest(ckpt_dir);
    if (!snapshot_file) throw std::runtime_error("no checkpoint written");
    fresh.fleet->load_checkpoint(*snapshot_file);
    m.push_back({"checkpoint.load_ms", seconds_since(load_begin) * 1e3, "ms"});
    const FleetReport resumed = fresh.fleet->run(Minutes{fresh.hours * 60.0});
    FailureMap failures(resumed);
    failures.mark_invalid(resumed);
    failures.mark_mismatches(resumed, reference, SIZE_MAX);
    out.attempted += failures.attempted();
    out.failed += failures.failed();
    std::printf("checkpoint round trip: %zu of %zu rack-epochs failed\n",
                failures.failed(), failures.attempted());
  }
  fs::remove_all(traced_dir);

  // 3. Untraced thread sweep; the leg at the workload's own thread count
  // is the untraced reference for the profiler overhead.
  std::map<std::size_t, double> wall;
  double untraced_us = 0.0;
  for (const std::size_t t : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    BuildOptions options;
    options.seed = args.seed;
    options.threads = t;
    options.out_dir = args.scratch / ("sweep" + std::to_string(t));
    BuiltFleet leg = build_fleet(scenario, options);
    const telemetry::ThreadAllocCounters allocs_before =
        telemetry::thread_alloc_counters();
    const Clock::time_point begin = Clock::now();
    const FleetReport report = leg.fleet->run(Minutes{leg.hours * 60.0});
    wall[t] = seconds_since(begin);
    if (t == 1) {
      m.push_back({"sim.allocs",
                   static_cast<double>(telemetry::thread_alloc_counters().count -
                                       allocs_before.count),
                   "count"});
    }
    if (t == scenario.threads) untraced_us = wall[t] * 1e6 / n;
    leg.fleet.reset();
    fs::remove_all(options.out_dir);
    FailureMap failures(report);
    failures.mark_invalid(report);
    failures.mark_mismatches(report, reference, SIZE_MAX);
    out.attempted += failures.attempted();
    out.failed += failures.failed();
    std::printf("sweep %zu thread(s): %.3f s, digest %016llx, %zu failed\n",
                t, wall[t],
                static_cast<unsigned long long>(record_digest(report)),
                failures.failed());
  }
  m.push_back({"fleet.parallel_eff_2t", wall[1] / (2.0 * wall[2]), "ratio"});
  m.push_back({"fleet.parallel_eff_4t", wall[1] / (4.0 * wall[4]), "ratio"});
  m.push_back({"telemetry.profile_overhead", traced_us / untraced_us - 1.0,
               "ratio"});
  std::printf("record digest %016llx\n",
              static_cast<unsigned long long>(record_digest(reference)));
  out.correct = out.failed == 0;
  return out;
}

void print_outcome(const Outcome& out) {
  for (const Metric& metric : out.metrics) {
    std::printf("metric %-32s %14.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& metric = out.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + metric.name + "\": {\"value\": " + number(metric.value) +
            ", \"unit\": \"" + metric.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse_args(argc, argv);
    const Scenario scenario = find_scenario(args.workload, args.tiny);
    // Health edges are counted from the metrics snapshot instead of
    // flooding stderr with one warning line per transition.
    Logger::instance().set_level(LogLevel::kError);
    print_fingerprint(args);
    std::printf("workload %s: %zu racks x %.0f h, %zu thread(s), %zu "
                "shard(s)\n",
                scenario.name.c_str(), scenario.racks, scenario.hours,
                scenario.threads, scenario.shards);
    fs::create_directories(args.scratch);
    const Outcome outcome =
        args.trace ? per_layer(scenario, args) : end_to_end(scenario, args);
    fs::remove_all(args.scratch);
    std::fflush(stdout);
    print_outcome(outcome);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rackbench: %s\n", e.what());
    return 1;
  }
}
