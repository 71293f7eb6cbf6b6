#include "analysis/trace_analyzer.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <limits>
#include <map>
#include <ostream>
#include <sstream>

#include "telemetry/ledger.h"
#include "telemetry/metrics.h"
#include "telemetry/tracing.h"

namespace greenhetero::analysis {

namespace {

namespace tel = telemetry;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// The event's phase is its first "phase" member; "fault_inject" events
/// carry a second one ("begin"/"end") in their payload — this returns it.
std::string payload_phase(const json::Value& event) {
  std::string last;
  for (const json::Member& m : event.as_object()) {
    if (m.first == "phase" && m.second.is_string()) {
      last = m.second.as_string();
    }
  }
  return last;
}

/// Exact-sample percentile: the ceil(q*n)-th smallest value.
double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return kNaN;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size() - 1, rank > 0 ? rank - 1 : 0)];
}

struct EpochPoint {
  double t = 0.0;
  double value = 0.0;  ///< fault-bucket watts (ledger) or shortfall watts
};

/// The per-epoch record the fault at `t` landed in: the last point with
/// start <= t (faults are applied at epoch start, before planning).
double correlate(const std::vector<EpochPoint>& points, double t) {
  double value = kNaN;
  for (const EpochPoint& p : points) {
    if (p.t > t + 1e-9) break;
    value = p.value;
  }
  return value;
}

void print_epu(std::ostream& out, const EpuBreakdown& epu) {
  if (epu.epochs == 0) {
    out << "EPU: no epoch records in trace\n";
    return;
  }
  if (!epu.from_ledger) {
    out << "EPU summary (epoch_plan events, " << epu.epochs << " epochs)\n"
        << "  mean EPU        " << tel::format_number(epu.epu) << "\n"
        << "  mean shortfall  " << tel::format_number(epu.mean_shortfall_w)
        << " W\n"
        << "  mean grid       " << tel::format_number(epu.mean_grid_w)
        << " W\n"
        << "  (re-run the simulation with --ledger for full loss"
           " attribution)\n";
    return;
  }
  out << "EPU loss breakdown (loss_ledger events, " << epu.epochs
      << " epochs)\n"
      << "  mean supply  " << tel::format_number(epu.mean_supply_w) << " W\n"
      << "  mean useful  " << tel::format_number(epu.mean_useful_w) << " W\n"
      << "  EPU          " << tel::format_number(epu.epu) << "\n\n"
      << "  " << std::left << std::setw(20) << "bucket" << std::right
      << std::setw(14) << "mean W" << std::setw(10) << "share" << "\n";
  for (const BucketStat& b : epu.buckets) {
    std::ostringstream share;
    share << std::fixed << std::setprecision(2) << b.share * 100.0 << "%";
    out << "  " << std::left << std::setw(20) << b.name << std::right
        << std::setw(14) << tel::format_number(b.mean_w) << std::setw(10)
        << share.str() << "\n";
  }
}

void print_faults(std::ostream& out, const std::vector<FaultEntry>& faults) {
  out << "Fault timeline";
  if (faults.empty()) {
    out << ": none\n";
    return;
  }
  out << "\n";
  for (const FaultEntry& f : faults) {
    out << "  t=" << tel::format_number(f.t_min) << "min  rack "
        << f.rack_id << "  " << std::left << std::setw(28) << f.label
        << std::right;
    if (std::isnan(f.correlated_w)) {
      out << "(no epoch record)";
    } else {
      out << (f.correlated_is_fault_bucket ? "fault bucket " : "shortfall ")
          << tel::format_number(f.correlated_w) << " W";
    }
    out << "\n";
  }
}

void print_latencies(std::ostream& out,
                     const std::vector<PhaseLatency>& latencies) {
  out << "Control-loop phase latency (span events)";
  if (latencies.empty()) {
    out << ": none (re-run the simulation with --spans)\n";
    return;
  }
  out << "\n  " << std::left << std::setw(16) << "phase" << std::right
      << std::setw(8) << "count" << std::setw(12) << "p50" << std::setw(12)
      << "p90" << std::setw(12) << "p99" << "\n";
  for (const PhaseLatency& l : latencies) {
    out << "  " << std::left << std::setw(16) << l.name << std::right
        << std::setw(8) << l.count << std::setw(12)
        << tel::format_duration_ns(l.p50_ns) << std::setw(12)
        << tel::format_duration_ns(l.p90_ns) << std::setw(12)
        << tel::format_duration_ns(l.p99_ns) << "\n";
  }
}

void print_rollups(std::ostream& out, const std::vector<RollupRow>& rollups) {
  out << "Rollup trend (fixed-window rollup events)";
  if (rollups.empty()) {
    out << ": none (re-run the simulation with --rollup-out/--rollup-window)"
        << "\n";
    return;
  }
  out << "\n  " << std::left << std::setw(22) << "window" << std::right
      << std::setw(7) << "racks" << std::setw(8) << "epochs" << std::setw(10)
      << "EPU" << std::setw(14) << "shortfall W" << std::setw(12) << "grid W"
      << std::setw(11) << "unhealthy" << "\n";
  for (const RollupRow& r : rollups) {
    std::ostringstream window;
    window << "[" << tel::format_number(r.start_min) << ", "
           << tel::format_number(r.end_min) << ")";
    std::ostringstream epu;
    epu << std::fixed << std::setprecision(4) << r.mean_epu;
    out << "  " << std::left << std::setw(22) << window.str() << std::right
        << std::setw(7) << r.racks << std::setw(8) << r.epochs
        << std::setw(10) << epu.str() << std::setw(14)
        << tel::format_number(r.mean_shortfall_w) << std::setw(12)
        << tel::format_number(r.mean_grid_w) << std::setw(11)
        << r.unhealthy_epochs << "\n";
  }
}

void print_flightrecs(std::ostream& out,
                      const std::vector<FlightRecEntry>& entries) {
  if (entries.empty()) return;
  out << "Flight-recorder dumps\n";
  for (const FlightRecEntry& e : entries) {
    out << "  t=" << tel::format_number(e.t_min) << "min  rack " << e.rack_id
        << "  reason " << e.reason << "\n";
  }
  out << "\n";
}

}  // namespace

TraceData load_trace(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) {
    throw AnalyzerError("analyze: cannot open trace file: " + path.string());
  }
  TraceData trace;
  std::string line;
  std::size_t line_no = 0;
  bool saw_header = false;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    json::Value value;
    std::string parse_error;
    try {
      value = json::parse(line);
      if (!value.is_object()) parse_error = "expected a JSON object";
    } catch (const json::JsonError& e) {
      parse_error = e.what();
    }
    if (!parse_error.empty()) {
      // A crash can tear the file's FINAL line mid-write; tolerate exactly
      // that one (drop + count), while mid-file corruption stays an error.
      std::string rest;
      bool more_data = false;
      while (std::getline(in, rest)) {
        if (!rest.empty()) {
          more_data = true;
          break;
        }
      }
      if (!more_data && saw_header) {
        trace.torn_tail_lines = 1;
        break;
      }
      throw AnalyzerError("analyze: " + path.string() + ":" +
                          std::to_string(line_no) + ": " + parse_error);
    }
    if (!saw_header) {
      const json::Value* schema = value.find("schema");
      if (schema == nullptr || !schema->is_string() ||
          schema->as_string() != "greenhetero-trace") {
        throw AnalyzerError(
            "analyze: " + path.string() +
            ": missing schema header (first line must be " +
            tel::trace_header_json() +
            "; pre-v2 traces need regenerating)");
      }
      const json::Value* version = value.find("version");
      const int v = version != nullptr && version->is_number()
                        ? static_cast<int>(version->as_number())
                        : 0;
      if (v < 2 || v > tel::kTraceSchemaVersion) {
        throw AnalyzerError(
            "analyze: " + path.string() + ": unsupported schema version " +
            std::to_string(v) + " (this build understands version " +
            std::to_string(tel::kTraceSchemaVersion) + ")");
      }
      trace.schema_version = v;
      saw_header = true;
      continue;
    }
    trace.events.push_back(std::move(value));
  }
  if (!saw_header) {
    throw AnalyzerError("analyze: " + path.string() +
                        ": empty trace (no schema header)");
  }
  return trace;
}

TraceAnalysis analyze(const TraceData& trace) {
  TraceAnalysis analysis;
  analysis.schema_version = trace.schema_version;
  analysis.event_count = trace.events.size();
  analysis.torn_tail_lines = trace.torn_tail_lines;

  // Pass 1: epoch records (ledger if present, epoch_plan fallback) and the
  // correlation series for the fault timeline.
  std::vector<EpochPoint> fault_series;     // loss_ledger fault bucket
  std::vector<EpochPoint> shortfall_series; // epoch_plan shortfall
  EpuBreakdown& epu = analysis.epu;
  std::size_t ledger_epochs = 0;
  double supply_sum = 0.0;
  double useful_sum = 0.0;
  std::array<double, tel::kLossBucketCount> bucket_sums{};
  std::size_t plan_epochs = 0;
  double epu_sum = 0.0;
  double shortfall_sum = 0.0;
  double grid_sum = 0.0;

  for (const json::Value& event : trace.events) {
    const json::Value* phase = event.find("phase");
    if (phase == nullptr || !phase->is_string()) continue;
    const std::string& name = phase->as_string();
    const double t = event.number_or("t", 0.0);
    if (name == "loss_ledger") {
      ++ledger_epochs;
      supply_sum += event.number_or("supply_w", 0.0);
      useful_sum += event.number_or("useful_w", 0.0);
      for (tel::LossBucket b : tel::all_loss_buckets()) {
        const std::string key = std::string(tel::to_string(b)) + "_w";
        bucket_sums[static_cast<std::size_t>(b)] +=
            event.number_or(key, 0.0);
      }
      fault_series.push_back(
          {t, event.number_or(
                  std::string(tel::to_string(tel::LossBucket::kFault)) + "_w",
                  0.0)});
    } else if (name == "epoch_plan") {
      ++plan_epochs;
      epu_sum += event.number_or("epu", 0.0);
      shortfall_sum += event.number_or("shortfall_w", 0.0);
      grid_sum += event.number_or("grid_w", 0.0);
      shortfall_series.push_back({t, event.number_or("shortfall_w", 0.0)});
    }
  }

  if (ledger_epochs > 0) {
    epu.from_ledger = true;
    epu.epochs = ledger_epochs;
    const double n = static_cast<double>(ledger_epochs);
    epu.mean_supply_w = supply_sum / n;
    epu.mean_useful_w = useful_sum / n;
    epu.epu = epu.mean_supply_w > 0.0 ? epu.mean_useful_w / epu.mean_supply_w
                                      : 1.0;
    for (tel::LossBucket b : tel::all_loss_buckets()) {
      BucketStat stat;
      stat.name = std::string(tel::to_string(b));
      stat.mean_w = bucket_sums[static_cast<std::size_t>(b)] / n;
      stat.share =
          epu.mean_supply_w > 0.0 ? stat.mean_w / epu.mean_supply_w : 0.0;
      epu.buckets.push_back(std::move(stat));
    }
    epu.mean_shortfall_w = plan_epochs > 0
                               ? shortfall_sum / static_cast<double>(plan_epochs)
                               : 0.0;
    epu.mean_grid_w =
        plan_epochs > 0 ? grid_sum / static_cast<double>(plan_epochs) : 0.0;
  } else if (plan_epochs > 0) {
    epu.epochs = plan_epochs;
    const double n = static_cast<double>(plan_epochs);
    epu.epu = epu_sum / n;
    epu.mean_shortfall_w = shortfall_sum / n;
    epu.mean_grid_w = grid_sum / n;
  }

  // Pass 2: fault timeline and span latencies.
  const std::vector<EpochPoint>& series =
      ledger_epochs > 0 ? fault_series : shortfall_series;
  std::map<std::string, std::vector<double>> durations;
  std::map<double, std::vector<const json::Value*>> rollups;
  for (const json::Value& event : trace.events) {
    const json::Value* phase = event.find("phase");
    if (phase == nullptr || !phase->is_string()) continue;
    const std::string& name = phase->as_string();
    const double t = event.number_or("t", 0.0);
    const int rack = static_cast<int>(event.number_or("rack", 0.0));
    if (name == "fault_inject") {
      FaultEntry entry;
      entry.t_min = t;
      entry.rack_id = rack;
      const std::string edge = payload_phase(event);
      entry.label = event.string_or("kind", "?") + " " +
                    (edge == "begin" ? "begins" : "ends");
      entry.correlated_w = correlate(series, t);
      entry.correlated_is_fault_bucket = ledger_epochs > 0;
      analysis.faults.push_back(std::move(entry));
    } else if (name == "degrade" || name == "recover") {
      FaultEntry entry;
      entry.t_min = t;
      entry.rack_id = rack;
      entry.label = name + " " + event.string_or("from", "?") + "->" +
                    event.string_or("to", "?");
      entry.correlated_w = correlate(series, t);
      entry.correlated_is_fault_bucket = ledger_epochs > 0;
      analysis.faults.push_back(std::move(entry));
    } else if (name == "span") {
      durations[event.string_or("name", "?")].push_back(
          event.number_or("dur_ns", 0.0));
    } else if (name == "rollup") {
      rollups[event.number_or("window_start_min", 0.0)].push_back(&event);
    } else if (name == "trace_truncated") {
      analysis.truncated_dropped +=
          static_cast<std::uint64_t>(event.number_or("dropped", 0.0));
    } else if (name == "flightrec") {
      FlightRecEntry entry;
      entry.t_min = t;
      entry.rack_id = rack;
      entry.reason = event.string_or("reason", "?");
      analysis.flightrecs.push_back(std::move(entry));
    }
  }

  // Aggregate the per-rack rollup events into one row per window,
  // epoch-weighting the means (map iteration gives ascending window start).
  for (const auto& [start, events] : rollups) {
    RollupRow row;
    row.start_min = start;
    row.racks = events.size();
    double epu_weighted = 0.0;
    double shortfall_weighted = 0.0;
    double grid_weighted = 0.0;
    for (const json::Value* event : events) {
      row.end_min = std::max(row.end_min,
                             event->number_or("window_end_min", 0.0));
      const double epochs = event->number_or("epochs", 0.0);
      row.epochs += static_cast<std::size_t>(epochs);
      epu_weighted += event->number_or("epu", 0.0) * epochs;
      shortfall_weighted += event->number_or("shortfall_w", 0.0) * epochs;
      grid_weighted += event->number_or("grid_w", 0.0) * epochs;
      for (const char* key :
           {"health_degraded", "health_safe", "health_recovering"}) {
        row.unhealthy_epochs +=
            static_cast<std::size_t>(event->number_or(key, 0.0));
      }
    }
    if (row.epochs > 0) {
      const double n = static_cast<double>(row.epochs);
      row.mean_epu = epu_weighted / n;
      row.mean_shortfall_w = shortfall_weighted / n;
      row.mean_grid_w = grid_weighted / n;
    }
    analysis.rollups.push_back(row);
  }

  for (auto& [span_name, samples] : durations) {
    std::sort(samples.begin(), samples.end());
    PhaseLatency latency;
    latency.name = span_name;
    latency.count = samples.size();
    latency.p50_ns = percentile(samples, 0.50);
    latency.p90_ns = percentile(samples, 0.90);
    latency.p99_ns = percentile(samples, 0.99);
    analysis.latencies.push_back(std::move(latency));
  }
  return analysis;
}

void print_report(std::ostream& out, const TraceAnalysis& analysis) {
  out << "Trace: " << analysis.event_count << " events, schema v"
      << analysis.schema_version << "\n\n";
  if (analysis.truncated_dropped > 0) {
    out << "*** WARNING: trace truncated — " << analysis.truncated_dropped
        << " event" << (analysis.truncated_dropped == 1 ? "" : "s")
        << " dropped by the bounded ring buffer ***\n"
        << "*** every figure below is computed from a PARTIAL trace"
           " (raise the trace ring capacity) ***\n\n";
  }
  if (analysis.torn_tail_lines > 0) {
    out << "*** WARNING: " << analysis.torn_tail_lines << " torn final line"
        << (analysis.torn_tail_lines == 1 ? "" : "s")
        << " dropped — the writing process likely crashed mid-write"
           " (resume the run from its checkpoints to repair the file) ***\n\n";
  }
  print_flightrecs(out, analysis.flightrecs);
  print_epu(out, analysis.epu);
  out << "\n";
  print_faults(out, analysis.faults);
  out << "\n";
  print_latencies(out, analysis.latencies);
  out << "\n";
  print_rollups(out, analysis.rollups);
}

DiffResult diff(const TraceAnalysis& base, const TraceAnalysis& other) {
  DiffResult result;
  result.base_epu = base.epu.epu;
  result.other_epu = other.epu.epu;
  result.base_truncated = base.truncated_dropped;
  result.other_truncated = other.truncated_dropped;
  result.base_torn = base.torn_tail_lines;
  result.other_torn = other.torn_tail_lines;
  // Per-window regression check: compare EPU window by window (matched on
  // start time) so a short-lived regression cannot hide inside whole-run
  // means.
  for (const RollupRow& b : base.rollups) {
    for (const RollupRow& o : other.rollups) {
      if (std::fabs(o.start_min - b.start_min) < 1e-9) {
        result.rollups.push_back({b.start_min, b.mean_epu, o.mean_epu});
        break;
      }
    }
  }
  // Bucket shares are only comparable when both runs carried a ledger; a
  // share missing on one side counts as zero so a feature mismatch is
  // visible as a full-size delta rather than silently skipped.
  auto share_of = [](const EpuBreakdown& epu, const std::string& name) {
    for (const BucketStat& b : epu.buckets) {
      if (b.name == name) return b.share;
    }
    return 0.0;
  };
  for (tel::LossBucket b : tel::all_loss_buckets()) {
    const std::string name{tel::to_string(b)};
    if (share_of(base.epu, name) == 0.0 && share_of(other.epu, name) == 0.0) {
      continue;
    }
    BucketDelta delta;
    delta.name = name;
    delta.base_share = share_of(base.epu, name);
    delta.other_share = share_of(other.epu, name);
    result.buckets.push_back(std::move(delta));
  }
  return result;
}

void print_diff(std::ostream& out, const DiffResult& result,
                double threshold) {
  out << "EPU diff (other - base, threshold "
      << tel::format_number(threshold) << ")\n"
      << "  EPU   base " << tel::format_number(result.base_epu) << "   other "
      << tel::format_number(result.other_epu) << "   delta "
      << tel::format_number(result.epu_delta()) << "\n";
  if (result.truncated()) {
    const bool base_partial =
        result.base_truncated > 0 || result.base_torn > 0;
    const bool other_partial =
        result.other_truncated > 0 || result.other_torn > 0;
    out << "  NOTE: truncated trace on "
        << (base_partial && other_partial ? "both sides"
            : base_partial               ? "the base side"
                                         : "the other side")
        << " (" << result.base_truncated << " / " << result.other_truncated
        << " events dropped, " << result.base_torn << " / "
        << result.other_torn << " torn tail lines) — comparison covers "
           "partial data\n";
  }
  if (!result.buckets.empty()) {
    out << "  " << std::left << std::setw(20) << "bucket" << std::right
        << std::setw(12) << "base" << std::setw(12) << "other"
        << std::setw(12) << "delta" << "\n";
    for (const BucketDelta& b : result.buckets) {
      out << "  " << std::left << std::setw(20) << b.name << std::right
          << std::fixed << std::setprecision(6) << std::setw(12)
          << b.base_share << std::setw(12) << b.other_share << std::setw(12)
          << b.delta() << std::defaultfloat << "\n";
    }
  }
  if (!result.rollups.empty()) {
    out << "  " << std::left << std::setw(20) << "window start" << std::right
        << std::setw(12) << "base EPU" << std::setw(12) << "other EPU"
        << std::setw(12) << "delta" << "\n";
    for (const RollupDelta& r : result.rollups) {
      out << "  " << std::left << std::setw(20)
          << tel::format_number(r.start_min) << std::right << std::fixed
          << std::setprecision(6) << std::setw(12) << r.base_epu
          << std::setw(12) << r.other_epu << std::setw(12) << r.delta()
          << std::defaultfloat << "\n";
    }
  }
  out << (exceeds_threshold(result, threshold)
              ? "RESULT: drift above threshold\n"
              : "RESULT: within threshold\n");
}

bool exceeds_threshold(const DiffResult& result, double threshold) {
  if (result.truncated()) return true;
  if (std::fabs(result.epu_delta()) > threshold) return true;
  if (std::any_of(result.buckets.begin(), result.buckets.end(),
                  [threshold](const BucketDelta& b) {
                    return std::fabs(b.delta()) > threshold;
                  })) {
    return true;
  }
  return std::any_of(result.rollups.begin(), result.rollups.end(),
                     [threshold](const RollupDelta& r) {
                       return std::fabs(r.delta()) > threshold;
                     });
}

}  // namespace greenhetero::analysis
