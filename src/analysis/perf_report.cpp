#include "analysis/perf_report.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "telemetry/metrics.h"
#include "util/json.h"

namespace greenhetero::analysis {

namespace tel = telemetry;

namespace {

constexpr int kProfileVersion = 2;

std::int64_t int_or(const json::Value& row, std::string_view key) {
  return static_cast<std::int64_t>(row.number_or(key, 0.0));
}

std::uint64_t uint_or(const json::Value& row, std::string_view key) {
  const double v = row.number_or(key, 0.0);
  return v <= 0.0 ? 0 : static_cast<std::uint64_t>(v);
}

PerfPhase parse_phase(const json::Value& row, const std::string& context) {
  if (!row.is_object()) {
    throw AnalyzerError("analyze: " + context +
                        ": profile rows must be JSON objects");
  }
  PerfPhase phase;
  phase.name = row.string_or("name", "");
  phase.path = row.string_or("path", phase.name);
  if (phase.name.empty()) {
    throw AnalyzerError("analyze: " + context +
                        ": profile row is missing its \"name\"");
  }
  phase.depth = static_cast<int>(row.number_or("depth", 0.0));
  phase.calls = uint_or(row, "calls");
  phase.self_wall_ns = int_or(row, "self_wall_ns");
  phase.cpu_ns = int_or(row, "cpu_ns");
  phase.self_alloc_bytes = uint_or(row, "self_alloc_bytes");
  phase.self_alloc_count = uint_or(row, "self_alloc_count");
  // Flat rows carry self fields only; mirroring them into the inclusive
  // fields keeps every PerfPhase printable through one code path.
  phase.wall_ns = static_cast<std::int64_t>(
      row.number_or("wall_ns", static_cast<double>(phase.self_wall_ns)));
  phase.alloc_bytes = static_cast<std::uint64_t>(row.number_or(
      "alloc_bytes", static_cast<double>(phase.self_alloc_bytes)));
  phase.alloc_count = static_cast<std::uint64_t>(row.number_or(
      "alloc_count", static_cast<double>(phase.self_alloc_count)));
  return phase;
}

std::string format_bytes(std::uint64_t bytes) {
  const double b = static_cast<double>(bytes);
  char buf[32];
  if (b >= 1024.0 * 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.1fGiB", b / (1024.0 * 1024.0 * 1024.0));
  } else if (b >= 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.1fMiB", b / (1024.0 * 1024.0));
  } else if (b >= 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.1fKiB", b / 1024.0);
  } else {
    std::snprintf(buf, sizeof(buf), "%.0fB", b);
  }
  return buf;
}

}  // namespace

PerfProfile load_profile(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) {
    throw AnalyzerError("analyze: cannot open profile file: " +
                        path.string());
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  json::Value doc;
  try {
    doc = json::parse(buffer.str());
  } catch (const json::JsonError& e) {
    throw AnalyzerError("analyze: " + path.string() + ": " + e.what());
  }
  if (!doc.is_object() || doc.string_or("schema", "") != "greenhetero.profile") {
    throw AnalyzerError("analyze: " + path.string() +
                        ": not a greenhetero profile (expected a "
                        "\"schema\":\"greenhetero.profile\" document from "
                        "--profile-out)");
  }
  PerfProfile profile;
  profile.version = static_cast<int>(doc.number_or("version", 0.0));
  if (profile.version < 1 || profile.version > kProfileVersion) {
    throw AnalyzerError(
        "analyze: " + path.string() + ": unsupported profile version " +
        std::to_string(profile.version) + " (this build understands version " +
        std::to_string(kProfileVersion) + ")");
  }
  const json::Value* phases = doc.find("phases");
  if (phases == nullptr || phases->kind() != json::Value::Kind::kArray) {
    throw AnalyzerError("analyze: " + path.string() +
                        ": profile is missing its \"phases\" array");
  }
  for (const json::Value& row : phases->as_array()) {
    profile.phases.push_back(parse_phase(row, path.string()));
  }
  if (const json::Value* flat = doc.find("flat");
      flat != nullptr && flat->kind() == json::Value::Kind::kArray) {
    for (const json::Value& row : flat->as_array()) {
      profile.flat.push_back(parse_phase(row, path.string()));
    }
  }
  return profile;
}

void print_perf_report(std::ostream& out, const PerfProfile& profile,
                       std::size_t top_n) {
  out << "Phase tree (inclusive | self)\n"
      << "  " << std::left << std::setw(34) << "phase" << std::right
      << std::setw(10) << "calls" << std::setw(11) << "wall"
      << std::setw(11) << "cpu" << std::setw(11) << "self wall"
      << std::setw(12) << "self alloc" << "\n";
  for (const PerfPhase& p : profile.phases) {
    std::string label(static_cast<std::size_t>(p.depth) * 2, ' ');
    label += p.name;
    out << "  " << std::left << std::setw(34) << label << std::right
        << std::setw(10) << p.calls << std::setw(11)
        << tel::format_duration_ns(static_cast<double>(p.wall_ns))
        << std::setw(11)
        << (p.cpu_ns != 0
                ? tel::format_duration_ns(static_cast<double>(p.cpu_ns))
                : std::string("-"))
        << std::setw(11)
        << tel::format_duration_ns(static_cast<double>(p.self_wall_ns))
        << std::setw(12) << format_bytes(p.self_alloc_bytes) << "\n";
  }

  std::vector<PerfPhase> hot = profile.flat;
  std::sort(hot.begin(), hot.end(), [](const PerfPhase& a, const PerfPhase& b) {
    if (a.self_wall_ns != b.self_wall_ns) {
      return a.self_wall_ns > b.self_wall_ns;
    }
    return a.name < b.name;  // ties: stable output
  });
  std::int64_t total_wall = 0;
  for (const PerfPhase& p : hot) total_wall += p.self_wall_ns;
  if (top_n != 0 && hot.size() > top_n) hot.resize(top_n);

  out << "\nHot phases by self wall";
  if (top_n != 0) out << " (top " << top_n << ")";
  out << "\n  " << std::left << std::setw(18) << "phase" << std::right
      << std::setw(10) << "calls" << std::setw(11) << "self wall"
      << std::setw(8) << "share" << std::setw(12) << "self alloc"
      << std::setw(12) << "allocs" << "\n";
  for (const PerfPhase& p : hot) {
    std::string share = "-";
    if (total_wall > 0) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.1f%%",
                    100.0 * static_cast<double>(p.self_wall_ns) /
                        static_cast<double>(total_wall));
      share = buf;
    }
    out << "  " << std::left << std::setw(18) << p.name << std::right
        << std::setw(10) << p.calls << std::setw(11)
        << tel::format_duration_ns(static_cast<double>(p.self_wall_ns))
        << std::setw(8) << share << std::setw(12)
        << format_bytes(p.self_alloc_bytes) << std::setw(12)
        << p.self_alloc_count << "\n";
  }
}

}  // namespace greenhetero::analysis
