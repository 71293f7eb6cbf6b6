#include "telemetry/profiler.h"

#include <ctime>
#include <string_view>

#include "telemetry/metrics.h"
#include "telemetry/tracing.h"
#include "util/atomic_file.h"

namespace greenhetero::telemetry {

namespace {

std::int64_t thread_cpu_now_ns() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
  }
#endif
  return 0;
}

void append_u64(std::string& out, std::uint64_t v) {
  out += std::to_string(v);
}

void append_i64(std::string& out, std::int64_t v) {
  out += std::to_string(v);
}

}  // namespace

Profiler::Profiler(bool enabled) : enabled_(enabled) { clear(); }

std::uint32_t Profiler::open(std::uint32_t parent, SpanTag tag) {
  std::uint32_t node = nodes_[parent].children[tag.index()];
  if (node == kRoot) {
    node = static_cast<std::uint32_t>(nodes_.size());
    nodes_[parent].children[tag.index()] = node;
    Node& created = nodes_.emplace_back();
    created.parent = parent;
    created.tag = tag.index();
  }
  if (parent == kRoot) root_cpu_begin_ = thread_cpu_now_ns();
  return node;
}

void Profiler::close(std::uint32_t node, std::int64_t wall_ns,
                     ThreadAllocCounters allocs) {
  if (node >= nodes_.size()) return;
  Node& n = nodes_[node];
  n.totals.calls += 1;
  n.totals.wall_ns += wall_ns;
  n.totals.alloc_bytes += allocs.bytes;
  n.totals.alloc_count += allocs.count;
  if (n.parent == kRoot) {
    n.totals.cpu_ns += thread_cpu_now_ns() - root_cpu_begin_;
  }
}

ProfileReport Profiler::report() const {
  ProfileReport report;
  std::vector<std::string> paths(nodes_.size());
  std::vector<ProfileNode*> rows(nodes_.size());
  // A node is created after its parent, so one forward pass meets every
  // parent's path and row before its children's.
  for (std::size_t i = 1; i < nodes_.size(); ++i) {
    const Node& n = nodes_[i];
    if (n.parent != kRoot) paths[i] = paths[n.parent] + '/';
    paths[i] += catalog::kSpanTags[n.tag];
    ProfileNode& row = report[paths[i]];
    row = n.totals;
    row.self_wall_ns = row.wall_ns;
    row.self_alloc_bytes = row.alloc_bytes;
    row.self_alloc_count = row.alloc_count;
    rows[i] = &row;
    if (n.parent == kRoot) continue;
    // A node's self cost is what its children's inclusive cost leaves.
    ProfileNode& parent = *rows[n.parent];
    parent.self_wall_ns -= row.wall_ns;
    parent.self_alloc_bytes -= row.alloc_bytes;
    parent.self_alloc_count -= row.alloc_count;
  }
  return report;
}

void Profiler::clear() {
  // A disabled profiler is never opened, so it holds no root either.
  nodes_.assign(enabled_ ? 1 : 0, Node{});
}

void merge_profile(ProfileReport& into, const ProfileReport& from) {
  for (const auto& [path, node] : from) {
    ProfileNode& dst = into[path];
    dst.calls += node.calls;
    dst.wall_ns += node.wall_ns;
    dst.cpu_ns += node.cpu_ns;
    dst.self_wall_ns += node.self_wall_ns;
    dst.alloc_bytes += node.alloc_bytes;
    dst.alloc_count += node.alloc_count;
    dst.self_alloc_bytes += node.self_alloc_bytes;
    dst.self_alloc_count += node.self_alloc_count;
  }
}

std::string profile_to_json(const ProfileReport& report) {
  std::string out = "{\"schema\":\"greenhetero.profile\",\"version\":2,";
  out += "\"phases\":[";
  bool first = true;
  for (const auto& [path, node] : report) {
    if (!first) out += ',';
    first = false;
    std::string_view leaf = path;
    int depth = 0;
    if (const std::size_t slash = path.rfind('/');
        slash != std::string::npos) {
      leaf = std::string_view(path).substr(slash + 1);
      for (char c : path) depth += c == '/' ? 1 : 0;
    }
    out += "\n{\"path\":";
    append_json_escaped(out, path);
    out += ",\"name\":";
    append_json_escaped(out, leaf);
    out += ",\"depth\":";
    out += std::to_string(depth);
    out += ",\"calls\":";
    append_u64(out, node.calls);
    out += ",\"wall_ns\":";
    append_i64(out, node.wall_ns);
    if (depth == 0) {
      out += ",\"cpu_ns\":";
      append_i64(out, node.cpu_ns);
    }
    out += ",\"self_wall_ns\":";
    append_i64(out, node.self_wall_ns);
    out += ",\"alloc_bytes\":";
    append_u64(out, node.alloc_bytes);
    out += ",\"alloc_count\":";
    append_u64(out, node.alloc_count);
    out += ",\"self_alloc_bytes\":";
    append_u64(out, node.self_alloc_bytes);
    out += ",\"self_alloc_count\":";
    append_u64(out, node.self_alloc_count);
    out += '}';
  }
  out += "\n],\"flat\":[";
  // Per-tag aggregation (self costs only — inclusive totals of nested tags
  // would double-count; self sums partition the whole run).
  std::map<std::string, ProfileNode> flat;
  for (const auto& [path, node] : report) {
    const std::size_t slash = path.rfind('/');
    const std::string leaf =
        slash == std::string::npos ? path : path.substr(slash + 1);
    ProfileNode& dst = flat[leaf];
    dst.calls += node.calls;
    dst.self_wall_ns += node.self_wall_ns;
    dst.self_alloc_bytes += node.self_alloc_bytes;
    dst.self_alloc_count += node.self_alloc_count;
  }
  first = true;
  for (const auto& [name, node] : flat) {
    if (!first) out += ',';
    first = false;
    out += "\n{\"name\":";
    append_json_escaped(out, name);
    out += ",\"calls\":";
    append_u64(out, node.calls);
    out += ",\"self_wall_ns\":";
    append_i64(out, node.self_wall_ns);
    out += ",\"self_alloc_bytes\":";
    append_u64(out, node.self_alloc_bytes);
    out += ",\"self_alloc_count\":";
    append_u64(out, node.self_alloc_count);
    out += '}';
  }
  out += "\n]}\n";
  return out;
}

void save_profile_json(const ProfileReport& report,
                       const std::filesystem::path& path) {
  try {
    util::write_file_atomic(path, profile_to_json(report));
  } catch (const util::AtomicWriteError& e) {
    throw TelemetryError(e.what());
  }
}

}  // namespace greenhetero::telemetry
