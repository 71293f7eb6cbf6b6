#include "telemetry/profiler.h"

#include <cstdlib>
#include <ctime>
#include <new>
#include <string_view>

#include "telemetry/metrics.h"
#include "telemetry/tracing.h"
#include "util/atomic_file.h"

namespace greenhetero::telemetry {

namespace {

// Constant-initialised (no TLS guard) so the allocation hooks below may
// touch them at any point, including during static initialisation.
thread_local std::uint64_t g_alloc_bytes = 0;
thread_local std::uint64_t g_alloc_count = 0;

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

ThreadAllocCounters thread_alloc_counters() {
  return ThreadAllocCounters{g_alloc_bytes, g_alloc_count};
}

void Profiler::begin(std::string_view name) {
  if (!enabled_) return;
  Frame frame;
  frame.path_len = path_.size();
  if (!path_.empty()) path_ += '/';
  path_ += name;
  frame.node = &nodes_[path_];
  stack_.push_back(frame);
  Frame& f = stack_.back();
  // Baselines last: everything above (path growth, node insertion, the
  // stack push) is charged to the parent frame, not this one.
  f.bytes_begin = g_alloc_bytes;
  f.count_begin = g_alloc_count;
  f.cpu_begin = thread_cpu_now_ns();
}

void Profiler::end(std::int64_t wall_ns) {
  if (!enabled_ || stack_.empty()) return;
  const std::int64_t cpu_end = thread_cpu_now_ns();
  const Frame f = stack_.back();
  const std::int64_t dc = cpu_end - f.cpu_begin;
  const std::uint64_t db = g_alloc_bytes - f.bytes_begin;
  const std::uint64_t dn = g_alloc_count - f.count_begin;
  ProfileNode& node = *f.node;
  node.calls += 1;
  node.wall_ns += wall_ns;
  node.cpu_ns += dc;
  node.alloc_bytes += db;
  node.alloc_count += dn;
  node.self_wall_ns += wall_ns - f.child_wall;
  node.self_cpu_ns += dc - f.child_cpu;
  node.self_alloc_bytes += db - f.child_bytes;
  node.self_alloc_count += dn - f.child_count;
  stack_.pop_back();
  path_.resize(f.path_len);
  if (!stack_.empty()) {
    Frame& parent = stack_.back();
    parent.child_wall += wall_ns;
    parent.child_cpu += dc;
    parent.child_bytes += db;
    parent.child_count += dn;
  }
}

void Profiler::clear() {
  nodes_.clear();
  stack_.clear();
  path_.clear();
}

void merge_profile(ProfileReport& into, const ProfileReport& from) {
  for (const auto& [path, node] : from) {
    ProfileNode& dst = into[path];
    dst.calls += node.calls;
    dst.wall_ns += node.wall_ns;
    dst.cpu_ns += node.cpu_ns;
    dst.self_wall_ns += node.self_wall_ns;
    dst.self_cpu_ns += node.self_cpu_ns;
    dst.alloc_bytes += node.alloc_bytes;
    dst.alloc_count += node.alloc_count;
    dst.self_alloc_bytes += node.self_alloc_bytes;
    dst.self_alloc_count += node.self_alloc_count;
  }
}

std::string profile_to_json(const ProfileReport& report) {
  std::string out = "{\"schema\":\"greenhetero.profile\",\"version\":1,";
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
    out += ",\"cpu_ns\":";
    append_i64(out, node.cpu_ns);
    out += ",\"self_wall_ns\":";
    append_i64(out, node.self_wall_ns);
    out += ",\"self_cpu_ns\":";
    append_i64(out, node.self_cpu_ns);
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
    dst.self_cpu_ns += node.self_cpu_ns;
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
    out += ",\"self_cpu_ns\":";
    append_i64(out, node.self_cpu_ns);
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

#if GH_TELEMETRY_ENABLED

// Global allocation instrumentation backing the profiler's byte/count
// attribution.  The replacements are malloc/free-backed (every delete form
// frees what every new form allocated, so sanitizers stay coherent) and
// unconditionally bump the thread-local tally — two relaxed increments,
// cheap enough to leave on whenever telemetry is compiled in.  Compiled
// only here, so a -DGH_TELEMETRY=OFF build keeps the toolchain's stock
// operator new.

namespace {

void* gh_counted_alloc(std::size_t size) noexcept {
  greenhetero::telemetry::g_alloc_bytes += size;
  ++greenhetero::telemetry::g_alloc_count;
  return std::malloc(size != 0 ? size : 1);
}

void* gh_counted_alloc_aligned(std::size_t size, std::size_t align) noexcept {
  greenhetero::telemetry::g_alloc_bytes += size;
  ++greenhetero::telemetry::g_alloc_count;
  // posix_memalign wants a power-of-two multiple of sizeof(void*);
  // operator new alignments are powers of two, so only the floor needs
  // raising.
  if (align < sizeof(void*)) align = sizeof(void*);
  void* p = nullptr;
  if (posix_memalign(&p, align, size != 0 ? size : 1) != 0) return nullptr;
  return p;
}

}  // namespace

void* operator new(std::size_t size) {
  void* p = gh_counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

void* operator new[](std::size_t size) {
  void* p = gh_counted_alloc(size);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return gh_counted_alloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return gh_counted_alloc(size);
}

void* operator new(std::size_t size, std::align_val_t align) {
  void* p = gh_counted_alloc_aligned(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  void* p = gh_counted_alloc_aligned(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return gh_counted_alloc_aligned(size, static_cast<std::size_t>(align));
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return gh_counted_alloc_aligned(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // GH_TELEMETRY_ENABLED
