// The profiler's attribution model and its determinism contract: one node
// per (parent, tag), self + child costs partition each node, merges are
// path-keyed and order-independent in content, a fleet profiled at 1/2/8
// worker threads produces byte-identical prof.json once the wall-clock *_ns
// fields are normalized away, and a fixed fleet's phase tree is pinned.  An
// overhead guard keeps profiling cheap enough to leave on for week-long
// runs.
#include "telemetry/profiler.h"

#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "faults/fault_plan.h"
#include "fleet/fleet.h"
#include "server/combinations.h"
#include "telemetry/telemetry.h"
#include "trace/solar.h"

namespace greenhetero {
namespace {

namespace tel = telemetry;

constexpr std::uint32_t kRoot = tel::Profiler::kRoot;

TEST(Profiler, DisabledIsInert) {
  Telemetry telemetry;  // profile defaults off
  {
    TelemetryScope scope{&telemetry};
    GH_SPAN("epoch");
    { GH_SPAN("plan"); }
  }
  EXPECT_FALSE(telemetry.profiler().enabled());
  EXPECT_TRUE(telemetry.profiler().report().empty());
}

TEST(Profiler, NestingBuildsSlashPaths) {
  tel::Profiler profiler{true};
  const std::uint32_t epoch = profiler.open(kRoot, "epoch");
  const std::uint32_t plan = profiler.open(epoch, "plan");
  profiler.close(profiler.open(plan, "solve"), 0, {});
  profiler.close(plan, 0, {});
  profiler.close(profiler.open(epoch, "enforce"), 0, {});
  profiler.close(epoch, 0, {});

  const tel::ProfileReport report = profiler.report();
  ASSERT_EQ(report.size(), 4u);
  EXPECT_EQ(report.count("epoch"), 1u);
  EXPECT_EQ(report.count("epoch/plan"), 1u);
  EXPECT_EQ(report.count("epoch/plan/solve"), 1u);
  EXPECT_EQ(report.count("epoch/enforce"), 1u);
  EXPECT_EQ(report.at("epoch").calls, 1u);
  EXPECT_EQ(report.at("epoch/plan").calls, 1u);
}

TEST(Profiler, RepeatedTagsAccumulateOnePath) {
  tel::Profiler profiler{true};
  const std::uint32_t first = profiler.open(kRoot, "epoch");
  profiler.close(first, 0, {});
  for (int i = 0; i < 4; ++i) {
    const std::uint32_t epoch = profiler.open(kRoot, "epoch");
    EXPECT_EQ(epoch, first);  // one node per (parent, tag)
    profiler.close(profiler.open(epoch, "solve"), 0, {});
    profiler.close(epoch, 0, {});
  }
  const tel::ProfileReport report = profiler.report();
  EXPECT_EQ(report.at("epoch").calls, 5u);
  EXPECT_EQ(report.at("epoch/solve").calls, 4u);
}

TEST(Profiler, SelfExcludesChildren) {
  tel::Profiler profiler{true};
  const std::uint32_t epoch = profiler.open(kRoot, "epoch");
  // The span measures the wall time; give the child 2 ms of the parent's
  // 2.5 ms so the parent's inclusive and self costs visibly diverge.
  profiler.close(profiler.open(epoch, "solve"), 2'000'000, {});
  profiler.close(epoch, 2'500'000, {});

  const tel::ProfileReport report = profiler.report();
  const tel::ProfileNode& root = report.at("epoch");
  const tel::ProfileNode& solve = report.at("epoch/solve");
  EXPECT_EQ(solve.wall_ns, 2'000'000);
  EXPECT_EQ(root.wall_ns, 2'500'000);
  // The parent's self wall excludes the child's inclusive wall exactly.
  EXPECT_EQ(root.self_wall_ns, root.wall_ns - solve.wall_ns);
  EXPECT_EQ(solve.self_wall_ns, solve.wall_ns);
}

TEST(Profiler, StrayEndIsHarmless) {
  // A span still open when clear() drops its node closes into nothing.
  tel::Profiler profiler{true};
  const std::uint32_t epoch = profiler.open(kRoot, "epoch");
  const std::uint32_t solve = profiler.open(epoch, "solve");
  profiler.clear();
  profiler.close(solve, 0, {});
  profiler.close(epoch, 0, {});
  EXPECT_TRUE(profiler.report().empty());
  profiler.close(profiler.open(kRoot, "epoch"), 0, {});
  EXPECT_EQ(profiler.report().at("epoch").calls, 1u);
}

TEST(Profiler, ClearResets) {
  tel::Profiler profiler{true};
  profiler.close(profiler.open(kRoot, "epoch"), 0, {});
  profiler.clear();
  EXPECT_TRUE(profiler.report().empty());
  profiler.close(profiler.open(kRoot, "plan"), 0, {});
  const tel::ProfileReport report = profiler.report();
  EXPECT_EQ(report.size(), 1u);
  EXPECT_EQ(report.count("plan"), 1u);  // path restarts at root
}

TEST(Profiler, MergeSumsNodesByPath) {
  tel::Profiler a{true};
  const std::uint32_t epoch = a.open(kRoot, "epoch");
  a.close(a.open(epoch, "solve"), 0, {});
  a.close(epoch, 0, {});
  tel::Profiler b{true};
  b.close(b.open(kRoot, "epoch"), 0, {});
  b.close(b.open(kRoot, "feedback"), 0, {});

  tel::ProfileReport merged = a.report();
  tel::merge_profile(merged, b.report());
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged.at("epoch").calls, 2u);
  EXPECT_EQ(merged.at("epoch/solve").calls, 1u);
  EXPECT_EQ(merged.at("feedback").calls, 1u);
}

#if GH_TELEMETRY_ENABLED
TEST(Profiler, AllocationCountersSeeHeapTraffic) {
  const tel::ThreadAllocCounters before = tel::thread_alloc_counters();
  std::vector<std::string> spill;
  for (int i = 0; i < 64; ++i) {
    spill.emplace_back(256, 'x');  // past any SSO buffer -> heap
  }
  const tel::ThreadAllocCounters after = tel::thread_alloc_counters();
  EXPECT_GE(after.count - before.count, 64u);
  EXPECT_GE(after.bytes - before.bytes, 64u * 256u);
}

TEST(Profiler, AttributesAllocationsToOpenFrame) {
  TelemetryConfig cfg;
  cfg.profile = true;
  Telemetry telemetry{cfg};
  {
    TelemetryScope scope{&telemetry};
    GH_SPAN("epoch");
    {
      GH_SPAN("solve");
      std::string spill(4096, 'y');
    }
  }
  const tel::ProfileReport report = telemetry.profiler().report();
  const tel::ProfileNode& solve = report.at("epoch/solve");
  EXPECT_GE(solve.self_alloc_bytes, 4096u);
  EXPECT_GE(solve.self_alloc_count, 1u);
  // The parent saw it inclusively but not as self cost.
  const tel::ProfileNode& epoch = report.at("epoch");
  EXPECT_GE(epoch.alloc_bytes, solve.alloc_bytes);
  EXPECT_EQ(epoch.self_alloc_bytes, epoch.alloc_bytes - solve.alloc_bytes);
}
#endif  // GH_TELEMETRY_ENABLED

TEST(ProfileJson, EncodesTreeAndFlatViews) {
  tel::Profiler profiler{true};
  const std::uint32_t epoch = profiler.open(kRoot, "epoch");
  const std::uint32_t plan = profiler.open(epoch, "plan");
  profiler.close(profiler.open(plan, "solve"), 0, {});
  profiler.close(plan, 0, {});
  profiler.close(epoch, 0, {});
  const std::string json = tel::profile_to_json(profiler.report());
  EXPECT_NE(json.find("\"schema\":\"greenhetero.profile\",\"version\":2"),
            std::string::npos);
  EXPECT_NE(json.find("\"path\":\"epoch/plan/solve\""), std::string::npos);
  EXPECT_NE(json.find("\"depth\":2"), std::string::npos);
  EXPECT_NE(json.find("\"flat\":["), std::string::npos);
  // Flat rows are keyed by leaf tag, not path.
  EXPECT_NE(json.find("\"name\":\"solve\""), std::string::npos);
  // Thread CPU is measured at the root only: one cpu_ns field, no self CPU.
  const std::size_t cpu = json.find("\"cpu_ns\"");
  ASSERT_NE(cpu, std::string::npos);
  EXPECT_EQ(json.find("\"cpu_ns\"", cpu + 1), std::string::npos);
  EXPECT_LT(cpu, json.find("\"path\":\"epoch/plan\""));
  EXPECT_EQ(json.find("self_cpu_ns"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Determinism across thread counts.

/// Zero out the digits of every *_ns field: timings are wall-clock and the
/// ONLY thing allowed to differ between runs; everything else must match to
/// the byte.
std::string normalize_timings(const std::string& text) {
  // Copies into a new string rather than replacing in place: GCC 12 flags
  // the in-place std::string::replace with a false -Wrestrict warning.
  const std::string key = "_ns\":";
  std::string out;
  out.reserve(text.size());
  std::size_t from = 0;
  std::size_t pos = 0;
  while ((pos = text.find(key, from)) != std::string::npos) {
    pos += key.size();
    std::size_t end = pos;
    if (end < text.size() && text[end] == '-') ++end;
    while (end < text.size() &&
           std::isdigit(static_cast<unsigned char>(text[end]))) {
      ++end;
    }
    out.append(text, from, pos - from);
    out += '0';
    from = end;
  }
  out.append(text, from);
  return out;
}

RackSimulator make_profiled_rack(Watts solar_capacity, std::uint64_t seed,
                                 const FaultPlan& faults) {
  Rack rack{default_runtime_rack(), Workload::kSpecJbb};
  SimConfig cfg;
  cfg.controller.policy = PolicyKind::kGreenHetero;
  cfg.controller.seed = seed;
  cfg.controller.epoch = Minutes{15.0};
  cfg.telemetry.profile = true;
  cfg.faults = faults;
  GridSpec grid;
  grid.budget = Watts{500.0};
  PowerTrace trace =
      generate_solar_trace(high_solar_model(solar_capacity), 2, seed);
  return RackSimulator{std::move(rack),
                       make_standard_plant(std::move(trace), grid),
                       std::move(cfg)};
}

std::string profiled_fleet_json(std::size_t threads, const FaultPlan& faults) {
  const double capacities[] = {300.0, 1200.0, 2400.0, 4800.0};
  std::vector<RackSimulator> racks;
  for (std::size_t i = 0; i < 4; ++i) {
    racks.push_back(make_profiled_rack(Watts{capacities[i]},
                                       50 + static_cast<std::uint64_t>(i),
                                       faults));
  }
  FleetConfig cfg;
  cfg.total_grid_budget = Watts{2000.0};
  cfg.mode = GridShareMode::kDemandProportional;
  cfg.threads = threads;
  cfg.telemetry.profile = true;
  Fleet fleet{std::move(racks), cfg};
  fleet.pretrain();
  fleet.run(Minutes{6.0 * 60.0});
  return tel::profile_to_json(fleet.profile_report());
}

TEST(ProfilerDeterminism, ByteIdenticalAcrossThreadCountsUnderChaos) {
  // Chaos fault plan: recoveries, degradations and subset enforcement all
  // open extra span paths, so this exercises the full phase tree.
  const FaultPlan plan = make_random_plan(23, Minutes{6.0 * 60.0},
                                          default_runtime_rack().size());
  const std::string sequential = normalize_timings(profiled_fleet_json(1, plan));
#if GH_TELEMETRY_ENABLED
  EXPECT_NE(sequential.find("\"path\":\"epoch\""), std::string::npos);
#endif  // with spans compiled out the profile is empty — and still identical
  for (const std::size_t threads : {2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(sequential, normalize_timings(profiled_fleet_json(threads, plan)));
  }
}

#if GH_TELEMETRY_ENABLED
TEST(ProfilerAgreement, SpanHistogramEqualsProfileForEveryTag) {
  // One primitive: each GH_SPAN hands the same clock readings to its
  // gh_span_ns{span=tag} series and to the profiler, so per tag the
  // histogram's count and sum equal the calls and wall_ns summed over the
  // profile paths ending in that tag, exactly.  A timer wider or narrower
  // than its span breaks the equality.
  RackSimulator sim = make_profiled_rack(Watts{2400.0}, 51, FaultPlan{});
  sim.pretrain();
  sim.run(Minutes{24.0 * 60.0});
  const tel::ProfileReport& report = sim.telemetry().profiler().report();
  const tel::MetricsSnapshot snapshot = sim.telemetry().metrics().snapshot();
  for (const std::string_view tag : tel::catalog::kSpanTags) {
    SCOPED_TRACE(std::string(tag));
    std::uint64_t calls = 0;
    std::int64_t wall_ns = 0;
    for (const auto& [path, node] : report) {
      const std::size_t slash = path.rfind('/');
      const std::string_view leaf =
          std::string_view(path).substr(slash == std::string::npos ? 0
                                                                   : slash + 1);
      if (leaf != tag) continue;
      calls += node.calls;
      wall_ns += node.wall_ns;
    }
    const tel::SnapshotEntry* entry =
        snapshot.find("gh_span_ns", {{"span", std::string(tag)}});
    ASSERT_NE(entry, nullptr) << "every tag runs in a trained, retraining "
                                 "GreenHetero rack";
    EXPECT_GT(calls, 0u);
    EXPECT_EQ(entry->count, calls);
    EXPECT_EQ(entry->sum, static_cast<double>(wall_ns));
  }
}

TEST(ProfileShape, IsPinned) {
  // The phase tree of a fixed, profiled 3-rack fleet: every (path, depth,
  // calls) row is a count of span openings, so it depends only on the
  // simulated run, never on the clock.  Racks 0 and 1 are pretrained and
  // rack 2 trains online in its first epoch; the run retrains Holt and
  // replays a fault plan, so the training, retraining and fault-handling
  // paths all appear.  Allocation totals are left out: the profiler's own
  // first-use allocations are charged to the parent frame.
  FaultPlan plan;
  plan.add({Minutes{120.0}, FaultKind::kServerCrash, Minutes{90.0}, 0, 0.0});
  plan.add({Minutes{300.0}, FaultKind::kGridOutage, Minutes{60.0}, -1, 0.0});
  plan.add({Minutes{420.0}, FaultKind::kMonitorDropout, Minutes{45.0}, -1,
            0.5});
  const double capacities[] = {600.0, 1800.0, 3600.0};
  std::vector<RackSimulator> racks;
  for (std::size_t i = 0; i < 3; ++i) {
    racks.push_back(make_profiled_rack(
        Watts{capacities[i]}, 60 + static_cast<std::uint64_t>(i), plan));
  }
  racks[0].pretrain();
  racks[1].pretrain();
  FleetConfig cfg;
  cfg.total_grid_budget = Watts{1500.0};
  cfg.mode = GridShareMode::kDemandProportional;
  cfg.threads = 1;
  cfg.telemetry.profile = true;
  Fleet fleet{std::move(racks), cfg};
  const FleetReport report = fleet.run(Minutes{12.0 * 60.0});
  ASSERT_TRUE(report.racks[2].epochs.front().training);
  const tel::MetricsSnapshot snapshot = fleet.metrics_snapshot();
  double retrains = 0.0;
  double faults = 0.0;
  for (const tel::SnapshotEntry& entry : snapshot.entries) {
    if (entry.name == "gh_predictor_retrains_total") retrains += entry.value;
    if (entry.name == "gh_faults_injected_total") faults += entry.value;
  }
  ASSERT_GT(retrains, 0.0);
  ASSERT_GT(faults, 0.0);

  std::vector<std::string> shape;
  for (const auto& [path, node] : fleet.profile_report()) {
    int depth = 0;
    for (const char c : path) depth += c == '/' ? 1 : 0;
    shape.push_back(path + " " + std::to_string(depth) + " " +
                    std::to_string(node.calls));
  }
  const std::vector<std::string> expected = {
      "epoch 0 144",
      "epoch/enforce 1 135",
      "epoch/feedback 1 144",
      "epoch/feedback/db_update 2 144",
      "epoch/feedback/holt_retrain 2 9",
      "epoch/plan 1 144",
      "epoch/plan/predict 2 143",
      "epoch/plan/select_source 2 143",
      "epoch/plan/solve 2 122",
      "epoch/substeps 1 144",
      "pretrain 0 2",
  };
  EXPECT_EQ(shape, expected);
}
#endif  // GH_TELEMETRY_ENABLED

// ---------------------------------------------------------------------------
// Overhead guard.

double run_standalone_once(bool profiled) {
  Rack rack{default_runtime_rack(), Workload::kSpecJbb};
  SimConfig cfg;
  cfg.controller.policy = PolicyKind::kGreenHetero;
  cfg.controller.seed = 42;
  cfg.telemetry.profile = profiled;
  GridSpec grid;
  grid.budget = Watts{1000.0};
  PowerTrace trace = generate_solar_trace(high_solar_model(Watts{2500.0}), 8, 42);
  RackSimulator sim{std::move(rack),
                    make_standard_plant(std::move(trace), grid),
                    std::move(cfg)};
  sim.pretrain();
  const auto begin = std::chrono::steady_clock::now();
  sim.run(Minutes{7.0 * 24.0 * 60.0});  // the 1-week standalone scenario
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       begin)
      .count();
}

TEST(ProfilerOverhead, ProfiledWeekStaysWithinBudget) {
  // Min-of-N so scheduler noise cancels; the absolute slack keeps the 5%
  // relative bound meaningful on a run measured in tens of milliseconds.
  double base = 1e9;
  double profiled = 1e9;
  for (int trial = 0; trial < 3; ++trial) {
    base = std::min(base, run_standalone_once(false));
    profiled = std::min(profiled, run_standalone_once(true));
  }
  EXPECT_LE(profiled, base * 1.05 + 0.075)
      << "profiled week took " << profiled << "s vs " << base
      << "s unprofiled";
}

}  // namespace
}  // namespace greenhetero
