// The profiler's attribution model and its determinism contract: self +
// child costs partition each frame, merges are path-keyed and order-
// independent in content, and a fleet profiled at 1/2/8 worker threads
// produces byte-identical prof.json once the wall-clock *_ns fields are
// normalized away.  An overhead guard keeps profiling cheap enough to leave
// on for week-long runs.
#include "telemetry/profiler.h"

#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <string>
#include <string_view>
#include <vector>

#include "faults/fault_plan.h"
#include "fleet/fleet.h"
#include "server/combinations.h"
#include "trace/solar.h"

namespace greenhetero {
namespace {

namespace tel = telemetry;

TEST(Profiler, DisabledIsInert) {
  tel::Profiler profiler{false};
  profiler.begin("epoch");
  EXPECT_EQ(profiler.open_depth(), 0u);
  profiler.end(0);
  EXPECT_TRUE(profiler.report().empty());
}

TEST(Profiler, NestingBuildsSlashPaths) {
  tel::Profiler profiler{true};
  profiler.begin("epoch");
  profiler.begin("plan");
  profiler.begin("solve");
  EXPECT_EQ(profiler.open_depth(), 3u);
  profiler.end(0);
  profiler.end(0);
  profiler.begin("enforce");
  profiler.end(0);
  profiler.end(0);
  EXPECT_EQ(profiler.open_depth(), 0u);

  const tel::ProfileReport& report = profiler.report();
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
  for (int i = 0; i < 5; ++i) {
    profiler.begin("epoch");
    profiler.begin("solve");
    profiler.end(0);
    profiler.end(0);
  }
  EXPECT_EQ(profiler.report().at("epoch").calls, 5u);
  EXPECT_EQ(profiler.report().at("epoch/solve").calls, 5u);
}

TEST(Profiler, SelfExcludesChildren) {
  tel::Profiler profiler{true};
  profiler.begin("epoch");
  profiler.begin("solve");
  // The span measures the wall time; give the child 2 ms of the parent's
  // 2.5 ms so the parent's inclusive and self costs visibly diverge.
  profiler.end(2'000'000);
  profiler.end(2'500'000);

  const tel::ProfileNode& epoch = profiler.report().at("epoch");
  const tel::ProfileNode& solve = profiler.report().at("epoch/solve");
  EXPECT_GE(solve.wall_ns, 2'000'000);
  EXPECT_GE(epoch.wall_ns, solve.wall_ns);
  // The parent's self wall excludes the child's inclusive wall exactly.
  EXPECT_EQ(epoch.self_wall_ns, epoch.wall_ns - solve.wall_ns);
  EXPECT_EQ(solve.self_wall_ns, solve.wall_ns);
}

TEST(Profiler, StrayEndIsHarmless) {
  tel::Profiler profiler{true};
  profiler.end(0);  // nothing open
  profiler.begin("epoch");
  profiler.end(0);
  profiler.end(0);  // once more past empty
  EXPECT_EQ(profiler.report().at("epoch").calls, 1u);
}

TEST(Profiler, ClearResets) {
  tel::Profiler profiler{true};
  profiler.begin("epoch");
  profiler.end(0);
  profiler.clear();
  EXPECT_TRUE(profiler.report().empty());
  EXPECT_EQ(profiler.open_depth(), 0u);
  profiler.begin("plan");
  profiler.end(0);
  EXPECT_EQ(profiler.report().count("plan"), 1u);  // path restarts at root
}

TEST(Profiler, MergeSumsNodesByPath) {
  tel::Profiler a{true};
  a.begin("epoch");
  a.begin("solve");
  a.end(0);
  a.end(0);
  tel::Profiler b{true};
  b.begin("epoch");
  b.end(0);
  b.begin("feedback");
  b.end(0);

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
  tel::Profiler profiler{true};
  profiler.begin("epoch");
  profiler.begin("solve");
  std::string spill(4096, 'y');
  profiler.end(0);
  profiler.end(0);
  const tel::ProfileNode& solve = profiler.report().at("epoch/solve");
  EXPECT_GE(solve.self_alloc_bytes, 4096u);
  EXPECT_GE(solve.self_alloc_count, 1u);
  // The parent saw it inclusively but not as self cost.
  const tel::ProfileNode& epoch = profiler.report().at("epoch");
  EXPECT_GE(epoch.alloc_bytes, solve.alloc_bytes);
  EXPECT_EQ(epoch.self_alloc_bytes, epoch.alloc_bytes - solve.alloc_bytes);
}
#endif  // GH_TELEMETRY_ENABLED

TEST(ProfileJson, EncodesTreeAndFlatViews) {
  tel::Profiler profiler{true};
  profiler.begin("epoch");
  profiler.begin("plan");
  profiler.begin("solve");
  profiler.end(0);
  profiler.end(0);
  profiler.end(0);
  const std::string json = tel::profile_to_json(profiler.report());
  EXPECT_NE(json.find("\"schema\":\"greenhetero.profile\""),
            std::string::npos);
  EXPECT_NE(json.find("\"path\":\"epoch/plan/solve\""), std::string::npos);
  EXPECT_NE(json.find("\"depth\":2"), std::string::npos);
  EXPECT_NE(json.find("\"flat\":["), std::string::npos);
  // Flat rows are keyed by leaf tag, not path.
  EXPECT_NE(json.find("\"name\":\"solve\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Determinism across thread counts.

/// Zero out the digits of every *_ns field: timings are wall-clock and the
/// ONLY thing allowed to differ between runs; everything else must match to
/// the byte.
std::string normalize_timings(std::string text) {
  const std::string key = "_ns\":";
  std::size_t pos = 0;
  while ((pos = text.find(key, pos)) != std::string::npos) {
    pos += key.size();
    std::size_t end = pos;
    if (end < text.size() && text[end] == '-') ++end;
    while (end < text.size() &&
           std::isdigit(static_cast<unsigned char>(text[end]))) {
      ++end;
    }
    text.replace(pos, end - pos, "0");
    ++pos;
  }
  return text;
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
