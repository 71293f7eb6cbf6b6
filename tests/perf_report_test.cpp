// `greenhetero analyze --perf`: load_profile reads back what
// profile_to_json writes, refuses files it does not understand with a
// message naming the file, still reads version 1 files (CPU fields on every
// row), and the hot table ranks leaf tags by self wall time.
#include "analysis/perf_report.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "telemetry/profiler.h"
#include "trace_file.h"

namespace greenhetero::analysis {
namespace {

namespace tel = telemetry;
using testtrace::ScratchDir;

constexpr std::uint32_t kRoot = tel::Profiler::kRoot;

std::filesystem::path write(const ScratchDir& dir, const std::string& name,
                            const std::string& text) {
  const std::filesystem::path path = dir / name;
  std::ofstream(path) << text;
  return path;
}

const PerfPhase& row(const std::vector<PerfPhase>& rows,
                     const std::string& path) {
  for (const PerfPhase& p : rows) {
    if (p.path == path) return p;
  }
  throw std::runtime_error("no profile row " + path);
}

TEST(PerfReport, LoadRoundTripsProfileJson) {
  tel::Profiler profiler{true};
  for (int i = 0; i < 3; ++i) {
    const std::uint32_t epoch = profiler.open(kRoot, "epoch");
    const std::uint32_t plan = profiler.open(epoch, "plan");
    profiler.close(profiler.open(plan, "solve"), 200, {64, 1});
    profiler.close(plan, 500, {96, 2});
    profiler.close(profiler.open(epoch, "feedback"), 300, {0, 0});
    profiler.close(epoch, 1'000, {128, 3});
  }
  profiler.close(profiler.open(kRoot, "pretrain"), 4'000, {512, 8});
  ScratchDir dir{"gh-perf-report"};
  const std::filesystem::path path =
      write(dir, "prof.json", tel::profile_to_json(profiler.report()));

  const PerfProfile profile = load_profile(path);
  EXPECT_EQ(profile.version, 2);
  std::vector<std::string> paths;
  for (const PerfPhase& p : profile.phases) paths.push_back(p.path);
  EXPECT_EQ(paths, (std::vector<std::string>{"epoch", "epoch/feedback",
                                             "epoch/plan", "epoch/plan/solve",
                                             "pretrain"}));

  const PerfPhase& epoch = row(profile.phases, "epoch");
  EXPECT_EQ(epoch.name, "epoch");
  EXPECT_EQ(epoch.depth, 0);
  EXPECT_EQ(epoch.calls, 3u);
  EXPECT_EQ(epoch.wall_ns, 3'000);
  EXPECT_EQ(epoch.self_wall_ns, 3'000 - 1'500 - 900);
  EXPECT_EQ(epoch.alloc_bytes, 384u);
  EXPECT_EQ(epoch.alloc_count, 9u);
  EXPECT_EQ(epoch.self_alloc_bytes, 384u - 288u);
  EXPECT_EQ(epoch.self_alloc_count, 9u - 6u);

  const PerfPhase& plan = row(profile.phases, "epoch/plan");
  EXPECT_EQ(plan.name, "plan");
  EXPECT_EQ(plan.depth, 1);
  EXPECT_EQ(plan.calls, 3u);
  EXPECT_EQ(plan.wall_ns, 1'500);
  EXPECT_EQ(plan.self_wall_ns, 900);
  EXPECT_EQ(plan.alloc_bytes, 288u);
  EXPECT_EQ(plan.self_alloc_bytes, 96u);
  EXPECT_EQ(plan.cpu_ns, 0) << "thread CPU is measured at root spans only";

  const PerfPhase& solve = row(profile.phases, "epoch/plan/solve");
  EXPECT_EQ(solve.name, "solve");
  EXPECT_EQ(solve.depth, 2);
  EXPECT_EQ(solve.alloc_count, 3u);
  EXPECT_EQ(solve.self_alloc_count, 3u);

  const PerfPhase& pretrain = row(profile.phases, "pretrain");
  EXPECT_EQ(pretrain.depth, 0);
  EXPECT_EQ(pretrain.calls, 1u);
  EXPECT_EQ(pretrain.self_alloc_bytes, 512u);

  // Flat rows: one per leaf tag, self totals summed over its paths.
  ASSERT_EQ(profile.flat.size(), 5u);
  const PerfPhase& flat_solve = row(profile.flat, "solve");
  EXPECT_EQ(flat_solve.calls, 3u);
  EXPECT_EQ(flat_solve.self_wall_ns, 600);
  EXPECT_EQ(flat_solve.self_alloc_bytes, 192u);
}

TEST(PerfReport, RefusesFilesItDoesNotUnderstand) {
  ScratchDir dir{"gh-perf-report"};
  const struct {
    const char* name;
    const char* text;
    const char* reason;
  } cases[] = {
      {"v0.json", R"({"schema":"greenhetero.profile","version":0,"phases":[]})",
       "unsupported profile version 0"},
      {"v3.json", R"({"schema":"greenhetero.profile","version":3,"phases":[]})",
       "unsupported profile version 3"},
      {"other.json", R"({"schema":"greenhetero.trace","version":2,"phases":[]})",
       "not a greenhetero profile"},
      {"nophases.json", R"({"schema":"greenhetero.profile","version":2})",
       "missing its \"phases\" array"},
      {"objphases.json",
       R"({"schema":"greenhetero.profile","version":2,"phases":{}})",
       "missing its \"phases\" array"},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const std::filesystem::path path = write(dir, c.name, c.text);
    try {
      (void)load_profile(path);
      ADD_FAILURE() << "accepted " << c.name;
    } catch (const AnalyzerError& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find(path.string()), std::string::npos) << message;
      EXPECT_NE(message.find(c.reason), std::string::npos) << message;
    }
  }
}

TEST(PerfReport, ReadsVersionOneWithCpuFields) {
  ScratchDir dir{"gh-perf-report"};
  const std::filesystem::path path = write(
      dir, "v1.json",
      R"({"schema":"greenhetero.profile","version":1,"phases":[)"
      R"({"path":"epoch","name":"epoch","depth":0,"calls":2,"wall_ns":900,)"
      R"("cpu_ns":800,"self_wall_ns":400,"self_cpu_ns":350,"alloc_bytes":64,)"
      R"("alloc_count":2,"self_alloc_bytes":32,"self_alloc_count":1},)"
      R"({"path":"epoch/solve","name":"solve","depth":1,"calls":2,)"
      R"("wall_ns":500,"cpu_ns":450,"self_wall_ns":500,"self_cpu_ns":450,)"
      R"("alloc_bytes":32,"alloc_count":1,"self_alloc_bytes":32,)"
      R"("self_alloc_count":1}],"flat":[)"
      R"({"name":"epoch","calls":2,"self_wall_ns":400,"self_cpu_ns":350,)"
      R"("self_alloc_bytes":32,"self_alloc_count":1},)"
      R"({"name":"solve","calls":2,"self_wall_ns":500,"self_cpu_ns":450,)"
      R"("self_alloc_bytes":32,"self_alloc_count":1}]})");
  const PerfProfile profile = load_profile(path);
  EXPECT_EQ(profile.version, 1);
  ASSERT_EQ(profile.phases.size(), 2u);
  EXPECT_EQ(profile.phases[0].cpu_ns, 800);
  EXPECT_EQ(profile.phases[1].path, "epoch/solve");
  EXPECT_EQ(profile.phases[1].cpu_ns, 450);
  EXPECT_EQ(profile.phases[1].self_wall_ns, 500);
  ASSERT_EQ(profile.flat.size(), 2u);
  std::ostringstream out;
  print_perf_report(out, profile, 0);
  EXPECT_NE(out.str().find("solve"), std::string::npos);
}

TEST(PerfReport, HotTableRanksBySelfWallThenName) {
  PerfProfile profile;
  profile.version = 2;
  const auto flat = [](const char* name, std::int64_t self_wall_ns) {
    PerfPhase p;
    p.path = name;
    p.name = name;
    p.calls = 1;
    p.self_wall_ns = self_wall_ns;
    p.wall_ns = self_wall_ns;
    return p;
  };
  // Neither the input order nor a stable sort yields the expected order:
  // "plan" precedes "enforce", its tie.
  profile.flat = {flat("predict", 50), flat("plan", 300), flat("solve", 600),
                  flat("enforce", 300), flat("feedback", 900)};
  std::ostringstream out;
  print_perf_report(out, profile, 4);
  const std::string text = out.str();
  const std::size_t table = text.find("Hot phases by self wall (top 4)");
  ASSERT_NE(table, std::string::npos) << text;
  std::vector<std::string> order;
  std::istringstream lines(text.substr(table));
  std::string line;
  std::getline(lines, line);  // title
  std::getline(lines, line);  // column header
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::string name;
    fields >> name;
    order.push_back(name);
  }
  EXPECT_EQ(order, (std::vector<std::string>{"feedback", "solve", "enforce",
                                             "plan"}));
}

}  // namespace
}  // namespace greenhetero::analysis
