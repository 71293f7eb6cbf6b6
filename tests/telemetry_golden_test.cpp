// End-to-end trace determinism: a short standard-plant run produces one
// epoch_plan event per epoch with the planning/outcome payload, two
// same-seed runs are byte-identical, and the JSONL matches the checked-in
// golden file (regenerate with GH_UPDATE_GOLDEN=1 after intentional
// changes).
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "server/combinations.h"
#include "sim/rack_simulator.h"
#include "trace/solar.h"
#include "trace_file.h"

namespace greenhetero {
namespace {

constexpr double kHours = 3.0;

/// Streams its trace to `trace`.
RackSimulator make_sim(const std::filesystem::path& trace) {
  Rack rack{default_runtime_rack(), Workload::kSpecJbb};
  SimConfig cfg;
  cfg.controller.policy = PolicyKind::kGreenHetero;
  cfg.controller.seed = 42;
  cfg.trace_stream = telemetry::StreamSinkConfig{trace};
  GridSpec grid;
  grid.budget = Watts{800.0};
  RackSimulator sim{
      std::move(rack),
      make_standard_plant(
          generate_solar_trace(high_solar_model(Watts{2500.0}), 1, 42), grid),
      std::move(cfg)};
  sim.pretrain();
  return sim;
}

std::string run_and_dump_trace() {
  const testtrace::ScratchDir scratch;
  RackSimulator sim = make_sim(scratch / "trace.jsonl");
  sim.run(Minutes{kHours * 60.0});
  return testtrace::streamed_trace(sim);
}

TEST(TelemetryGolden, OneEpochPlanEventPerEpochWithPlanAndOutcome) {
  const testtrace::ScratchDir scratch;
  RackSimulator sim = make_sim(scratch / "trace.jsonl");
  const RunReport report = sim.run(Minutes{kHours * 60.0});

  std::size_t epoch_plans = 0;
  for (const json::Value& event : testtrace::streamed_events(sim)) {
    if (event.string_or("phase", "") != "epoch_plan") continue;
    ++epoch_plans;
    EXPECT_NE(event.find("case"), nullptr);
    EXPECT_NE(event.find("predicted_renewable_w"), nullptr);
    EXPECT_NE(event.find("actual_renewable_w"), nullptr);
    ASSERT_NE(event.find("ratios"), nullptr);
    EXPECT_NE(event.find("budget_w"), nullptr);
  }
  EXPECT_EQ(epoch_plans, report.epochs.size());
  EXPECT_EQ(sim.telemetry().trace().dropped(), 0u);

  // The run report carries the same registry's snapshot (its gh_span_ns
  // series only when the run keeps wall times: timed_spans_test).
  const auto* epochs_entry = report.metrics.find(
      "gh_epochs_total", {{"case", std::string(to_string(
                                       report.epochs[0].source_case))}});
  ASSERT_NE(epochs_entry, nullptr);
  EXPECT_GT(epochs_entry->value, 0.0);
}

TEST(TelemetryGolden, SameSeedRunsProduceIdenticalTraces) {
  const std::string first = run_and_dump_trace();
  const std::string second = run_and_dump_trace();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(TelemetryGolden, TraceMatchesGoldenFile) {
  const std::string golden_path =
      std::string(GH_TEST_DATA_DIR) + "/golden/trace_short.jsonl";
  const std::string trace = run_and_dump_trace();

  if (std::getenv("GH_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path);
    ASSERT_TRUE(out) << "cannot write " << golden_path;
    out << trace;
    GTEST_SKIP() << "golden file regenerated";
  }

  std::ifstream in(golden_path);
  ASSERT_TRUE(in) << "missing golden file " << golden_path
                  << " (run with GH_UPDATE_GOLDEN=1 to create it)";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(trace, golden.str())
      << "trace diverged from golden; regenerate with GH_UPDATE_GOLDEN=1 "
         "if the change is intentional";
}

TEST(TelemetryGolden, DisabledTelemetryRunsCleanAndEmpty) {
  Rack rack{default_runtime_rack(), Workload::kSpecJbb};
  SimConfig cfg;
  cfg.controller.seed = 42;
  cfg.telemetry.enabled = false;
  RackSimulator sim{std::move(rack),
                    make_fixed_budget_plant(Watts{700.0}, Minutes{120.0}),
                    std::move(cfg)};
  sim.pretrain();
  const RunReport report = sim.run(Minutes{60.0});
  EXPECT_EQ(sim.telemetry().trace().size(), 0u);
  EXPECT_TRUE(report.metrics.entries.empty());
  EXPECT_GT(report.mean_throughput(), 0.0);
}

}  // namespace
}  // namespace greenhetero
