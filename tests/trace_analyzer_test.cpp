// `greenhetero analyze` internals, end-to-end over the committed golden
// fault trace: the reconstructed fault timeline must match the injected
// FaultPlan, a self-diff must pass the CI gate, a perturbed analysis must
// trip it, and schema-header validation must reject headerless (pre-v2)
// and too-new traces with actionable errors.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "analysis/trace_analyzer.h"
#include "telemetry/tracing.h"

namespace greenhetero::analysis {
namespace {

std::filesystem::path golden_fault_trace() {
  return std::filesystem::path{GH_TEST_DATA_DIR} / "golden" /
         "trace_faults.jsonl";
}

std::filesystem::path write_temp_trace(const std::string& name,
                                       const std::string& contents) {
  const std::filesystem::path path =
      std::filesystem::path{::testing::TempDir()} / name;
  std::ofstream out(path);
  out << contents;
  return path;
}

TEST(LoadTrace, ReadsTheGoldenFaultTrace) {
  const TraceData trace = load_trace(golden_fault_trace());
  EXPECT_EQ(trace.schema_version, telemetry::kTraceSchemaVersion);
  EXPECT_GT(trace.events.size(), 0u);
  for (const json::Value& event : trace.events) {
    EXPECT_TRUE(event.is_object());
  }
}

TEST(LoadTrace, RejectsHeaderlessPreV2Traces) {
  const auto path = write_temp_trace(
      "headerless.jsonl",
      "{\"t\":0,\"rack\":0,\"phase\":\"epoch_plan\",\"epu\":0.9}\n");
  try {
    (void)load_trace(path);
    FAIL() << "expected AnalyzerError";
  } catch (const AnalyzerError& e) {
    EXPECT_NE(std::string(e.what()).find("missing schema header"),
              std::string::npos)
        << e.what();
  }
}

TEST(LoadTrace, RejectsTracesNewerThanTheBinary) {
  const auto path = write_temp_trace(
      "future.jsonl",
      "{\"schema\":\"greenhetero-trace\",\"version\":99}\n"
      "{\"t\":0,\"rack\":0,\"phase\":\"epoch_plan\",\"epu\":0.9}\n");
  try {
    (void)load_trace(path);
    FAIL() << "expected AnalyzerError";
  } catch (const AnalyzerError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported schema version 99"),
              std::string::npos)
        << e.what();
  }
}

TEST(LoadTrace, RejectsMissingFiles) {
  EXPECT_THROW((void)load_trace(std::filesystem::path{::testing::TempDir()} /
                                "does_not_exist.jsonl"),
               AnalyzerError);
}

TEST(LoadTrace, ReadsTheEncodersNonFiniteNumbers) {
  // append_number spells non-finite doubles NaN / +Inf / -Inf; a line that
  // carries one, mid-trace or last, is an event, not corruption.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::string contents = telemetry::trace_header_json() + "\n";
  const telemetry::TraceField finite[] = {{"epu", 0.9}, {"budget_w", 500.0}};
  const telemetry::TraceField nan[] = {{"epu", kNan}, {"budget_w", 500.0}};
  const telemetry::TraceField inf[] = {{"epu", 0.8}, {"budget_w", kInf},
                                       {"shortfall_w", -kInf}};
  telemetry::append_event_line(contents, 0.0, 0, "epoch_plan", finite);
  telemetry::append_event_line(contents, 15.0, 0, "epoch_plan", nan);
  telemetry::append_event_line(contents, 30.0, 0, "epoch_plan", finite);
  telemetry::append_event_line(contents, 45.0, 0, "epoch_plan", inf);
  telemetry::append_event_line(contents, 60.0, 0, "epoch_plan", nan);
  ASSERT_NE(contents.find("\"epu\":NaN"), std::string::npos) << contents;
  ASSERT_NE(contents.find("\"budget_w\":+Inf"), std::string::npos);

  const TraceData trace =
      load_trace(write_temp_trace("non_finite.jsonl", contents));
  EXPECT_EQ(trace.torn_tail_lines, 0u);
  ASSERT_EQ(trace.events.size(), 5u);
  EXPECT_TRUE(std::isnan(trace.events[1].number_or("epu", 0.0)));
  EXPECT_EQ(trace.events[3].number_or("budget_w", 0.0), kInf);
  EXPECT_EQ(trace.events[3].number_or("shortfall_w", 0.0), -kInf);
  EXPECT_TRUE(std::isnan(trace.events[4].number_or("epu", 0.0)));

  const TraceAnalysis analysis = analyze(trace);
  EXPECT_EQ(analysis.event_count, 5u);
  EXPECT_EQ(analysis.torn_tail_lines, 0u);
}

// The golden fault plan (failure_injection_test.cpp): server_crash at
// t=45min for 60min on group 0, grid_outage at t=75min for 60min.  The
// analyzer must reconstruct injection edges and the degradation ladder.
TEST(Analyze, FaultTimelineMatchesTheInjectedPlan) {
  const TraceAnalysis analysis = analyze(load_trace(golden_fault_trace()));
  std::vector<std::pair<double, std::string>> timeline;
  timeline.reserve(analysis.faults.size());
  for (const FaultEntry& f : analysis.faults) {
    EXPECT_EQ(f.rack_id, 0);
    // Fault-free goldens carry no ledger, so correlation falls back to the
    // epoch shortfall.
    EXPECT_FALSE(f.correlated_is_fault_bucket);
    timeline.emplace_back(f.t_min, f.label);
  }
  const std::vector<std::pair<double, std::string>> expected{
      {45.0, "server_crash begins"}, {45.0, "degrade normal->degraded"},
      {75.0, "grid_outage begins"},  {75.0, "degrade degraded->safe"},
      {105.0, "server_crash ends"},  {105.0, "recover safe->recovering"},
      {135.0, "grid_outage ends"},   {135.0, "recover recovering->normal"},
  };
  EXPECT_EQ(timeline, expected);
}

TEST(Analyze, GoldenTraceYieldsFallbackEpuAndNoSpans) {
  const TraceAnalysis analysis = analyze(load_trace(golden_fault_trace()));
  // Goldens are recorded without --ledger or --spans (determinism), so the
  // breakdown comes from epoch_plan events and no latency table exists.
  EXPECT_FALSE(analysis.epu.from_ledger);
  EXPECT_TRUE(analysis.epu.buckets.empty());
  EXPECT_TRUE(analysis.latencies.empty());
  EXPECT_GT(analysis.epu.epochs, 0u);
  EXPECT_GT(analysis.epu.epu, 0.0);
  EXPECT_LE(analysis.epu.epu, 1.0);
}

TEST(Diff, SelfDiffPassesTheGate) {
  const TraceAnalysis analysis = analyze(load_trace(golden_fault_trace()));
  const DiffResult result = diff(analysis, analysis);
  EXPECT_DOUBLE_EQ(result.epu_delta(), 0.0);
  for (const BucketDelta& b : result.buckets) {
    EXPECT_DOUBLE_EQ(b.delta(), 0.0);
  }
  EXPECT_FALSE(exceeds_threshold(result, 0.01));
  EXPECT_FALSE(exceeds_threshold(result, 0.0));
}

TEST(Diff, PerturbedEpuTripsTheGate) {
  const TraceAnalysis base = analyze(load_trace(golden_fault_trace()));
  TraceAnalysis drifted = base;
  drifted.epu.epu += 0.05;
  EXPECT_TRUE(exceeds_threshold(diff(base, drifted), 0.01));
  EXPECT_FALSE(exceeds_threshold(diff(base, drifted), 0.10));
}

TEST(Diff, PerturbedBucketShareTripsTheGate) {
  TraceAnalysis base;
  base.epu.from_ledger = true;
  base.epu.epu = 0.8;
  base.epu.buckets.push_back({"curtailed", 50.0, 0.10});
  base.epu.buckets.push_back({"fault", 0.0, 0.0});
  TraceAnalysis other = base;
  other.epu.buckets[0].share = 0.16;  // +6 points of supply share
  const DiffResult result = diff(base, other);
  ASSERT_EQ(result.buckets.size(), 1u)  // all-zero "fault" row is elided
      << "zero-on-both-sides buckets should not appear in the diff";
  EXPECT_EQ(result.buckets[0].name, "curtailed");
  EXPECT_NEAR(result.buckets[0].delta(), 0.06, 1e-12);
  EXPECT_TRUE(exceeds_threshold(result, 0.01));
  EXPECT_FALSE(exceeds_threshold(result, 0.07));

  // A bucket present on only one side diffs against zero.
  other.epu.buckets.push_back({"grid_cap", 10.0, 0.02});
  const DiffResult lopsided = diff(base, other);
  bool saw_grid_cap = false;
  for (const BucketDelta& b : lopsided.buckets) {
    if (b.name != "grid_cap") continue;
    saw_grid_cap = true;
    EXPECT_DOUBLE_EQ(b.base_share, 0.0);
    EXPECT_NEAR(b.delta(), 0.02, 1e-12);
  }
  EXPECT_TRUE(saw_grid_cap);
}

}  // namespace
}  // namespace greenhetero::analysis
