// The greenhetero CLI's option tables: one row per flag, one table per
// subcommand.  Parsing, range checks, the usage text and the scenario
// fingerprint of simulate/fleet all come from these rows (util/options.h).
#pragma once

#include <string>
#include <vector>

#include "core/policies.h"
#include "server/combinations.h"
#include "util/options.h"
#include "workload/workload_spec.h"

namespace greenhetero::cli {

using util::above;
using util::choice;
using util::integer;
using util::kDerived;
using util::kIntMax;
using util::kUnbounded;
using util::number;
using util::OptionSpec;
using util::positional;
using util::switch_option;
using util::text;

inline std::vector<std::string> policy_names() {
  std::vector<std::string> names;
  for (PolicyKind kind : kAllPolicies) names.emplace_back(to_string(kind));
  return names;
}
inline std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : all_workload_specs()) {
    names.emplace_back(spec.name);
  }
  return names;
}
inline std::vector<std::string> combination_names() {
  std::vector<std::string> names;
  for (const ServerCombination& comb : table4_combinations()) {
    names.emplace_back(comb.name);
  }
  return names;
}
inline std::vector<std::string> solar_trace_names() { return {"high", "low"}; }
inline std::vector<std::string> trace_kind_names() {
  return {"high", "low", "load", "wind"};
}
inline std::vector<std::string> chemistry_names() { return {"lead", "li"}; }
inline std::vector<std::string> grid_mode_names() {
  return {"static", "proportional"};
}

inline constexpr std::uint64_t kSeedMax = ~std::uint64_t{0};
/// A century: keeps every derived sample count and day index in range.
inline constexpr std::uint64_t kDaysMax = 36500;

/// The rack a one-rack command builds (simulate, policies, solve).
inline constexpr OptionSpec kRackRows[] = {
    choice("workload", "SPECjbb", workload_names, "Table I workload").shapes(),
    choice("comb", "Comb1", combination_names,
           "Table IV server mix (Comb1 is the runtime rack)")
        .shapes(),
};

/// Shared by simulate and fleet: fault plan, telemetry, outputs and
/// checkpoints.
inline constexpr OptionSpec kRunRows[] = {
    text("faults", "fault plan CSV (at_min,kind,duration_min,target,value)")
        .shapes(),
    switch_option("ledger", "off", "per-epoch EPU loss ledger").shapes(),
    switch_option("check", "off", "runtime invariant checker").shapes(),
    number("rollup-window", kDerived, 0, kUnbounded,
           "rollup window in minutes (default 60 with --rollup-out, else "
           "0 = off)")
        .shapes(),
    text("trace-out", "trace file (JSONL), streamed while the run goes"),
    text("metrics-out", "metrics file (.json, .txt, else Prometheus text)"),
    integer("metrics-every", "128", 1, kIntMax,
            "epochs between metrics rewrites"),
    text("rollup-out", "fixed-window rollup series (JSONL)"),
    text("flightrec-dir", "flight-recorder dump directory"),
    text("spans-out", "control-loop spans (Chrome trace JSON)"),
    text("profile-out", "in-process profile (JSON)"),
    text("checkpoint-dir", "checkpoint directory"),
    integer("checkpoint-every", "1", 1, kIntMax, "epochs between checkpoints"),
    integer("checkpoint-keep", "2", 0, kIntMax, "snapshots kept (0 = all)"),
    text("resume", "resume from the newest valid snapshot in this directory"),
};

inline constexpr OptionSpec kSimulateRows[] = {
    choice("policy", "GreenHetero", policy_names,
           "Table III allocation policy")
        .shapes(),
    integer("days", "1", 1, kDaysMax, "simulated days").shapes(),
    choice("trace", "high", solar_trace_names, "solar trace").shapes(),
    number("capacity", "2500", 0, kUnbounded, "solar capacity in W").shapes(),
    number("grid", "1000", 0, kUnbounded, "grid budget in W").shapes(),
    above("battery-kwh", "12", 0, kUnbounded, "battery capacity in kWh")
        .shapes(),
    choice("chemistry", "lead", chemistry_names, "battery chemistry").shapes(),
    integer("seed", "42", 0, kSeedMax, "controller and trace seed").shapes(),
    text("csv", "per-epoch trail (CSV)"),
};

inline constexpr OptionSpec kFleetRows[] = {
    integer("racks", "3", 1, kIntMax, "racks in the fleet").shapes(),
    number("asymmetry", "0.5", 0, 1,
           "solar capacity spread around 1.8 kW per rack")
        .shapes(),
    number("grid", kDerived, 0, kUnbounded,
           "total grid budget in W (default 800 per rack)")
        .shapes(),
    choice("mode", "proportional", grid_mode_names, "grid sharing").shapes(),
    above("hours", "24", 0, 24.0 * kDaysMax, "simulated hours").shapes(),
    integer("threads", "0", 0, 1024,
            "worker threads (0 = one per hardware thread)"),
    integer("shards", "1", 0, 1024, "rack shards (0 = one per worker thread)"),
};

inline constexpr OptionSpec kAnalyzeRows[] = {
    text("trace", "trace or rollup series (JSONL) to analyze"),
    text("diff", "baseline trace; exit 3 on drift beyond --threshold"),
    number("threshold", "0.01", 0, kUnbounded,
           "allowed EPU and loss-share drift"),
    text("perf", "profile (JSON) to render"),
    integer("top", "10", 1, kIntMax, "hot phases shown"),
};

inline constexpr OptionSpec kBudgetRows[] = {
    number("budget", kDerived, 0, kUnbounded,
           "green budget in W (default 55% of peak demand)"),
};

inline constexpr OptionSpec kTracesRows[] = {
    choice("trace", "high", trace_kind_names, "trace kind"),
    integer("days", "7", 1, kDaysMax, "days generated"),
    number("capacity", "2500", 0, kUnbounded, "rated power in W"),
    text("out", "output CSV", "trace.csv"),
};

inline constexpr OptionSpec kFuzzSeedRow =
    integer("seed", "1", 0, kSeedMax, "fuzz seed");

inline constexpr OptionSpec kFuzzRows[] = {
    kFuzzSeedRow,
    integer("runs", "25", 1, kIntMax, "scenarios"),
    integer("run", kDerived, 0, kIntMax,
            "replay only this run index (default every run)"),
    integer("racks", kDerived, 1, kIntMax, "racks (default random)"),
    integer("epochs", kDerived, 1, kIntMax, "epochs (default random)"),
    integer("shards", kDerived, 1, 1024,
            "shards of the parallel leg (default random)"),
    integer("max-faults", kDerived, 0, kIntMax,
            "fault events at most (default random)"),
    switch_option("solver", "off",
                  "solver-driven policy on every rack, 4-group oracle"),
    text("repro-out", "write the shrunk repro here on failure"),
};

inline constexpr OptionSpec kCrashFuzzRows[] = {
    kFuzzSeedRow,
    integer("runs", "5", 1, kIntMax, "kill/resume scenarios"),
    integer("max-kills", "3", 1, kIntMax, "SIGKILLs per scenario at most"),
    text("crash-dir", "work directory", "crash-fuzz"),
};

inline constexpr OptionSpec kBenchdiffRows[] = {
    positional("CURRENT.json", "fresh bench report"),
    positional("BASELINE.json", "committed baseline report"),
    text("threshold", "allowed drift, fraction or percentage", "10%"),
    text("trajectory", "append one dated history row to this JSONL file"),
    text("date", "date of the trajectory row (default today, UTC)"),
};

inline constexpr OptionSpec kInfoRows[] = {
    switch_option("json", "off", "machine-readable build and feature flags"),
};

inline constexpr auto kSimulateTable =
    util::join(kRackRows, kSimulateRows, kRunRows);
inline constexpr auto kFleetTable = util::join(kFleetRows, kRunRows);
inline constexpr auto kRackBudgetTable = util::join(kRackRows, kBudgetRows);

inline constexpr util::CommandSpec kSimulate{
    "simulate", "", kSimulateTable, "run one rack through the control loop"};
inline constexpr util::CommandSpec kFleet{
    "fleet", "", kFleetTable, "run racks in lockstep under a shared grid"};
inline constexpr util::CommandSpec kFuzz{
    "fuzz", "", kFuzzRows,
    "seed-replayable fleet scenarios; exit 4 and a repro on failure"};
inline constexpr util::CommandSpec kCrashFuzz{
    "fuzz", "--crash", kCrashFuzzRows,
    "SIGKILL and resume real runs; exit 4 on any divergence"};
inline constexpr util::CommandSpec kAnalyze{
    "analyze", "", kAnalyzeRows, "summarize or diff a trace or profile"};
inline constexpr util::CommandSpec kBenchdiff{
    "benchdiff", "", kBenchdiffRows,
    "compare bench reports; exit 3 on drift beyond --threshold"};
inline constexpr util::CommandSpec kPolicies{
    "policies", "", kRackBudgetTable, "every Table III policy on one budget"};
inline constexpr util::CommandSpec kSolve{
    "solve", "", kRackBudgetTable, "one GreenHetero allocation"};
inline constexpr util::CommandSpec kTraces{
    "traces", "", kTracesRows, "generate a trace CSV and its statistics"};
inline constexpr util::CommandSpec kInfo{
    "info", "", kInfoRows, "catalogues and build flags"};

inline constexpr const util::CommandSpec* kCommands[] = {
    &kSimulate, &kFleet, &kFuzz,  &kCrashFuzz, &kAnalyze,
    &kBenchdiff, &kPolicies, &kSolve, &kTraces, &kInfo};

}  // namespace greenhetero::cli
