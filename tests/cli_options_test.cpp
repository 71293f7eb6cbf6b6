// The CLI's option tables (tools/cli_tables.h) and the parser that reads
// them (util/options.h): table hygiene for every subcommand, the choice
// lists' single source in the library, the pinned scenario-shaping rows,
// strict parsing and the did-you-mean hint.
#include "cli_tables.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

namespace greenhetero::cli {
namespace {

using util::CommandSpec;
using util::OptionError;
using util::OptionKind;
using util::Options;

Options parse(const CommandSpec& command, std::vector<const char*> args) {
  return util::parse_options(command, args);
}

std::string label(const CommandSpec& command) {
  return std::string(command.name) + std::string(command.mode);
}

std::vector<std::string> shaping_rows(const CommandSpec& command) {
  std::vector<std::string> names;
  for (const OptionSpec& row : command.rows) {
    if (row.shapes_scenario) names.emplace_back(row.name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

TEST(CliTables, NamesAreUniquePerSubcommand) {
  for (const CommandSpec* command : kCommands) {
    std::set<std::string_view> seen;
    for (const OptionSpec& row : command->rows) {
      EXPECT_TRUE(seen.insert(row.name).second)
          << label(*command) << " declares --" << row.name << " twice";
      EXPECT_FALSE(row.help.empty()) << label(*command) << " --" << row.name;
    }
  }
}

TEST(CliTables, EveryDefaultLiesInItsOwnRangeOrChoices) {
  for (const CommandSpec* command : kCommands) {
    for (const OptionSpec& row : command->rows) {
      if (row.positional || row.fallback == util::kDerived) continue;
      EXPECT_NO_THROW((void)util::canonical_value(row, row.fallback))
          << label(*command) << " --" << row.name << " default '"
          << row.fallback << "'";
    }
  }
}

TEST(CliTables, ChoiceListsEqualTheLibraryNames) {
  std::vector<std::string> policies;
  for (PolicyKind kind : kAllPolicies) policies.emplace_back(to_string(kind));
  std::vector<std::string> workloads;
  for (const WorkloadSpec& spec : all_workload_specs()) {
    workloads.emplace_back(spec.name);
  }
  std::vector<std::string> combinations;
  for (const ServerCombination& comb : table4_combinations()) {
    combinations.emplace_back(comb.name);
  }
  int checked = 0;
  for (const CommandSpec* command : kCommands) {
    for (const OptionSpec& row : command->rows) {
      if (row.kind != OptionKind::kChoice) continue;
      if (row.name == "policy") {
        EXPECT_EQ(row.choices(), policies);
        ++checked;
      } else if (row.name == "workload") {
        EXPECT_EQ(row.choices(), workloads);
        ++checked;
      } else if (row.name == "comb") {
        EXPECT_EQ(row.choices(), combinations);
        ++checked;
      }
    }
  }
  // simulate: policy, workload, comb; policies and solve: workload, comb.
  EXPECT_EQ(checked, 7);
}

// The fingerprint's inputs are exactly the flags the hand-kept exclusion
// list used to leave in: output paths, metrics/checkpoint knobs, --resume,
// --threads and --shards never invalidate a resume.
TEST(CliTables, ScenarioRowsMatchTheFormerExclusionComplement) {
  EXPECT_EQ(shaping_rows(kSimulate),
            (std::vector<std::string>{"battery-kwh", "capacity", "check",
                                      "chemistry", "comb", "days", "faults",
                                      "grid", "ledger", "policy",
                                      "rollup-window", "seed", "trace",
                                      "workload"}));
  EXPECT_EQ(shaping_rows(kFleet),
            (std::vector<std::string>{"asymmetry", "check", "faults", "grid",
                                      "hours", "ledger", "mode", "racks",
                                      "rollup-window"}));
}

TEST(CliTables, UsageListsEveryFlag) {
  for (const CommandSpec* command : kCommands) {
    const std::string usage = util::usage_text(*command);
    for (const OptionSpec& row : command->rows) {
      const std::string shown =
          row.positional ? std::string(row.name) : "--" + std::string(row.name);
      EXPECT_NE(usage.find(shown), std::string::npos)
          << label(*command) << " usage lacks " << shown;
    }
  }
}

TEST(OptionParser, HintsTheClosestFlag) {
  EXPECT_EQ(util::closest_flag(kFleet, "chekpoint-dir"), "checkpoint-dir");
  EXPECT_EQ(util::closest_flag(kSimulate, "trace-ou"), "trace-out");
  EXPECT_EQ(util::closest_flag(kFleet, "bogus"), "");
  try {
    (void)parse(kFleet, {"--chekpoint-dir", "d"});
    FAIL() << "misspelt flag accepted";
  } catch (const OptionError& e) {
    EXPECT_NE(std::string(e.what()).find("did you mean --checkpoint-dir?"),
              std::string::npos)
        << e.what();
  }
}

TEST(OptionParser, UndeclaredNamesAreLogicErrors) {
  Options options = parse(kSimulate, {});
  EXPECT_THROW((void)options.text("hours"), std::logic_error);
  EXPECT_THROW((void)options.integer<int>("hours"), std::logic_error);
  EXPECT_THROW((void)options.number("hours"), std::logic_error);
  EXPECT_THROW((void)options.flag("hours"), std::logic_error);
  EXPECT_THROW((void)options.given("hours"), std::logic_error);
  // Declared, but read as the wrong kind or type.
  EXPECT_THROW((void)options.number("days"), std::logic_error);
  EXPECT_THROW((void)options.integer<int>("seed"), std::logic_error);
}

TEST(OptionParser, RejectsBadValuesNamingTheFlag) {
  const std::vector<std::vector<const char*>> bad = {
      {"--days", "0"},        {"--days", "1.5"},
      {"--seed", "-1"},       {"--seed", "1e3"},
      {"--capacity", "nan"},  {"--battery-kwh", "0"},
      {"--chemistry", "nimh"}, {"--check", "maybe"},
      {"--days"},             {"--trace-out", "a", "--trace-out", "b"},
  };
  for (const auto& args : bad) {
    try {
      (void)parse(kSimulate, args);
      FAIL() << args[0] << " accepted";
    } catch (const OptionError& e) {
      EXPECT_NE(std::string(e.what()).find(args[0]), std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW((void)parse(kSimulate, {"stray"}), OptionError);
  EXPECT_THROW((void)parse(kBenchdiff, {"only-one.json"}), OptionError);
}

TEST(OptionParser, ReadsTypedValues) {
  Options options =
      parse(kSimulate, {"--check", "--ledger", "off", "--seed",
                        "18446744073709551615", "--capacity", "2500.0",
                        "--days", "007"});
  EXPECT_TRUE(options.flag("check"));
  EXPECT_FALSE(options.flag("ledger"));
  EXPECT_FALSE(parse(kSimulate, {}).flag("check"));  // an absent switch
  EXPECT_EQ(options.integer<std::uint64_t>("seed"), 18446744073709551615ULL);
  EXPECT_EQ(options.number("capacity"), 2500.0);
  EXPECT_EQ(options.integer<int>("days"), 7);
  EXPECT_TRUE(options.given("days"));
  EXPECT_FALSE(options.given("grid"));
  EXPECT_EQ(options.text("policy"), "GreenHetero");

  Options bench = parse(kBenchdiff, {"a.json", "b.json", "--threshold", "15%"});
  EXPECT_EQ(bench.text("CURRENT.json"), "a.json");
  EXPECT_EQ(bench.text("BASELINE.json"), "b.json");
}

TEST(OptionParser, ScenarioKeyCoversDefaultsAndDerivedValues) {
  Options plain = parse(kSimulate, {});
  EXPECT_THROW((void)plain.scenario_key(), std::logic_error);  // unsettled
  EXPECT_EQ(plain.derive("rollup-window", 0.0), 0.0);
  const std::string key = plain.scenario_key();
  EXPECT_NE(key.find("seed=42\n"), std::string::npos) << key;
  EXPECT_NE(key.find("check=off\n"), std::string::npos) << key;
  EXPECT_EQ(key.find("trace-out"), std::string::npos) << key;

  // The explicit default and a spelling variant fingerprint the same.
  Options explicit_default =
      parse(kSimulate, {"--seed", "42", "--capacity", "2500.0"});
  explicit_default.derive("rollup-window", 0.0);
  EXPECT_EQ(explicit_default.scenario_key(), key);

  // A derived default enters at its resolved value; a given value wins.
  Options rollup = parse(kSimulate, {"--rollup-out", "r.jsonl"});
  EXPECT_EQ(rollup.derive("rollup-window", 60.0), 60.0);
  EXPECT_NE(rollup.scenario_key(), key);
  Options given = parse(kSimulate, {"--rollup-window", "15"});
  EXPECT_EQ(given.derive("rollup-window", 0.0), 15.0);

  Options fleet = parse(kFleet, {"--racks", "4", "--threads", "8"});
  fleet.derive("grid", 800.0 * 4);
  fleet.derive("rollup-window", 0.0);
  EXPECT_NE(fleet.scenario_key().find("grid=3200\n"), std::string::npos);
  Options fleet_other = parse(kFleet, {"--racks", "4", "--shards", "2"});
  fleet_other.derive("grid", 800.0 * 4);
  fleet_other.derive("rollup-window", 0.0);
  EXPECT_EQ(fleet_other.scenario_key(), fleet.scenario_key());
}

}  // namespace
}  // namespace greenhetero::cli
