// The benchmark's workloads: each one is a fleet shape plus the inputs that
// drive it (solar traces, demand traces, workload schedules, fault plans),
// all generated here from the workload seed.  The library only ever sees
// the generated inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "fleet/fleet.h"

namespace rackbench {

struct Scenario {
  std::string name;
  std::size_t racks = 0;
  double hours = 0.0;
  std::size_t threads = 1;
  std::size_t shards = 1;
  /// Length of the untimed replay (SimConfig::check and FleetConfig::check
  /// on) whose records must match the timed runs' first epochs bit for bit.
  double replay_hours = 0.0;
  /// The end-to-end run times Fleet::run in consecutive calls of this many
  /// hours (a whole number of epochs).
  double chunk_hours = 0.0;
};

/// Throws std::invalid_argument for an unknown name.  `tiny` shrinks the
/// fleet and the horizon for the smoke test.
[[nodiscard]] Scenario find_scenario(std::string_view name, bool tiny);

struct BuildOptions {
  std::uint64_t seed = 0;
  /// Worker threads; unset runs the scenario's own thread count.
  std::optional<std::size_t> threads;
  /// Run length; unset runs the scenario's hours.  The inputs always cover
  /// the scenario's full horizon.
  std::optional<double> hours;
  bool profile = false;
  bool check = false;
  /// Directory for every file the fleet writes (operational outputs and
  /// checkpoints).  Required for fleet_ops_2t and for explicit_checkpoint.
  std::filesystem::path out_dir;
  /// Configure a checkpoint directory even when the workload does not
  /// checkpoint on its own, so Fleet::write_checkpoint can be called
  /// directly after the run (the cadence is set beyond the horizon).
  bool explicit_checkpoint = false;
  /// Open the streaming trace sink in resume mode (the fleet is about to
  /// load a checkpoint of a streaming run).
  bool resume_stream = false;
};

/// Set-up cost of one fleet, in seconds.
struct SetupCost {
  double total = 0.0;      ///< inputs + racks + fleet + pretrain
  double solar_gen = 0.0;  ///< generate_solar_trace calls
  double pretrain = 0.0;   ///< Fleet::pretrain
};

struct BuiltFleet {
  std::unique_ptr<greenhetero::Fleet> fleet;
  SetupCost cost;
  double hours = 0.0;  ///< the horizon to pass to Fleet::run
};

/// Generate the scenario's inputs from options.seed, build the racks and
/// the fleet, and pretrain it.
[[nodiscard]] BuiltFleet build_fleet(const Scenario& scenario,
                                     const BuildOptions& options);

}  // namespace rackbench
