// Deterministic fault-injection schedule.
//
// A FaultPlan is a time-sorted list of typed fault events that the
// RackSimulator replays at substep boundaries.  Faults are pure schedule —
// no randomness at injection time — so the same plan plus the same
// simulation seed reproduces a byte-identical run (the chaos generator
// below derives a *plan* from a seed, then the plan itself is replayed
// deterministically).
//
// Windowed faults (duration > 0) end on their own; a duration of 0 makes
// the fault permanent until a matching recovery event (kServerRecover) or
// the end of the run.
#pragma once

#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/csv.h"
#include "util/units.h"

namespace greenhetero {

class FaultPlanError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class FaultKind {
  kServerCrash,    ///< a server group (or the whole rack) goes offline
  kServerRecover,  ///< offline group comes back (off until next enforcement)
  kDvfsStuck,      ///< DVFS actuation latched at ladder state `value`
  kDvfsOffset,     ///< actuation lands `value` watts off the commanded budget
  kSolarDropout,   ///< physical: the array feeds nothing during the window
  kSolarStuck,     ///< sensor: renewable observation frozen at window start
  kGridOutage,     ///< utility feed down: grid budget reads zero
  kBatteryDerate,  ///< `value` fraction of nameplate capacity lost
  kMonitorDropout, ///< per-sample dropout probability raised to `value`
};

[[nodiscard]] const char* to_string(FaultKind kind);
/// Inverse of to_string; throws FaultPlanError on unknown names.
[[nodiscard]] FaultKind fault_kind_from_string(std::string_view name);

struct FaultEvent {
  Minutes at{0.0};        ///< injection time (simulation minutes)
  FaultKind kind = FaultKind::kServerCrash;
  Minutes duration{0.0};  ///< window length; 0 = open-ended
  /// Server-group index for server/DVFS faults (-1 = every group);
  /// ignored by plant-level faults.
  int target = -1;
  /// Kind-specific magnitude: ladder state (kDvfsStuck), watts
  /// (kDvfsOffset), capacity fraction (kBatteryDerate), probability
  /// (kMonitorDropout); ignored otherwise.
  double value = 0.0;
};

/// An ordered, validated fault schedule.  CSV format (header required):
///   at_min,kind,duration_min,target,value
class FaultPlan {
 public:
  FaultPlan() = default;

  /// Validate and insert one event, keeping the schedule time-sorted.
  void add(FaultEvent event);

  [[nodiscard]] const std::vector<FaultEvent>& events() const {
    return events_;
  }
  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] std::size_t size() const { return events_.size(); }

  [[nodiscard]] static FaultPlan parse_csv(const CsvTable& table);
  [[nodiscard]] static FaultPlan load_csv(const std::filesystem::path& path);

 private:
  std::vector<FaultEvent> events_;  ///< sorted by `at` (stable)
};

/// Chaos-style randomized plan: a handful of windowed faults of every kind
/// spread across `duration`, derived purely from `seed` (same seed ⇒ same
/// plan).  `group_count` bounds the server/DVFS fault targets.
[[nodiscard]] FaultPlan make_random_plan(std::uint64_t seed, Minutes duration,
                                         std::size_t group_count);

}  // namespace greenhetero
