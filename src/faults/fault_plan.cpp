#include "faults/fault_plan.h"

#include <algorithm>
#include <cmath>

#include "util/rng.h"

namespace greenhetero {

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kServerCrash:
      return "server_crash";
    case FaultKind::kServerRecover:
      return "server_recover";
    case FaultKind::kDvfsStuck:
      return "dvfs_stuck";
    case FaultKind::kDvfsOffset:
      return "dvfs_offset";
    case FaultKind::kSolarDropout:
      return "solar_dropout";
    case FaultKind::kSolarStuck:
      return "solar_stuck";
    case FaultKind::kGridOutage:
      return "grid_outage";
    case FaultKind::kBatteryDerate:
      return "battery_derate";
    case FaultKind::kMonitorDropout:
      return "monitor_dropout";
  }
  return "?";
}

FaultKind fault_kind_from_string(std::string_view name) {
  for (FaultKind kind :
       {FaultKind::kServerCrash, FaultKind::kServerRecover,
        FaultKind::kDvfsStuck, FaultKind::kDvfsOffset,
        FaultKind::kSolarDropout, FaultKind::kSolarStuck,
        FaultKind::kGridOutage, FaultKind::kBatteryDerate,
        FaultKind::kMonitorDropout}) {
    if (name == to_string(kind)) return kind;
  }
  throw FaultPlanError("fault plan: unknown fault kind '" +
                       std::string(name) + "'");
}

namespace {

void validate_event(const FaultEvent& e) {
  if (!std::isfinite(e.at.value()) || e.at.value() < 0.0) {
    throw FaultPlanError("fault plan: event time must be finite and >= 0");
  }
  if (!std::isfinite(e.duration.value()) || e.duration.value() < 0.0) {
    throw FaultPlanError("fault plan: duration must be finite and >= 0");
  }
  if (!std::isfinite(e.value)) {
    throw FaultPlanError("fault plan: value must be finite");
  }
  if (e.target < -1) {
    throw FaultPlanError("fault plan: target must be a group index or -1");
  }
  switch (e.kind) {
    case FaultKind::kDvfsStuck:
      if (e.value < 0.0 || e.value != std::floor(e.value)) {
        throw FaultPlanError(
            "fault plan: dvfs_stuck value must be a ladder state >= 0");
      }
      break;
    case FaultKind::kBatteryDerate:
      if (e.value < 0.0 || e.value > 0.9) {
        throw FaultPlanError(
            "fault plan: battery_derate value must be in [0, 0.9]");
      }
      break;
    case FaultKind::kMonitorDropout:
      if (e.value < 0.0 || e.value > 1.0) {
        throw FaultPlanError(
            "fault plan: monitor_dropout value must be in [0, 1]");
      }
      break;
    case FaultKind::kServerRecover:
      if (e.duration.value() > 0.0) {
        throw FaultPlanError(
            "fault plan: server_recover is instantaneous (duration 0)");
      }
      break;
    default:
      break;
  }
}

}  // namespace

void FaultPlan::add(FaultEvent event) {
  validate_event(event);
  // Keep sorted by time; equal timestamps preserve insertion order.
  const auto pos = std::upper_bound(
      events_.begin(), events_.end(), event,
      [](const FaultEvent& a, const FaultEvent& b) {
        return a.at.value() < b.at.value();
      });
  events_.insert(pos, event);
}

FaultPlan FaultPlan::parse_csv(const CsvTable& table) {
  FaultPlan plan;
  for (std::size_t r = 0; r < table.row_count(); ++r) {
    try {
      FaultEvent e;
      e.at = Minutes{table.number(r, "at_min")};
      e.kind =
          fault_kind_from_string(table.cell(r, table.column_index("kind")));
      e.duration = Minutes{table.number(r, "duration_min")};
      e.target = static_cast<int>(std::lround(table.number(r, "target")));
      e.value = table.number(r, "value");
      plan.add(e);
    } catch (const FaultPlanError& err) {
      throw FaultPlanError(std::string(err.what()) + " (csv row " +
                           std::to_string(r + 1) + ")");
    }
  }
  return plan;
}

FaultPlan FaultPlan::load_csv(const std::filesystem::path& path) {
  return parse_csv(CsvTable::load(path));
}

FaultPlan make_random_plan(std::uint64_t seed, Minutes duration,
                           std::size_t group_count) {
  if (duration.value() <= 0.0) {
    throw FaultPlanError("fault plan: duration must be positive");
  }
  if (group_count == 0) {
    throw FaultPlanError("fault plan: need at least one group");
  }
  Rng rng{seed};
  FaultPlan plan;
  const int max_group = static_cast<int>(group_count) - 1;
  // One windowed fault of each kind, landing in the middle 80% of the run
  // so every begin/end pair fires before the run completes.
  const auto window_start = [&] {
    return Minutes{rng.uniform(0.05 * duration.value(),
                               0.65 * duration.value())};
  };
  const auto window_length = [&] {
    return Minutes{rng.uniform(0.05 * duration.value(),
                               0.2 * duration.value())};
  };

  {
    FaultEvent e;
    e.kind = FaultKind::kServerCrash;
    e.at = window_start();
    e.duration = window_length();
    e.target = rng.uniform_int(0, max_group);
    plan.add(e);
  }
  {
    FaultEvent e;
    e.kind = FaultKind::kDvfsStuck;
    e.at = window_start();
    e.duration = window_length();
    e.target = rng.uniform_int(0, max_group);
    e.value = rng.uniform_int(1, 4);
    plan.add(e);
  }
  {
    FaultEvent e;
    e.kind = FaultKind::kDvfsOffset;
    e.at = window_start();
    e.duration = window_length();
    e.target = rng.uniform_int(0, max_group);
    e.value = rng.uniform(-30.0, 30.0);
    plan.add(e);
  }
  {
    FaultEvent e;
    e.kind = FaultKind::kSolarDropout;
    e.at = window_start();
    e.duration = window_length();
    plan.add(e);
  }
  {
    FaultEvent e;
    e.kind = FaultKind::kSolarStuck;
    e.at = window_start();
    e.duration = window_length();
    plan.add(e);
  }
  {
    FaultEvent e;
    e.kind = FaultKind::kGridOutage;
    e.at = window_start();
    e.duration = window_length();
    plan.add(e);
  }
  {
    FaultEvent e;
    e.kind = FaultKind::kBatteryDerate;
    e.at = window_start();
    e.duration = window_length();
    e.value = rng.uniform(0.1, 0.5);
    plan.add(e);
  }
  {
    FaultEvent e;
    e.kind = FaultKind::kMonitorDropout;
    e.at = window_start();
    e.duration = window_length();
    e.value = rng.uniform(0.2, 0.8);
    plan.add(e);
  }
  return plan;
}

}  // namespace greenhetero
