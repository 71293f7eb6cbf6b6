#include "checks.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

namespace rackbench {
namespace {

using greenhetero::EpochRecord;
using greenhetero::FleetReport;

/// Calls f(double) on every numeric field of a record, in a fixed order.
template <typename F>
void for_each_number(const EpochRecord& r, F&& f) {
  f(r.start.value());
  f(r.training ? 1.0 : 0.0);
  f(static_cast<double>(r.source_case));
  f(r.predicted_renewable.value());
  f(r.actual_renewable.value());
  f(r.budget.value());
  f(static_cast<double>(r.ratios.size()));
  for (double ratio : r.ratios) f(ratio);
  f(r.throughput);
  f(r.epu);
  f(r.battery_soc);
  f(r.battery_discharge.value());
  f(r.battery_charge.value());
  f(r.grid_power.value());
  f(r.shortfall.value());
}

bool valid(const EpochRecord& r) {
  bool finite = true;
  for_each_number(r, [&](double v) { finite = finite && std::isfinite(v); });
  return finite && r.epu >= 0.0 && r.epu <= 1.0;
}

bool bitwise_equal(const EpochRecord& a, const EpochRecord& b) {
  std::vector<std::uint64_t> bits_a;
  std::vector<std::uint64_t> bits_b;
  for_each_number(a, [&](double v) {
    bits_a.push_back(std::bit_cast<std::uint64_t>(v));
  });
  for_each_number(b, [&](double v) {
    bits_b.push_back(std::bit_cast<std::uint64_t>(v));
  });
  return bits_a == bits_b;
}

}  // namespace

FailureMap::FailureMap(const FleetReport& report) {
  std::size_t total = 0;
  for (const auto& rack : report.racks) {
    offsets_.push_back(total);
    total += rack.epochs.size();
  }
  flags_.assign(total, 0);
}

void FailureMap::mark_invalid(const FleetReport& report) {
  for (std::size_t i = 0; i < report.racks.size(); ++i) {
    const auto& epochs = report.racks[i].epochs;
    for (std::size_t e = 0; e < epochs.size(); ++e) {
      if (!valid(epochs[e])) flags_[offsets_[i] + e] = 1;
    }
  }
}

void FailureMap::mark_mismatches(const FleetReport& report,
                                 const FleetReport& want,
                                 std::size_t epochs) {
  for (std::size_t i = 0; i < report.racks.size(); ++i) {
    const auto& got = report.racks[i].epochs;
    const std::size_t n = std::min(epochs, got.size());
    for (std::size_t e = 0; e < n; ++e) {
      const bool present =
          i < want.racks.size() && e < want.racks[i].epochs.size();
      if (!present || !bitwise_equal(got[e], want.racks[i].epochs[e])) {
        flags_[offsets_[i] + e] = 1;
      }
    }
  }
}

std::size_t FailureMap::failed() const {
  return static_cast<std::size_t>(
      std::count(flags_.begin(), flags_.end(), 1));
}

std::size_t rack_epochs(const FleetReport& report) {
  return std::accumulate(
      report.racks.begin(), report.racks.end(), std::size_t{0},
      [](std::size_t sum, const auto& rack) {
        return sum + rack.epochs.size();
      });
}

std::uint64_t record_digest(const FleetReport& report) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const auto& rack : report.racks) {
    for (const EpochRecord& record : rack.epochs) {
      for_each_number(record, [&](double v) {
        std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
        for (int byte = 0; byte < 8; ++byte) {
          hash = (hash ^ (bits & 0xff)) * 0x100000001b3ULL;
          bits >>= 8;
        }
      });
    }
  }
  return hash;
}

void plant_mismatch(FleetReport& report) {
  for (auto& rack : report.racks) {
    if (rack.epochs.empty()) continue;
    double& v = rack.epochs.front().throughput;
    v = std::bit_cast<double>(std::bit_cast<std::uint64_t>(v) ^ 1ULL);
    return;
  }
}

}  // namespace rackbench
