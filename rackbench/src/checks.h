// Output checks: every rack-epoch record must be finite with EPU in [0, 1],
// and must equal, bit for bit, the record another run of the same inputs
// produced (a repeated timed run, a checked replay, another thread count or
// a checkpoint round trip).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "fleet/fleet.h"

namespace rackbench {

/// One flag per rack-epoch of a report, rack-major.
class FailureMap {
 public:
  explicit FailureMap(const greenhetero::FleetReport& report);

  /// Flag every record with a non-finite field or an EPU outside [0, 1].
  void mark_invalid(const greenhetero::FleetReport& report);
  /// Flag every record of `report` that differs bitwise from the record at
  /// the same (rack, epoch) of `want`, over the first `epochs` epochs of
  /// each rack (all of them when `epochs` exceeds the shorter history).
  /// A rack or epoch missing from `want` counts as a mismatch.
  void mark_mismatches(const greenhetero::FleetReport& report,
                       const greenhetero::FleetReport& want,
                       std::size_t epochs);

  [[nodiscard]] std::size_t attempted() const { return flags_.size(); }
  [[nodiscard]] std::size_t failed() const;

 private:
  std::vector<std::size_t> offsets_;  ///< first flag index of each rack
  std::vector<char> flags_;
};

[[nodiscard]] std::size_t rack_epochs(const greenhetero::FleetReport& report);

/// FNV-1a over every field of every record, rack-major.
[[nodiscard]] std::uint64_t record_digest(
    const greenhetero::FleetReport& report);

/// Flip the lowest mantissa bit of the first record's throughput: the smoke
/// test plants this mismatch to prove the comparison catches one.
void plant_mismatch(greenhetero::FleetReport& report);

}  // namespace rackbench
