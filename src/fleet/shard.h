// One shard of the two-level fleet hierarchy: a contiguous range of racks
// driven on the shard's own worker-pool slice.
//
// The flat fleet ran one global parallel_for over every rack per epoch; at
// 10k racks that single barrier (and its one contended claim counter) is the
// scaling wall.  A shard replaces it with a local barrier over its own rack
// range: the coordinator fans out over shards and each shard fans out over
// its racks on its private pool.  Every rack still owns its RNG, telemetry
// and fault state, and the shard boundary adds no arithmetic of its own:
// shards only fill their slices of the per-rack deficit vector, which the
// coordinator divides with divide_grid_budget exactly as the flat fleet
// does, so which rack runs on which pool never changes a byte of output.
//
// Thread budget: `threads` fleet threads are sliced across `shards` shards
// (threads/shards each, the remainder spread over the leading shards, never
// below one).  A one-thread slice's pool spawns no workers and steps
// inline, so --threads 1 remains the fully sequential historical path at
// any shard count, and --shards 1 with N threads is exactly the flat
// fleet's pool.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "sim/rack_simulator.h"
#include "util/thread_pool.h"

namespace greenhetero {

/// A rack's green deficit for the coming epoch: peak demand minus the
/// renewable and battery power it can draw.  The one input of the
/// demand-proportional grid share.
[[nodiscard]] double green_deficit(const RackSimulator& rack, Minutes epoch);

class Shard {
 public:
  /// A shard over fleet racks [first_rack, first_rack + racks) with a pool
  /// of `threads` workers (1 = step inline).
  Shard(std::size_t first_rack, std::size_t racks, std::size_t threads);

  [[nodiscard]] std::size_t first_rack() const { return first_; }
  [[nodiscard]] std::size_t racks() const { return count_; }

  /// Fill this shard's slice of the fleet-wide per-rack deficit vector:
  /// rack i's green_deficit lands in deficits[i], so concurrent shards
  /// never touch the same element.
  void fill_deficits(std::span<const RackSimulator> fleet_racks,
                     Minutes epoch, std::span<double> deficits) const;

  /// Assign each member rack its share and step it one epoch; rack i's
  /// record lands in records[i] (and its events, encoded as they are
  /// emitted, in its own trace ring).  Local barrier: returns only after
  /// every member rack finished.
  void step(std::span<RackSimulator> fleet_racks,
            std::span<const Watts> shares, std::span<EpochRecord> records);

  /// Run fn(i) for every i in [begin, end) on this shard's pool; returns
  /// after every call finished.
  void run(std::size_t begin, std::size_t end,
           const std::function<void(std::size_t)>& fn) const;

 private:
  std::size_t first_;
  std::size_t count_;
  /// Behind a pointer so Shard stays movable.
  std::unique_ptr<util::ThreadPool> pool_;
};

/// Partition `racks` racks into `shards` contiguous shards (clamped to
/// [1, racks]) and slice `threads` fleet threads across them.
[[nodiscard]] std::vector<Shard> make_shards(std::size_t racks,
                                             std::size_t shards,
                                             std::size_t threads);

}  // namespace greenhetero
