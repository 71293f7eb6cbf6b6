#include "fleet/shard.h"

#include <algorithm>

namespace greenhetero {

double green_deficit(const RackSimulator& rack, Minutes epoch) {
  const Watts demand = rack.rack().peak_demand();
  const Watts green = rack.plant().renewable_available(rack.now()) +
                      rack.plant().battery_discharge_available(epoch);
  return (demand - green).value();
}

Shard::Shard(std::size_t first_rack, std::size_t racks, std::size_t threads)
    : first_(first_rack),
      count_(racks),
      pool_(std::make_unique<util::ThreadPool>(
          std::max<std::size_t>(1, threads))) {}

void Shard::fill_deficits(std::span<const RackSimulator> fleet_racks,
                          Minutes epoch, std::span<double> deficits) const {
  run(first_, first_ + count_, [&](std::size_t i) {
    deficits[i] = green_deficit(fleet_racks[i], epoch);
  });
}

void Shard::step(std::span<RackSimulator> fleet_racks,
                 std::span<const Watts> shares,
                 std::span<EpochRecord> records) {
  run(first_, first_ + count_, [&](std::size_t i) {
    fleet_racks[i].set_grid_budget(shares[i]);
    records[i] = fleet_racks[i].step_epoch();
  });
}

void Shard::run(std::size_t begin, std::size_t end,
                const std::function<void(std::size_t)>& fn) const {
  pool_->parallel_for(end - begin,
                      [&](std::size_t k) { fn(begin + k); });
}

std::vector<Shard> make_shards(std::size_t racks, std::size_t shards,
                               std::size_t threads) {
  const std::size_t count = std::clamp<std::size_t>(shards, 1, racks);
  std::vector<Shard> result;
  result.reserve(count);
  const std::size_t rack_base = racks / count;
  const std::size_t rack_rem = racks % count;
  const std::size_t thread_base = threads / count;
  const std::size_t thread_rem = threads % count;
  std::size_t first = 0;
  for (std::size_t s = 0; s < count; ++s) {
    const std::size_t span = rack_base + (s < rack_rem ? 1 : 0);
    const std::size_t slice =
        std::max<std::size_t>(1, thread_base + (s < thread_rem ? 1 : 0));
    result.emplace_back(first, span, slice);
    first += span;
  }
  return result;
}

}  // namespace greenhetero
