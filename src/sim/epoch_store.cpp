#include "sim/epoch_store.h"

#include <stdexcept>
#include <string>

#include "checkpoint/serializer.h"

namespace greenhetero {

void EpochRecordStore::reset(std::size_t racks) {
  racks_ = racks;
  start_.clear();
  training_.clear();
  source_case_.clear();
  predicted_.clear();
  actual_.clear();
  budget_.clear();
  throughput_.clear();
  epu_.clear();
  soc_.clear();
  discharge_.clear();
  charge_.clear();
  grid_.clear();
  shortfall_.clear();
  ratios_pool_.clear();
  ratio_end_.clear();
}

void EpochRecordStore::append_epoch(std::span<const EpochRecord> row) {
  if (row.size() != racks_) {
    throw std::invalid_argument(
        "epoch store: row holds " + std::to_string(row.size()) +
        " records but the store is sized for " + std::to_string(racks_) +
        " racks");
  }
  for (const EpochRecord& rec : row) {
    start_.push_back(rec.start.value());
    training_.push_back(rec.training ? 1 : 0);
    source_case_.push_back(static_cast<std::uint8_t>(rec.source_case));
    predicted_.push_back(rec.predicted_renewable.value());
    actual_.push_back(rec.actual_renewable.value());
    budget_.push_back(rec.budget.value());
    throughput_.push_back(rec.throughput);
    epu_.push_back(rec.epu);
    soc_.push_back(rec.battery_soc);
    discharge_.push_back(rec.battery_discharge.value());
    charge_.push_back(rec.battery_charge.value());
    grid_.push_back(rec.grid_power.value());
    shortfall_.push_back(rec.shortfall.value());
    ratios_pool_.insert(ratios_pool_.end(), rec.ratios.begin(),
                        rec.ratios.end());
    ratio_end_.push_back(static_cast<std::uint64_t>(ratios_pool_.size()));
  }
}

void EpochRecordStore::append(const EpochRecord& record) {
  append_epoch(std::span<const EpochRecord>(&record, 1));
}

EpochRecord EpochRecordStore::get(std::size_t rack, std::size_t epoch) const {
  const std::size_t i = slot(rack, epoch);
  EpochRecord rec;
  rec.start = Minutes{start_[i]};
  rec.training = training_[i] != 0;
  rec.source_case = static_cast<PowerCase>(source_case_[i]);
  rec.predicted_renewable = Watts{predicted_[i]};
  rec.actual_renewable = Watts{actual_[i]};
  rec.budget = Watts{budget_[i]};
  const std::size_t begin =
      i == 0 ? 0 : static_cast<std::size_t>(ratio_end_[i - 1]);
  const std::size_t end = static_cast<std::size_t>(ratio_end_[i]);
  rec.ratios.assign(ratios_pool_.begin() + static_cast<std::ptrdiff_t>(begin),
                    ratios_pool_.begin() + static_cast<std::ptrdiff_t>(end));
  rec.throughput = throughput_[i];
  rec.epu = epu_[i];
  rec.battery_soc = soc_[i];
  rec.battery_discharge = Watts{discharge_[i]};
  rec.battery_charge = Watts{charge_[i]};
  rec.grid_power = Watts{grid_[i]};
  rec.shortfall = Watts{shortfall_[i]};
  return rec;
}

void EpochRecordStore::fill_report(std::size_t rack,
                                   std::vector<EpochRecord>& out) const {
  const std::size_t n = epochs();
  out.reserve(out.size() + n);
  for (std::size_t e = 0; e < n; ++e) out.push_back(get(rack, e));
}

std::size_t EpochRecordStore::bytes() const {
  std::size_t total = 0;
  const auto count = [&total](const auto& column) {
    total += column.capacity() * sizeof(column[0]);
  };
  count(start_);
  count(training_);
  count(source_case_);
  count(predicted_);
  count(actual_);
  count(budget_);
  count(throughput_);
  count(epu_);
  count(soc_);
  count(discharge_);
  count(charge_);
  count(grid_);
  count(shortfall_);
  count(ratios_pool_);
  count(ratio_end_);
  return total;
}

template <class Self, class Io>
void EpochRecordStore::fields(Self& self, Io& io) {
  io.u64(self.racks_);
  io.f64_array(self.start_);
  io.u8_array(self.training_);
  io.u8_array(self.source_case_);
  io.f64_array(self.predicted_);
  io.f64_array(self.actual_);
  io.f64_array(self.budget_);
  io.f64_array(self.throughput_);
  io.f64_array(self.epu_);
  io.f64_array(self.soc_);
  io.f64_array(self.discharge_);
  io.f64_array(self.charge_);
  io.f64_array(self.grid_);
  io.f64_array(self.shortfall_);
  io.f64_array(self.ratios_pool_);
  io.seq(self.ratio_end_, [&io](auto& end) { io.u64(end); });
  if constexpr (Io::kLoading) {
    const std::size_t slots = self.start_.size();
    const bool aligned =
        (self.racks_ == 0 ? slots == 0 : slots % self.racks_ == 0) &&
        self.training_.size() == slots && self.source_case_.size() == slots &&
        self.predicted_.size() == slots && self.actual_.size() == slots &&
        self.budget_.size() == slots && self.throughput_.size() == slots &&
        self.epu_.size() == slots && self.soc_.size() == slots &&
        self.discharge_.size() == slots && self.charge_.size() == slots &&
        self.grid_.size() == slots && self.shortfall_.size() == slots &&
        self.ratio_end_.size() == slots;
    if (!aligned) {
      throw checkpoint::CheckpointError(
          "epoch store: column lengths disagree (corrupt snapshot)");
    }
    std::uint64_t prev = 0;
    for (std::uint64_t end : self.ratio_end_) {
      if (end < prev) {
        throw checkpoint::CheckpointError(
            "epoch store: ratio extents are not monotone");
      }
      prev = end;
    }
    if (prev != self.ratios_pool_.size()) {
      throw checkpoint::CheckpointError(
          "epoch store: ratio pool length disagrees with the extents");
    }
    for (std::uint8_t c : self.source_case_) {
      if (c > static_cast<std::uint8_t>(PowerCase::kGridFallback)) {
        throw checkpoint::CheckpointError("epoch store: bad power case " +
                                          std::to_string(c));
      }
    }
  }
}

GH_CHECKPOINT_FIELDS(EpochRecordStore);

}  // namespace greenhetero
