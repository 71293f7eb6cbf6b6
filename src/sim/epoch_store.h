// Structure-of-arrays storage for completed EpochRecords.
//
// The flat fleet kept one std::vector<EpochRecord> per rack; at 10k racks a
// year-long run means 87.6M records, each carrying its own heap-allocated
// ratios vector — the allocator churn and per-record overhead, not the
// payload, are what blow the memory budget.  This store keeps the history
// as epoch-major column vectors (one contiguous double column per scalar
// field, one shared flat pool for the PAR ratios with per-record extents),
// so a record costs exactly its payload bytes and appending an epoch is a
// handful of bulk extends.
//
// Layout: slot(e, r) = e * racks + r.  Epoch-major keeps one epoch's row —
// the unit both the fleet loop and the checkpoint restore append — hot and
// contiguous.  Records are reconstructed on demand (get / fill_report); the
// store itself never hands out pointers, so growth never invalidates a
// caller.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/run_report.h"

namespace greenhetero {

class EpochRecordStore {
 public:
  /// Drop the history and fix the rack count (columns stride by it).
  void reset(std::size_t racks);

  [[nodiscard]] std::size_t racks() const { return racks_; }
  /// Completed epochs (every rack appends once per epoch).
  [[nodiscard]] std::size_t epochs() const {
    return racks_ == 0 ? 0 : start_.size() / racks_;
  }
  [[nodiscard]] bool empty() const { return start_.empty(); }

  /// Append one epoch across every rack; row[r] is rack r's record (its
  /// ratios are copied into the shared pool).  row.size() must equal
  /// racks().
  void append_epoch(std::span<const EpochRecord> row);
  /// Single-rack convenience (racks() == 1): append one record.
  void append(const EpochRecord& record);

  /// Reconstruct one record.
  [[nodiscard]] EpochRecord get(std::size_t rack, std::size_t epoch) const;
  /// Append every completed epoch of one rack to `out`, first to last —
  /// how RunReport::epochs is assembled at report time.
  void fill_report(std::size_t rack, std::vector<EpochRecord>& out) const;

  /// Bytes currently reserved by the columns and the ratio pool (the
  /// bench-gated "peak buffer" figure).
  [[nodiscard]] std::size_t bytes() const;

  /// Checkpoint the full history as bulk column arrays.
  template <class Self, class Io>
  static void fields(Self& self, Io& io);

 private:
  [[nodiscard]] std::size_t slot(std::size_t rack, std::size_t epoch) const {
    return epoch * racks_ + rack;
  }

  std::size_t racks_ = 0;
  // One column per EpochRecord scalar field, indexed by slot().
  std::vector<double> start_;
  std::vector<std::uint8_t> training_;
  std::vector<std::uint8_t> source_case_;
  std::vector<double> predicted_;
  std::vector<double> actual_;
  std::vector<double> budget_;
  std::vector<double> throughput_;
  std::vector<double> epu_;
  std::vector<double> soc_;
  std::vector<double> discharge_;
  std::vector<double> charge_;
  std::vector<double> grid_;
  std::vector<double> shortfall_;
  // PAR ratios: one shared pool, per-slot end offsets (slot i's ratios are
  // pool[end[i-1] .. end[i]), slot 0 starting at 0).
  std::vector<double> ratios_pool_;
  std::vector<std::uint64_t> ratio_end_;
};

}  // namespace greenhetero
