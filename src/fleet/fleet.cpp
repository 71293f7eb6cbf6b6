#include "fleet/fleet.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>

#include "check/invariants.h"
#include "telemetry/metrics.h"
#include "util/atomic_file.h"

namespace greenhetero {

// Inside Fleet's members the telemetry() accessor shadows the nested
// namespace name; this alias keeps the free functions reachable.
namespace tel = telemetry;

std::string to_string(GridShareMode mode) {
  switch (mode) {
    case GridShareMode::kStatic:
      return "static";
    case GridShareMode::kDemandProportional:
      return "demand-proportional";
  }
  return "GridShareMode(" + std::to_string(static_cast<int>(mode)) + ")";
}

std::vector<Watts> divide_grid_budget(Watts budget,
                                      std::span<const double> deficits) {
  if (deficits.empty()) return {};
  // Hoisted: every rack of an equal split gets the same bit pattern.
  const Watts equal_share = budget / static_cast<double>(deficits.size());
  // The normalizer is the rack-order fold of the clamped deficits, so the
  // shares never depend on how the deficit vector was filled.
  bool proportional = true;
  double total = 0.0;
  for (double d : deficits) {
    if (!std::isfinite(d)) {
      proportional = false;
      break;
    }
    total += std::max(0.0, d);
  }
  if (!std::isfinite(total) || total <= 1e-9) proportional = false;
  std::vector<Watts> shares;
  shares.reserve(deficits.size());
  for (double d : deficits) {
    shares.push_back(proportional ? budget * (std::max(0.0, d) / total)
                                  : equal_share);
  }
  return shares;
}

void FleetConfig::validate() const {
  if (!std::isfinite(total_grid_budget.value()) ||
      total_grid_budget.value() < 0.0) {
    throw FleetError("fleet: grid budget must be finite and non-negative");
  }
  if (const std::string_view reason = invalid_reason(); !reason.empty()) {
    throw FleetError("fleet: " + std::string(reason));
  }
}

Fleet::Fleet(std::vector<RackSimulator> racks, FleetConfig config)
    : racks_(std::move(racks)), config_(config) {
  config_.validate();
  if (racks_.empty()) {
    throw FleetError("fleet: needs at least one rack");
  }
  const double epoch = racks_.front().controller().config().epoch.value();
  for (std::size_t i = 0; i < racks_.size(); ++i) {
    const double other = racks_[i].controller().config().epoch.value();
    // Relative tolerance: an absolute 1e-9 would spuriously reject long
    // epochs whose representable values differ only in the last ulp.
    const double tolerance =
        1e-9 * std::max({1.0, std::fabs(epoch), std::fabs(other)});
    if (std::fabs(other - epoch) > tolerance) {
      throw FleetError("fleet: all racks must share one epoch length: rack 0"
                       " uses " +
                       tel::format_number(epoch) + " min but rack " +
                       std::to_string(i) + " uses " +
                       tel::format_number(other) + " min");
    }
  }
  threads_ = config_.threads == 0 ? util::ThreadPool::hardware_threads()
                                  : config_.threads;
  const std::size_t shard_count =
      config_.shards == 0
          ? std::min(racks_.size(), std::max<std::size_t>(1, threads_))
          : config_.shards;
  shards_ = make_shards(racks_.size(), shard_count, threads_);
  shard_pool_ = std::make_unique<util::ThreadPool>(
      std::min(shards_.size(), threads_));
  config_.telemetry.rack_id = -1;  // coordinator events
  telemetry_ = std::make_unique<Telemetry>(config_.telemetry);
  // The merged sink reads every rack's events; without it only a flight
  // recorder does (each rack derived that from its own config).  Span wall
  // times are read through the fleet's own metrics file and checkpoints, so
  // every rack takes its flag from the fleet's run knobs.
  const bool streamed = config_.trace_stream.has_value();
  telemetry_->set_traced(streamed || !config_.telemetry.flightrec_dir.empty());
  telemetry_->set_timed(config_.keeps_wall_times(config_.telemetry));
  for (std::size_t i = 0; i < racks_.size(); ++i) {
    Telemetry& rack = racks_[i].telemetry();
    rack.set_rack_id(static_cast<int>(i));
    if (streamed) rack.set_traced(true);
    rack.set_timed(config_.keeps_wall_times(rack.config()));
  }
  driver_ = EpochDriver{PayloadKind::kFleet, config_, *telemetry_};
  records_.resize(racks_.size());
  rack_labels_.reserve(racks_.size());
  rack_label_order_.resize(racks_.size());
  for (std::size_t i = 0; i < racks_.size(); ++i) {
    rack_labels_.emplace_back(i);
    rack_label_order_[i] = i;
  }
  std::sort(rack_label_order_.begin(), rack_label_order_.end(),
            [this](std::size_t a, std::size_t b) {
              return rack_labels_[a].value() < rack_labels_[b].value();
            });
}

RackSimulator& Fleet::rack(std::size_t i) {
  if (i >= racks_.size()) {
    throw FleetError("fleet: rack index out of range");
  }
  return racks_[i];
}

void Fleet::pretrain() {
  for (RackSimulator& rack : racks_) rack.pretrain();
}

std::vector<Watts> Fleet::plan_grid_shares() const {
  const Watts budget = config_.total_grid_budget;
  if (config_.mode == GridShareMode::kStatic) {
    return std::vector<Watts>(racks_.size(),
                              budget / static_cast<double>(racks_.size()));
  }
  // Demand-proportional: each shard fills its slice of the per-rack deficit
  // vector on its own pool; the division runs once, on the whole vector.
  const Minutes epoch = racks_.front().controller().config().epoch;
  std::vector<double> deficits(racks_.size());
  shard_pool_->parallel_for(shards_.size(), [&](std::size_t s) {
    shards_[s].fill_deficits(racks_, epoch, deficits);
  });
  return divide_grid_budget(budget, deficits);
}

FleetReport Fleet::run(Minutes duration) {
  const Minutes epoch = racks_.front().controller().config().epoch;
  FleetReport report;
  report.interrupted = driver_.run(
      *this,
      static_cast<std::size_t>(std::llround(duration.value() / epoch.value())));
  report.peak_grid_allocation = peak_grid_allocation_;
  report.racks.resize(racks_.size());
  for_each_rack([&](std::size_t i) {
    RunReport& r = report.racks[i];
    history_.fill_report(i, r.epochs);
    r.interrupted = report.interrupted;
    r.ledger = racks_[i].ledger();
    r.total_work = racks_[i].rack().total_work();
    r.overall_epu = racks_[i].overall_epu();
    r.battery_cycles = racks_[i].plant().battery().equivalent_cycles();
    r.grid_cost = racks_[i].plant().grid().total_cost();
    r.grid_energy = racks_[i].plant().grid().total_energy();
  });
  // The fleet totals fold in rack order, as they always have.
  for (const RunReport& r : report.racks) {
    report.total_work += r.total_work;
    report.grid_energy += r.grid_energy;
    report.grid_cost += r.grid_cost;
  }
  report.metrics = telemetry_->metrics().snapshot();
  return report;
}

std::size_t Fleet::advance_epoch(std::size_t e) {
  const Minutes epoch = racks_.front().controller().config().epoch;
  // Planning happens strictly between epochs: every rack has finished the
  // previous step (the per-shard barriers have all cleared), so the shares
  // are computed from a consistent fleet snapshot no matter how many
  // threads or shards run.
  shares_ = plan_grid_shares();
  if (config_.check) {
    check::InvariantChecker::check_grid_shares(
        shares_, config_.total_grid_budget, racks_.front().now().value(),
        static_cast<long>(e));
  }
  Watts allocated{0.0};
  for (std::size_t i = 0; i < racks_.size(); ++i) {
    allocated += shares_[i];
  }
  // Two-level fan-out: the coordinator runs one task per shard; each
  // shard steps its own racks behind its local barrier.  Which pool a
  // rack lands on never changes its arithmetic, so the records are
  // byte-identical at any --threads/--shards combination.
  shard_pool_->parallel_for(shards_.size(), [&](std::size_t s) {
    shards_[s].step(racks_, shares_, records_);
  });
  history_.append_epoch(records_);
  peak_grid_allocation_ = max(peak_grid_allocation_, allocated);
  if (config_.telemetry.enabled) {
    telemetry_->set_now(racks_.front().now() - epoch);
    telemetry_->metrics().counter("gh_fleet_epochs_total").increment();
    if (telemetry_->traced()) {
      std::vector<double> share_w;
      share_w.reserve(shares_.size());
      for (Watts w : shares_) share_w.push_back(w.value());
      telemetry_->emit("grid_share",
                       {{"mode", to_string(config_.mode)},
                        {"total_budget_w", config_.total_grid_budget.value()},
                        {"allocated_w", allocated.value()},
                        {"shares_w", std::move(share_w)}});
    }
  }
  return racks_.size();
}

void Fleet::restart_history() {
  history_.reset(racks_.size());
  peak_grid_allocation_ = Watts{0.0};
}

void Fleet::flush_rollup() {
  for (RackSimulator& rack : racks_) rack.flush_rollup();
}

void Fleet::for_each_rack(const std::function<void(std::size_t)>& fn) const {
  shard_pool_->parallel_for(shards_.size(), [&](std::size_t s) {
    const Shard& shard = shards_[s];
    shard.run(shard.first_rack(), shard.first_rack() + shard.racks(), fn);
  });
}

void Fleet::parallel_for(std::size_t n,
                         const std::function<void(std::size_t)>& fn) const {
  const std::size_t count = shards_.size();
  shard_pool_->parallel_for(count, [&](std::size_t s) {
    shards_[s].run(n * s / count, n * (s + 1) / count, fn);
  });
}

MetricsSnapshot Fleet::metrics_snapshot() const {
  return tel::merged_snapshot(
      metrics_sources(),
      [this](std::size_t n, const std::function<void(std::size_t)>& fn) {
        parallel_for(n, fn);
      });
}

std::vector<tel::MetricsSource> Fleet::metrics_sources() const {
  std::vector<tel::MetricsSource> sources;
  sources.reserve(racks_.size() + 1);
  sources.push_back({&telemetry_->metrics()});
  for (std::size_t i : rack_label_order_) {
    sources.push_back({&racks_[i].telemetry().metrics(), &rack_labels_[i]});
  }
  return sources;
}

tel::ProfileReport Fleet::profile_report() const {
  // Coordinator first, then racks in ascending order: the merge is keyed by
  // phase path (a std::map), so the result is the same set either way, but
  // fixing the order keeps call counts deterministic even if a future node
  // field becomes order-sensitive.
  tel::ProfileReport merged = telemetry_->profiler().report();
  for (const RackSimulator& rack : racks_) {
    tel::merge_profile(merged, rack.telemetry().profiler().report());
  }
  return merged;
}

void Fleet::write_chrome_spans(std::ostream& out) const {
  std::vector<tel::SpanRecord> merged;
  for (const tel::SpanRecord& s : telemetry_->spans().records()) {
    merged.push_back(s);
  }
  for (const RackSimulator& rack : racks_) {
    for (const tel::SpanRecord& s : rack.telemetry().spans().records()) {
      merged.push_back(s);
    }
  }
  tel::write_chrome_trace(out, merged);
}

void Fleet::save_chrome_spans(const std::filesystem::path& path) const {
  std::ostringstream out;
  write_chrome_spans(out);
  try {
    util::write_file_atomic(path, out.str());
  } catch (const util::AtomicWriteError& e) {
    throw FleetError("fleet: cannot write spans output file: " +
                     std::string(e.what()));
  }
}

void Fleet::write_rollup_jsonl(std::ostream& out) const {
  out << tel::trace_header_json() << '\n';
  struct Row {
    const tel::RollupWindow* window;
    int rack;
  };
  std::vector<Row> rows;
  for (std::size_t i = 0; i < racks_.size(); ++i) {
    const tel::Rollup& rollup = racks_[i].telemetry().rollup();
    for (const tel::RollupWindow& w : rollup.windows()) {
      rows.push_back({&w, static_cast<int>(i)});
    }
  }
  std::stable_sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.window->start_min != b.window->start_min) {
      return a.window->start_min < b.window->start_min;
    }
    return a.rack < b.rack;
  });
  std::string lines;
  for (const Row& row : rows) {
    tel::append_rollup_line(lines, *row.window, row.rack);
  }
  out << lines;
}

void Fleet::save_rollup_jsonl(const std::filesystem::path& path) const {
  std::ostringstream out;
  write_rollup_jsonl(out);
  try {
    util::write_file_atomic(path, out.str());
  } catch (const util::AtomicWriteError& e) {
    throw FleetError("fleet: cannot write rollup output file: " +
                     std::string(e.what()));
  }
}

std::vector<std::filesystem::path> Fleet::dump_flight_records(
    std::string_view reason) {
  std::vector<std::filesystem::path> paths;
  for (RackSimulator& rack : racks_) {
    std::filesystem::path path = rack.dump_flight_record(reason);
    if (!path.empty()) paths.push_back(std::move(path));
  }
  return paths;
}

void Fleet::save_chunks(std::vector<checkpoint::Writer>& chunks) const {
  checkpoint::Writer& head = chunks.emplace_back();
  head.fixed_count(racks_.size(), "fleet snapshot: rack count");
  checkpoint::save(head, *telemetry_);
  head.f64(peak_grid_allocation_);
  const std::size_t first = chunks.size();
  chunks.resize(first + racks_.size());
  for_each_rack(
      [&](std::size_t i) { checkpoint::save(chunks[first + i], racks_[i]); });
  // The history's SoA columns are topology-agnostic (rack-major within each
  // epoch row, no shard geometry), so a snapshot taken under any --shards
  // value restores into any other.
  checkpoint::save(chunks.emplace_back(), history_);
}

void Fleet::load_state(checkpoint::Reader& r) {
  r.fixed_count(racks_.size(), "fleet snapshot: rack count");
  checkpoint::load(r, *telemetry_);
  r.f64(peak_grid_allocation_);
  for (RackSimulator& rack : racks_) checkpoint::load(r, rack);
  checkpoint::load(r, history_);
  if (history_.racks() != racks_.size()) {
    throw checkpoint::CheckpointError(
        "fleet snapshot's epoch history covers " +
        std::to_string(history_.racks()) + " racks but this fleet has " +
        std::to_string(racks_.size()));
  }
}

std::uint64_t Fleet::trace_dropped() const {
  std::uint64_t dropped = telemetry_->trace().dropped();
  for (const RackSimulator& rack : racks_) {
    dropped += rack.telemetry().trace().dropped();
  }
  return dropped;
}

void Fleet::push_trace(tel::StreamingTraceSink* sink, bool final) {
  // No pool thread is running, so the rings are quiescent.
  if (sink == nullptr) {
    telemetry_->trace().lines().clear();
    for (RackSimulator& rack : racks_) rack.telemetry().trace().lines().clear();
    return;
  }
  std::vector<tel::TraceLines*> rings;
  rings.reserve(racks_.size() + 1);
  rings.push_back(&telemetry_->trace().lines());
  for (RackSimulator& rack : racks_) {
    rings.push_back(&rack.telemetry().trace().lines());
  }
  // At an epoch barrier every event of the finished epoch is stamped before
  // the next epoch's start, so the merge can flush up to that watermark;
  // the final hand-off flushes the tail past every timestamp.
  sink->push_merge(rings, final ? std::numeric_limits<double>::infinity()
                                : racks_.front().now().value());
}

}  // namespace greenhetero
