#include "core/database.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <string>

#include "telemetry/telemetry.h"

namespace greenhetero {

namespace {

/// gh_db_samples_total's `kind` label, in catalog order.
enum class SampleKind { kTraining, kRuntime };

void count_db_event(SampleKind kind) {
  if (telemetry::Telemetry* t = telemetry::current()) {
    t->metrics().counter("gh_db_samples_total", kind).increment();
  }
}

}  // namespace

double ProfileRecord::projected_perf(Watts p) const {
  if (p.value() < min_power.value()) return 0.0;
  const double x = std::min(p.value(), max_power.value());
  const double projected = fit(x);
  return std::max(projected, 0.0);
}

double ProfileRecord::peak_efficiency() const {
  if (max_power.value() <= 0.0) return 0.0;
  return projected_perf(max_power) / max_power.value();
}

PerfPowerDatabase::PerfPowerDatabase(std::size_t max_samples_per_record)
    : max_samples_(max_samples_per_record) {
  if (max_samples_ < 8) {
    throw DatabaseError("database: sample cap must be at least 8");
  }
}

bool PerfPowerDatabase::contains(ProfileKey key) const {
  return records_.contains(key);
}

const ProfileRecord& PerfPowerDatabase::record(ProfileKey key) const {
  const auto it = records_.find(key);
  if (it == records_.end()) {
    throw DatabaseError("database: unknown (server, workload) key");
  }
  return it->second;
}

void PerfPowerDatabase::add_training_samples(
    ProfileKey key, std::span<const ServerSample> samples) {
  if (samples.size() < 3) {
    throw DatabaseError("database: training run must yield >= 3 samples");
  }
  std::set<long long> distinct;
  for (const auto& s : samples) {
    distinct.insert(std::llround(s.power.value() * 100.0));
  }
  if (distinct.size() < 3) {
    throw DatabaseError(
        "database: training samples must span >= 3 distinct powers");
  }
  ProfileRecord record;
  for (const auto& s : samples) {
    record.powers.push_back(s.power.value());
    record.perfs.push_back(s.throughput);
  }
  record.pinned = record.powers.size();
  refit(record);
  records_[key] = std::move(record);
  count_db_event(SampleKind::kTraining);
}

void PerfPowerDatabase::add_runtime_sample(ProfileKey key,
                                           const ServerSample& sample) {
  const auto it = records_.find(key);
  if (it == records_.end()) {
    throw DatabaseError("database: runtime sample for unknown key");
  }
  ProfileRecord& record = it->second;
  count_db_event(SampleKind::kRuntime);

  // Merge into a nearby existing *runtime* sample when one exists.
  const double range = record.max_power.value() - record.min_power.value();
  const double tolerance = std::max(0.01 * range, 0.25);
  for (std::size_t i = record.pinned; i < record.powers.size(); ++i) {
    if (std::fabs(record.powers[i] - sample.power.value()) <= tolerance) {
      constexpr double kEma = 0.3;
      record.powers[i] += kEma * (sample.power.value() - record.powers[i]);
      record.perfs[i] += kEma * (sample.throughput - record.perfs[i]);
      refit(record);
      return;
    }
  }

  record.powers.push_back(sample.power.value());
  record.perfs.push_back(sample.throughput);
  if (record.powers.size() > max_samples_) {
    // Evict the oldest non-pinned sample.
    const auto victim = static_cast<std::ptrdiff_t>(record.pinned);
    record.powers.erase(record.powers.begin() + victim);
    record.perfs.erase(record.perfs.begin() + victim);
  }
  refit(record);
}

std::vector<ProfileKey> PerfPowerDatabase::keys() const {
  std::vector<ProfileKey> result;
  result.reserve(records_.size());
  for (const auto& [key, record] : records_) {
    result.push_back(key);
  }
  return result;
}

CsvTable PerfPowerDatabase::to_csv() const {
  CsvTable table({"server", "workload", "pinned", "power_w", "perf"});
  for (const auto& [key, record] : records_) {
    for (std::size_t i = 0; i < record.powers.size(); ++i) {
      table.add_row({std::string(server_spec(key.model).name),
                     std::string(workload_spec(key.workload).name),
                     i < record.pinned ? "1" : "0",
                     std::to_string(record.powers[i]),
                     std::to_string(record.perfs[i])});
    }
  }
  return table;
}

PerfPowerDatabase PerfPowerDatabase::from_csv(
    const CsvTable& table, std::size_t max_samples_per_record) {
  PerfPowerDatabase db(max_samples_per_record);
  const std::size_t server_col = table.column_index("server");
  const std::size_t workload_col = table.column_index("workload");
  const std::size_t pinned_col = table.column_index("pinned");
  const std::size_t power_col = table.column_index("power_w");
  const std::size_t perf_col = table.column_index("perf");
  for (std::size_t r = 0; r < table.row_count(); ++r) {
    const ProfileKey key{server_model_by_name(table.cell(r, server_col)),
                         workload_by_name(table.cell(r, workload_col))};
    ProfileRecord& record = db.records_[key];
    const bool pinned = table.number(r, pinned_col) != 0.0;
    if (pinned) {
      // Pinned rows are serialised first (map order is stable); enforce it.
      if (record.pinned != record.powers.size()) {
        throw DatabaseError(
            "database csv: pinned sample after runtime samples");
      }
      record.pinned += 1;
    }
    record.powers.push_back(table.number(r, power_col));
    record.perfs.push_back(table.number(r, perf_col));
  }
  for (auto it = db.records_.begin(); it != db.records_.end(); ++it) {
    if (it->second.powers.size() < 3) {
      throw DatabaseError("database csv: record with fewer than 3 samples");
    }
    db.refit(it->second);
  }
  return db;
}

void PerfPowerDatabase::save(const std::filesystem::path& path) const {
  to_csv().save(path);
}

PerfPowerDatabase PerfPowerDatabase::load(
    const std::filesystem::path& path, std::size_t max_samples_per_record) {
  return from_csv(CsvTable::load(path), max_samples_per_record);
}

void PerfPowerDatabase::refit(ProfileRecord& record) const {
  record.fit = quadratic_fit(record.powers, record.perfs);
  record.min_power = Watts{*std::min_element(record.powers.begin(),
                                             record.powers.end())};
  record.max_power = Watts{*std::max_element(record.powers.begin(),
                                             record.powers.end())};
  record.refit_count += 1;
}

void PerfPowerDatabase::save_state(checkpoint::Writer& w) const {
  w.u64(max_samples_);
  w.seq(records_.size());
  for (const auto& [key, record] : records_) {
    w.i64(static_cast<std::int64_t>(key.model));
    w.i64(static_cast<std::int64_t>(key.workload));
    checkpoint::save(w, record.powers);
    checkpoint::save(w, record.perfs);
    w.u64(record.pinned);
    w.f64(record.fit.a);
    w.f64(record.fit.b);
    w.f64(record.fit.c);
    w.f64(record.min_power.value());
    w.f64(record.max_power.value());
    w.i64(record.refit_count);
  }
}

void PerfPowerDatabase::load_state(checkpoint::Reader& r) {
  max_samples_ = static_cast<std::size_t>(r.u64());
  records_.clear();
  const std::size_t count = r.seq();
  for (std::size_t i = 0; i < count; ++i) {
    ProfileKey key{static_cast<ServerModel>(r.i64()),
                   static_cast<Workload>(r.i64())};
    ProfileRecord record;
    checkpoint::load(r, record.powers);
    checkpoint::load(r, record.perfs);
    record.pinned = static_cast<std::size_t>(r.u64());
    record.fit.a = r.f64();
    record.fit.b = r.f64();
    record.fit.c = r.f64();
    record.min_power = Watts{r.f64()};
    record.max_power = Watts{r.f64()};
    record.refit_count = static_cast<int>(r.i64());
    records_.emplace(key, std::move(record));
  }
}

}  // namespace greenhetero
