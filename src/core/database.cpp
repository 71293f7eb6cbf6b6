#include "core/database.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "checkpoint/serializer.h"
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

void PerfPowerDatabase::refit(ProfileRecord& record) const {
  record.fit = quadratic_fit(record.powers, record.perfs);
  record.min_power = Watts{*std::min_element(record.powers.begin(),
                                             record.powers.end())};
  record.max_power = Watts{*std::max_element(record.powers.begin(),
                                             record.powers.end())};
  record.refit_count += 1;
}

template <class Self, class Io>
void PerfPowerDatabase::fields(Self& self, Io& io) {
  io.u64(self.max_samples_);
  io.map(self.records_, [&io](auto& key, auto& record) {
    io.enum_i64(key.model, kServerModelCount, "database: server model");
    io.enum_i64(key.workload, kWorkloadCount, "database: workload");
    io.f64_array(record.powers);
    io.f64_array(record.perfs);
    io.u64(record.pinned);
    io.f64(record.fit.a);
    io.f64(record.fit.b);
    io.f64(record.fit.c);
    io.f64(record.min_power);
    io.f64(record.max_power);
    io.i64(record.refit_count);
  });
}

GH_CHECKPOINT_FIELDS(PerfPowerDatabase);

}  // namespace greenhetero
