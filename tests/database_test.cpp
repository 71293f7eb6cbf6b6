#include "core/database.h"

#include <gtest/gtest.h>

#include <vector>

namespace greenhetero {
namespace {

constexpr ProfileKey kKey{ServerModel::kXeonE5_2620, Workload::kSpecJbb};

std::vector<ServerSample> quadratic_samples() {
  // Perf = -0.02 P^2 + 8 P - 300 sampled at five powers (a concave curve
  // like a training run would see).
  std::vector<ServerSample> samples;
  for (double p : {90.0, 110.0, 130.0, 150.0, 170.0}) {
    samples.push_back({Watts{p}, -0.02 * p * p + 8.0 * p - 300.0});
  }
  return samples;
}

TEST(Database, EmptyLookups) {
  PerfPowerDatabase db;
  EXPECT_FALSE(db.contains(kKey));
  EXPECT_EQ(db.size(), 0u);
  EXPECT_THROW((void)db.record(kKey), DatabaseError);
  EXPECT_THROW(db.add_runtime_sample(kKey, {Watts{100.0}, 1.0}),
               DatabaseError);
}

TEST(Database, TrainingSeedsRecord) {
  PerfPowerDatabase db;
  db.add_training_samples(kKey, quadratic_samples());
  ASSERT_TRUE(db.contains(kKey));
  const ProfileRecord& rec = db.record(kKey);
  EXPECT_EQ(rec.powers.size(), 5u);
  EXPECT_EQ(rec.pinned, 5u);
  EXPECT_DOUBLE_EQ(rec.min_power.value(), 90.0);
  EXPECT_DOUBLE_EQ(rec.max_power.value(), 170.0);
  EXPECT_NEAR(rec.fit.a, -0.02, 1e-9);
  EXPECT_NEAR(rec.fit.b, 8.0, 1e-6);
  EXPECT_NEAR(rec.fit.c, -300.0, 1e-4);
  EXPECT_EQ(rec.refit_count, 1);
}

TEST(Database, TrainingValidation) {
  PerfPowerDatabase db;
  std::vector<ServerSample> two = {{Watts{90.0}, 1.0}, {Watts{100.0}, 2.0}};
  EXPECT_THROW(db.add_training_samples(kKey, two), DatabaseError);
  std::vector<ServerSample> degenerate = {
      {Watts{90.0}, 1.0}, {Watts{90.0}, 1.1}, {Watts{90.0}, 0.9}};
  EXPECT_THROW(db.add_training_samples(kKey, degenerate), DatabaseError);
}

TEST(Database, ProjectionClamps) {
  PerfPowerDatabase db;
  db.add_training_samples(kKey, quadratic_samples());
  const ProfileRecord& rec = db.record(kKey);
  // Below operating range: zero (the server would sleep).
  EXPECT_DOUBLE_EQ(rec.projected_perf(Watts{50.0}), 0.0);
  // Within range: the fit.
  EXPECT_NEAR(rec.projected_perf(Watts{130.0}),
              -0.02 * 130.0 * 130.0 + 8.0 * 130.0 - 300.0, 1e-6);
  // Beyond range: flat at the max-power value.
  EXPECT_NEAR(rec.projected_perf(Watts{400.0}),
              rec.projected_perf(Watts{170.0}), 1e-9);
}

TEST(Database, PeakEfficiency) {
  PerfPowerDatabase db;
  db.add_training_samples(kKey, quadratic_samples());
  const ProfileRecord& rec = db.record(kKey);
  EXPECT_NEAR(rec.peak_efficiency(),
              rec.projected_perf(Watts{170.0}) / 170.0, 1e-12);
}

TEST(Database, RuntimeUpdateRefits) {
  PerfPowerDatabase db;
  db.add_training_samples(kKey, quadratic_samples());
  db.add_runtime_sample(kKey, {Watts{120.0}, -0.02 * 120 * 120 + 8 * 120 - 300});
  const ProfileRecord& rec = db.record(kKey);
  EXPECT_EQ(rec.powers.size(), 6u);
  EXPECT_EQ(rec.refit_count, 2);
}

TEST(Database, RuntimeUpdateExtendsRange) {
  PerfPowerDatabase db;
  db.add_training_samples(kKey, quadratic_samples());
  db.add_runtime_sample(kKey, {Watts{180.0}, 100.0});
  EXPECT_DOUBLE_EQ(db.record(kKey).max_power.value(), 180.0);
}

TEST(Database, EvictionSparesTrainingSamples) {
  PerfPowerDatabase db(8);
  db.add_training_samples(kKey, quadratic_samples());
  // 20 well-separated runtime powers (> the merge tolerance apart).
  for (int i = 0; i < 20; ++i) {
    db.add_runtime_sample(kKey, {Watts{100.0 + i * 3.0}, 500.0 + i});
  }
  const ProfileRecord& rec = db.record(kKey);
  EXPECT_EQ(rec.powers.size(), 8u);
  // Training samples (the first five) survive.
  EXPECT_DOUBLE_EQ(rec.powers[0], 90.0);
  EXPECT_DOUBLE_EQ(rec.powers[4], 170.0);
}

TEST(Database, NearbyRuntimeSamplesMerge) {
  PerfPowerDatabase db;
  db.add_training_samples(kKey, quadratic_samples());
  // Repeated feedback at (almost) one operating point must merge into one
  // smoothed sample instead of piling up.
  const std::size_t before = db.record(kKey).powers.size();
  db.add_runtime_sample(kKey, {Watts{140.0}, 500.0});
  db.add_runtime_sample(kKey, {Watts{140.2}, 520.0});
  db.add_runtime_sample(kKey, {Watts{139.9}, 480.0});
  const ProfileRecord& rec = db.record(kKey);
  EXPECT_EQ(rec.powers.size(), before + 1);
  // The merged perf is an EMA of the observations, between their extremes.
  EXPECT_GT(rec.perfs.back(), 480.0);
  EXPECT_LT(rec.perfs.back(), 520.0);
}

TEST(Database, NoisyUpdatesImproveFit) {
  // Seed with a noisy 5-point training run, then feed many samples across
  // the range: the refit must approach the true curve.
  const auto truth = [](double p) { return -0.02 * p * p + 8.0 * p - 300.0; };
  PerfPowerDatabase db;
  std::vector<ServerSample> noisy;
  const double bias[] = {+40.0, -35.0, +30.0, -25.0, +40.0};
  int i = 0;
  for (double p : {90.0, 110.0, 130.0, 150.0, 170.0}) {
    noisy.push_back({Watts{p}, truth(p) + bias[i++]});
  }
  db.add_training_samples(kKey, noisy);
  const double initial_err =
      std::abs(db.record(kKey).projected_perf(Watts{140.0}) - truth(140.0));
  for (int k = 0; k < 40; ++k) {
    const double p = 90.0 + 2.0 * k;
    db.add_runtime_sample(kKey, {Watts{p}, truth(p)});
  }
  const double final_err =
      std::abs(db.record(kKey).projected_perf(Watts{140.0}) - truth(140.0));
  EXPECT_LT(final_err, initial_err);
}

TEST(Database, KeysEnumeration) {
  PerfPowerDatabase db;
  db.add_training_samples(kKey, quadratic_samples());
  db.add_training_samples({ServerModel::kCoreI5_4460, Workload::kSpecJbb},
                          quadratic_samples());
  EXPECT_TRUE(db.contains(kKey));
  EXPECT_TRUE(db.contains({ServerModel::kCoreI5_4460, Workload::kSpecJbb}));
  EXPECT_FALSE(db.contains({ServerModel::kCoreI5_4460, Workload::kMcf}));
  EXPECT_EQ(db.size(), 2u);
}

TEST(Database, SampleCapValidation) {
  EXPECT_THROW(PerfPowerDatabase(4), DatabaseError);
}

}  // namespace
}  // namespace greenhetero
