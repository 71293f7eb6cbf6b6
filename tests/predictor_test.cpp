#include "core/predictor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/holt_lanes.h"
#include "trace/solar.h"
#include "util/rng.h"

namespace greenhetero {
namespace {

TEST(Holt, ParamValidation) {
  EXPECT_THROW(HoltPredictor(HoltParams{-0.1, 0.5}), PredictorError);
  EXPECT_THROW(HoltPredictor(HoltParams{0.5, 1.1}), PredictorError);
  EXPECT_NO_THROW(HoltPredictor(HoltParams{0.0, 1.0}));
}

TEST(Holt, NotReadyBeforeTwoObservations) {
  HoltPredictor p;
  EXPECT_FALSE(p.ready());
  EXPECT_THROW((void)p.predict(), PredictorError);
  p.observe(1.0);
  EXPECT_FALSE(p.ready());
  p.observe(2.0);
  EXPECT_TRUE(p.ready());
}

TEST(Holt, ConstantSeriesPredictsConstant) {
  HoltPredictor p(HoltParams{0.5, 0.3});
  for (int i = 0; i < 20; ++i) p.observe(100.0);
  EXPECT_NEAR(p.predict(), 100.0, 1e-9);
  EXPECT_NEAR(p.trend(), 0.0, 1e-9);
}

TEST(Holt, LinearTrendExtrapolates) {
  HoltPredictor p(HoltParams{0.8, 0.8});
  for (int i = 0; i < 50; ++i) p.observe(10.0 + 2.0 * i);
  // Next value should be ~10 + 2*50.
  EXPECT_NEAR(p.predict(), 110.0, 1.0);
}

TEST(HoltTraining, NeedsHistory) {
  const std::vector<double> tiny = {1.0, 2.0};
  EXPECT_THROW((void)train_holt(tiny), PredictorError);
  EXPECT_THROW((void)holt_sse(tiny, HoltParams{}), PredictorError);
}

TEST(HoltTraining, SseIsZeroForPerfectLine) {
  // With alpha = beta = 1, Holt tracks a perfect line exactly after warmup.
  std::vector<double> line;
  for (int i = 0; i < 20; ++i) line.push_back(5.0 + 3.0 * i);
  EXPECT_NEAR(holt_sse(line, HoltParams{1.0, 1.0}), 0.0, 1e-18);
}

TEST(HoltTraining, TrainedBeatsArbitraryParams) {
  // Noisy ramp: the trained parameters must achieve SSE no worse than a few
  // arbitrary candidates.
  std::vector<double> series;
  for (int i = 0; i < 60; ++i) {
    series.push_back(50.0 + 2.0 * i + 10.0 * std::sin(i * 0.7));
  }
  const HoltParams trained = train_holt(series);
  const double trained_sse = holt_sse(series, trained);
  for (const HoltParams candidate :
       {HoltParams{0.1, 0.9}, HoltParams{0.9, 0.1}, HoltParams{0.5, 0.5}}) {
    EXPECT_LE(trained_sse, holt_sse(series, candidate) + 1e-9);
  }
}

TEST(HoltTraining, TrainedParamsInRange) {
  std::vector<double> series;
  for (int i = 0; i < 30; ++i) series.push_back(100.0 + (i % 5));
  const HoltParams p = train_holt(series);
  EXPECT_GE(p.alpha, 0.0);
  EXPECT_LE(p.alpha, 1.0);
  EXPECT_GE(p.beta, 0.0);
  EXPECT_LE(p.beta, 1.0);
}

// train_holt as a one-candidate-at-a-time scan built on holt_sse — the
// scalar specification the lockstep-lane implementation must match bit for
// bit.  Kept verbatim, including the refinement whose loop bounds re-read
// the incumbent they update.
HoltParams reference_train_holt(std::span<const double> history,
                                int grid_steps) {
  if (history.size() < 3) {
    throw PredictorError("holt training: need at least 3 observations");
  }
  grid_steps = std::max(grid_steps, 4);
  HoltParams best{};
  double best_sse = holt_sse(history, best);
  const auto improves = [&](double sse) {
    return sse < best_sse - 1e-12 * (1.0 + best_sse);
  };
  const double step = 1.0 / grid_steps;
  for (int i = 0; i <= grid_steps; ++i) {
    for (int j = 0; j <= grid_steps; ++j) {
      const HoltParams candidate{i * step, j * step};
      const double sse = holt_sse(history, candidate);
      if (improves(sse)) {
        best_sse = sse;
        best = candidate;
      }
    }
  }
  const double fine = step / 8.0;
  for (double a = best.alpha - step; a <= best.alpha + step; a += fine) {
    for (double b = best.beta - step; b <= best.beta + step; b += fine) {
      if (a < 0.0 || a > 1.0 || b < 0.0 || b > 1.0) continue;
      const HoltParams candidate{a, b};
      const double sse = holt_sse(history, candidate);
      if (improves(sse)) {
        best_sse = sse;
        best = candidate;
      }
    }
  }
  return best;
}

// The same scan with the refinement window pinned to +-step around the grid
// winner — what a fixed-window reading of "refine around the best grid
// cell" would compute.
HoltParams fixed_window_train_holt(std::span<const double> history,
                                   int grid_steps) {
  HoltParams best{};
  double best_sse = holt_sse(history, best);
  const auto consider = [&](HoltParams candidate) {
    const double sse = holt_sse(history, candidate);
    if (sse < best_sse - 1e-12 * (1.0 + best_sse)) {
      best_sse = sse;
      best = candidate;
    }
  };
  const double step = 1.0 / grid_steps;
  for (int i = 0; i <= grid_steps; ++i) {
    for (int j = 0; j <= grid_steps; ++j) consider({i * step, j * step});
  }
  const HoltParams centre = best;
  const double fine = step / 8.0;
  for (double a = centre.alpha - step; a <= centre.alpha + step; a += fine) {
    for (double b = centre.beta - step; b <= centre.beta + step; b += fine) {
      if (a < 0.0 || a > 1.0 || b < 0.0 || b > 1.0) continue;
      consider({a, b});
    }
  }
  return best;
}

bool bitwise_equal(const HoltParams& x, const HoltParams& y) {
  return std::memcmp(&x.alpha, &y.alpha, sizeof(double)) == 0 &&
         std::memcmp(&x.beta, &y.beta, sizeof(double)) == 0;
}

// Random walk of `length` points with drift and noise drawn from `rng`;
// every third seed is clamped at 0 like a solar series overnight.
std::vector<double> walk(Rng& rng, std::uint64_t seed, int length) {
  const double drift = rng.uniform(-20.0, 20.0);
  const double noise = rng.uniform(1.0, 100.0);
  double value = rng.uniform(0.0, 1000.0);
  std::vector<double> series;
  for (int i = 0; i < length; ++i) {
    value += drift + rng.gaussian(0.0, noise);
    series.push_back(seed % 3 == 0 ? std::max(value, 0.0) : value);
  }
  return series;
}

// Seeded random walk of 3..200 points.
std::vector<double> random_walk(std::uint64_t seed) {
  Rng rng(seed);
  const int length = rng.uniform_int(3, 200);
  return walk(rng, seed, length);
}

// Seeded random walk of exactly `length` points.
std::vector<double> random_walk(std::uint64_t seed, int length) {
  Rng rng(seed);
  return walk(rng, seed, length);
}

std::vector<double> solar_week(bool low) {
  const PowerTrace trace = low ? low_solar_week(Watts{2500.0}, 3)
                               : high_solar_week(Watts{2500.0}, 3);
  std::vector<double> series;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    series.push_back(trace.sample(i).value());
  }
  return series;
}

TEST(HoltTraining, LaneKernelMatchesScalarScanBitwise) {
  std::vector<std::vector<double>> histories;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    histories.push_back(random_walk(seed));
  }
  // Every length from 3 to 40, so the replay's abandon check lands on,
  // before and after its last step.
  for (int length = 3; length <= 40; ++length) {
    histories.push_back(random_walk(1000 + length, length));
  }
  for (const bool low : {false, true}) {
    const std::vector<double> week = solar_week(low);
    for (std::size_t start = 0; start + 96 <= week.size(); start += 24) {
      histories.emplace_back(week.begin() + start, week.begin() + start + 96);
    }
  }
  // SSE multimodal in beta: an improvement early in a refinement block pulls
  // the row's bound below lanes already replayed, and a later lane in that
  // block would win if the fold did not re-check the live bound
  // (grid_steps 4).
  histories.push_back({-0.79179923669609575, 0.091702693477611286,
                       579.09370930140199, 0.95574262748313821,
                       -0.45347477278194992, -0.080039823454463255,
                       -448.56777556258987, 378.13151111327306,
                       -44.988000167348332, -927.69229997887601,
                       -0.20677244288806251, 0.028201092148701701,
                       -992.31644447879773});
  histories.push_back({-3.2963887911088881, -8.5568163939159305,
                       11.69417159046275, 9.1583748071784328,
                       9.3163737963735684, -0.19883657126681165,
                       -5.1576376307433973, -12.289673428530708,
                       -13.26848896561804, -15.488774328054619,
                       15.78717355991582, -17.70326999426203,
                       -23.938690352774788, -39.087726108509486,
                       40.716599136743213, -81.987234679930026});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  histories.push_back(std::vector<double>(96, 250.0));
  histories.push_back(std::vector<double>(96, 0.0));
  histories.push_back({0.0, 0.0, 0.0});
  histories.push_back({10.0, 12.0, nan, 15.0, 16.0, 18.0});
  histories.push_back({nan, 1.0, 2.0, 3.0});
  histories.push_back({1.0, 2.0, 3.0, nan});

  for (const int grid_steps : {4, 7, 20, 33}) {
    for (std::size_t h = 0; h < histories.size(); ++h) {
      const HoltParams expected =
          reference_train_holt(histories[h], grid_steps);
      ASSERT_TRUE(
          bitwise_equal(train_holt(histories[h], grid_steps), expected))
          << "history " << h << ", grid_steps " << grid_steps;
      // Every kernel version this host runs, not only the dispatched one.
      for (const holt_lanes::Isa isa : holt_lanes::supported()) {
        const HoltParams actual =
            holt_lanes::train(histories[h], grid_steps, isa);
        ASSERT_TRUE(bitwise_equal(actual, expected))
            << holt_lanes::to_string(isa) << ": history " << h << " ("
            << histories[h].size() << " points), grid_steps " << grid_steps
            << ": got (" << actual.alpha << ", " << actual.beta
            << "), expected (" << expected.alpha << ", " << expected.beta
            << ")";
      }
    }
  }
}

TEST(HoltTraining, AbandonFiresOnTheSolarWindow) {
  // The first day of the high-solar week (bench_predictor_micro's
  // train_holt_96_ns window): most candidate blocks fall behind the
  // incumbent well before the end of the window.  A kernel that never
  // abandons still trains bitwise correctly, so only this count catches it.
  const std::vector<double> week = solar_week(false);
  const std::vector<double> window(week.begin(), week.begin() + 96);
  for (const holt_lanes::Isa isa : holt_lanes::supported()) {
    holt_lanes::Stats stats;
    const HoltParams trained = holt_lanes::train(window, 20, isa, &stats);
    EXPECT_TRUE(bitwise_equal(trained, reference_train_holt(window, 20)))
        << holt_lanes::to_string(isa);
    EXPECT_GT(stats.replays, 0) << holt_lanes::to_string(isa);
    EXPECT_GT(stats.abandoned, 0) << holt_lanes::to_string(isa);
  }
}

TEST(HoltLanes, DispatchedVersionIsSupported) {
  const std::vector<holt_lanes::Isa> isas = holt_lanes::supported();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.front(), holt_lanes::Isa::kBaseline);
  EXPECT_EQ(isas.back(), holt_lanes::dispatched());
}

// A block of `size` candidates drawn from `rng`.
holt_lanes::Block random_block(Rng& rng, int size) {
  holt_lanes::Block block;
  for (int k = 0; k < size; ++k) {
    block.add(HoltParams{rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)});
  }
  return block;
}

TEST(HoltLanes, CompleteReplayIsHoltSseBitwise) {
  // An infinite limit keeps every finite lane live, so the replay runs to
  // the end and each lane's SSE is holt_sse's, at every length, block size
  // and kernel version.
  const double inf = std::numeric_limits<double>::infinity();
  Rng rng(77);
  for (const holt_lanes::Isa isa : holt_lanes::supported()) {
    for (int length = 3; length <= 40; ++length) {
      const std::vector<double> history = random_walk(2000 + length, length);
      for (const int size : {1, 5, holt_lanes::kLanes}) {
        holt_lanes::Block block = random_block(rng, size);
        EXPECT_EQ(holt_lanes::replay(isa, history, block, inf), length - 2);
        for (int k = 0; k < size; ++k) {
          const double expected =
              holt_sse(history, HoltParams{block.alpha[k], block.beta[k]});
          EXPECT_EQ(std::memcmp(&block.sse[k], &expected, sizeof(double)),
                    0)
              << holt_lanes::to_string(isa) << ": length " << length
              << ", lane " << k << ": " << block.sse[k] << " vs "
              << expected;
        }
      }
    }
  }
}

TEST(HoltLanes, LaneWhoseSseEqualsTheLimitNeverBeatsIt) {
  // Noisy points, then a straight line that alpha = beta = 1 tracks
  // exactly: that lane's partial SSE reaches its final value after a few
  // steps.  A limit equal to that value leaves the lane dead, so the replay
  // is abandoned at the first check after it, and the lane still does not
  // beat the limit.  One ulp above, the lane stays live to the end.
  const double inf = std::numeric_limits<double>::infinity();
  for (const holt_lanes::Isa isa : holt_lanes::supported()) {
    for (int length = 3; length <= 40; ++length) {
      std::vector<double> history = {40.0, -3.0, 17.0, 2.0};
      for (int i = 0; static_cast<int>(history.size()) < length; ++i) {
        history.push_back(5.0 + 3.0 * i);
      }
      history.resize(static_cast<std::size_t>(length));
      const HoltParams exact{1.0, 1.0};
      const double final_sse = holt_sse(history, exact);
      holt_lanes::Block block;
      block.add(exact);
      const int steps = holt_lanes::replay(isa, history, block, final_sse);
      EXPECT_FALSE(block.sse[0] < final_sse)
          << holt_lanes::to_string(isa) << ": length " << length;
      // The line is tracked exactly from history[6] on, after four replayed
      // steps, so the first check already sees the final SSE.
      static_assert(holt_lanes::kCheckEvery >= 4);
      EXPECT_EQ(steps, std::min(length - 2, holt_lanes::kCheckEvery))
          << holt_lanes::to_string(isa) << ": length " << length;
      block.sse[0] = 0.0;
      EXPECT_EQ(holt_lanes::replay(isa, history, block,
                                   std::nextafter(final_sse, inf)),
                length - 2);
      EXPECT_EQ(std::memcmp(&block.sse[0], &final_sse, sizeof(double)), 0)
          << holt_lanes::to_string(isa) << ": length " << length;
    }
  }
}

TEST(HoltLanes, NanLimitAbandonsAtTheFirstCheck) {
  // An incumbent whose SSE is NaN or infinite gives a NaN limit, which no
  // SSE beats: the replay stops at its first check.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Rng rng(5);
  for (const holt_lanes::Isa isa : holt_lanes::supported()) {
    for (int length = 3; length <= 40; ++length) {
      const std::vector<double> history = random_walk(3000 + length, length);
      holt_lanes::Block block = random_block(rng, holt_lanes::kLanes);
      EXPECT_EQ(holt_lanes::replay(isa, history, block, nan),
                std::min(length - 2, holt_lanes::kCheckEvery))
          << holt_lanes::to_string(isa) << ": length " << length;
    }
  }
}

TEST(HoltTraining, RefinementWindowFollowsTheIncumbent) {
  // The refinement's loop bounds re-read the incumbent, so an improvement
  // re-centres the rows still to come.  Find a history on which that
  // differs from a window pinned around the grid winner, and check that
  // train_holt keeps the incumbent-following result.
  int differing = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const std::vector<double> history = random_walk(seed);
    const HoltParams trained = train_holt(history);
    EXPECT_TRUE(bitwise_equal(trained, reference_train_holt(history, 20)))
        << "seed " << seed;
    if (!bitwise_equal(trained, fixed_window_train_holt(history, 20))) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0);
}

TEST(HoltOnSolar, ReasonableOneStepError) {
  // Holt on a real-ish solar day should track the diurnal ramp far better
  // than predicting zero, and at least as well as last-value on average.
  const std::vector<double> series = solar_week(/*low=*/false);
  const HoltParams params = train_holt(series);
  HoltPredictor holt(params);
  double holt_err = 0.0;
  double last_err = 0.0;  // last-value forecast: the previous sample
  int counted = 0;
  for (std::size_t i = 0; i < series.size(); ++i) {
    const double v = series[i];
    if (holt.ready()) {
      holt_err += std::fabs(holt.predict() - v);
      last_err += std::fabs(series[i - 1] - v);
      ++counted;
    }
    holt.observe(v);
  }
  ASSERT_GT(counted, 0);
  EXPECT_LT(holt_err, last_err * 1.05);
}

}  // namespace
}  // namespace greenhetero
