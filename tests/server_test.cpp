#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <string>

#include "checkpoint/serializer.h"
#include "server/dvfs.h"
#include "server/perf_curve.h"
#include "server/server_sim.h"
#include "server/server_spec.h"
#include "util/rng.h"

namespace greenhetero {
namespace {

TEST(ServerSpec, TableTwoValues) {
  const ServerSpec& xeon = server_spec(ServerModel::kXeonE5_2620);
  EXPECT_EQ(xeon.name, "Xeon E5-2620");
  EXPECT_EQ(xeon.sockets, 2);
  EXPECT_EQ(xeon.cores, 12);
  EXPECT_DOUBLE_EQ(xeon.peak_power.value(), 178.0);
  EXPECT_DOUBLE_EQ(xeon.idle_power.value(), 88.0);
  EXPECT_FALSE(xeon.is_gpu);

  const ServerSpec& gpu = server_spec(ServerModel::kTitanXp);
  EXPECT_TRUE(gpu.is_gpu);
  EXPECT_DOUBLE_EQ(gpu.peak_power.value(), 411.0);
  EXPECT_DOUBLE_EQ(gpu.idle_power.value(), 149.0);
}

TEST(ServerSpec, AllSixConfigs) {
  EXPECT_EQ(all_server_specs().size(), 6u);
  for (const auto& spec : all_server_specs()) {
    EXPECT_GT(spec.peak_power.value(), spec.idle_power.value());
    EXPECT_GT(spec.cores, 0);
    EXPECT_GE(spec.dvfs_states, 2);
  }
}

TEST(Dvfs, StatePowersSpanRange) {
  const DvfsLadder ladder{Watts{50.0}, Watts{150.0}, 11};
  EXPECT_EQ(ladder.state_count(), 12);
  EXPECT_DOUBLE_EQ(ladder.state_power(DvfsLadder::kOffState).value(), 0.0);
  EXPECT_DOUBLE_EQ(ladder.state_power(1).value(), 50.0);
  EXPECT_DOUBLE_EQ(ladder.state_power(11).value(), 150.0);
  EXPECT_DOUBLE_EQ(ladder.state_power(6).value(), 100.0);
  EXPECT_THROW((void)ladder.state_power(12), DvfsError);
  EXPECT_THROW((void)ladder.state_power(-1), DvfsError);
}

TEST(Dvfs, BudgetMapping) {
  const DvfsLadder ladder{Watts{50.0}, Watts{150.0}, 11};
  // Below idle -> off.
  EXPECT_EQ(ladder.state_for_budget(Watts{49.9}), DvfsLadder::kOffState);
  // At idle -> lowest operating state.
  EXPECT_EQ(ladder.state_for_budget(Watts{50.0}), 1);
  // At/above peak -> top state.
  EXPECT_EQ(ladder.state_for_budget(Watts{150.0}), 11);
  EXPECT_EQ(ladder.state_for_budget(Watts{1000.0}), 11);
  // The chosen state never draws more than the budget.
  for (double budget = 0.0; budget <= 200.0; budget += 3.7) {
    const int state = ladder.state_for_budget(Watts{budget});
    EXPECT_LE(ladder.state_power(state).value(), budget + 1e-9);
  }
}

TEST(Dvfs, MappingIsMonotone) {
  const DvfsLadder ladder{Watts{40.0}, Watts{90.0}, 8};
  int prev = -1;
  for (double budget = 0.0; budget <= 120.0; budget += 0.5) {
    const int state = ladder.state_for_budget(Watts{budget});
    EXPECT_GE(state, prev);
    prev = state;
  }
}

TEST(Dvfs, InvalidConstruction) {
  EXPECT_THROW(DvfsLadder(Watts{50.0}, Watts{150.0}, 1), DvfsError);
  EXPECT_THROW(DvfsLadder(Watts{150.0}, Watts{50.0}, 5), DvfsError);
  EXPECT_THROW(DvfsLadder(Watts{-1.0}, Watts{50.0}, 5), DvfsError);
}

PerfCurveParams test_params() {
  PerfCurveParams p;
  p.idle_power = Watts{50.0};
  p.peak_power = Watts{150.0};
  p.peak_throughput = 1000.0;
  p.floor_fraction = 0.4;
  p.gamma = 0.8;
  return p;
}

TEST(PerfCurve, ClampedShape) {
  const PerfCurve curve{test_params()};
  EXPECT_DOUBLE_EQ(curve.throughput_at(Watts{0.0}), 0.0);
  EXPECT_DOUBLE_EQ(curve.throughput_at(Watts{49.9}), 0.0);
  EXPECT_DOUBLE_EQ(curve.throughput_at(Watts{50.0}), 400.0);  // floor
  EXPECT_DOUBLE_EQ(curve.throughput_at(Watts{150.0}), 1000.0);
  EXPECT_DOUBLE_EQ(curve.throughput_at(Watts{500.0}), 1000.0);  // saturated
}

TEST(PerfCurve, MonotoneNonDecreasing) {
  const PerfCurve curve{test_params()};
  double prev = -1.0;
  for (double p = 0.0; p <= 200.0; p += 1.0) {
    const double t = curve.throughput_at(Watts{p});
    EXPECT_GE(t, prev);
    prev = t;
  }
}

TEST(PerfCurve, ConcaveWithinRange) {
  const PerfCurve curve{test_params()};
  // Midpoint beats the chord for gamma < 1.
  const double mid = curve.throughput_at(Watts{100.0});
  const double chord = 0.5 * (curve.throughput_at(Watts{50.0}) +
                              curve.throughput_at(Watts{150.0}));
  EXPECT_GT(mid, chord);
}

TEST(PerfCurve, PeakEfficiency) {
  const PerfCurve curve{test_params()};
  EXPECT_NEAR(curve.peak_efficiency(), 1000.0 / 150.0, 1e-12);
}

TEST(PerfCurve, ValidationRejectsBadParams) {
  PerfCurveParams p = test_params();
  p.peak_power = Watts{40.0};
  EXPECT_THROW(PerfCurve{p}, CurveError);
  p = test_params();
  p.peak_throughput = 0.0;
  EXPECT_THROW(PerfCurve{p}, CurveError);
  p = test_params();
  p.floor_fraction = 1.0;
  EXPECT_THROW(PerfCurve{p}, CurveError);
  p = test_params();
  p.gamma = 0.0;
  EXPECT_THROW(PerfCurve{p}, CurveError);
}

TEST(ServerSim, EnforceBudgetPicksFittingState) {
  ServerSim server{server_spec(ServerModel::kCoreI5_4460),
                   PerfCurve{test_params()}};
  server.enforce_budget(Watts{100.0});
  EXPECT_LE(server.draw().value(), 100.0);
  EXPECT_GT(server.draw().value(), 0.0);
  EXPECT_GT(server.throughput(), 0.0);
}

TEST(ServerSim, BelowIdleSleeps) {
  ServerSim server{server_spec(ServerModel::kCoreI5_4460),
                   PerfCurve{test_params()}};
  server.enforce_budget(Watts{30.0});
  EXPECT_EQ(server.state(), DvfsLadder::kOffState);
  EXPECT_DOUBLE_EQ(server.draw().value(), 0.0);
  EXPECT_DOUBLE_EQ(server.throughput(), 0.0);
}

TEST(ServerSim, FullSpeedHitsPeak) {
  ServerSim server{server_spec(ServerModel::kCoreI5_4460),
                   PerfCurve{test_params()}};
  server.run_full_speed();
  EXPECT_DOUBLE_EQ(server.draw().value(), 150.0);
  EXPECT_DOUBLE_EQ(server.throughput(), 1000.0);
  server.power_off();
  EXPECT_DOUBLE_EQ(server.draw().value(), 0.0);
}

TEST(ServerSim, AccumulatesEnergyAndWork) {
  ServerSim server{server_spec(ServerModel::kCoreI5_4460),
                   PerfCurve{test_params()}};
  server.run_full_speed();
  server.accumulate(Minutes{30.0});
  EXPECT_DOUBLE_EQ(server.energy_used().value(), 75.0);
  EXPECT_DOUBLE_EQ(server.work_done(), 500.0);
}

TEST(ServerSim, SetCurveRebuildsLadder) {
  ServerSim server{server_spec(ServerModel::kCoreI5_4460),
                   PerfCurve{test_params()}};
  server.run_full_speed();
  PerfCurveParams p2 = test_params();
  p2.peak_power = Watts{80.0};
  server.set_curve(PerfCurve{p2});
  EXPECT_EQ(server.state(), DvfsLadder::kOffState);
  server.run_full_speed();
  EXPECT_DOUBLE_EQ(server.draw().value(), 80.0);
}

bool same_bits(double x, double y) {
  return std::memcmp(&x, &y, sizeof x) == 0;
}

/// The cached operating point must be bitwise what the ladder and the curve
/// give for the current state, whatever mutator moved it last.
void expect_operating_point_fresh(const ServerSim& server,
                                  const std::string& after) {
  const double want_draw = server.ladder().state_power(server.state()).value();
  const double want_throughput =
      server.state() == DvfsLadder::kOffState
          ? 0.0
          : server.curve().throughput_at(Watts{want_draw});
  EXPECT_TRUE(same_bits(server.draw().value(), want_draw))
      << "draw after " << after << ": " << server.draw().value() << " vs "
      << want_draw;
  EXPECT_TRUE(same_bits(server.throughput(), want_throughput))
      << "throughput after " << after << ": " << server.throughput()
      << " vs " << want_throughput;
}

TEST(ServerSim, CachedOperatingPointMatchesLadderAndCurveBitwise) {
  PerfCurveParams alt = test_params();
  alt.idle_power = Watts{35.0};
  alt.peak_power = Watts{95.0};
  alt.gamma = 0.55;
  const PerfCurve curves[] = {PerfCurve{test_params()}, PerfCurve{alt}};
  ServerSim server{server_spec(ServerModel::kCoreI5_4460), curves[0]};
  expect_operating_point_fresh(server, "construction");
  Rng rng{2024};
  for (int step = 0; step < 4000; ++step) {
    std::string op;
    switch (rng.uniform_int(0, 8)) {
      case 0:
      case 1:
        op = "enforce_budget";
        server.enforce_budget(Watts{rng.uniform(0.0, 180.0)});
        break;
      case 2:
        op = "run_full_speed";
        server.run_full_speed();
        break;
      case 3:
        op = "power_off";
        server.power_off();
        break;
      case 4:
        op = "set_online";
        server.set_online(rng.bernoulli(0.6));
        break;
      case 5:
        op = "set_stuck_state";
        server.set_stuck_state(
            rng.bernoulli(0.5) ? std::optional<int>(rng.uniform_int(-2, 20))
                               : std::nullopt);
        break;
      case 6:
        op = "set_actuation_offset + enforce_budget";
        server.set_actuation_offset(Watts{rng.uniform(-20.0, 20.0)});
        server.enforce_budget(Watts{rng.uniform(0.0, 180.0)});
        break;
      case 7:
        op = "set_curve";
        server.set_curve(curves[rng.uniform_int(0, 1)]);
        break;
      case 8: {
        op = "checkpoint save/load";
        checkpoint::Writer w;
        checkpoint::save(w, server);
        // Restore into a server whose cache holds another operating point.
        ServerSim restored{server.spec(), server.curve()};
        restored.run_full_speed();
        (void)restored.throughput();
        checkpoint::Reader r{w.buffer()};
        checkpoint::load(r, restored);
        server = restored;
        break;
      }
    }
    // Skip some reads so a stale lazy throughput would survive into the
    // next mutation.
    if (rng.bernoulli(0.7)) {
      expect_operating_point_fresh(server, op);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

}  // namespace
}  // namespace greenhetero
