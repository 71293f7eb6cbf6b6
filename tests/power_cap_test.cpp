#include "server/power_cap.h"

#include <gtest/gtest.h>

#include "workload/catalog.h"

namespace greenhetero {
namespace {

ServerSim make_server() {
  return ServerSim{
      server_spec(ServerModel::kCoreI5_4460),
      default_catalog().curve(ServerModel::kCoreI5_4460, Workload::kSpecJbb)};
}

constexpr Minutes kTick{0.05};  // 3-second control ticks

TEST(PowerCap, Validation) {
  EXPECT_THROW(PowerCapController(PowerCapConfig{Minutes{0.0}}),
               std::invalid_argument);
  ServerSim server = make_server();
  PowerCapController cap;
  EXPECT_THROW(cap.update(server, Watts{-1.0}, kTick), std::invalid_argument);
}

TEST(PowerCap, ConvergesToDirectEnforcement) {
  // After enough control ticks the feedback loop must settle on the same
  // state the one-shot SPC map would pick.
  for (double cap_w : {50.0, 70.0, 85.0, 96.0, 200.0}) {
    ServerSim direct = make_server();
    direct.enforce_budget(Watts{cap_w});
    const int expected = direct.state();

    ServerSim server = make_server();
    server.run_full_speed();
    PowerCapController cap;
    int state = 0;
    for (int i = 0; i < 100; ++i) {
      state = cap.update(server, Watts{cap_w}, kTick);
    }
    EXPECT_EQ(state, expected) << "cap " << cap_w;
  }
}

TEST(PowerCap, ThrottlesGraduallyNotInstantly) {
  ServerSim server = make_server();
  server.run_full_speed();
  const int start = server.state();
  PowerCapController cap;
  // One tick with a tight cap steps down exactly one state (RAPL ramps).
  cap.update(server, Watts{50.0}, kTick);
  EXPECT_EQ(server.state(), start - 1);
}

TEST(PowerCap, SteadyStateRespectsCap) {
  ServerSim server = make_server();
  server.run_full_speed();
  PowerCapController cap;
  for (int i = 0; i < 200; ++i) {
    cap.update(server, Watts{70.0}, kTick);
  }
  EXPECT_LE(server.draw().value(), 70.0 + 1e-9);
  EXPECT_LE(cap.windowed_average().value(), 70.0 + 1e-6);
}

TEST(PowerCap, RecoversWhenCapRises) {
  ServerSim server = make_server();
  server.run_full_speed();
  PowerCapController cap;
  for (int i = 0; i < 100; ++i) cap.update(server, Watts{60.0}, kTick);
  const int throttled = server.state();
  for (int i = 0; i < 200; ++i) cap.update(server, Watts{500.0}, kTick);
  EXPECT_GT(server.state(), throttled);
  EXPECT_EQ(server.state(), server.ladder().operating_states());
}

TEST(PowerCap, NoChatterAtTheBoundary) {
  // Pick a cap exactly on a state's power: with hysteresis the controller
  // must hold one state, not oscillate between two.
  ServerSim server = make_server();
  server.run_full_speed();
  PowerCapController cap{PowerCapConfig{Minutes{0.05}}};
  const Watts boundary = server.ladder().state_power(7);
  for (int i = 0; i < 100; ++i) cap.update(server, boundary, kTick);
  const int settled = server.state();
  int changes = 0;
  int previous = settled;
  for (int i = 0; i < 100; ++i) {
    const int s = cap.update(server, boundary, kTick);
    if (s != previous) ++changes;
    previous = s;
  }
  EXPECT_LE(changes, 1);
}

TEST(PowerCap, SubIdleCapForcesSleep) {
  ServerSim server = make_server();
  server.run_full_speed();
  PowerCapController cap;
  for (int i = 0; i < 50; ++i) {
    cap.update(server, Watts{10.0}, kTick);
  }
  EXPECT_EQ(server.state(), DvfsLadder::kOffState);
  EXPECT_DOUBLE_EQ(server.draw().value(), 0.0);
}

}  // namespace
}  // namespace greenhetero
