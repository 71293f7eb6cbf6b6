#include "server/server_sim.h"

#include <algorithm>

namespace greenhetero {

namespace {

DvfsLadder make_ladder(const ServerSpec& spec, const PerfCurve& curve) {
  return DvfsLadder{curve.idle_power(), curve.peak_power(), spec.dvfs_states};
}

}  // namespace

ServerSim::ServerSim(const ServerSpec& spec, PerfCurve curve)
    : spec_(spec), curve_(curve), ladder_(make_ladder(spec, curve)) {
  refresh_operating_point();
}

void ServerSim::set_curve(PerfCurve curve) {
  curve_ = curve;
  ladder_ = make_ladder(spec_, curve_);
  state_ = DvfsLadder::kOffState;
  refresh_operating_point();
}

int ServerSim::enforce_budget(Watts budget) {
  if (!online_) {
    move_to(DvfsLadder::kOffState);
  } else if (stuck_) {
    move_to(*stuck_);
  } else {
    move_to(ladder_.state_for_budget(budget + actuation_offset_));
  }
  return state_;
}

void ServerSim::run_full_speed() {
  if (!online_) {
    move_to(DvfsLadder::kOffState);
  } else if (stuck_) {
    move_to(*stuck_);
  } else {
    move_to(ladder_.operating_states());
  }
}

void ServerSim::power_off() { move_to(DvfsLadder::kOffState); }

void ServerSim::set_online(bool online) {
  online_ = online;
  if (!online_) move_to(DvfsLadder::kOffState);
}

void ServerSim::set_stuck_state(std::optional<int> state) {
  if (state) {
    stuck_ = std::clamp(*state, 0, ladder_.operating_states());
    if (online_) move_to(*stuck_);
  } else {
    stuck_.reset();
  }
}

void ServerSim::move_to(int state) {
  // RAPL re-enforces every server on every substep, mostly onto the state
  // it already holds: the cached operating point still stands then.
  if (state == state_) return;
  state_ = state;
  refresh_operating_point();
}

void ServerSim::refresh_operating_point() {
  draw_ = ladder_.state_power(state_);
  throughput_.reset();
}

void ServerSim::accumulate(Minutes dt) {
  energy_ += draw() * dt;
  work_ += throughput() * dt.value() / 60.0;
}

}  // namespace greenhetero
