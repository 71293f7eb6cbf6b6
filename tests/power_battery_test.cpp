#include "power/battery.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "checkpoint/serializer.h"
#include "util/rng.h"

namespace greenhetero {
namespace {

BatterySpec paper_spec() {
  BatterySpec spec;
  spec.capacity = WattHours{12000.0};
  spec.depth_of_discharge = 0.4;
  spec.round_trip_efficiency = 0.8;
  spec.max_charge_power = Watts{2000.0};
  spec.max_discharge_power = Watts{3000.0};
  spec.rated_cycles = 1300;
  return spec;
}

TEST(BatterySpec, FloorEnergy) {
  // 40% DoD on 12 kWh: usable down to 7.2 kWh.
  EXPECT_DOUBLE_EQ(paper_spec().floor_energy().value(), 7200.0);
}

TEST(BatterySpec, ValidationRejectsBadValues) {
  BatterySpec s = paper_spec();
  s.capacity = WattHours{0.0};
  EXPECT_THROW(Battery{s}, BatteryError);
  s = paper_spec();
  s.depth_of_discharge = 0.0;
  EXPECT_THROW(Battery{s}, BatteryError);
  s = paper_spec();
  s.depth_of_discharge = 1.5;
  EXPECT_THROW(Battery{s}, BatteryError);
  s = paper_spec();
  s.round_trip_efficiency = 0.0;
  EXPECT_THROW(Battery{s}, BatteryError);
  s = paper_spec();
  s.rated_cycles = 0;
  EXPECT_THROW(Battery{s}, BatteryError);
}

TEST(Battery, StartsFull) {
  const Battery b{paper_spec()};
  EXPECT_DOUBLE_EQ(b.soc(), 1.0);
  EXPECT_TRUE(b.full());
  EXPECT_FALSE(b.at_floor());
}

TEST(Battery, DischargeRemovesEnergy) {
  Battery b{paper_spec()};
  // 1200 W for 60 min = 1200 Wh.
  const WattHours delivered = b.discharge(Watts{1200.0}, Minutes{60.0});
  EXPECT_DOUBLE_EQ(delivered.value(), 1200.0);
  EXPECT_DOUBLE_EQ(b.stored().value(), 10800.0);
  EXPECT_DOUBLE_EQ(b.total_discharged().value(), 1200.0);
}

TEST(Battery, MaxDischargeRateLimited) {
  const Battery b{paper_spec()};
  EXPECT_DOUBLE_EQ(b.max_discharge(Minutes{1.0}).value(), 3000.0);
}

TEST(Battery, MaxDischargeEnergyLimitedNearFloor) {
  Battery b{paper_spec()};
  // Drain down close to the floor: usable = 4800 Wh.
  b.discharge(Watts{3000.0}, Minutes{90.0});  // 4500 Wh out
  // 300 Wh above floor left; over 60 min that is 300 W max.
  EXPECT_NEAR(b.max_discharge(Minutes{60.0}).value(), 300.0, 1e-9);
}

TEST(Battery, DischargeBeyondAvailableThrows) {
  Battery b{paper_spec()};
  EXPECT_THROW(b.discharge(Watts{3500.0}, Minutes{1.0}), BatteryError);
  EXPECT_THROW(b.discharge(Watts{-1.0}, Minutes{1.0}), BatteryError);
}

TEST(Battery, StopsAtDodFloor) {
  Battery b{paper_spec()};
  // Drain exactly the usable 4800 Wh.
  b.discharge(Watts{3000.0}, Minutes{96.0});
  EXPECT_TRUE(b.at_floor());
  EXPECT_NEAR(b.stored().value(), 7200.0, 1e-6);
  EXPECT_NEAR(b.max_discharge(Minutes{1.0}).value(), 0.0, 1e-9);
}

TEST(Battery, ChargeAppliesEfficiencyOnInput) {
  Battery b{paper_spec()};
  b.discharge(Watts{3000.0}, Minutes{60.0});  // stored = 9000 Wh
  // 1000 W input for 60 min stores 800 Wh at 80% efficiency.
  const WattHours stored = b.charge(Watts{1000.0}, Minutes{60.0});
  EXPECT_DOUBLE_EQ(stored.value(), 800.0);
  EXPECT_DOUBLE_EQ(b.stored().value(), 9800.0);
  EXPECT_DOUBLE_EQ(b.total_charged_input().value(), 1000.0);
}

TEST(Battery, ChargeAcceptanceShrinksWhenNearlyFull) {
  Battery b{paper_spec()};
  b.discharge(Watts{100.0}, Minutes{60.0});  // 100 Wh headroom
  // Need 125 Wh input to store 100 Wh; over 60 min that is 125 W.
  EXPECT_NEAR(b.max_charge(Minutes{60.0}).value(), 125.0, 1e-9);
  EXPECT_THROW(b.charge(Watts{200.0}, Minutes{60.0}), BatteryError);
}

TEST(Battery, FullBatteryAcceptsNothing) {
  Battery b{paper_spec()};
  EXPECT_NEAR(b.max_charge(Minutes{1.0}).value(), 0.0, 1e-9);
}

TEST(Battery, ChargeNeverOverfills) {
  Battery b{paper_spec()};
  b.discharge(Watts{1000.0}, Minutes{60.0});
  const Watts acceptance = b.max_charge(Minutes{60.0});
  b.charge(acceptance, Minutes{60.0});
  EXPECT_LE(b.stored().value(), b.spec().capacity.value() + 1e-6);
  EXPECT_TRUE(b.full());
}

TEST(Battery, CycleCounting) {
  Battery b{paper_spec()};
  // One full DoD-deep cycle = 4800 Wh discharged.
  b.discharge(Watts{3000.0}, Minutes{96.0});
  EXPECT_NEAR(b.equivalent_cycles(), 1.0, 1e-9);
}

TEST(Battery, PeukertDrainsFasterAboveNominal) {
  BatterySpec spec = paper_spec();
  spec.peukert_exponent = 1.2;
  spec.nominal_discharge_power = Watts{600.0};
  Battery b{spec};
  // At nominal power the drain equals the delivery.
  EXPECT_DOUBLE_EQ(b.drain_rate(Watts{600.0}).value(), 600.0);
  EXPECT_DOUBLE_EQ(b.drain_rate(Watts{300.0}).value(), 300.0);
  // At 2x nominal, drain is 2^0.2 ~ 1.149x the delivered power.
  EXPECT_NEAR(b.drain_rate(Watts{1200.0}).value(), 1200.0 * std::pow(2.0, 0.2),
              1e-9);
  // Discharging 1200 W for 1 h delivers 1200 Wh but drains ~1378 Wh.
  const WattHours delivered = b.discharge(Watts{1200.0}, Minutes{60.0});
  EXPECT_DOUBLE_EQ(delivered.value(), 1200.0);
  EXPECT_NEAR(b.stored().value(),
              12000.0 - 1200.0 * std::pow(2.0, 0.2), 1e-6);
}

TEST(Battery, PeukertLimitsMaxDischargeNearFloor) {
  BatterySpec spec = paper_spec();
  spec.peukert_exponent = 1.2;
  spec.nominal_discharge_power = Watts{600.0};
  Battery b{spec};
  // Leave ~1200 Wh of usable energy.
  b.discharge(b.max_discharge(Minutes{72.0}), Minutes{72.0});
  const WattHours usable{b.stored().value() - spec.floor_energy().value()};
  // max_discharge must satisfy drain(P) * dt <= usable, so the deliverable
  // power is *below* the naive usable/dt.
  const Watts naive = usable / Minutes{60.0};
  const Watts limit = b.max_discharge(Minutes{60.0});
  if (naive.value() > 600.0) {
    EXPECT_LT(limit.value(), naive.value());
  }
  // And discharging at exactly that limit must not violate the floor.
  b.discharge(limit, Minutes{60.0});
  EXPECT_GE(b.stored().value(), spec.floor_energy().value() - 1e-6);
}

TEST(Battery, CapacityFadeShrinksEffectiveCapacity) {
  BatterySpec spec = paper_spec();
  spec.capacity_fade_per_cycle = 0.01;  // 1% per DoD-deep cycle (exaggerated)
  Battery b{spec};
  EXPECT_DOUBLE_EQ(b.effective_capacity().value(), 12000.0);
  // One full cycle: discharge 4800 Wh, recharge.
  b.discharge(Watts{3000.0}, Minutes{96.0});
  const double faded = b.effective_capacity().value();
  EXPECT_NEAR(faded, 12000.0 * 0.99, 1e-6);
  // Recharge tops out at the faded capacity, not the nameplate.
  b.charge(b.max_charge(Minutes{600.0}), Minutes{600.0});
  EXPECT_LE(b.stored().value(), faded + 1e-6);
  EXPECT_TRUE(b.full());
}

TEST(Battery, ChemistryPresets) {
  const BatterySpec lead = lead_acid_spec(WattHours{12000.0});
  EXPECT_NO_THROW(lead.validate());
  EXPECT_DOUBLE_EQ(lead.depth_of_discharge, 0.4);
  EXPECT_GT(lead.peukert_exponent, 1.1);

  const BatterySpec li = li_ion_spec(WattHours{12000.0});
  EXPECT_NO_THROW(li.validate());
  EXPECT_GT(li.depth_of_discharge, lead.depth_of_discharge);
  EXPECT_GT(li.round_trip_efficiency, lead.round_trip_efficiency);
  EXPECT_GT(li.rated_cycles, lead.rated_cycles);
  EXPECT_LT(li.peukert_exponent, lead.peukert_exponent);
  // Same nameplate, but Li-ion offers far more usable energy.
  EXPECT_GT(li.capacity.value() - li.floor_energy().value(),
            1.5 * (lead.capacity.value() - lead.floor_energy().value()));
}

TEST(Battery, NewSpecFieldsValidated) {
  BatterySpec spec = paper_spec();
  spec.capacity_fade_per_cycle = -0.1;
  EXPECT_THROW(Battery{spec}, BatteryError);
  spec = paper_spec();
  spec.peukert_exponent = 0.9;
  EXPECT_THROW(Battery{spec}, BatteryError);
  spec = paper_spec();
  spec.peukert_exponent = 2.5;
  EXPECT_THROW(Battery{spec}, BatteryError);
  spec = paper_spec();
  spec.nominal_discharge_power = Watts{0.0};
  EXPECT_THROW(Battery{spec}, BatteryError);
}

TEST(Battery, SelfDischargeDecaysStoredEnergy) {
  BatterySpec spec = paper_spec();
  spec.self_discharge_per_month = 0.03;
  Battery b{spec};
  b.stand(Minutes{30.0 * 24.0 * 60.0});  // one month standing
  EXPECT_NEAR(b.stored().value(), 12000.0 * 0.97, 1e-6);
  // Compounding: two months ~ 0.97^2.
  b.stand(Minutes{30.0 * 24.0 * 60.0});
  EXPECT_NEAR(b.stored().value(), 12000.0 * 0.97 * 0.97, 1e-6);
}

TEST(Battery, SelfDischargeNeverBreachesTheFloor) {
  BatterySpec spec = paper_spec();
  spec.self_discharge_per_month = 0.5;
  Battery b{spec};
  for (int month = 0; month < 24; ++month) {
    b.stand(Minutes{30.0 * 24.0 * 60.0});
  }
  EXPECT_GE(b.stored().value(), spec.floor_energy().value() - 1e-9);
}

TEST(Battery, SelfDischargeDisabledByDefault) {
  Battery b{paper_spec()};
  b.stand(Minutes{30.0 * 24.0 * 60.0});
  EXPECT_DOUBLE_EQ(b.stored().value(), 12000.0);
  EXPECT_THROW(b.stand(Minutes{-1.0}), BatteryError);

  BatterySpec bad = paper_spec();
  bad.self_discharge_per_month = 0.6;
  EXPECT_THROW(Battery{bad}, BatteryError);
}

TEST(Battery, ChemistryPresetsIncludeSelfDischarge) {
  EXPECT_GT(lead_acid_spec(WattHours{12000.0}).self_discharge_per_month,
            li_ion_spec(WattHours{12000.0}).self_discharge_per_month);
}

TEST(Battery, ZeroDtThrows) {
  const Battery b{paper_spec()};
  EXPECT_THROW((void)b.max_discharge(Minutes{0.0}), BatteryError);
  EXPECT_THROW((void)b.max_charge(Minutes{0.0}), BatteryError);
  // A memoised answer must not mask the check.
  (void)b.max_discharge(Minutes{1.0});
  (void)b.max_discharge(Minutes{1.0});
  EXPECT_THROW((void)b.max_discharge(Minutes{0.0}), BatteryError);
  EXPECT_THROW((void)b.max_discharge(Minutes{-1.0}), BatteryError);
}

// Verbatim copy of the bisection max_discharge() ran before it was
// memoised: the reference the memo must reproduce bit for bit.
Watts reference_max_discharge(const Battery& b, Minutes dt) {
  const BatterySpec& spec = b.spec();
  const WattHours available{
      std::max(0.0, b.stored().value() - spec.floor_energy().value())};
  double lo = 0.0;
  double hi = spec.max_discharge_power.value();
  if ((b.drain_rate(Watts{hi}) * dt).value() <= available.value()) {
    return Watts{hi};
  }
  for (int i = 0; i < 48; ++i) {
    const double mid = 0.5 * (lo + hi);
    if ((b.drain_rate(Watts{mid}) * dt).value() <= available.value()) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return Watts{lo};
}

bool same_bits(Watts a, Watts b) {
  const double x = a.value();
  const double y = b.value();
  return std::memcmp(&x, &y, sizeof x) == 0;
}

constexpr double kMemoDts[] = {0.25, 1.0, 15.0, 60.0};

/// Differential audit: every max_discharge() answer (first call and the
/// repeat that must hit the memo) is compared with the reference bisection
/// by memcmp.  Counts the answers that came from the bisection path (below
/// the rate limit) so the test can insist the floor region is exercised.
struct MemoAudit {
  long compared = 0;
  long energy_limited = 0;

  void expect_matches(const Battery& b, Minutes dt) {
    const Watts want = reference_max_discharge(b, dt);
    const Watts first = b.max_discharge(dt);
    const Watts again = b.max_discharge(dt);
    ASSERT_TRUE(same_bits(first, want))
        << "stored " << b.stored().value() << " Wh, dt " << dt.value()
        << " min: memo " << first.value() << " W vs reference "
        << want.value() << " W";
    ASSERT_TRUE(same_bits(again, want));
    ++compared;
    if (want.value() < b.spec().max_discharge_power.value()) {
      ++energy_limited;
    }
  }
  /// Query every dt in a seed-dependent order, so the memo's dt key turns
  /// over between calls on one battery state.
  void sweep(const Battery& b, Rng& rng) {
    const int start = rng.uniform_int(0, 3);
    for (int k = 0; k < 4; ++k) {
      expect_matches(b, Minutes{kMemoDts[(start + k) % 4]});
    }
  }
};

void run_memo_sequence(const BatterySpec& spec, std::uint64_t seed,
                       MemoAudit& audit) {
  Rng rng{seed};
  Battery b{spec};
  std::vector<std::string> snapshots;
  for (int step = 0; step < 1500; ++step) {
    const Minutes dt{kMemoDts[rng.uniform_int(0, 3)]};
    audit.expect_matches(b, dt);
    switch (rng.uniform_int(0, 7)) {
      case 0:
      case 1: {  // discharge, often all the way to the limit
        const double frac = rng.bernoulli(0.3) ? 1.0 : rng.uniform(0.0, 1.0);
        b.discharge(b.max_discharge(dt) * frac, dt);
        break;
      }
      case 2:
      case 3: {
        const double frac = rng.bernoulli(0.2) ? 1.0 : rng.uniform(0.0, 1.0);
        b.charge(b.max_charge(dt) * frac, dt);
        break;
      }
      case 4:
        b.stand(Minutes{rng.uniform(0.0, 3.0 * 24.0 * 60.0)});
        break;
      case 5:
        b.set_fault_derate(rng.bernoulli(0.5) ? 0.0 : rng.uniform(0.0, 0.5));
        break;
      case 6: {  // checkpoint round trip: save now, restore some snapshot
        checkpoint::Writer w;
        checkpoint::save(w, b);
        snapshots.push_back(w.buffer());
        const std::string& pick = snapshots[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(snapshots.size()) - 1))];
        checkpoint::Reader r{pick};
        checkpoint::load(r, b);
        // A resume: a fresh battery whose memo answered for another state.
        Battery resumed{spec};
        (void)resumed.max_discharge(dt);
        checkpoint::Reader again{pick};
        checkpoint::load(again, resumed);
        audit.sweep(resumed, rng);
        break;
      }
      case 7: {  // copies carry the memo; each then evolves on its own
        Battery copy = b;
        audit.sweep(copy, rng);
        copy.discharge(copy.max_discharge(dt) * rng.uniform(0.0, 1.0), dt);
        audit.sweep(copy, rng);
        audit.sweep(b, rng);
        Battery assigned{spec};
        (void)assigned.max_discharge(dt);
        assigned = copy;
        audit.sweep(assigned, rng);
        break;
      }
    }
    audit.sweep(b, rng);
  }
}

TEST(BatteryMemo, MaxDischargeMatchesBisectionBitwise) {
  BatterySpec peukert = paper_spec();
  peukert.peukert_exponent = 1.2;
  peukert.nominal_discharge_power = Watts{600.0};
  peukert.self_discharge_per_month = 0.3;
  const BatterySpec specs[] = {paper_spec(), lead_acid_spec(WattHours{12000.0}),
                               li_ion_spec(WattHours{12000.0}), peukert};
  MemoAudit audit;
  for (const BatterySpec& spec : specs) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      run_memo_sequence(spec, seed, audit);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  // The bracket's edge states, on every chemistry and on a pack that may
  // not discharge at all: stored exactly at the floor and a few ulps
  // above it, nothing available at the longest dt, and dts far outside the
  // substep range.
  for (BatterySpec spec : specs) {
    for (const double max_power : {spec.max_discharge_power.value(), 0.0}) {
      spec.max_discharge_power = Watts{max_power};
      const double floor = spec.floor_energy().value();
      const double stored_values[] = {floor,
                                      std::nextafter(floor, 1e300),
                                      floor + 1e-9,
                                      floor + 1e-3,
                                      floor + 0.5,
                                      floor + 250.0,
                                      spec.capacity.value()};
      for (const double stored : stored_values) {
        checkpoint::Writer w;
        w.f64(stored);
        w.f64(0.0);  // fault derate
        w.f64(0.0);  // discharged
        w.f64(0.0);  // charged input
        Battery b{spec};
        checkpoint::Reader r{w.buffer()};
        checkpoint::load(r, b);
        for (const double dt : {1e-6, 0.25, 1.0, 15.0, 60.0, 1e4}) {
          audit.expect_matches(b, Minutes{dt});
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
  EXPECT_GT(audit.compared, 100000);
  // The floor region, where the bisection runs, must be well covered.
  EXPECT_GT(audit.energy_limited, audit.compared / 10);
}

TEST(BatteryMemo, AtTheFloorReturnsPositiveZeroLikeTheBisection) {
  // A pack stored exactly at its floor answers +0.0 without bisecting; the
  // answer must be the reference's, sign bit included, on every chemistry
  // and a small lead-acid pack, at dts from 1e-6 min to a whole day.
  const BatterySpec specs[] = {paper_spec(), lead_acid_spec(WattHours{12000.0}),
                               li_ion_spec(WattHours{12000.0}),
                               lead_acid_spec(WattHours{3000.0})};
  MemoAudit audit;
  for (const BatterySpec& spec : specs) {
    checkpoint::Writer w;
    w.f64(spec.floor_energy().value());
    w.f64(0.0);  // fault derate
    w.f64(0.0);  // discharged
    w.f64(0.0);  // charged input
    Battery b{spec};
    checkpoint::Reader r{w.buffer()};
    checkpoint::load(r, b);
    ASSERT_TRUE(b.at_floor());
    for (double dt = 1e-6; dt <= 1440.0; dt *= 1.5) {
      audit.expect_matches(b, Minutes{dt});
      if (::testing::Test::HasFatalFailure()) return;
      EXPECT_TRUE(same_bits(b.max_discharge(Minutes{dt}), Watts{0.0}));
    }
    audit.expect_matches(b, Minutes{1440.0});
  }
  EXPECT_EQ(audit.energy_limited, audit.compared);
}

}  // namespace
}  // namespace greenhetero
