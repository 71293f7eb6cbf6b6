// Checkpoint subsystem: serializer round-trips for the stateful components
// a snapshot must restore exactly (RNG stream position, battery charge and
// wear, the health state machine, the perf-power database with its fits,
// the fault-delivery cursor), and the container's rejection of everything
// that is not a pristine snapshot — flipped payload bytes, truncated files,
// foreign magic, future versions, trailing garbage.
#include "checkpoint/checkpoint.h"

#include <gtest/gtest.h>

#include <cmath>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "checkpoint/serializer.h"
#include "core/controller.h"
#include "core/database.h"
#include "core/predictor.h"
#include "core/health.h"
#include "faults/fault_injector.h"
#include "faults/fault_plan.h"
#include "fleet/fleet.h"
#include "power/battery.h"
#include "server/combinations.h"
#include "server/rack.h"
#include "sim/epoch_store.h"
#include "sim/rack_simulator.h"
#include "sim/sim_clock.h"
#include "trace/solar.h"
#include "util/logging.h"
#include "util/rng.h"

namespace greenhetero {
namespace {

namespace fs = std::filesystem;

/// A one-chunk snapshot.
void write_snapshot(const fs::path& dir, std::uint64_t epoch_index,
                    std::uint64_t config_hash, std::string_view payload,
                    int keep_last = 2) {
  checkpoint::write_snapshot(dir, epoch_index, config_hash,
                             std::span<const std::string_view>(&payload, 1),
                             keep_last);
}

/// Unique per-process scratch directory, removed on destruction (ctest may
/// run several processes of this binary concurrently).
class ScratchDir {
 public:
  ScratchDir() {
    static std::atomic<int> counter{0};
    dir_ = fs::temp_directory_path() /
           ("gh-checkpoint-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter.fetch_add(1)));
    fs::create_directories(dir_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  [[nodiscard]] fs::path operator/(const std::string& name) const {
    return dir_ / name;
  }
  [[nodiscard]] const fs::path& path() const { return dir_; }

 private:
  fs::path dir_;
};

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ---------------------------------------------------------------------------
// Serializer primitives.
// ---------------------------------------------------------------------------

TEST(Serializer, RoundTripsEveryPrimitive) {
  checkpoint::Writer w;
  w.u8(7);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f64(-1.5e300);
  w.boolean(true);
  const std::string with_nul("hello\0world", 11);
  w.str(with_nul);  // embedded NUL survives length-prefixed strings
  w.seq(3);
  for (std::uint8_t i = 0; i < 3; ++i) w.u8(i);

  checkpoint::Reader r(w.buffer());
  EXPECT_EQ(r.u8(), 7u);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), -1.5e300);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.str(), with_nul);
  EXPECT_EQ(r.seq(), 3u);
  for (std::uint8_t i = 0; i < 3; ++i) EXPECT_EQ(r.u8(), i);
  EXPECT_TRUE(r.done());
}

TEST(Serializer, ReaderThrowsOnShortBuffer) {
  checkpoint::Writer w;
  w.u64(1);
  const std::string& buf = w.buffer();
  checkpoint::Reader r(std::string_view(buf.data(), buf.size() - 1));
  EXPECT_THROW((void)r.u64(), checkpoint::CheckpointError);
}

TEST(Serializer, WritesLittleEndianImagesAndKeepsReaderMessages) {
  // The layout is the contract: fixed-width values are their little-endian
  // images, a bulk array is a u64 length then the packed images, whether
  // it was written element by element or in one copy.
  checkpoint::Writer w;
  w.u32(0x01020304u);
  w.u64(0x0102030405060708ull);
  w.i64(-2);
  w.f64(1.0);
  w.f64_array(std::vector<double>{-0.0});
  w.seq(std::vector<double>{2.0}, [&w](double v) { w.f64(v); });
  const std::string expected = std::string(
      "\x04\x03\x02\x01"
      "\x08\x07\x06\x05\x04\x03\x02\x01"
      "\xfe\xff\xff\xff\xff\xff\xff\xff"
      "\x00\x00\x00\x00\x00\x00\xf0\x3f"
      "\x01\x00\x00\x00\x00\x00\x00\x00"
      "\x00\x00\x00\x00\x00\x00\x00\x80"
      "\x01\x00\x00\x00\x00\x00\x00\x00"
      "\x00\x00\x00\x00\x00\x00\x00\x40",
      60);
  EXPECT_EQ(w.buffer(), expected);
  checkpoint::Reader back(expected);
  EXPECT_EQ(back.u32(), 0x01020304u);
  EXPECT_EQ(back.u64(), 0x0102030405060708ull);
  EXPECT_EQ(back.i64(), -2);
  EXPECT_EQ(back.f64(), 1.0);
  std::vector<double> one;
  back.f64_array(one);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_TRUE(std::signbit(one[0]));
  back.seq(one, [&back](double& v) { back.f64(v); });
  EXPECT_EQ(one, std::vector<double>{2.0});
  EXPECT_TRUE(back.done());

  // Truncation errors name the shortfall as before.
  checkpoint::Reader r(std::string_view(expected).substr(0, 10));
  EXPECT_EQ(r.u32(), 0x01020304u);
  try {
    (void)r.f64();
    FAIL() << "read past the end";
  } catch (const checkpoint::CheckpointError& e) {
    EXPECT_STREQ(e.what(),
                 "checkpoint payload truncated: need 8 bytes at offset 4, "
                 "have 6");
  }
  checkpoint::Reader arrays(std::string_view(expected).substr(28, 12));
  std::vector<double> out;
  try {
    arrays.f64_array(out);
    FAIL() << "read a truncated array";
  } catch (const checkpoint::CheckpointError& e) {
    EXPECT_STREQ(e.what(),
                 "checkpoint payload truncated: f64 array of 1 elements "
                 "with 4 bytes left");
  }
}

TEST(Serializer, RoundTripsBulkArrays) {
  const std::vector<double> doubles{0.0, -1.5, 6.02e23,
                                    std::numeric_limits<double>::infinity()};
  const std::vector<std::uint8_t> bytes{0, 1, 255, 42};
  checkpoint::Writer w;
  w.f64_array(doubles);
  w.u8_array(bytes);
  w.f64_array({});  // empty arrays must round-trip too
  w.u8_array({});

  checkpoint::Reader r(w.buffer());
  std::vector<double> doubles_back;
  std::vector<std::uint8_t> bytes_back;
  r.f64_array(doubles_back);
  r.u8_array(bytes_back);
  EXPECT_EQ(doubles_back, doubles);
  EXPECT_EQ(bytes_back, bytes);
  r.f64_array(doubles_back);
  r.u8_array(bytes_back);
  EXPECT_TRUE(doubles_back.empty());
  EXPECT_TRUE(bytes_back.empty());
  EXPECT_TRUE(r.done());
}

TEST(Serializer, ArrayReaderThrowsOnOversizedLength) {
  // A corrupt length prefix larger than the remaining payload must throw,
  // not attempt a multi-exabyte reserve.
  checkpoint::Writer w;
  w.u64(std::numeric_limits<std::uint64_t>::max());
  checkpoint::Reader r(w.buffer());
  std::vector<double> out;
  EXPECT_THROW(r.f64_array(out), checkpoint::CheckpointError);
}

TEST(Checkpoint, EpochRecordStoreRoundTripsColumns) {
  EpochRecordStore store;
  store.reset(3);
  for (std::size_t e = 0; e < 5; ++e) {
    std::vector<EpochRecord> row(3);
    for (std::size_t r = 0; r < 3; ++r) {
      EpochRecord& rec = row[r];
      rec.start = Minutes{60.0 * static_cast<double>(e)};
      rec.training = e == 0;
      rec.source_case = PowerCase::kJointSupply;
      rec.predicted_renewable = Watts{100.0 + static_cast<double>(10 * e + r)};
      rec.actual_renewable = Watts{90.0 + static_cast<double>(r)};
      rec.budget = Watts{500.0};
      rec.throughput = 1.0 + static_cast<double>(e);
      rec.epu = 0.5;
      rec.battery_soc = 0.8;
      rec.battery_discharge = Watts{5.0};
      rec.battery_charge = Watts{2.0};
      rec.grid_power = Watts{50.0};
      rec.shortfall = Watts{0.0};
      // Ragged ratios stress the shared pool extents.
      rec.ratios.assign(r + e % 2, 0.25 * static_cast<double>(r + 1));
      row[r] = rec;
    }
    store.append_epoch(row);
  }
  ASSERT_EQ(store.epochs(), 5u);
  EXPECT_GT(store.bytes(), 0u);

  checkpoint::Writer w;
  checkpoint::save(w, store);
  EpochRecordStore restored;
  restored.reset(3);
  checkpoint::Reader r(w.buffer());
  checkpoint::load(r, restored);
  EXPECT_TRUE(r.done());

  ASSERT_EQ(restored.racks(), 3u);
  ASSERT_EQ(restored.epochs(), 5u);
  // bytes() reports reserved capacity, which differs between incremental
  // growth and the loader's exact reserve — only its order matters.
  EXPECT_GT(restored.bytes(), 0u);
  EXPECT_LE(restored.bytes(), store.bytes());
  for (std::size_t rack = 0; rack < 3; ++rack) {
    std::vector<EpochRecord> want;
    std::vector<EpochRecord> got;
    store.fill_report(rack, want);
    restored.fill_report(rack, got);
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t e = 0; e < want.size(); ++e) {
      EXPECT_EQ(got[e].start.value(), want[e].start.value());
      EXPECT_EQ(got[e].training, want[e].training);
      EXPECT_EQ(got[e].source_case, want[e].source_case);
      EXPECT_EQ(got[e].predicted_renewable.value(), want[e].predicted_renewable.value());
      EXPECT_EQ(got[e].ratios, want[e].ratios);
      EXPECT_EQ(got[e].throughput, want[e].throughput);
    }
  }
}

TEST(Checkpoint, EpochRecordStoreRejectsTornColumns) {
  EpochRecordStore store;
  store.reset(2);
  std::vector<EpochRecord> row(2);
  row[0].ratios = {0.5, 0.5};
  store.append_epoch(row);
  checkpoint::Writer w;
  checkpoint::save(w, store);
  // Truncating the payload mid-column must throw, never partially restore.
  const std::string& buf = w.buffer();
  checkpoint::Reader r(std::string_view(buf.data(), buf.size() - 8));
  EpochRecordStore restored;
  restored.reset(2);
  EXPECT_THROW(checkpoint::load(r, restored), checkpoint::CheckpointError);
}

// ---------------------------------------------------------------------------
// Component round-trips.
// ---------------------------------------------------------------------------

TEST(Checkpoint, RngResumesTheExactStream) {
  Rng original{1234};
  // Consume an odd amount so the engine is mid-stream, not at a seed point.
  for (int i = 0; i < 37; ++i) (void)original.uniform(0.0, 1.0);

  checkpoint::Writer w;
  checkpoint::save(w, original);

  std::vector<double> expected;
  for (int i = 0; i < 16; ++i) expected.push_back(original.gaussian(0.0, 1.0));
  const Rng expected_child = original.fork(9);

  Rng restored{999};  // deliberately wrong seed; the load must replace it
  checkpoint::Reader r(w.buffer());
  checkpoint::load(r, restored);
  EXPECT_TRUE(r.done());
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(restored.gaussian(0.0, 1.0), expected[i]) << "draw " << i;
  }
  // Forking depends on the master seed, which must survive the round trip.
  Rng a = expected_child;
  Rng b = restored.fork(9);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
  }
}

TEST(Checkpoint, BatteryRestoresChargeWearAndFault) {
  Battery original{lead_acid_spec(WattHours{12000.0})};
  (void)original.discharge(Watts{1000.0}, Minutes{60.0});
  (void)original.charge(Watts{500.0}, Minutes{30.0});
  original.set_fault_derate(0.2);

  checkpoint::Writer w;
  checkpoint::save(w, original);

  Battery restored{lead_acid_spec(WattHours{12000.0})};
  checkpoint::Reader r(w.buffer());
  checkpoint::load(r, restored);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(restored.stored().value(), original.stored().value());
  EXPECT_EQ(restored.fault_derate(), original.fault_derate());
  EXPECT_EQ(restored.total_discharged().value(),
            original.total_discharged().value());
  EXPECT_EQ(restored.total_charged_input().value(),
            original.total_charged_input().value());
  EXPECT_EQ(restored.equivalent_cycles(), original.equivalent_cycles());
  EXPECT_EQ(restored.effective_capacity().value(),
            original.effective_capacity().value());
}

TEST(Checkpoint, HealthTrackerRestoresStateAndHysteresis) {
  HealthTracker original;
  HealthSignals bad;
  bad.divergent_samples = true;
  (void)original.observe_epoch(bad);  // normal -> degraded
  (void)original.observe_epoch(bad);  // degraded, consecutive_bad = 2
  ASSERT_EQ(original.state(), HealthState::kDegraded);

  checkpoint::Writer w;
  checkpoint::save(w, original);

  HealthTracker restored;
  checkpoint::Reader r(w.buffer());
  checkpoint::load(r, restored);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(restored.state(), original.state());
  EXPECT_EQ(restored.consecutive_bad(), original.consecutive_bad());
  EXPECT_EQ(restored.consecutive_good(), original.consecutive_good());
  // One more bad epoch must complete the safe_after=3 streak on both.
  (void)original.observe_epoch(bad);
  (void)restored.observe_epoch(bad);
  EXPECT_EQ(restored.state(), original.state());
  EXPECT_EQ(original.state(), HealthState::kSafe);
}

TEST(Checkpoint, HealthTrackerRejectsBadStateTag) {
  checkpoint::Writer w;
  w.u8(17);  // not a HealthState
  w.i64(0);
  w.i64(0);
  HealthTracker tracker;
  checkpoint::Reader r(w.buffer());
  EXPECT_THROW(checkpoint::load(r, tracker), checkpoint::CheckpointError);
}

TEST(Checkpoint, ControllerRefusesANonHoltPredictorTag) {
  // The controller deploys Holt only.  Each of its two predictors is stored
  // behind a kind tag that reads 0 (Holt); any other tag is refused by
  // name.
  GreenHeteroController original{ControllerConfig{}};
  checkpoint::Writer w;
  checkpoint::save(w, original);
  // The supply predictor's tag follows the database and the monitor; the
  // demand predictor's follows the supply predictor.
  checkpoint::Writer prefix;
  prefix.object(original.database());
  prefix.object(original.monitor());
  checkpoint::Writer holt;
  holt.object(HoltPredictor{});
  const std::size_t supply_tag = prefix.buffer().size();
  const std::size_t demand_tag = supply_tag + 1 + holt.buffer().size();
  for (const std::size_t at : {supply_tag, demand_tag}) {
    for (const char tag : {'\x01', '\x03'}) {
      SCOPED_TRACE("tag " + std::to_string(tag) + " at byte " +
                   std::to_string(at));
      std::string payload = w.buffer();
      ASSERT_EQ(payload[at], '\0');
      payload[at] = tag;
      GreenHeteroController restored{ControllerConfig{}};
      checkpoint::Reader r(payload);
      try {
        checkpoint::load(r, restored);
        FAIL() << "a non-Holt predictor tag was restored";
      } catch (const checkpoint::CheckpointError& e) {
        EXPECT_NE(std::string(e.what()).find("predictor: kind tag"),
                  std::string::npos)
            << e.what();
      }
    }
  }
  GreenHeteroController restored{ControllerConfig{}};
  checkpoint::Reader r(w.buffer());
  checkpoint::load(r, restored);
  EXPECT_TRUE(r.done());
}

TEST(Checkpoint, DatabaseRestoresSamplesAndExactFit) {
  constexpr ProfileKey kKey{ServerModel::kXeonE5_2620, Workload::kSpecJbb};
  PerfPowerDatabase original;
  std::vector<ServerSample> training;
  for (double p : {90.0, 110.0, 130.0, 150.0, 170.0}) {
    training.push_back({Watts{p}, -0.02 * p * p + 8.0 * p - 300.0});
  }
  original.add_training_samples(kKey, training);
  // Runtime feedback moves the fit off the pristine training quadratic.
  original.add_runtime_sample(kKey, {Watts{142.0}, 520.0});
  original.add_runtime_sample(kKey, {Watts{121.5}, 470.0});

  checkpoint::Writer w;
  checkpoint::save(w, original);

  PerfPowerDatabase restored;
  checkpoint::Reader r(w.buffer());
  checkpoint::load(r, restored);
  EXPECT_TRUE(r.done());
  ASSERT_TRUE(restored.contains(kKey));
  const ProfileRecord& a = original.record(kKey);
  const ProfileRecord& b = restored.record(kKey);
  EXPECT_EQ(b.powers, a.powers);
  EXPECT_EQ(b.perfs, a.perfs);
  EXPECT_EQ(b.pinned, a.pinned);
  EXPECT_EQ(b.refit_count, a.refit_count);
  // Bit-exact fit: the next allocation must be identical, so the restored
  // coefficients cannot come from a re-fit.
  EXPECT_EQ(b.fit.a, a.fit.a);
  EXPECT_EQ(b.fit.b, a.fit.b);
  EXPECT_EQ(b.fit.c, a.fit.c);
  EXPECT_EQ(b.projected_perf(Watts{133.0}), a.projected_perf(Watts{133.0}));
}

/// Loads `w` with `load`, which must refuse it with a CheckpointError that
/// names the out-of-range value 99.
template <typename Load>
void expect_refuses_99(const checkpoint::Writer& w, Load load) {
  checkpoint::Reader r(w.buffer());
  try {
    load(r);
    ADD_FAILURE() << "out-of-range enum accepted";
  } catch (const checkpoint::CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("99"), std::string::npos)
        << e.what();
  }
}

TEST(Checkpoint, LoadersRejectOutOfRangeEnums) {
  // A snapshot can carry an out-of-range enum under a valid checksum; the
  // loaders must refuse it before it indexes a per-workload or per-model
  // table.
  Rack rack{{{ServerModel::kXeonE5_2620, 2}}, Workload::kSpecJbb};
  checkpoint::Writer rack_payload;
  rack_payload.seq(1);   // groups
  rack_payload.i64(99);  // group 0's workload
  expect_refuses_99(rack_payload,
                    [&rack](checkpoint::Reader& r) {
                      checkpoint::load(r, rack);
                    });

  for (const auto& [model, workload] : {std::pair{99, 0}, std::pair{0, 99}}) {
    SCOPED_TRACE("model " + std::to_string(model) + ", workload " +
                 std::to_string(workload));
    checkpoint::Writer db_payload;
    db_payload.u64(64);  // max samples
    db_payload.seq(1);   // records
    db_payload.i64(model);
    db_payload.i64(workload);
    PerfPowerDatabase db;
    expect_refuses_99(db_payload,
                      [&db](checkpoint::Reader& r) {
                        checkpoint::load(r, db);
                      });
  }
}

TEST(Checkpoint, ServerLoaderRejectsStatesOutsideTheLadder) {
  // A checksummed rack snapshot whose server state (or latched stuck
  // state) lies outside the DVFS ladder: the loader must refuse it by
  // field, not leave a state the first draw() would trip over mid-run.
  for (const auto& [state, stuck, field] :
       {std::tuple{99, 0, "server: state 99"},
        std::tuple{-1, 0, "server: state -1"},
        std::tuple{1, 99, "server: stuck state 99"}}) {
    SCOPED_TRACE(field);
    Rack rack{{{ServerModel::kXeonE5_2620, 2}}, Workload::kSpecJbb};
    checkpoint::Writer w;
    w.seq(1);  // groups
    w.i64(static_cast<std::int64_t>(Workload::kSpecJbb));
    w.seq(2);  // servers
    for (int s = 0; s < 2; ++s) {
      w.i64(s == 0 ? state : 1);
      w.boolean(true);  // online
      w.boolean(s == 0 && stuck != 0);
      w.i64(s == 0 ? stuck : 0);
      w.f64(0.0);  // actuation offset
      w.f64(0.0);  // energy
      w.f64(0.0);  // work
    }
    checkpoint::Reader r(w.buffer());
    try {
      checkpoint::load(r, rack);
      ADD_FAILURE() << "out-of-range server state accepted";
    } catch (const checkpoint::CheckpointError& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  }
}

TEST(Checkpoint, FaultInjectorResumesDeliveryCursor) {
  const FaultPlan plan = make_random_plan(5, Minutes{24.0 * 60.0}, 4);
  ASSERT_GT(plan.size(), 0u);
  FaultInjector original{plan};
  (void)original.take_due(Minutes{6.0 * 60.0});
  const std::size_t pending = original.pending();

  checkpoint::Writer w;
  checkpoint::save(w, original);

  // A fresh injector from the same plan restores to the same cursor; the
  // remaining delivery stream matches action for action.
  FaultInjector restored{plan};
  checkpoint::Reader r(w.buffer());
  checkpoint::load(r, restored);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(restored.pending(), pending);
  const auto expect_actions = original.take_due(Minutes{24.0 * 60.0});
  const auto got_actions = restored.take_due(Minutes{24.0 * 60.0});
  ASSERT_EQ(got_actions.size(), expect_actions.size());
  for (std::size_t i = 0; i < got_actions.size(); ++i) {
    EXPECT_EQ(got_actions[i].at.value(), expect_actions[i].at.value());
    EXPECT_EQ(got_actions[i].kind, expect_actions[i].kind);
    EXPECT_EQ(got_actions[i].begin, expect_actions[i].begin);
    EXPECT_EQ(got_actions[i].target, expect_actions[i].target);
    EXPECT_EQ(got_actions[i].value, expect_actions[i].value);
  }
}

TEST(Checkpoint, FaultInjectorRejectsForeignPlan) {
  FaultPlan two_events;
  two_events.add({Minutes{10.0}, FaultKind::kGridOutage, Minutes{30.0}});
  two_events.add({Minutes{90.0}, FaultKind::kSolarDropout, Minutes{30.0}});
  FaultInjector original{two_events};
  checkpoint::Writer w;
  checkpoint::save(w, original);

  // A plan with a different action count — the cursor would land on the
  // wrong schedule, so load must refuse.
  FaultPlan one_event;
  one_event.add({Minutes{10.0}, FaultKind::kGridOutage, Minutes{30.0}});
  FaultInjector other{one_event};
  checkpoint::Reader r(w.buffer());
  EXPECT_THROW(checkpoint::load(r, other), checkpoint::CheckpointError);
}

TEST(Checkpoint, SimClockRejectsASubstepPastTheEpoch) {
  // advance_substep() closes an epoch when the substep count reaches the
  // epoch's exactly, so a position restored at or past it never would.
  SimClock original{Minutes{15.0}, Minutes{5.0}};
  (void)original.advance_substep();
  (void)original.advance_substep();
  checkpoint::Writer w;
  checkpoint::save(w, original);
  SimClock restored{Minutes{15.0}, Minutes{5.0}};
  checkpoint::Reader r(w.buffer());
  checkpoint::load(r, restored);
  EXPECT_EQ(restored.now().value(), 10.0);
  EXPECT_TRUE(restored.advance_substep());

  checkpoint::Writer forged;
  forged.f64(15.0);
  forged.u64(3);  // substep in epoch: only 0..2 exist
  forged.u64(0);
  checkpoint::Reader bad(forged.buffer());
  try {
    checkpoint::load(bad, restored);
    ADD_FAILURE() << "a substep past the epoch was restored";
  } catch (const checkpoint::CheckpointError& e) {
    EXPECT_STREQ(e.what(), "sim clock: substep in epoch 3 is out of range "
                           "[0, 2]");
  }
}

// ---------------------------------------------------------------------------
// Snapshot container: write/load, pruning, corruption rejection.
// ---------------------------------------------------------------------------

TEST(Snapshot, WriteLoadRoundTrip) {
  ScratchDir scratch;
  const std::string payload = "resumable state bytes \x01\x02\xFF";
  write_snapshot(scratch.path(), 42, 0xC0FFEEu, payload);

  const auto files = checkpoint::list_snapshots(scratch.path());
  ASSERT_EQ(files.size(), 1u);
  const checkpoint::Snapshot snap = checkpoint::load_snapshot(files[0]);
  EXPECT_EQ(snap.epoch_index, 42u);
  EXPECT_EQ(snap.config_hash, 0xC0FFEEu);
  EXPECT_EQ(snap.payload, payload);
  EXPECT_EQ(snap.path, files[0]);
}

TEST(Snapshot, KeepLastPrunesOldest) {
  ScratchDir scratch;
  for (std::uint64_t e = 1; e <= 5; ++e) {
    write_snapshot(scratch.path(), e, 1, "p", /*keep_last=*/2);
  }
  const auto files = checkpoint::list_snapshots(scratch.path());
  ASSERT_EQ(files.size(), 2u);
  EXPECT_EQ(checkpoint::load_snapshot(files[0]).epoch_index, 4u);
  EXPECT_EQ(checkpoint::load_snapshot(files[1]).epoch_index, 5u);
}

TEST(Snapshot, KeepAllWhenNonPositive) {
  ScratchDir scratch;
  for (std::uint64_t e = 1; e <= 5; ++e) {
    write_snapshot(scratch.path(), e, 1, "p", /*keep_last=*/0);
  }
  EXPECT_EQ(checkpoint::list_snapshots(scratch.path()).size(), 5u);
}

TEST(Snapshot, RejectsFlippedPayloadByte) {
  ScratchDir scratch;
  write_snapshot(scratch.path(), 7, 1, "payload bytes here");
  const auto files = checkpoint::list_snapshots(scratch.path());
  ASSERT_EQ(files.size(), 1u);

  std::string bytes = read_file(files[0]);
  bytes[bytes.size() - 3] ^= 0x40;  // corrupt inside the payload
  write_file(files[0], bytes);
  EXPECT_THROW((void)checkpoint::load_snapshot(files[0]),
               checkpoint::CheckpointError);
}

TEST(Snapshot, RejectsTruncatedFile) {
  ScratchDir scratch;
  write_snapshot(scratch.path(), 7, 1, "payload bytes here");
  const auto files = checkpoint::list_snapshots(scratch.path());
  ASSERT_EQ(files.size(), 1u);

  const std::string bytes = read_file(files[0]);
  // Every proper prefix must be rejected, whether it tears the header or
  // the payload.
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{4}, std::size_t{20},
        bytes.size() - 1}) {
    write_file(files[0], bytes.substr(0, keep));
    EXPECT_THROW((void)checkpoint::load_snapshot(files[0]),
                 checkpoint::CheckpointError)
        << "prefix of " << keep << " bytes";
  }
}

TEST(Snapshot, RejectsForeignMagicAndFutureVersion) {
  ScratchDir scratch;
  write_snapshot(scratch.path(), 7, 1, "payload");
  const auto files = checkpoint::list_snapshots(scratch.path());
  const std::string bytes = read_file(files[0]);

  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  write_file(files[0], bad_magic);
  EXPECT_THROW((void)checkpoint::load_snapshot(files[0]),
               checkpoint::CheckpointError);

  std::string future = bytes;
  future[8] = static_cast<char>(checkpoint::kSnapshotVersion + 1);
  write_file(files[0], future);
  EXPECT_THROW((void)checkpoint::load_snapshot(files[0]),
               checkpoint::CheckpointError);

  // A snapshot from the previous layout must be refused by its version,
  // not misread field by field.
  std::string previous = bytes;
  previous[8] = static_cast<char>(checkpoint::kSnapshotVersion - 1);
  write_file(files[0], previous);
  try {
    (void)checkpoint::load_snapshot(files[0]);
    FAIL() << "expected CheckpointError for a previous-version snapshot";
  } catch (const checkpoint::CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported checkpoint version"),
              std::string::npos)
        << e.what();
  }
}

TEST(Snapshot, RejectsTrailingGarbage) {
  ScratchDir scratch;
  write_snapshot(scratch.path(), 7, 1, "payload");
  const auto files = checkpoint::list_snapshots(scratch.path());
  write_file(files[0], read_file(files[0]) + "extra");
  EXPECT_THROW((void)checkpoint::load_snapshot(files[0]),
               checkpoint::CheckpointError);
}

TEST(Snapshot, LoadLatestSkipsCorruptAndPicksNewestValid) {
  ScratchDir scratch;
  write_snapshot(scratch.path(), 10, 1, "older", 0);
  write_snapshot(scratch.path(), 20, 1, "newest", 0);
  const auto files = checkpoint::list_snapshots(scratch.path());
  ASSERT_EQ(files.size(), 2u);

  // Tear the newest (a crash mid-rename cannot produce this, but disk
  // corruption can): resume must fall back to epoch 10, not fail.
  const std::string bytes = read_file(files[1]);
  write_file(files[1], bytes.substr(0, bytes.size() / 2));
  const auto latest = checkpoint::load_latest(scratch.path());
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->epoch_index, 10u);
  EXPECT_EQ(latest->payload, "older");
}

TEST(Snapshot, LoadLatestWarnsWhyEachSnapshotWasSkipped) {
  // A directory holding only a snapshot of another layout version: resume
  // starts fresh, and the log says which file was passed over and why.
  ScratchDir scratch;
  write_snapshot(scratch.path(), 12, 1, "payload", 0);
  const auto files = checkpoint::list_snapshots(scratch.path());
  ASSERT_EQ(files.size(), 1u);
  std::string previous = read_file(files[0]);
  previous[8] = static_cast<char>(checkpoint::kSnapshotVersion - 1);
  write_file(files[0], previous);

  ScopedLogCapture capture(LogLevel::kWarn);
  EXPECT_FALSE(checkpoint::load_latest(scratch.path()).has_value());
  ASSERT_EQ(capture.entries().size(), 1u);
  const ScopedLogCapture::Entry& warning = capture.entries().front();
  EXPECT_EQ(warning.level, LogLevel::kWarn);
  EXPECT_NE(warning.message.find(files[0].filename().string()),
            std::string::npos)
      << warning.message;
  EXPECT_NE(warning.message.find("unsupported checkpoint version"),
            std::string::npos)
      << warning.message;
}

TEST(Snapshot, RefusesMetricsSeriesOutsideTheCatalog) {
  // A well-formed, checksummed rack snapshot whose metrics section names a
  // series the catalog does not know: restore must refuse it by name
  // rather than invent the series.
  ScratchDir scratch;
  const auto make_sim = [&] {
    SimConfig cfg;
    cfg.checkpoint_dir = (scratch / "ckpt").string();
    cfg.config_hash = 7;
    return RackSimulator{
        Rack{default_runtime_rack(), Workload::kSpecJbb},
        make_standard_plant(
            generate_solar_trace(high_solar_model(Watts{2500.0}), 1, 3)),
        std::move(cfg)};
  };
  RackSimulator writer = make_sim();
  writer.pretrain();
  (void)writer.run(Minutes{30.0});
  const auto written = checkpoint::load_latest(scratch / "ckpt");
  ASSERT_TRUE(written.has_value());

  std::string payload = written->payload;
  const std::string known = "gh_substeps_total";
  const std::string unknown = "gh_substeps_totax";  // same length
  std::size_t renamed = 0;
  for (std::size_t at = payload.find(known); at != std::string::npos;
       at = payload.find(known, at)) {
    payload.replace(at, known.size(), unknown);
    ++renamed;
  }
  ASSERT_EQ(renamed, 1u);
  write_snapshot(scratch / "forged", written->epoch_index,
                 written->config_hash, payload);
  const auto forged = checkpoint::load_latest(scratch / "forged");
  ASSERT_TRUE(forged.has_value());  // the container itself is valid

  RackSimulator reader = make_sim();
  reader.pretrain();
  try {
    reader.load_checkpoint(*forged);
    FAIL() << "a series outside the catalog was restored";
  } catch (const checkpoint::CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find(unknown), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// The snapshot layout, pinned.
// ---------------------------------------------------------------------------

/// A small rack whose every checkpointed component holds state other than
/// its default when the snapshot is taken: open fault windows (DVFS stuck,
/// solar sensor stuck, battery derate, monitor dropout, a crashed group),
/// RAPL caps, the invariant checker, a workload switch, the loss ledger, a
/// rollup window, a flight recorder and a ring small enough to drop events.
RackSimulator make_pinned_rack(std::uint64_t seed,
                               const fs::path& flightrec_dir,
                               const fs::path& checkpoint_dir) {
  Rack rack{{{ServerModel::kXeonE5_2620, 2}, {ServerModel::kCoreI5_4460, 2}},
            Workload::kSpecJbb};
  SimConfig cfg;
  cfg.check = true;
  cfg.rapl_enforcement = true;
  cfg.substep = Minutes{2.0};
  cfg.controller.epoch = Minutes{60.0};
  cfg.controller.seed = seed;
  cfg.workload_schedule = {{Minutes{240.0}, Workload::kWebSearch}};
  cfg.telemetry.loss_ledger = true;
  cfg.telemetry.rollup_window_min = 180.0;
  cfg.telemetry.trace_capacity = 64;
  cfg.telemetry.flightrec_dir = flightrec_dir.string();
  cfg.telemetry.flightrec_capacity = 16;
  cfg.telemetry.rack_id = static_cast<int>(seed % 8);
  cfg.checkpoint_dir = checkpoint_dir.string();
  cfg.checkpoint_every = 1000;  // only the explicit write below
  cfg.faults.add({Minutes{60.0}, FaultKind::kMonitorDropout, Minutes{0.0},
                  -1, 0.02});
  cfg.faults.add({Minutes{120.0}, FaultKind::kDvfsStuck, Minutes{0.0}, 0,
                  2.0});
  cfg.faults.add({Minutes{180.0}, FaultKind::kSolarStuck, Minutes{0.0}, -1,
                  0.0});
  cfg.faults.add({Minutes{200.0}, FaultKind::kBatteryDerate, Minutes{0.0},
                  -1, 0.2});
  cfg.faults.add({Minutes{300.0}, FaultKind::kServerCrash, Minutes{600.0}, 1,
                  0.0});
  GridSpec grid;
  grid.budget = Watts{300.0};
  return RackSimulator{
      std::move(rack),
      make_standard_plant(
          generate_solar_trace(high_solar_model(Watts{900.0}), 2, seed),
          grid),
      std::move(cfg)};
}

/// FNV-1a of the payload of the only snapshot in `dir`.
std::uint64_t payload_checksum(const fs::path& dir) {
  const auto snapshot = checkpoint::load_latest(dir);
  if (!snapshot) {
    ADD_FAILURE() << "no snapshot in " << dir;
    return 0;
  }
  return checkpoint::fnv1a(snapshot->payload);
}

TEST(Checkpoint, LayoutIsPinned) {
  // The payload bytes are the resume contract, so they are pinned here: a
  // checksum that moves means the layout moved, which needs a
  // kSnapshotVersion bump, never a new constant.  Every registry is zeroed
  // before the write, so no wall-clock span latency reaches the bytes; the
  // span series stay listed, which is why the constants differ per
  // telemetry flavour.
#if GH_TELEMETRY_ENABLED
  constexpr std::uint64_t kRackChecksum = 0x21a44516710cbb89ULL;
  constexpr std::uint64_t kFleetChecksum = 0x5ed7e8b246c596e9ULL;
#else
  constexpr std::uint64_t kRackChecksum = 0x4805414ab6f09130ULL;
  constexpr std::uint64_t kFleetChecksum = 0x060b1a358ae21ae4ULL;
#endif
  ScratchDir scratch;
  const Minutes horizon{8.0 * 60.0};

  RackSimulator rack = make_pinned_rack(11, scratch / "rack" / "flightrec",
                                        scratch / "rack" / "ckpt");
  rack.pretrain();
  (void)rack.run(horizon);
  rack.telemetry().metrics().reset();
  rack.write_checkpoint();
  EXPECT_EQ(payload_checksum(scratch / "rack" / "ckpt"), kRackChecksum)
      << std::hex << payload_checksum(scratch / "rack" / "ckpt");

  // Three racks on two shards.
  std::vector<RackSimulator> racks;
  for (std::uint64_t i = 0; i < 3; ++i) {
    racks.push_back(
        make_pinned_rack(20 + i, scratch / "fleet" / "flightrec", ""));
  }
  FleetConfig cfg;
  cfg.total_grid_budget = Watts{700.0};
  cfg.mode = GridShareMode::kDemandProportional;
  cfg.check = true;
  cfg.shards = 2;
  cfg.telemetry.loss_ledger = true;
  cfg.checkpoint_dir = (scratch / "fleet" / "ckpt").string();
  cfg.checkpoint_every = 1000;
  Fleet fleet{std::move(racks), cfg};
  fleet.pretrain();
  (void)fleet.run(horizon);
  fleet.telemetry().metrics().reset();
  for (std::size_t i = 0; i < fleet.size(); ++i) {
    fleet.rack(i).telemetry().metrics().reset();
  }
  fleet.write_checkpoint();
  EXPECT_EQ(payload_checksum(scratch / "fleet" / "ckpt"), kFleetChecksum)
      << std::hex << payload_checksum(scratch / "fleet" / "ckpt");
}

// ---------------------------------------------------------------------------
// The v9 checksum (XXH64) and the directory rule.
// ---------------------------------------------------------------------------

std::string hex(std::uint64_t v) {
  std::ostringstream out;
  out << std::hex << v;
  return out.str();
}

TEST(SnapshotV9, ChecksumIsXxh64OfTheKnownAnswers) {
  ASSERT_EQ(checkpoint::kSnapshotVersion, 9u);
  const std::pair<std::string_view, std::uint64_t> known[] = {
      {"", 0xef46db3751d8e999ULL},
      {"a", 0xd24ec4f1a98c6e5bULL},
      {"abc", 0x44bc2cf5ad770999ULL},
      {"Nobody inspects the spammish repetition", 0xfbcea83c8a378bf1ULL},
  };
  for (const auto& [input, expected] : known) {
    const std::uint64_t found = checkpoint::xxh64(input);
    EXPECT_EQ(found, expected)
        << "v" << checkpoint::kSnapshotVersion << " checksum of \"" << input
        << "\": found " << hex(found) << ", expected " << hex(expected);
  }
}

TEST(SnapshotV9, StreamingHashEqualsOneShotAtEveryCut) {
  Rng rng{2024};
  for (std::size_t size = 0; size <= 300; ++size) {
    std::string bytes(size, '\0');
    for (char& c : bytes) {
      c = static_cast<char>(rng.uniform_int(0, 255));
    }
    const std::string_view all = bytes;
    const std::uint64_t expected = checkpoint::xxh64(all);
    // Two chunks at every cut, and three chunks at every pair of cuts for
    // the sizes around one 32-byte stripe and a few beyond.
    for (std::size_t a = 0; a <= size; ++a) {
      checkpoint::Xxh64 two;
      two.update(all.substr(0, a));
      two.update(all.substr(a));
      ASSERT_EQ(two.digest(), expected)
          << "size " << size << " cut at " << a << ": found "
          << hex(two.digest()) << ", expected " << hex(expected);
      if (size > 100 && size % 37 != 0) continue;
      for (std::size_t b = a; b <= size; ++b) {
        checkpoint::Xxh64 three;
        three.update(all.substr(0, a));
        three.update(all.substr(a, b - a));
        three.update(all.substr(b));
        ASSERT_EQ(three.digest(), expected)
            << "size " << size << " cut at " << a << " and " << b
            << ": found " << hex(three.digest()) << ", expected "
            << hex(expected);
      }
    }
  }
  // The one-shot hash itself agrees with the stripe boundaries it crosses.
  for (const std::size_t size : {31u, 32u, 33u, 63u, 64u, 65u}) {
    const std::string bytes(size, 'x');
    checkpoint::Xxh64 bytewise;
    for (char c : bytes) bytewise.update(std::string_view(&c, 1));
    EXPECT_EQ(bytewise.digest(), checkpoint::xxh64(bytes)) << size;
  }
}

/// A three-rack, two-shard fleet of pinned racks checkpointing into `dir`
/// every `every` epochs (60-minute epochs).
Fleet make_checkpointing_fleet(const fs::path& dir, int every,
                               const std::atomic<bool>* stop = nullptr) {
  std::vector<RackSimulator> racks;
  for (std::uint64_t i = 0; i < 3; ++i) {
    racks.push_back(make_pinned_rack(40 + i, "", ""));
  }
  FleetConfig cfg;
  cfg.total_grid_budget = Watts{700.0};
  cfg.shards = 2;
  cfg.checkpoint_dir = dir.string();
  cfg.checkpoint_every = every;
  cfg.stop_flag = stop;
  Fleet fleet{std::move(racks), cfg};
  fleet.pretrain();
  return fleet;
}

TEST(SnapshotV9, RefusesACorruptOrTruncatedFleetSnapshot) {
  ScratchDir scratch;
  Fleet fleet = make_checkpointing_fleet(scratch / "ckpt", 1000);
  (void)fleet.run(Minutes{3.0 * 60.0});
  fleet.write_checkpoint();
  const auto files = checkpoint::list_snapshots(scratch / "ckpt");
  ASSERT_EQ(files.size(), 1u);
  const std::string pristine = read_file(files[0]);
  ASSERT_NO_THROW((void)checkpoint::load_snapshot(files[0]));

  constexpr std::size_t kHeader = 44;
  ASSERT_GT(pristine.size(), kHeader + 1000);
  struct Damage {
    const char* what;
    std::string bytes;
  };
  std::vector<Damage> damaged;
  // Header bytes the load checks: magic, version, payload size, checksum.
  // (The epoch and the scenario fingerprint are checked by the resume.)
  for (const std::size_t at : {std::size_t{0}, std::size_t{8},
                               std::size_t{28}, std::size_t{36}, kHeader,
                               kHeader + pristine.size() / 2,
                               pristine.size() - 1}) {
    std::string bytes = pristine;
    bytes[at] ^= 0x10;
    damaged.push_back({at < kHeader ? "flipped header byte"
                                    : "flipped payload byte",
                       std::move(bytes)});
  }
  damaged.push_back({"truncated", pristine.substr(0, pristine.size() - 1)});
  for (const Damage& d : damaged) {
    write_file(files[0], d.bytes);
    EXPECT_THROW((void)checkpoint::load_snapshot(files[0]),
                 checkpoint::CheckpointError)
        << d.what;
  }

  // A flipped payload byte is named by both checksums.
  std::string flipped = pristine;
  flipped.back() ^= 0x01;
  write_file(files[0], flipped);
  checkpoint::Reader header(std::string_view(pristine).substr(36, 8));
  const std::uint64_t stored = header.u64();
  const std::uint64_t actual =
      checkpoint::xxh64(std::string_view(flipped).substr(kHeader));
  try {
    (void)checkpoint::load_snapshot(files[0]);
    ADD_FAILURE() << "a flipped last payload byte was accepted";
  } catch (const checkpoint::CheckpointError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("checksum mismatch"), std::string::npos)
        << message;
    EXPECT_NE(message.find(std::string(16 - hex(stored).size(), '0') +
                           hex(stored)),
              std::string::npos)
        << message << " (expected " << hex(stored) << ")";
    EXPECT_NE(message.find(std::string(16 - hex(actual).size(), '0') +
                           hex(actual)),
              std::string::npos)
        << message << " (found " << hex(actual) << ")";
  }

  // A version-8 header (FNV-1a era) is refused by its version.
  std::string v8 = pristine;
  v8[8] = 8;
  write_file(files[0], v8);
  try {
    (void)checkpoint::load_snapshot(files[0]);
    ADD_FAILURE() << "a version-8 snapshot was accepted";
  } catch (const checkpoint::CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported checkpoint version 8"),
              std::string::npos)
        << e.what();
  }
}

TEST(Snapshot, WriteRemovesLaterEpochsLeftByAnEarlierRun) {
  ScratchDir scratch;
  for (const int keep : {2, 0}) {
    const fs::path dir = scratch / ("keep" + std::to_string(keep));
    for (std::uint64_t e : {188u, 192u}) write_snapshot(dir, e, 1, "old", keep);
    write_snapshot(dir, 4, 1, "new", keep);
    const auto files = checkpoint::list_snapshots(dir);
    ASSERT_EQ(files.size(), 1u) << "keep_last " << keep;
    EXPECT_EQ(checkpoint::load_snapshot(files[0]).epoch_index, 4u);
    write_snapshot(dir, 8, 1, "new", keep);
    EXPECT_EQ(checkpoint::list_snapshots(dir).size(), 2u);
  }
}

TEST(Snapshot, AStoppedRerunResumesFromItsOwnCheckpoint) {
  // A finished run leaves its last snapshots; the same scenario run again
  // into the same directory and stopped after one epoch must resume from
  // that epoch, not from the earlier run's later state.
  ScratchDir scratch;
  const fs::path dir = scratch / "ckpt";
  {
    Fleet first = make_checkpointing_fleet(dir, 2);
    ASSERT_FALSE(first.run(Minutes{8.0 * 60.0}).interrupted);
  }
  ASSERT_EQ(checkpoint::list_snapshots(dir).size(), 2u);
  std::atomic<bool> stop{true};
  {
    Fleet rerun = make_checkpointing_fleet(dir, 2, &stop);
    ASSERT_TRUE(rerun.run(Minutes{8.0 * 60.0}).interrupted);
  }
  const auto latest = checkpoint::load_latest(dir);
  ASSERT_TRUE(latest.has_value());
  EXPECT_EQ(latest->epoch_index, 1u);
  EXPECT_EQ(checkpoint::list_snapshots(dir).size(), 1u);

  stop = false;
  Fleet resumed = make_checkpointing_fleet(dir, 2, &stop);
  resumed.load_checkpoint(*latest);
  const FleetReport report = resumed.run(Minutes{8.0 * 60.0});
  EXPECT_FALSE(report.interrupted);
  EXPECT_EQ(report.racks.front().epochs.size(), 8u);
}

TEST(Snapshot, LoadLatestEmptyDirectory) {
  ScratchDir scratch;
  EXPECT_FALSE(checkpoint::load_latest(scratch.path()).has_value());
  EXPECT_FALSE(checkpoint::load_latest(scratch / "missing").has_value());
}

}  // namespace
}  // namespace greenhetero
