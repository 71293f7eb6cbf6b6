// Streaming telemetry pipeline: the streaming trace sink's ordering
// contract (its watermark merge against a reference stable sort, fleet
// traces byte-identical at any thread count, with and without chaos
// faults), rings that keep no history, rollup window aggregation and its
// analyzer round-trip, truncation footers and the analyze/--diff gate,
// flight-recorder dumps on forced health degradation, and the periodic
// metrics flush.
#include "telemetry/stream_sink.h"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/trace_analyzer.h"
#include "checkpoint/serializer.h"
#include "core/health.h"
#include "faults/fault_plan.h"
#include "fleet/fleet.h"
#include "server/combinations.h"
#include "telemetry/metrics.h"
#include "telemetry/rollup.h"
#include "trace/solar.h"
#include "trace_file.h"
#include "util/rng.h"

namespace greenhetero {
namespace {

namespace fs = std::filesystem;
using testtrace::read_file;
using testtrace::ScratchDir;

/// A test event: the merge key (t, rack) and an index that tells the lines
/// apart; `text` and `w` ride along as extra fields when `rich`.
struct Event {
  double t = 0.0;
  int rack = 0;
  int index = 0;
  bool rich = false;
  double w = 0.0;
};

Event make_event(double t, int rack, int index) { return {t, rack, index}; }

/// Encode `event` into `lines` through the trace encoder.
void append_event(telemetry::TraceLines& lines, const Event& event) {
  if (event.rich) {
    const telemetry::TraceField fields[] = {
        {"i", event.index}, {"text", "q\"\\\n\x01"}, {"w", event.w}};
    lines.append(event.t, event.rack, "unit", fields);
  } else {
    const telemetry::TraceField fields[] = {{"i", event.index}};
    lines.append(event.t, event.rack, "unit", fields);
  }
}

/// The schema header, then every event's line in order.
std::string expected_file(const std::vector<Event>& events) {
  telemetry::TraceLines lines;
  for (const Event& event : events) append_event(lines, event);
  return telemetry::trace_header_json() + "\n" + std::string(lines.bytes());
}

/// push_merge over the single source `events`.
void merge_one(telemetry::StreamingTraceSink& sink,
               const std::vector<Event>& events, double watermark) {
  telemetry::TraceLines lines;
  for (const Event& event : events) append_event(lines, event);
  telemetry::TraceLines* const sources[] = {&lines};
  sink.push_merge(sources, watermark);
  EXPECT_TRUE(lines.empty());  // the sink took every line
}

// ---------------------------------------------------------------------------
// Sink unit tests: ordering, backpressure, watermark merge, footer.
// ---------------------------------------------------------------------------

TEST(StreamingSink, WritesInOrderUnderBackpressureAndAppendsFooter) {
  // The sink writes into a FIFO whose reader drains nothing until the
  // producer has stalled, so the writer thread blocks on a full pipe and
  // the 2-line queue must fill: the stall is certain, not a race.
  ScratchDir scratch;
  const fs::path path = scratch / "unit.fifo";
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0) << std::strerror(errno);
  // Open the read end first, non-blocking so it needs no writer yet; the
  // sink's open for writing then returns at once.
  const int fd = ::open(path.c_str(), O_RDONLY | O_NONBLOCK);
  ASSERT_GE(fd, 0) << std::strerror(errno);
  telemetry::StreamSinkConfig config;
  config.path = path;
  config.queue_capacity = 2;

  std::string expected = telemetry::trace_header_json() + "\n";
  std::string drained;
  {
    telemetry::StreamingTraceSink sink(config);
#ifdef F_SETPIPE_SZ
    // The smallest pipe buffer: a few dozen lines fill it.
    (void)::fcntl(fd, F_SETPIPE_SZ, 4096);
#endif
    ASSERT_EQ(::fcntl(fd, F_SETFL, 0), 0);  // blocking reads from here on
    std::thread reader([&sink, &drained, fd] {
      // The deadline only bounds a sink that never waits: it then fails
      // the stall check below instead of hanging.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (sink.stalls() == 0 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      char buffer[4096];
      for (;;) {
        const ssize_t n = ::read(fd, buffer, sizeof buffer);
        if (n > 0) {
          drained.append(buffer, static_cast<std::size_t>(n));
        } else if (n == 0 || errno != EINTR) {
          break;  // end of file: the sink closed its end
        }
      }
    });
    telemetry::TraceLines batch;
    for (int i = 0; i < 2000; ++i) {
      append_event(batch, make_event(static_cast<double>(i), 0, i));
    }
    expected += batch.bytes();
    // One batch far larger than the queue: the producer must chunk it and
    // block while the writer catches up, never exceeding the bound.
    sink.push(batch);
    EXPECT_TRUE(batch.empty());
    sink.note_dropped(3);
    sink.flush();
    EXPECT_EQ(sink.events_written(), 2000u);
    EXPECT_GE(sink.stalls(), 1u);
    EXPECT_LE(sink.peak_queue_depth(), config.queue_capacity);
    sink.close();
    reader.join();
  }
  ::close(fd);
  telemetry::append_truncation_footer(expected, 1999.0, 3);
  EXPECT_EQ(drained, expected);
}

/// The sink's order, spelled out independently of stream_sink.cpp: sim
/// time, then rack id.
bool event_before(const Event& a, const Event& b) {
  if (a.t != b.t) return a.t < b.t;
  return a.rack < b.rack;
}

TEST(StreamingSink, PushMergeReproducesTheBufferedSortAtWatermarks) {
  ScratchDir scratch;
  const fs::path path = scratch / "merge.jsonl";

  // Two epoch barriers' worth of events in the buffered writer's
  // concatenation order (coordinator -1 first, then racks 0..N), with
  // cross-source interleavings the merge must untangle.
  const std::vector<Event> epoch0 = {
      make_event(0.0, -1, 0), make_event(0.0, 0, 1), make_event(5.0, 0, 2),
      make_event(0.0, 1, 3), make_event(5.0, 1, 4)};
  const std::vector<Event> epoch1 = {
      make_event(10.0, -1, 5), make_event(10.0, 0, 6),
      make_event(12.0, 0, 7), make_event(10.0, 1, 8)};

  std::vector<Event> all;
  all.insert(all.end(), epoch0.begin(), epoch0.end());
  all.insert(all.end(), epoch1.begin(), epoch1.end());
  std::stable_sort(all.begin(), all.end(), event_before);
  const std::string expected = expected_file(all);

  {
    telemetry::StreamSinkConfig config;
    config.path = path;
    telemetry::StreamingTraceSink sink(config);
    merge_one(sink, epoch0, 10.0);
    merge_one(sink, epoch1, std::numeric_limits<double>::infinity());
    sink.close();
  }
  EXPECT_EQ(read_file(path), expected);
}

TEST(StreamingSink, PushMergeMatchesStableSortOfRandomBatches) {
  // The merge's independent reference.  Each barrier hands over one batch
  // per epoch, sources in coordinator-then-racks order, every event stamped
  // within [epoch start, watermark]: timestamps come from a coarse grid so
  // (t, rack) ties are common, and some land exactly on the watermark,
  // which the merge must hold back to the next barrier.  After a final
  // +inf flush the file must equal std::stable_sort of the concatenation.
  ScratchDir scratch;
  constexpr double kEpoch = 15.0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const int sources = rng.uniform_int(1, 5);  // rack ids -1 .. sources-2
    const int epochs = rng.uniform_int(1, 6);
    std::vector<std::vector<Event>> batches;
    std::vector<Event> all;
    int index = 0;
    for (int e = 0; e < epochs; ++e) {
      std::vector<Event>& batch = batches.emplace_back();
      for (int source = 0; source < sources; ++source) {
        const int count = rng.uniform_int(0, 6);
        for (int i = 0; i < count; ++i) {
          const double t = (e + rng.uniform_int(0, 3) / 3.0) * kEpoch;
          batch.push_back(make_event(t, source - 1, index++));
        }
      }
      all.insert(all.end(), batch.begin(), batch.end());
    }
    std::stable_sort(all.begin(), all.end(), event_before);
    const std::string expected = expected_file(all);

    const fs::path path = scratch / ("merge-" + std::to_string(seed));
    {
      telemetry::StreamingTraceSink sink({path});
      for (int e = 0; e < epochs; ++e) {
        merge_one(sink, batches[static_cast<std::size_t>(e)], (e + 1) * kEpoch);
      }
      sink.push_merge({}, std::numeric_limits<double>::infinity());
      sink.close();
      EXPECT_EQ(sink.events_written(), all.size());
    }
    EXPECT_EQ(read_file(path), expected);
  }
}

TEST(StreamingSink, EncodedLineMergeMatchesToJsonOfStableSortedEvents) {
  // The fleet's path: each source's events are encoded into its own ring
  // as they are emitted (by the shard thread stepping the rack; here by
  // one thread per source), and the sink merges only the (t, rack) tags.
  // The file must equal the encoding of a stable sort of every event, with
  // lines held back at a watermark crossing barriers, at any queue bound.
  ScratchDir scratch;
  constexpr double kEpoch = 15.0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed * 7919);
    const int sources = rng.uniform_int(1, 6);  // rack ids -1 .. sources-2
    const int epochs = rng.uniform_int(1, 6);
    std::vector<std::vector<std::vector<Event>>> per_epoch;
    std::vector<Event> all;
    int index = 0;
    for (int e = 0; e < epochs; ++e) {
      auto& epoch = per_epoch.emplace_back(static_cast<std::size_t>(sources));
      for (int source = 0; source < sources; ++source) {
        const int count = rng.uniform_int(0, 8);
        for (int i = 0; i < count; ++i) {
          const double t = (e + rng.uniform_int(0, 3) / 3.0) * kEpoch;
          Event event = make_event(t, source - 1, index++);
          event.rich = true;
          event.w = rng.uniform(-1e3, 1e3);
          epoch[static_cast<std::size_t>(source)].push_back(event);
          all.push_back(event);
        }
      }
    }
    std::stable_sort(all.begin(), all.end(), event_before);
    const std::string expected = expected_file(all);

    const fs::path path = scratch / ("lines-" + std::to_string(seed));
    {
      telemetry::StreamSinkConfig config{path};
      config.queue_capacity = static_cast<std::size_t>(rng.uniform_int(1, 9));
      telemetry::StreamingTraceSink sink(config);
      std::vector<telemetry::TraceLines> lines(
          static_cast<std::size_t>(sources));
      std::vector<telemetry::TraceLines*> rings;
      for (telemetry::TraceLines& source : lines) rings.push_back(&source);
      for (int e = 0; e < epochs; ++e) {
        std::vector<std::thread> encoders;
        for (int source = 0; source < sources; ++source) {
          encoders.emplace_back([&, e, source] {
            for (const Event& event :
                 per_epoch[static_cast<std::size_t>(e)]
                          [static_cast<std::size_t>(source)]) {
              append_event(lines[static_cast<std::size_t>(source)], event);
            }
          });
        }
        for (std::thread& encoder : encoders) encoder.join();
        sink.push_merge(rings, (e + 1) * kEpoch);
        for (const telemetry::TraceLines& source : lines) {
          EXPECT_TRUE(source.empty());  // the sink took every line
        }
      }
      sink.push_merge(rings, std::numeric_limits<double>::infinity());
      sink.close();
      EXPECT_EQ(sink.events_written(), all.size());
    }
    EXPECT_EQ(read_file(path), expected);
  }
}

TEST(StreamingSink, RejectsInvalidConfiguration) {
  ScratchDir scratch;
  telemetry::StreamSinkConfig zero_queue;
  zero_queue.path = scratch / "zero.jsonl";
  zero_queue.queue_capacity = 0;
  EXPECT_THROW(telemetry::StreamingTraceSink{zero_queue},
               std::invalid_argument);

  telemetry::StreamSinkConfig unwritable;
  unwritable.path = scratch / "no-such-dir" / "trace.jsonl";
  EXPECT_THROW(telemetry::StreamingTraceSink{unwritable}, std::runtime_error);

  SimConfig sim_cfg;
  sim_cfg.metrics_flush_every = 0;
  EXPECT_THROW(sim_cfg.validate(), std::invalid_argument);

  FleetConfig fleet_cfg;
  fleet_cfg.trace_stream = telemetry::StreamSinkConfig{};
  fleet_cfg.trace_stream->queue_capacity = 0;
  EXPECT_THROW(fleet_cfg.validate(), FleetError);
}

TEST(StreamingSink, LoadStateRefusesACorruptPendingLine) {
  // The reorder tail is restored through the trace-line codec, so a
  // checksum-valid snapshot whose pending line is not one JSON object is
  // refused by name instead of being written into the resumed file.
  ScratchDir scratch;
  checkpoint::Writer w;
  w.u64(0);    // durable offset
  w.f64(0.0);  // last written t
  w.u64(0);    // dropped total
  w.seq(1);
  w.f64(15.0);
  w.i64(0);
  w.str("not json\n");
  w.u64(0);  // stalls
  w.u64(0);  // events written
  telemetry::StreamSinkConfig config{scratch / "resumed.jsonl"};
  config.resume = true;
  telemetry::StreamingTraceSink sink(config);
  checkpoint::Reader r{w.buffer()};
  try {
    sink.load_state(r);
    ADD_FAILURE() << "a corrupt pending line was restored";
  } catch (const checkpoint::CheckpointError& e) {
    EXPECT_EQ(std::string(e.what()),
              "stream sink: line 0 is not one JSON object and a newline");
  }
}

// ---------------------------------------------------------------------------
// Byte identity against the buffered writers.
// ---------------------------------------------------------------------------

RackSimulator make_sim(SimConfig cfg, Watts solar_capacity = Watts{2400.0},
                       std::uint64_t seed = 7) {
  Rack rack{default_runtime_rack(), Workload::kSpecJbb};
  cfg.controller.policy = PolicyKind::kGreenHetero;
  cfg.controller.seed = seed;
  cfg.controller.epoch = Minutes{15.0};
  GridSpec grid;
  grid.budget = Watts{800.0};
  PowerTrace trace =
      generate_solar_trace(high_solar_model(solar_capacity), 2, seed);
  return RackSimulator{std::move(rack),
                       make_standard_plant(std::move(trace), grid),
                       std::move(cfg)};
}

TEST(StreamingSink, SingleRackRingKeepsNoHistory) {
  // Streamed: every barrier hands the ring's events to the sink, so the ring
  // ends the run empty.
  ScratchDir scratch;
  SimConfig streamed_cfg;
  streamed_cfg.trace_stream =
      telemetry::StreamSinkConfig{scratch / "stream.jsonl", 8};
  RackSimulator streamed = make_sim(std::move(streamed_cfg));
  streamed.pretrain();
  streamed.run(Minutes{6.0 * 60.0});
  ASSERT_NE(streamed.stream(), nullptr);
  EXPECT_GT(testtrace::streamed_events(streamed).size(), 24u);
  EXPECT_EQ(streamed.telemetry().trace().size(), 0u);
  EXPECT_GT(streamed.telemetry().trace().peak_bytes(), 0u);

  // Nothing reads the trace: no event is built, so checkpoints carry no
  // trace history and grow by the epoch store alone.
  RackSimulator unread = make_sim(SimConfig{});
  unread.pretrain();
  EXPECT_EQ(unread.stream(), nullptr);
  const auto snapshot_bytes = [&unread] {
    checkpoint::Writer w;
    checkpoint::save(w, unread);
    return w.buffer().size();
  };
  unread.run(Minutes{60.0});
  const std::size_t after_4 = snapshot_bytes();
  unread.run(Minutes{6.0 * 60.0});
  EXPECT_EQ(unread.telemetry().trace().size(), 0u);
  EXPECT_EQ(unread.telemetry().trace().peak_bytes(), 0u);
  // A fresh run() restarts the report, so the second run holds 24 epochs.
  EXPECT_LT(snapshot_bytes(), after_4 + 20 * 256);

  // A flight recorder is a reader too: it sees the events, while the ring
  // is still emptied at every barrier.
  SimConfig recorded_cfg;
  recorded_cfg.telemetry.flightrec_dir = (scratch / "flightrec").string();
  RackSimulator recorded = make_sim(std::move(recorded_cfg));
  recorded.pretrain();
  recorded.run(Minutes{6.0 * 60.0});
  EXPECT_EQ(recorded.telemetry().trace().size(), 0u);
  EXPECT_GT(recorded.telemetry().trace().peak_bytes(), 0u);
  EXPECT_FALSE(recorded.telemetry().flightrec().lines().empty());
}

RackSimulator make_fleet_rack(Watts solar_capacity, std::uint64_t seed,
                              const FaultPlan& faults) {
  SimConfig cfg;
  cfg.check = true;
  cfg.faults = faults;
  cfg.telemetry.rollup_window_min = 120.0;
  return make_sim(std::move(cfg), solar_capacity, seed);
}

struct FleetRun {
  std::string trace;    ///< the streamed file's bytes
  std::string rollups;  ///< write_rollup_jsonl after the run
};

FleetRun run_fleet(std::size_t threads, const fs::path& stream_path,
                   const FaultPlan& faults = {}) {
  const double capacities[] = {300.0, 1200.0, 2400.0, 4800.0};
  std::vector<RackSimulator> racks;
  for (std::size_t i = 0; i < 4; ++i) {
    racks.push_back(make_fleet_rack(Watts{capacities[i]},
                                    50 + static_cast<std::uint64_t>(i),
                                    faults));
  }
  FleetConfig cfg;
  cfg.total_grid_budget = Watts{2000.0};
  cfg.mode = GridShareMode::kDemandProportional;
  cfg.check = true;
  cfg.threads = threads;
  cfg.trace_stream = telemetry::StreamSinkConfig{stream_path, 64};
  Fleet fleet{std::move(racks), cfg};
  fleet.pretrain();
  fleet.run(Minutes{6.0 * 60.0});

  FleetRun artifacts;
  artifacts.trace = testtrace::streamed_trace(fleet);
  std::ostringstream rollups;
  fleet.write_rollup_jsonl(rollups);
  artifacts.rollups = rollups.str();
  return artifacts;
}

TEST(StreamingSink, FleetStreamIdenticalAtEveryThreadCount) {
  ScratchDir scratch;
  const FleetRun reference = run_fleet(1, scratch / "fleet-1.jsonl");
  ASSERT_FALSE(reference.trace.empty());
  for (const std::size_t threads : {2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const FleetRun run = run_fleet(
        threads, scratch / ("fleet-" + std::to_string(threads) + ".jsonl"));
    EXPECT_EQ(run.trace, reference.trace);
    EXPECT_EQ(run.rollups, reference.rollups);
  }
}

TEST(StreamingSink, FleetStreamStaysIdenticalUnderChaosFaults) {
  ScratchDir scratch;
  const FaultPlan plan = make_random_plan(23, Minutes{6.0 * 60.0},
                                          default_runtime_rack().size());
  const FleetRun reference = run_fleet(1, scratch / "chaos-1.jsonl", plan);
  const FleetRun parallel = run_fleet(4, scratch / "chaos-4.jsonl", plan);
  EXPECT_EQ(parallel.trace, reference.trace);
  EXPECT_EQ(parallel.rollups, reference.rollups);
}

// ---------------------------------------------------------------------------
// Rollup aggregation.
// ---------------------------------------------------------------------------

telemetry::RollupSample sample_at(double t, double epu, double shortfall_w,
                                  double grid_w, int health) {
  telemetry::RollupSample sample;
  sample.t_min = t;
  sample.epu = epu;
  sample.shortfall_w = shortfall_w;
  sample.grid_w = grid_w;
  sample.health_state = health;
  return sample;
}

TEST(Rollup, AggregatesFixedWindowsAndFlushesTheTail) {
  telemetry::Rollup rollup(60.0);
  ASSERT_TRUE(rollup.enabled());
  EXPECT_FALSE(rollup.observe_epoch(sample_at(0, 1.0, 10, 100, 0)));
  EXPECT_FALSE(rollup.observe_epoch(sample_at(15, 2.0, 20, 200, 1)));
  EXPECT_FALSE(rollup.observe_epoch(sample_at(30, 3.0, 30, 300, 0)));
  EXPECT_FALSE(rollup.observe_epoch(sample_at(45, 4.0, 40, 400, 0)));

  const auto closed = rollup.observe_epoch(sample_at(60, 5.0, 50, 500, 2));
  ASSERT_TRUE(closed.has_value());
  EXPECT_EQ(closed->start_min, 0.0);
  EXPECT_EQ(closed->end_min, 60.0);
  EXPECT_EQ(closed->epochs, 4u);
  // Stamped with the *closing* epoch's time so the streaming sink's
  // watermark merge never sees a past timestamp.
  EXPECT_EQ(closed->emitted_t_min, 60.0);
  EXPECT_EQ(closed->health_occupancy[0], 3u);
  EXPECT_EQ(closed->health_occupancy[1], 1u);

  std::string line;
  telemetry::append_rollup_line(line, *closed, 3);
  EXPECT_EQ(line,
            "{\"t\":60,\"rack\":3,\"phase\":\"rollup\",\"window_start_min\":0,"
            "\"window_end_min\":60,\"epochs\":4,\"epu\":2.5,"
            "\"shortfall_w\":25,\"grid_w\":250,\"health_normal\":3,"
            "\"health_degraded\":1,\"health_safe\":0,"
            "\"health_recovering\":0}\n");

  const auto tail = rollup.flush(75.0);
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->start_min, 60.0);
  EXPECT_EQ(tail->epochs, 1u);
  EXPECT_EQ(tail->emitted_t_min, 75.0);
  EXPECT_EQ(rollup.windows().size(), 2u);
  // Nothing left open: a second flush is a no-op.
  EXPECT_FALSE(rollup.flush(80.0).has_value());

  telemetry::Rollup disabled(0.0);
  EXPECT_FALSE(disabled.enabled());
  EXPECT_FALSE(disabled.observe_epoch(sample_at(0, 1.0, 0, 0, 0)));
  EXPECT_TRUE(disabled.windows().empty());
}

TEST(Rollup, HealthFieldNamesPinCoreHealthStateNames) {
  // rollup.cpp spells the HealthState names locally (telemetry must not
  // include upward into core); this pins them to core's to_string so the
  // two cannot drift apart silently.
  telemetry::RollupWindow window;
  window.epochs = 1;
  window.health_occupancy = {1, 2, 3, 4};
  std::string line;
  telemetry::append_rollup_line(line, window, 0);
  const HealthState states[] = {HealthState::kNormal, HealthState::kDegraded,
                                HealthState::kSafe, HealthState::kRecovering};
  for (std::size_t s = 0; s < 4; ++s) {
    const std::string field = "\"health_" + std::string(to_string(states[s])) +
                              "\":" + std::to_string(s + 1);
    const std::size_t at = line.find(field);
    ASSERT_NE(at, std::string::npos) << field << line;
    EXPECT_TRUE(line[at + field.size()] == ',' ||
                line[at + field.size()] == '}')
        << field << line;
  }
}

TEST(Rollup, SeriesFileRoundTripsThroughTheAnalyzer) {
  ScratchDir scratch;
  const fs::path trace = scratch / "trace.jsonl";
  SimConfig cfg;
  cfg.telemetry.rollup_window_min = 60.0;
  cfg.trace_stream = telemetry::StreamSinkConfig{trace};
  RackSimulator sim = make_sim(std::move(cfg));
  sim.pretrain();
  sim.run(Minutes{6.0 * 60.0});  // run() flushes the trailing window

  const auto& windows = sim.telemetry().rollup().windows();
  ASSERT_EQ(windows.size(), 6u);

  const fs::path series = scratch / "rollup.jsonl";
  {
    std::ofstream out(series);
    sim.telemetry().rollup().write_jsonl(out, sim.telemetry().rack_id());
  }
  sim.stream()->close();

  const analysis::TraceAnalysis from_series =
      analysis::analyze(analysis::load_trace(series));
  const analysis::TraceAnalysis from_trace =
      analysis::analyze(analysis::load_trace(trace));
  ASSERT_EQ(from_series.rollups.size(), windows.size());
  ASSERT_EQ(from_trace.rollups.size(), windows.size());
  for (std::size_t i = 0; i < windows.size(); ++i) {
    SCOPED_TRACE("window " + std::to_string(i));
    const analysis::RollupRow& row = from_series.rollups[i];
    EXPECT_EQ(row.start_min, windows[i].start_min);
    EXPECT_EQ(row.end_min, windows[i].end_min);
    EXPECT_EQ(row.racks, 1u);
    EXPECT_EQ(row.epochs, windows[i].epochs);
    const double n = static_cast<double>(windows[i].epochs);
    EXPECT_NEAR(row.mean_epu, windows[i].epu_sum / n, 1e-9);
    // The standalone series and the full trace must agree window by window.
    EXPECT_EQ(row.start_min, from_trace.rollups[i].start_min);
    EXPECT_EQ(row.epochs, from_trace.rollups[i].epochs);
    EXPECT_EQ(row.mean_epu, from_trace.rollups[i].mean_epu);
  }
}

// ---------------------------------------------------------------------------
// Truncation footer and the analyze / --diff gate.
// ---------------------------------------------------------------------------

TEST(Truncation, FooterLandsInExportsAndFailsTheDiffGate) {
  ScratchDir scratch;
  const fs::path path = scratch / "truncated.jsonl";
  SimConfig cfg;
  cfg.telemetry.trace_capacity = 2;  // fewer than one epoch's events
  cfg.trace_stream = telemetry::StreamSinkConfig{path};
  RackSimulator sim = make_sim(std::move(cfg));
  sim.pretrain();
  sim.run(Minutes{6.0 * 60.0});
  const std::uint64_t dropped = sim.telemetry().trace().dropped();
  ASSERT_GT(dropped, 0u);

  EXPECT_NE(testtrace::streamed_trace(sim).find("trace_truncated"),
            std::string::npos);

  const analysis::TraceAnalysis truncated =
      analysis::analyze(analysis::load_trace(path));
  EXPECT_EQ(truncated.truncated_dropped, dropped);

  const analysis::DiffResult diff = analysis::diff(truncated, truncated);
  EXPECT_TRUE(diff.truncated());
  // Partial data never passes the CI gate, no matter how lax the threshold.
  EXPECT_TRUE(analysis::exceeds_threshold(diff, 1e9));
}

// ---------------------------------------------------------------------------
// Flight recorder.
// ---------------------------------------------------------------------------

TEST(FlightRecorder, DumpsRingPlanAndMetricsOnForcedDegrade) {
  ScratchDir scratch;
  const fs::path dir = scratch / "flightrec";
  SimConfig cfg;
  cfg.telemetry.flightrec_dir = dir.string();
  FaultPlan plan;
  FaultEvent fault;
  fault.at = Minutes{60.0};
  fault.kind = FaultKind::kMonitorDropout;
  fault.value = 1.0;  // every monitor sample dropped -> stale -> degraded
  plan.add(fault);
  cfg.faults = plan;
  RackSimulator sim = make_sim(std::move(cfg));
  sim.pretrain();
  sim.run(Minutes{6.0 * 60.0});
  ASSERT_GE(sim.telemetry().flightrec().dumps(), 1);

  std::vector<fs::path> dumps;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("flightrec-rack0-") && name.ends_with(".jsonl")) {
      dumps.push_back(entry.path());
    }
  }
  ASSERT_EQ(dumps.size(),
            static_cast<std::size_t>(sim.telemetry().flightrec().dumps()));

  bool saw_degrade_dump = false;
  for (const fs::path& dump : dumps) {
    // Every dump is a valid v2 trace the analyzer reads directly.
    const analysis::TraceData data = analysis::load_trace(dump);
    const analysis::TraceAnalysis analysis = analysis::analyze(data);
    ASSERT_FALSE(analysis.flightrecs.empty()) << dump;
    if (analysis.flightrecs.front().reason != "health_degraded") continue;
    saw_degrade_dump = true;
    EXPECT_EQ(analysis.flightrecs.front().rack_id, 0);
    EXPECT_GE(analysis.flightrecs.front().t_min, 60.0);
    // The fault plan rides along as context rows.
    bool has_plan_row = false;
    for (const json::Value& event : data.events) {
      if (event.string_or("phase", "") != "fault_plan_row") continue;
      has_plan_row = true;
      EXPECT_EQ(event.string_or("kind", ""), "monitor_dropout");
      EXPECT_EQ(event.string_or("state", ""), "delivered");
      EXPECT_EQ(event.number_or("at_min", -1.0), 60.0);
    }
    EXPECT_TRUE(has_plan_row) << dump;
    // The metrics snapshot at dump time lands next to the trace.
    fs::path metrics = dump;
    metrics.replace_extension();
    metrics += "-metrics.json";
    EXPECT_TRUE(fs::exists(metrics)) << metrics;
    EXPECT_FALSE(read_file(metrics).empty());
  }
  EXPECT_TRUE(saw_degrade_dump);
}

TEST(FlightRecorder, DirectDumpIsNoOpWhenDisabled) {
  SimConfig cfg;  // no flightrec_dir
  RackSimulator sim = make_sim(std::move(cfg));
  EXPECT_FALSE(sim.telemetry().flightrec().enabled());
  EXPECT_TRUE(sim.dump_flight_record("run_abort").empty());
  EXPECT_EQ(sim.telemetry().flightrec().dumps(), 0);
}

// ---------------------------------------------------------------------------
// Periodic metrics flush.
// ---------------------------------------------------------------------------

TEST(MetricsFlush, RunLeavesACompleteSnapshotAndNoTempFile) {
  ScratchDir scratch;
  const fs::path path = scratch / "metrics.prom";
  SimConfig cfg;
  cfg.metrics_out = path.string();
  cfg.metrics_flush_every = 4;
  RackSimulator sim = make_sim(std::move(cfg));
  sim.pretrain();
  sim.run(Minutes{6.0 * 60.0});
  const std::string contents = read_file(path);
  EXPECT_NE(contents.find("gh_trace_buffer_bytes"), std::string::npos);
  // Temp-and-rename: the scratch file must never survive a flush.
  EXPECT_FALSE(fs::exists(path.string() + ".tmp"));
}

TEST(MetricsFlush, HumanSiblingRidesAlongWithMachineFormats) {
  ScratchDir scratch;
  telemetry::MetricsRegistry registry;
  registry.counter("gh_substeps_total").increment();
  const telemetry::MetricsSource sources[] = {{&registry}};

  // Machine-readable flush also refreshes the human-readable .txt sibling.
  const fs::path as_prom = scratch / "metrics.prom";
  telemetry::save_metrics(sources, as_prom, /*human_sibling=*/true);
  const fs::path sibling = scratch / "metrics.txt";
  ASSERT_TRUE(fs::exists(sibling));
  const std::string sibling_body = read_file(sibling);
  EXPECT_NE(sibling_body.find("gh_substeps_total"), std::string::npos);
  EXPECT_NE(sibling_body, read_file(as_prom));
  // Sibling writes go through the same temp-and-rename path.
  EXPECT_FALSE(fs::exists(sibling.string() + ".tmp"));

  // A .txt primary IS the human format: no second file appears.
  const fs::path as_text = scratch / "solo.txt";
  telemetry::save_metrics(sources, as_text, /*human_sibling=*/true);
  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(as_text.parent_path())) {
    if (entry.path().filename().string().starts_with("solo")) ++files;
  }
  EXPECT_EQ(files, 1u);
}

TEST(MetricsFlush, RunRefreshesTheHumanSibling) {
  ScratchDir scratch;
  const fs::path path = scratch / "metrics.prom";
  SimConfig cfg;
  cfg.metrics_out = path.string();
  cfg.metrics_flush_every = 4;
  RackSimulator sim = make_sim(std::move(cfg));
  sim.pretrain();
  sim.run(Minutes{6.0 * 60.0});
  const fs::path sibling = scratch / "metrics.txt";
  ASSERT_TRUE(fs::exists(sibling));
  EXPECT_NE(read_file(sibling).find("gh_trace_buffer_bytes"),
            std::string::npos);
}

TEST(MetricsFlush, SaveMetricsPicksTheFormatByExtension) {
  ScratchDir scratch;
  telemetry::MetricsRegistry registry;
  registry.counter("gh_substeps_total").increment();
  const telemetry::MetricsSource sources[] = {{&registry}};

  const fs::path as_json = scratch / "m.json";
  const fs::path as_text = scratch / "m.txt";
  const fs::path as_prom = scratch / "m.prom";
  telemetry::save_metrics(sources, as_json);
  telemetry::save_metrics(sources, as_text);
  telemetry::save_metrics(sources, as_prom);

  const std::string json_body = read_file(as_json);
  const std::string text_body = read_file(as_text);
  const std::string prom_body = read_file(as_prom);
  EXPECT_FALSE(json_body.empty());
  EXPECT_FALSE(text_body.empty());
  EXPECT_FALSE(prom_body.empty());
  EXPECT_NE(json_body, prom_body);
  EXPECT_NE(text_body, prom_body);
  // The JSON flavour must parse with the analyzer's reader.
  EXPECT_NO_THROW(json::parse(json_body));
  EXPECT_NE(prom_body.find("gh_substeps_total"), std::string::npos);
}

TEST(MetricsFlush, DirectEncodingMatchesTheSnapshotEncoders) {
  // The run's flush encodes rows straight from the registries; its files
  // must be byte-identical to the snapshot encoders over the same state.
  // 12 racks on 2 shards: labels "10" and "11" sort before "2".
  for (const std::size_t threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    for (const char* const name : {"m.json", "m.prom"}) {
      ScratchDir scratch;
      std::vector<RackSimulator> racks;
      for (std::size_t i = 0; i < 12; ++i) {
        racks.push_back(make_sim({}, Watts{600.0 + 150.0 * i}, 30 + i));
      }
      FleetConfig cfg;
      cfg.total_grid_budget = Watts{4000.0};
      cfg.mode = GridShareMode::kDemandProportional;
      cfg.threads = threads;
      cfg.shards = 2;
      cfg.telemetry.loss_ledger = true;
      cfg.trace_stream = telemetry::StreamSinkConfig{scratch / "t.jsonl"};
      cfg.metrics_out = (scratch / name).string();
      cfg.metrics_flush_every = 3;
      Fleet fleet{std::move(racks), cfg};
      fleet.pretrain();
      (void)fleet.run(Minutes{3.0 * 60.0});
      const MetricsSnapshot snapshot = fleet.metrics_snapshot();
      ASSERT_NE(snapshot.find("gh_substeps_total", {{"rack", "10"}}),
                nullptr);
      const std::string human = read_file(scratch / "m.txt");
      EXPECT_EQ(human, snapshot.to_human());
      if (std::string_view(name) == "m.json") {
        EXPECT_EQ(read_file(scratch / name), snapshot.to_json());
        const std::size_t rack10 = human.find("rack=\"10\"");
        const std::size_t rack2 = human.find("rack=\"2\"");
        ASSERT_NE(rack10, std::string::npos);
        EXPECT_LT(rack10, rack2);
      } else {
        EXPECT_EQ(read_file(scratch / name), snapshot.to_prometheus());
      }
    }
  }
  // A standalone rack: one registry, no rack label.
  for (const char* const name : {"m.json", "m.prom"}) {
    ScratchDir scratch;
    SimConfig cfg;
    cfg.metrics_out = (scratch / name).string();
    cfg.metrics_flush_every = 4;
    RackSimulator sim = make_sim(std::move(cfg));
    sim.pretrain();
    sim.run(Minutes{3.0 * 60.0});
    const MetricsSnapshot snapshot = sim.metrics_snapshot();
    EXPECT_EQ(read_file(scratch / "m.txt"), snapshot.to_human()) << name;
    EXPECT_EQ(read_file(scratch / name), std::string_view(name) == "m.json"
                                             ? snapshot.to_json()
                                             : snapshot.to_prometheus());
  }
}

}  // namespace
}  // namespace greenhetero
