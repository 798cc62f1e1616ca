// Equivalence tests for the two-phase pipelined scheduler: on randomized
// fleets — mixed ownership (including unowned satellites), degraded beams,
// re-acquisition backoff, spare-priority weights, and parties with no ground
// stations — run() must reproduce run_reference() bit for bit, down to link
// ordering, faulted and unfaulted, for every thread-pool size.
#include <gtest/gtest.h>

#include <stdexcept>

#include "fault/timeline.hpp"
#include "net/scheduler.hpp"
#include "orbit/geodesy.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace mpleo::net {
namespace {

using constellation::Satellite;

const orbit::TimePoint kEpoch = orbit::TimePoint::from_iso8601("2024-11-18T00:00:00Z");

struct RandomFleet {
  SchedulerConfig config;
  std::vector<Satellite> satellites;
  std::vector<Terminal> terminals;
  std::vector<GroundStation> stations;
  std::size_t party_count = 0;
};

RandomFleet make_fleet(std::uint64_t seed) {
  util::Xoshiro256PlusPlus rng(seed);
  RandomFleet f;
  f.party_count = 2 + rng.uniform_index(3);
  f.config.beams_per_satellite = 1 + static_cast<int>(rng.uniform_index(3));
  f.config.reacquisition_backoff_steps = rng.uniform_index(4);
  if (rng.uniform() < 0.5) {
    for (std::size_t p = 0; p < f.party_count; ++p) {
      f.config.spare_priority_by_party.push_back(rng.uniform(0.0, 5.0));
    }
  }

  const std::size_t n_sats = 3 + rng.uniform_index(6);
  for (std::size_t i = 0; i < n_sats; ++i) {
    Satellite sat;
    sat.id = static_cast<constellation::SatelliteId>(i);
    sat.owner_party = rng.uniform() < 0.15
                          ? Satellite::kUnowned
                          : static_cast<std::uint32_t>(rng.uniform_index(f.party_count));
    sat.elements = orbit::ClassicalElements::circular(
        rng.uniform(500e3, 700e3), rng.uniform(40.0, 70.0), rng.uniform(0.0, 360.0),
        rng.uniform(0.0, 360.0));
    sat.epoch = kEpoch;
    f.satellites.push_back(sat);
  }

  const std::size_t n_terms = 2 + rng.uniform_index(6);
  for (std::size_t i = 0; i < n_terms; ++i) {
    Terminal t;
    t.id = static_cast<TerminalId>(i);
    t.owner_party = static_cast<std::uint32_t>(rng.uniform_index(f.party_count));
    t.location = orbit::Geodetic::from_degrees(rng.uniform(-35.0, 35.0),
                                               rng.uniform(0.0, 60.0));
    t.radio = default_user_terminal();
    t.demand_bps = rng.uniform(10e6, 200e6);
    f.terminals.push_back(t);
  }

  // Stations never belong to the last party, so at least one party always
  // contends with an empty ground segment (its terminals must ride spare
  // capacity through other parties' stations — i.e. not at all, under the
  // same-party-station rule — and stay unserved).
  const std::size_t n_stations = 1 + rng.uniform_index(4);
  for (std::size_t i = 0; i < n_stations; ++i) {
    GroundStation gs;
    gs.id = static_cast<GroundStationId>(i);
    gs.owner_party = static_cast<std::uint32_t>(rng.uniform_index(f.party_count - 1));
    gs.location = orbit::Geodetic::from_degrees(rng.uniform(-35.0, 35.0),
                                                rng.uniform(0.0, 60.0));
    gs.radio = default_ground_station();
    f.stations.push_back(gs);
  }
  return f;
}

fault::FaultTimeline make_faults(const orbit::TimeGrid& grid, const RandomFleet& fleet,
                                 std::uint64_t seed) {
  util::Xoshiro256PlusPlus rng(seed ^ 0x9e3779b97f4a7c15ULL);
  fault::FaultTimeline faults(grid, fleet.satellites.size(), fleet.stations.size());
  const double span = grid.duration_seconds();
  for (std::size_t si = 0; si < fleet.satellites.size(); ++si) {
    if (rng.uniform() < 0.4) {
      const double start = rng.uniform(0.0, 0.7 * span);
      faults.add_satellite_outage(si, start, start + rng.uniform(0.05, 0.3) * span);
    }
    if (rng.uniform() < 0.4) {
      const double start = rng.uniform(0.0, 0.7 * span);
      faults.add_transponder_degradation(si, start,
                                         start + rng.uniform(0.05, 0.3) * span,
                                         rng.uniform(0.2, 0.9));
    }
  }
  for (std::size_t gi = 0; gi < fleet.stations.size(); ++gi) {
    if (rng.uniform() < 0.4) {
      const double start = rng.uniform(0.0, 0.7 * span);
      faults.add_station_outage(gi, start, start + rng.uniform(0.05, 0.3) * span);
    }
  }
  return faults;
}

orbit::TimeGrid test_grid() {
  // 90 minutes at 60 s: one orbit's worth of rises and sets, and enough
  // steps (90) to cross a StepMask word boundary inside the pipeline.
  return orbit::TimeGrid::over_duration(kEpoch, 5400.0, 60.0);
}

class SchedulerPipeline : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerPipeline, MatchesReferenceBitForBit) {
  const RandomFleet f = make_fleet(GetParam());
  const BentPipeScheduler scheduler(f.config, f.satellites, f.terminals, f.stations);
  const orbit::TimeGrid grid = test_grid();

  const ScheduleResult reference =
      scheduler.run_reference(grid, f.party_count, nullptr, /*keep_steps=*/true);
  const ScheduleResult pipelined = scheduler.run(grid, f.party_count, /*keep_steps=*/true);
  EXPECT_TRUE(pipelined == reference);
}

TEST_P(SchedulerPipeline, FaultedMatchesReferenceBitForBit) {
  const RandomFleet f = make_fleet(GetParam());
  const BentPipeScheduler scheduler(f.config, f.satellites, f.terminals, f.stations);
  const orbit::TimeGrid grid = test_grid();
  const fault::FaultTimeline faults = make_faults(grid, f, GetParam());

  const ScheduleResult reference =
      scheduler.run_reference(grid, f.party_count, &faults, /*keep_steps=*/true);
  const ScheduleResult pipelined =
      scheduler.run(grid, f.party_count, &faults, /*keep_steps=*/true);
  EXPECT_TRUE(pipelined == reference);
}

TEST_P(SchedulerPipeline, PoolSizeNeverChangesResult) {
  const RandomFleet f = make_fleet(GetParam());
  const BentPipeScheduler scheduler(f.config, f.satellites, f.terminals, f.stations);
  const orbit::TimeGrid grid = test_grid();
  const fault::FaultTimeline faults = make_faults(grid, f, GetParam());

  const ScheduleResult serial = scheduler.run(grid, f.party_count, /*keep_steps=*/true);
  const ScheduleResult serial_faulted =
      scheduler.run(grid, f.party_count, &faults, /*keep_steps=*/true);
  for (const std::size_t threads : {1u, 2u, 3u}) {
    util::ThreadPool pool(threads);
    const ScheduleResult pooled =
        scheduler.run(grid, f.party_count, /*keep_steps=*/true, &pool);
    EXPECT_TRUE(pooled == serial) << "pool size " << threads;
    const ScheduleResult pooled_faulted =
        scheduler.run(grid, f.party_count, &faults, /*keep_steps=*/true, &pool);
    EXPECT_TRUE(pooled_faulted == serial_faulted) << "pool size " << threads;
  }
}

TEST(SchedulerPipeline, EmptyFaultTimelineMatchesPlainRun) {
  const RandomFleet f = make_fleet(7);
  const BentPipeScheduler scheduler(f.config, f.satellites, f.terminals, f.stations);
  const orbit::TimeGrid grid = test_grid();
  const fault::FaultTimeline empty;

  const ScheduleResult plain = scheduler.run(grid, f.party_count, /*keep_steps=*/true);
  const ScheduleResult with_empty =
      scheduler.run(grid, f.party_count, &empty, /*keep_steps=*/true);
  EXPECT_TRUE(with_empty == plain);
}

TEST(SchedulerPipeline, AggregatesMatchWithoutKeptSteps) {
  // keep_steps=false drops the per-step lists from both paths; the aggregate
  // comparison must still hold (and the steps vectors compare equal-empty).
  const RandomFleet f = make_fleet(11);
  const BentPipeScheduler scheduler(f.config, f.satellites, f.terminals, f.stations);
  const orbit::TimeGrid grid = test_grid();

  const ScheduleResult reference = scheduler.run_reference(grid, f.party_count);
  const ScheduleResult pipelined = scheduler.run(grid, f.party_count);
  EXPECT_TRUE(pipelined == reference);
  EXPECT_TRUE(pipelined.steps.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerPipeline, ::testing::Range<std::uint64_t>(0, 12));

// The footprint-stream path (spatial index + shell shards + bounded-queue
// streaming) must be indistinguishable from the classic pair-mask path when
// the candidate cap is off — same grants, same link ordering, same metrics-
// bearing aggregates — regardless of chunk shape, slot count, or pool size.
class SchedulerFootprintStream : public ::testing::TestWithParam<std::uint64_t> {};

// Stream shapes the identity tests sweep.
constexpr std::size_t kChunkSteps[] = {1, 8, 16, 64};
constexpr std::size_t kPoolSizes[] = {2, 3, 4, 8};

RandomFleet make_streamed_fleet(std::uint64_t seed) {
  RandomFleet f = make_fleet(seed);
  f.config.visibility_mode = VisibilityMode::kFootprintStream;
  return f;
}

TEST_P(SchedulerFootprintStream, MatchesReferenceBitForBit) {
  const RandomFleet f = make_streamed_fleet(GetParam());
  const BentPipeScheduler scheduler(f.config, f.satellites, f.terminals, f.stations);
  const orbit::TimeGrid grid = test_grid();

  const ScheduleResult reference =
      scheduler.run_reference(grid, f.party_count, nullptr, /*keep_steps=*/true);
  const ScheduleResult streamed = scheduler.run(grid, f.party_count, /*keep_steps=*/true);
  EXPECT_TRUE(streamed == reference);
}

TEST_P(SchedulerFootprintStream, FaultedMatchesReferenceBitForBit) {
  const RandomFleet f = make_streamed_fleet(GetParam());
  const BentPipeScheduler scheduler(f.config, f.satellites, f.terminals, f.stations);
  const orbit::TimeGrid grid = test_grid();
  const fault::FaultTimeline faults = make_faults(grid, f, GetParam());

  const ScheduleResult reference =
      scheduler.run_reference(grid, f.party_count, &faults, /*keep_steps=*/true);
  const ScheduleResult streamed =
      scheduler.run(grid, f.party_count, &faults, /*keep_steps=*/true);
  EXPECT_TRUE(streamed == reference);
}

TEST_P(SchedulerFootprintStream, ChunkSlotAndPoolShapeNeverChangeResult) {
  RandomFleet f = make_streamed_fleet(GetParam());
  const orbit::TimeGrid grid = test_grid();
  const fault::FaultTimeline faults = make_faults(grid, f, GetParam());

  const BentPipeScheduler baseline(f.config, f.satellites, f.terminals, f.stations);
  const ScheduleResult expected =
      baseline.run(grid, f.party_count, &faults, /*keep_steps=*/true);

  // Phase-1 tasks are single steps: chunk_steps = 1 on the 90-step grid
  // makes more chunks than 8 per thread, 64 leaves a short final chunk, and
  // the 8-thread pool has more lanes than steps per chunk.
  for (const std::size_t chunk_steps : kChunkSteps) {
    for (const std::size_t slots : {std::size_t{1}, std::size_t{2}, std::size_t{5}}) {
      SchedulerConfig config = f.config;
      config.stream_chunk_steps = chunk_steps;
      config.stream_slots = slots;
      const BentPipeScheduler scheduler(config, f.satellites, f.terminals, f.stations);
      const ScheduleResult serial =
          scheduler.run(grid, f.party_count, &faults, /*keep_steps=*/true);
      EXPECT_TRUE(serial == expected)
          << "chunk_steps=" << chunk_steps << " slots=" << slots;
      for (const std::size_t threads : kPoolSizes) {
        util::ThreadPool pool(threads);
        const ScheduleResult pooled =
            scheduler.run(grid, f.party_count, &faults, /*keep_steps=*/true, &pool);
        EXPECT_TRUE(pooled == expected)
            << "chunk_steps=" << chunk_steps << " slots=" << slots
            << " pool=" << threads;
      }
    }
  }
}

TEST_P(SchedulerFootprintStream, CandidateCapIsDeterministicAcrossShapes) {
  // A finite cap may legitimately drop low-capacity candidates, so the result
  // is not compared against the exact path — but it must be a pure function
  // of the inputs: pool size, chunk shape, and slot count cannot change it.
  RandomFleet f = make_streamed_fleet(GetParam());
  f.config.max_candidates_per_terminal = 2;
  const orbit::TimeGrid grid = test_grid();

  const BentPipeScheduler baseline(f.config, f.satellites, f.terminals, f.stations);
  const ScheduleResult expected = baseline.run(grid, f.party_count, /*keep_steps=*/true);

  for (const std::size_t chunk_steps : kChunkSteps) {
    SchedulerConfig reshaped = f.config;
    reshaped.stream_chunk_steps = chunk_steps;
    reshaped.stream_slots = 3;
    const BentPipeScheduler scheduler(reshaped, f.satellites, f.terminals, f.stations);
    EXPECT_TRUE(scheduler.run(grid, f.party_count, /*keep_steps=*/true) == expected)
        << "chunk_steps=" << chunk_steps;
    for (const std::size_t threads : kPoolSizes) {
      util::ThreadPool pool(threads);
      const ScheduleResult pooled =
          scheduler.run(grid, f.party_count, /*keep_steps=*/true, &pool);
      EXPECT_TRUE(pooled == expected)
          << "chunk_steps=" << chunk_steps << " pool=" << threads;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerFootprintStream,
                         ::testing::Range<std::uint64_t>(0, 8));

TEST(SchedulerFootprintStreamConfig, RejectsBadStreamShapes) {
  const RandomFleet f = make_fleet(3);
  SchedulerConfig bad_chunk = f.config;
  bad_chunk.stream_chunk_steps = 12;  // not a power of two
  EXPECT_THROW(BentPipeScheduler(bad_chunk, f.satellites, f.terminals, f.stations),
               std::invalid_argument);
  SchedulerConfig huge_chunk = f.config;
  huge_chunk.stream_chunk_steps = 128;  // chunks must fit one mask word
  EXPECT_THROW(BentPipeScheduler(huge_chunk, f.satellites, f.terminals, f.stations),
               std::invalid_argument);
  SchedulerConfig big_cap = f.config;
  big_cap.max_candidates_per_terminal = 65;
  EXPECT_THROW(BentPipeScheduler(big_cap, f.satellites, f.terminals, f.stations),
               std::invalid_argument);
}

}  // namespace
}  // namespace mpleo::net
