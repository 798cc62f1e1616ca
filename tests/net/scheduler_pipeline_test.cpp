// Equivalence tests for the two-phase pipelined scheduler: on randomized
// fleets — mixed ownership (including unowned satellites), degraded beams,
// re-acquisition backoff, spare-priority weights, and parties with no ground
// stations — run() must reproduce run_reference() bit for bit, down to link
// ordering, faulted and unfaulted, for every thread-pool size.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "constellation/population.hpp"
#include "coverage/footprint_index.hpp"
#include "fault/timeline.hpp"
#include "net/scheduler.hpp"
#include "obs/metrics.hpp"
#include "orbit/geodesy.hpp"
#include "sim/run_context.hpp"
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

// Phase-1 edge shapes — regenerative relays, empty terminal or station sets,
// a party with no station, stations owned outside [0, party_count): each
// must match run_reference, faulted and unfaulted, serial and pooled.
TEST(SchedulerPipeline, StreamCoversFormerPairMaskCases) {
  const orbit::TimeGrid grid = test_grid();
  std::vector<std::pair<const char*, RandomFleet>> cases;

  RandomFleet regenerative = make_fleet(3);
  regenerative.config.relay_mode = RelayMode::kRegenerative;
  {
    // The relay mode must reach phase 1's link budgets: regenerative
    // capacities differ from transparent ones on the same fleet.
    const RandomFleet transparent = make_fleet(3);
    const ScheduleResult a =
        BentPipeScheduler(regenerative.config, regenerative.satellites,
                          regenerative.terminals, regenerative.stations)
            .run_reference(grid, regenerative.party_count, nullptr, true);
    const ScheduleResult b = BentPipeScheduler(transparent.config, transparent.satellites,
                                               transparent.terminals, transparent.stations)
                                 .run_reference(grid, transparent.party_count, nullptr, true);
    EXPECT_GT(a.total_served_seconds, 0.0);
    EXPECT_FALSE(a == b);
  }
  cases.emplace_back("regenerative relay", regenerative);

  RandomFleet no_terminals = make_fleet(4);
  no_terminals.terminals.clear();
  cases.emplace_back("zero terminals", no_terminals);

  RandomFleet no_stations = make_fleet(5);
  no_stations.stations.clear();
  cases.emplace_back("zero stations", no_stations);

  // make_fleet never gives the last party a station; give it terminals.
  RandomFleet stationless_party = make_fleet(6);
  for (std::size_t ti = 0; ti < stationless_party.terminals.size(); ti += 2) {
    stationless_party.terminals[ti].owner_party =
        static_cast<std::uint32_t>(stationless_party.party_count - 1);
  }
  cases.emplace_back("party with no station", stationless_party);

  // Stations owned by parties outside [0, party_count) match no terminal.
  RandomFleet foreign_station = make_fleet(8);
  foreign_station.stations[0].owner_party =
      static_cast<std::uint32_t>(foreign_station.party_count);
  foreign_station.stations.push_back(foreign_station.stations.back());
  foreign_station.stations.back().owner_party = 1000;
  cases.emplace_back("station owner >= party_count", foreign_station);

  for (const auto& [name, f] : cases) {
    const BentPipeScheduler scheduler(f.config, f.satellites, f.terminals, f.stations);
    const fault::FaultTimeline faults = make_faults(grid, f, 17);
    const ScheduleResult reference =
        scheduler.run_reference(grid, f.party_count, nullptr, /*keep_steps=*/true);
    const ScheduleResult faulted_reference =
        scheduler.run_reference(grid, f.party_count, &faults, /*keep_steps=*/true);
    EXPECT_TRUE(scheduler.run(grid, f.party_count, /*keep_steps=*/true) == reference)
        << name;
    EXPECT_TRUE(scheduler.run(grid, f.party_count, &faults, /*keep_steps=*/true) ==
                faulted_reference)
        << name;
    for (const std::size_t threads : {2u, 4u}) {
      util::ThreadPool pool(threads);
      EXPECT_TRUE(scheduler.run(grid, f.party_count, /*keep_steps=*/true, &pool) ==
                  reference)
          << name << " pool " << threads;
      EXPECT_TRUE(scheduler.run(grid, f.party_count, &faults, /*keep_steps=*/true,
                                &pool) == faulted_reference)
          << name << " pool " << threads;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerPipeline, ::testing::Range<std::uint64_t>(0, 12));

// The footprint stream (spatial index + shell shards + bounded-queue
// streaming) must be indistinguishable from the reference scan when the
// candidate cap is off — same grants, same link ordering, same metrics-
// bearing aggregates — regardless of chunk shape, slot count, or pool size.
class SchedulerFootprintStream : public ::testing::TestWithParam<std::uint64_t> {};

// Stream shapes the identity tests sweep.
constexpr std::size_t kChunkSteps[] = {1, 8, 16, 64};
constexpr std::size_t kPoolSizes[] = {2, 3, 4, 8};

TEST_P(SchedulerFootprintStream, MatchesReferenceBitForBit) {
  const RandomFleet f = make_fleet(GetParam());
  const BentPipeScheduler scheduler(f.config, f.satellites, f.terminals, f.stations);
  const orbit::TimeGrid grid = test_grid();

  const ScheduleResult reference =
      scheduler.run_reference(grid, f.party_count, nullptr, /*keep_steps=*/true);
  const ScheduleResult streamed = scheduler.run(grid, f.party_count, /*keep_steps=*/true);
  EXPECT_TRUE(streamed == reference);
}

TEST_P(SchedulerFootprintStream, FaultedMatchesReferenceBitForBit) {
  const RandomFleet f = make_fleet(GetParam());
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
  RandomFleet f = make_fleet(GetParam());
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
  RandomFleet f = make_fleet(GetParam());
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

// A population-sampled fleet: 320 terminals clustered around the paper's
// cities, so the footprint index's slot order is far from terminal-id order,
// with per-terminal radios, on a Walker shell with 2 beams per satellite
// (contended grants). Party 0 withholds half its beams from the commons,
// party 2 is barred from it, and SLO observation is on, so the withheld
// counter and SLO stats are live.
RandomFleet make_population_fleet() {
  RandomFleet f;
  f.party_count = 3;
  f.config.beams_per_satellite = 2;
  f.config.stream_chunk_steps = 8;
  f.config.spare_withheld_fraction = {0.5};
  f.config.spare_exclude_party = {0, 0, 1};
  f.config.degradation.slo_window_steps = 10;

  constellation::WalkerShell shell;
  shell.plane_count = 12;
  shell.sats_per_plane = 10;
  f.satellites = shell.build(kEpoch);
  for (std::size_t i = 0; i < f.satellites.size(); ++i) {
    f.satellites[i].owner_party = static_cast<std::uint32_t>(i % f.party_count);
  }
  // Every tenth satellite flies twice (same orbit, same owner), so exact
  // capacity ties occur and the satellite-ascending tie-break is exercised.
  const std::size_t distinct = f.satellites.size();
  for (std::size_t i = 0; i < distinct; i += 10) {
    Satellite twin = f.satellites[i];
    twin.id = static_cast<constellation::SatelliteId>(f.satellites.size());
    f.satellites.push_back(twin);
  }
  const constellation::PopulationSampler sampler;
  const std::vector<orbit::Geodetic> terminal_sites = sampler.sample(320, 41);
  for (std::size_t i = 0; i < terminal_sites.size(); ++i) {
    Terminal t;
    t.id = static_cast<TerminalId>(i);
    t.owner_party = static_cast<std::uint32_t>(i % f.party_count);
    t.location = terminal_sites[i];
    // Per-terminal transmit power, so each slot's uplink budget is its own.
    t.radio = default_user_terminal();
    t.radio.transmit_power_dbw += 0.5 * static_cast<double>(i % 7);
    t.demand_bps = 50e6;
    f.terminals.push_back(t);
  }
  const std::vector<orbit::Geodetic> station_sites = sampler.sample(24, 42);
  for (std::size_t i = 0; i < station_sites.size(); ++i) {
    GroundStation gs;
    gs.id = static_cast<GroundStationId>(i);
    gs.owner_party = static_cast<std::uint32_t>(i % f.party_count);
    gs.location = station_sites[i];
    gs.radio = default_ground_station();
    f.stations.push_back(gs);
  }
  return f;
}

// Pool sizes the population-fleet tests sweep; 0 runs with no pool at all.
constexpr std::size_t kPopulationPools[] = {0, 1, 2, 4, 8};

ScheduleResult run_with_pool(const BentPipeScheduler& scheduler, const RandomFleet& f,
                             const orbit::TimeGrid& grid, std::size_t threads) {
  std::optional<util::ThreadPool> pool;
  if (threads > 0) pool.emplace(threads);
  return scheduler.run(grid, f.party_count, /*keep_steps=*/true,
                       pool ? &*pool : nullptr);
}

TEST(SchedulerFootprintStream, PopulationFleetSlotOrderDiffersFromIdOrder) {
  const RandomFleet f = make_population_fleet();
  std::vector<orbit::TopocentricFrame> frames;
  for (const Terminal& t : f.terminals) frames.emplace_back(t.location);
  const cov::FootprintIndex index(frames);
  const std::span<const std::uint32_t> ids = index.site_ids();
  ASSERT_EQ(ids.size(), f.terminals.size());
  EXPECT_FALSE(std::is_sorted(ids.begin(), ids.end()));
}

TEST(SchedulerFootprintStream, PopulationFleetMatchesAcrossPoolsAndReference) {
  const RandomFleet f = make_population_fleet();
  const orbit::TimeGrid grid = test_grid();
  // cap 64 keeps every candidate of this fleet, so the capped path's
  // slot-indexed top-K blocks and merge must reproduce the reference too.
  for (const std::size_t cap : {std::size_t{0}, std::size_t{1}, std::size_t{4},
                                std::size_t{64}}) {
    SchedulerConfig config = f.config;
    config.max_candidates_per_terminal = cap;
    const BentPipeScheduler scheduler(config, f.satellites, f.terminals, f.stations);
    const ScheduleResult expected = run_with_pool(scheduler, f, grid, 0);
    ASSERT_TRUE(expected.slo.has_value());
    EXPECT_GT(expected.slo->grant_flaps, 0u) << "cap=" << cap;
    EXPECT_GT(expected.total_served_seconds, 0.0) << "cap=" << cap;
    if (cap == 0 || cap == 64) {
      EXPECT_TRUE(expected == scheduler.run_reference(grid, f.party_count, nullptr,
                                                      /*keep_steps=*/true))
          << "cap=" << cap;
    }
    for (const std::size_t threads : kPopulationPools) {
      EXPECT_TRUE(run_with_pool(scheduler, f, grid, threads) == expected)
          << "cap=" << cap << " pool=" << threads;
    }
  }
}

TEST(SchedulerFootprintStream, PooledHysteresisRunGrantsInOrderAndMatchesReference) {
  // Sticky spare grants read last step's grant, so this fault-free run must
  // take the in-order consumer grant even under a pool.
  RandomFleet f = make_population_fleet();
  f.config.degradation.enabled = true;
  f.config.degradation.spare_hysteresis_margin = 0.2;
  const BentPipeScheduler scheduler(f.config, f.satellites, f.terminals, f.stations);
  const orbit::TimeGrid grid = test_grid();

  const ScheduleResult reference =
      scheduler.run_reference(grid, f.party_count, nullptr, /*keep_steps=*/true);
  util::ThreadPool pool(4);
  sim::RunContext context;
  context.use_pool(&pool);
  EXPECT_TRUE(scheduler.run(grid, f.party_count, context, /*keep_steps=*/true) ==
              reference);
  EXPECT_EQ(context.metrics().counter_value("sched.step_local_grant_steps"), 0u);
  EXPECT_TRUE(run_with_pool(scheduler, f, grid, 8) == reference);
}

TEST(SchedulerFootprintStream, PopulationFleetCountersMatchAcrossPools) {
  const RandomFleet f = make_population_fleet();
  const BentPipeScheduler scheduler(f.config, f.satellites, f.terminals, f.stations);
  const orbit::TimeGrid grid = test_grid();

  const auto counters_for = [&](std::size_t threads) {
    std::optional<util::ThreadPool> pool;
    if (threads > 0) pool.emplace(threads);
    sim::RunContext context;
    context.use_pool(pool ? &*pool : nullptr);
    (void)scheduler.run(grid, f.party_count, context);
    return context.metrics().snapshot().counters;
  };
  const auto value = [](const auto& counters, std::string_view name) {
    for (const auto& [key, v] : counters) {
      if (key == name) return v;
    }
    return std::uint64_t{0};
  };

  const auto serial = counters_for(0);
  // Fault-free and without hysteresis: every step grants inside its task.
  EXPECT_EQ(value(serial, "sched.step_local_grant_steps"), grid.count);
  EXPECT_GT(value(serial, "sched.beam_rejections"), 0u);
  EXPECT_GT(value(serial, "sched.spare_withheld_rejections"), 0u);
  EXPECT_GT(value(serial, "sched.links_granted"), 0u);
  for (const std::size_t threads : kPopulationPools) {
    EXPECT_EQ(counters_for(threads), serial) << "pool=" << threads;
  }
}

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
