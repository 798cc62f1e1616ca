// sim::build_workload: the one place scale presets turn into fleets. The
// mega presets must be deterministic (fixed site seeds), correctly sized,
// and carry the footprint-stream scheduler preset; the reference preset must
// reproduce the 500-satellite acceptance fleet the scheduler-compare bench
// has always used.
#include "sim/workload.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace mpleo::sim {
namespace {

Scenario smoke_scenario() {
  return ScenarioBuilder().scale(ScalePreset::kMegaSmoke).build();
}

TEST(Workload, MegaSmokeSizesAndOwners) {
  const Workload w = build_workload(smoke_scenario());
  EXPECT_EQ(w.satellites.size(), 3000u);
  EXPECT_EQ(w.terminals.size(), 50'000u);
  EXPECT_EQ(w.stations.size(), 128u);
  EXPECT_EQ(w.party_count, 4u);

  // Owners round-robin over the parties on every fleet axis.
  for (std::size_t i = 0; i < 16; ++i) {
    EXPECT_EQ(w.satellites[i].owner_party, i % 4);
    EXPECT_EQ(w.terminals[i].owner_party, i % 4);
    EXPECT_EQ(w.stations[i].owner_party, i % 4);
  }
  EXPECT_GT(w.terminals.front().demand_bps, 0.0);

  // The mega streaming preset rides in the workload's scheduler config.
  EXPECT_EQ(w.scheduler.stream_chunk_steps, 8u);
  EXPECT_EQ(w.scheduler.stream_slots, 2u);
  EXPECT_EQ(w.scheduler.max_candidates_per_terminal, 4u);
}

TEST(Workload, MegaSitesAreDeterministic) {
  const Workload a = build_workload(smoke_scenario());
  const Workload b = build_workload(smoke_scenario());
  ASSERT_EQ(a.terminals.size(), b.terminals.size());
  for (std::size_t i = 0; i < a.terminals.size(); i += 997) {
    EXPECT_EQ(a.terminals[i].location.latitude_rad,
              b.terminals[i].location.latitude_rad);
    EXPECT_EQ(a.terminals[i].location.longitude_rad,
              b.terminals[i].location.longitude_rad);
  }
  for (std::size_t i = 0; i < a.stations.size(); ++i) {
    EXPECT_EQ(a.stations[i].location.latitude_rad,
              b.stations[i].location.latitude_rad);
  }
}

TEST(Workload, MegaUsesFullGen2Catalog) {
  // Size only — actually scheduling 1M terminals is the bench's job.
  Scenario mega = ScenarioBuilder().scale(ScalePreset::kMega).build();
  mega.terminal_count = 1000;  // shrink sites; the catalog stays full-scale
  const Workload w = build_workload(mega);
  EXPECT_EQ(w.satellites.size(), 29'520u);
  EXPECT_EQ(w.terminals.size(), 1000u);
}

TEST(Workload, ReferenceReproducesAcceptanceFleet) {
  const Workload w = build_workload(ScenarioBuilder().build());
  EXPECT_EQ(w.satellites.size(), 500u);  // Walker 25 planes x 20 sats
  EXPECT_EQ(w.terminals.size(), 200u);
  EXPECT_EQ(w.stations.size(), 20u);
  // Reference scale keeps the scheduler on defaults.
  EXPECT_EQ(w.scheduler.stream_chunk_steps, net::SchedulerConfig{}.stream_chunk_steps);
  EXPECT_EQ(w.scheduler.stream_slots, net::SchedulerConfig{}.stream_slots);
  EXPECT_EQ(w.scheduler.max_candidates_per_terminal,
            net::SchedulerConfig{}.max_candidates_per_terminal);
}

TEST(Workload, InvalidScenarioThrowsUnifiedReport) {
  Scenario broken = smoke_scenario();
  broken.terminal_count = 0;
  try {
    (void)build_workload(broken);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("terminal_count"), std::string::npos);
  }
}

}  // namespace
}  // namespace mpleo::sim
