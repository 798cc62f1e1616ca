// Simulator micro-benchmarks (google-benchmark): the hot paths every figure
// rides on — Kepler solves, propagation, per-step visibility, mask algebra.
//
// Besides the google-benchmark suite, two acceptance modes write a
// machine-readable JSON report (default BENCH_perf_simulator.json; override
// with --out=PATH) and exit non-zero on any bit-identity mismatch:
//
//   --compare            scalar-vs-batched visibility on the canonical
//                        500-satellite x 100-site x 1-day/60s workload
//   --compare-scheduler  run_reference vs the two-phase pipelined scheduler
//                        on 500 satellites x 200 terminals x 20 stations x
//                        1 day/60s across 4 parties, plus a faulted run
//   --backends           per-backend ephemeris fill throughput (J2 scalar,
//                        J2 lane-batched SIMD, SGP4) plus the lane-batched
//                        bit-identity check and the cross-backend
//                        position-error report (the accuracy gate)
//
// All three may be passed together; the report then carries every section.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>

#if defined(__unix__)
#include <sys/resource.h>
#endif

#include "bench_common.hpp"
#include "constellation/population.hpp"
#include "constellation/starlink.hpp"
#include "core/mpleo.hpp"
#include "orbit/simd.hpp"
#include "sim/workload.hpp"
#include "util/thread_pool.hpp"

using namespace mpleo;

namespace {

const orbit::TimePoint kEpoch = orbit::TimePoint::from_iso8601("2024-11-18T00:00:00Z");

void BM_KeplerSolve(benchmark::State& state) {
  const double e = static_cast<double>(state.range(0)) / 100.0;
  double m = 0.0;
  for (auto _ : state) {
    m += 0.1;
    benchmark::DoNotOptimize(orbit::solve_kepler(m, e));
  }
}
BENCHMARK(BM_KeplerSolve)->Arg(0)->Arg(10)->Arg(70);

void BM_PropagateState(benchmark::State& state) {
  const orbit::KeplerianPropagator prop(
      orbit::ClassicalElements::circular(550e3, 53.0, 10.0, 20.0), kEpoch);
  double dt = 0.0;
  for (auto _ : state) {
    dt += 60.0;
    benchmark::DoNotOptimize(prop.state_at_offset(dt));
  }
}
BENCHMARK(BM_PropagateState);

void BM_GmstTableWeek(benchmark::State& state) {
  const orbit::TimeGrid grid =
      orbit::TimeGrid::over_duration(kEpoch, 7.0 * 86400.0, 60.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(orbit::GmstTable::for_grid(grid));
  }
}
BENCHMARK(BM_GmstTableWeek);

void BM_VisibilityMaskWeek(benchmark::State& state) {
  // One satellite against N sites over a one-week 60 s grid — the inner loop
  // of every coverage experiment (batched ephemeris-table path).
  const orbit::TimeGrid grid =
      orbit::TimeGrid::over_duration(kEpoch, 7.0 * 86400.0, 60.0);
  const cov::CoverageEngine engine(grid, 25.0);
  constellation::Satellite sat;
  sat.elements = orbit::ClassicalElements::circular(550e3, 53.0, 10.0, 20.0);
  sat.epoch = kEpoch;
  const auto all = cov::sites_from_cities(cov::paper_cities());
  const std::vector<cov::GroundSite> sites(all.begin(),
                                           all.begin() + state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.visibility_masks(sat, sites));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(grid.count));
}
BENCHMARK(BM_VisibilityMaskWeek)->Arg(1)->Arg(21);

void BM_VisibilityMaskWeekReference(benchmark::State& state) {
  // The exhaustive scalar scan the batched kernel is measured against.
  const orbit::TimeGrid grid =
      orbit::TimeGrid::over_duration(kEpoch, 7.0 * 86400.0, 60.0);
  const cov::CoverageEngine engine(grid, 25.0);
  constellation::Satellite sat;
  sat.elements = orbit::ClassicalElements::circular(550e3, 53.0, 10.0, 20.0);
  sat.epoch = kEpoch;
  const auto all = cov::sites_from_cities(cov::paper_cities());
  const std::vector<cov::GroundSite> sites(all.begin(),
                                           all.begin() + state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.visibility_masks_reference(sat, sites));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(grid.count));
}
BENCHMARK(BM_VisibilityMaskWeekReference)->Arg(1)->Arg(21);

void BM_EphemerisTableDay(benchmark::State& state) {
  // One satellite propagated into a shared table over a 1-day/60s grid.
  const orbit::TimeGrid grid = orbit::TimeGrid::over_duration(kEpoch, 86400.0, 60.0);
  const orbit::GmstTable gmst = orbit::GmstTable::for_grid(grid);
  const orbit::KeplerianPropagator prop(
      orbit::ClassicalElements::circular(550e3, 53.0, 10.0, 20.0), kEpoch);
  for (auto _ : state) {
    benchmark::DoNotOptimize(orbit::EphemerisTable::compute(prop, grid, gmst));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(grid.count));
}
BENCHMARK(BM_EphemerisTableDay);

void BM_EphemerisSetDay(benchmark::State& state) {
  // A whole catalog of tables; Arg is the satellite count. Thread count 1
  // (serial) vs hardware (shared pool) via the second Arg.
  const orbit::TimeGrid grid = orbit::TimeGrid::over_duration(kEpoch, 86400.0, 60.0);
  const orbit::GmstTable gmst = orbit::GmstTable::for_grid(grid);
  constellation::WalkerShell shell;
  shell.plane_count = 10;
  shell.sats_per_plane = 10;
  const auto sats = shell.build(kEpoch);
  const std::vector<orbit::EphemerisSpec> specs = cov::ephemeris_specs(sats);
  util::ThreadPool* pool = state.range(0) == 0 ? nullptr : &util::ThreadPool::shared();
  for (auto _ : state) {
    benchmark::DoNotOptimize(orbit::EphemerisSet::compute(specs, grid, gmst, pool));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(specs.size() * grid.count));
}
BENCHMARK(BM_EphemerisSetDay)->Arg(0)->Arg(1);

void BM_MaskUnion1000(benchmark::State& state) {
  // Union of 1000 one-week masks — the Monte-Carlo subset operation.
  const std::size_t steps = 10081;
  util::Xoshiro256PlusPlus rng(1);
  std::vector<cov::StepMask> masks;
  masks.reserve(1000);
  for (int i = 0; i < 1000; ++i) {
    cov::StepMask m(steps);
    for (int k = 0; k < 60; ++k) {
      m.set(rng.uniform_index(steps));
    }
    masks.push_back(std::move(m));
  }
  for (auto _ : state) {
    cov::StepMask acc(steps);
    for (const auto& m : masks) acc |= m;
    benchmark::DoNotOptimize(acc.count());
  }
}
BENCHMARK(BM_MaskUnion1000);

void BM_IntervalSetInsert(benchmark::State& state) {
  util::Xoshiro256PlusPlus rng(2);
  for (auto _ : state) {
    cov::IntervalSet set;
    for (int i = 0; i < 200; ++i) {
      const double start = rng.uniform(0.0, 1e5);
      set.insert(start, start + rng.uniform(10.0, 500.0));
    }
    benchmark::DoNotOptimize(set.total_length());
  }
}
BENCHMARK(BM_IntervalSetInsert);

void BM_BuildStarlinkCatalog(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(constellation::build_starlink_catalog(kEpoch));
  }
}
BENCHMARK(BM_BuildStarlinkCatalog);

void BM_SchedulerStep(benchmark::State& state) {
  // One scheduling step: N satellites x 4 terminals x 4 stations.
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<constellation::Satellite> sats(n);
  std::vector<util::Vec3> positions;
  for (std::size_t i = 0; i < n; ++i) {
    sats[i].owner_party = static_cast<std::uint32_t>(i % 4);
    positions.push_back(orbit::geodetic_to_ecef(orbit::Geodetic::from_degrees(
        10.0 + 0.3 * static_cast<double>(i % 40), 20.0, 550e3)));
  }
  std::vector<net::Terminal> terminals(4);
  std::vector<net::GroundStation> stations(4);
  for (std::uint32_t i = 0; i < 4; ++i) {
    terminals[i].id = i;
    terminals[i].owner_party = i;
    terminals[i].location = orbit::Geodetic::from_degrees(10.0 + i, 20.0 + i);
    terminals[i].radio = net::default_user_terminal();
    stations[i].id = i;
    stations[i].owner_party = i;
    stations[i].location = orbit::Geodetic::from_degrees(10.5 + i, 20.5 + i);
    stations[i].radio = net::default_ground_station();
  }
  const net::BentPipeScheduler scheduler(net::SchedulerConfig{}, sats, terminals,
                                         stations);
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.schedule_step(positions, 0));
  }
}
BENCHMARK(BM_SchedulerStep)->Arg(10)->Arg(100);

void BM_IslTopologyBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Xoshiro256PlusPlus rng(3);
  std::vector<util::Vec3> positions;
  for (std::size_t i = 0; i < n; ++i) {
    const util::Vec3 dir{rng.normal(), rng.normal(), rng.normal()};
    positions.push_back(dir.normalized() * (util::kEarthMeanRadiusM + 550e3));
  }
  const net::IslConfig cfg;
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::IslTopology::build(positions, cfg));
  }
}
BENCHMARK(BM_IslTopologyBuild)->Arg(100)->Arg(400);

void BM_ConjunctionScreen50(benchmark::State& state) {
  const auto sats = constellation::single_plane(550e3, 53.0, 0.0, 50, kEpoch);
  const orbit::TimeGrid grid = orbit::TimeGrid::over_duration(kEpoch, 6000.0, 30.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(orbit::screen_conjunctions(sats, grid, 50e3));
  }
}
BENCHMARK(BM_ConjunctionScreen50);

void BM_RelayBudget(benchmark::State& state) {
  const auto terminal = net::default_user_terminal();
  const auto transponder = net::default_transponder();
  const auto station = net::default_ground_station();
  for (auto _ : state) {
    benchmark::DoNotOptimize(net::compute_relay(terminal, transponder, station, 800e3,
                                                900e3, net::RelayMode::kTransparent));
  }
}
BENCHMARK(BM_RelayBudget);

// --compare: the acceptance workload. 500 satellites (Walker 25x20) against
// 100 ground sites over one day at 60 s steps, scalar reference vs the shared
// ephemeris kernel (serial and pooled). Masks must match bit-for-bit; the
// process exits non-zero if they do not, so CI can gate on it. Writes its
// JSON object (fields only, no braces) into `out`; returns false on mismatch.
bool run_compare(std::FILE* out) {
  const orbit::TimeGrid grid = orbit::TimeGrid::over_duration(kEpoch, 86400.0, 60.0);
  const cov::CoverageEngine engine(grid, 25.0);

  constellation::WalkerShell shell;
  shell.plane_count = 25;
  shell.sats_per_plane = 20;
  const std::vector<constellation::Satellite> sats = shell.build(kEpoch);

  std::vector<cov::GroundSite> sites;
  sites.reserve(100);
  for (int i = 0; i < 100; ++i) {
    const double lat = -60.0 + 120.0 * static_cast<double>(i % 10) / 9.0;
    const double lon = -180.0 + 360.0 * static_cast<double>(i / 10) / 10.0;
    sites.push_back({"site-" + std::to_string(i),
                     orbit::TopocentricFrame(orbit::Geodetic::from_degrees(lat, lon)),
                     1.0});
  }

  const double sat_steps =
      static_cast<double>(sats.size()) * static_cast<double>(grid.count);
  using clock = std::chrono::steady_clock;

  // Scalar reference: propagate every (satellite, site, step) independently.
  auto t0 = clock::now();
  std::vector<std::vector<cov::StepMask>> reference;
  reference.reserve(sats.size());
  for (const constellation::Satellite& sat : sats) {
    reference.push_back(engine.visibility_masks_reference(sat, sites));
  }
  const double sec_reference = std::chrono::duration<double>(clock::now() - t0).count();

  // Batched serial: one shared ephemeris table per satellite, then masks.
  bool identical = true;
  t0 = clock::now();
  {
    const orbit::EphemerisSet set = engine.ephemerides(sats);
    for (std::size_t i = 0; i < sats.size(); ++i) {
      const std::vector<cov::StepMask> masks =
          engine.visibility_masks(set.table(i), sites);
      for (std::size_t j = 0; j < masks.size(); ++j) {
        if (!(masks[j] == reference[i][j])) identical = false;
      }
    }
  }
  const double sec_batched = std::chrono::duration<double>(clock::now() - t0).count();

  // Batched pooled: same pipeline with the ephemeris fill spread over threads.
  util::ThreadPool pool;
  t0 = clock::now();
  {
    const orbit::EphemerisSet set = engine.ephemerides(sats, &pool);
    for (std::size_t i = 0; i < sats.size(); ++i) {
      const std::vector<cov::StepMask> masks =
          engine.visibility_masks(set.table(i), sites);
      for (std::size_t j = 0; j < masks.size(); ++j) {
        if (!(masks[j] == reference[i][j])) identical = false;
      }
    }
  }
  const double sec_pooled = std::chrono::duration<double>(clock::now() - t0).count();

  const double thr_reference = sat_steps / sec_reference;
  const double thr_batched = sat_steps / sec_batched;
  const double thr_pooled = sat_steps / sec_pooled;

  std::printf("workload: %zu satellites x %zu sites x %zu steps (1 day / 60 s)\n",
              sats.size(), sites.size(), grid.count);
  std::printf("scalar reference : %8.3f s  %10.3e sat*steps/s\n", sec_reference,
              thr_reference);
  std::printf("batched (serial) : %8.3f s  %10.3e sat*steps/s  (%.2fx)\n", sec_batched,
              thr_batched, sec_reference / sec_batched);
  std::printf("batched (%2zu thr) : %8.3f s  %10.3e sat*steps/s  (%.2fx)\n",
              pool.thread_count(), sec_pooled, thr_pooled, sec_reference / sec_pooled);
  std::printf("masks bit-identical: %s\n", identical ? "yes" : "NO");

  std::fprintf(out,
               "  \"ephemeris_compare\": {\n"
               "    \"workload\": {\"satellites\": %zu, \"sites\": %zu, \"steps\": %zu,"
               " \"step_seconds\": 60.0},\n"
               "    \"threads\": %zu,\n"
               "    \"scalar_reference\": {\"seconds\": %.6f, \"sat_steps_per_sec\": %.6e},\n"
               "    \"batched_serial\": {\"seconds\": %.6f, \"sat_steps_per_sec\": %.6e,"
               " \"speedup\": %.4f},\n"
               "    \"batched_pooled\": {\"seconds\": %.6f, \"sat_steps_per_sec\": %.6e,"
               " \"speedup\": %.4f},\n"
               "    \"masks_identical\": %s\n"
               "  }",
               sats.size(), sites.size(), grid.count, pool.thread_count(),
               sec_reference, thr_reference, sec_batched, thr_batched,
               sec_reference / sec_batched, sec_pooled, thr_pooled,
               sec_reference / sec_pooled, identical ? "true" : "false");
  return identical;
}

// --compare-scheduler: the scheduling acceptance workload. 500 satellites
// (Walker 25x20) split across 4 parties, 200 user terminals, 20 ground
// stations, one day at 60 s steps. The scalar reference (run_reference, the
// pre-pipeline per-step joint scan) races the two-phase pipelined run()
// serially and pooled; every ScheduleResult must match the reference bit for
// bit, down to link ordering, and a faulted run over a shorter grid pins the
// degraded-operations contract too. Returns false on any identity mismatch.
//
// The pooled and faulted runs go through `context` (which owns the worker
// pool), so phase timings, candidate occupancy, beam rejections and
// fault-forced detaches accumulate in its metrics registry; main() appends
// them to the JSON report as the "obs" section.
bool run_compare_scheduler(std::FILE* out, sim::RunContext& context) {
  const orbit::TimeGrid grid = orbit::TimeGrid::over_duration(kEpoch, 86400.0, 60.0);

  // The reference workload comes from the same Scenario scale-preset builder
  // the mega runs use, so the 500-sat acceptance fleet is defined in exactly
  // one place (sim::build_workload).
  const sim::Scenario ref_scenario = sim::ScenarioBuilder()
                                         .epoch(kEpoch)
                                         .scale(sim::ScalePreset::kReference)
                                         .build();
  const sim::Workload workload = sim::build_workload(ref_scenario);
  const std::size_t kParties = workload.party_count;
  const std::vector<constellation::Satellite>& sats = workload.satellites;
  const std::vector<net::Terminal>& terminals = workload.terminals;
  const std::vector<net::GroundStation>& stations = workload.stations;

  const net::BentPipeScheduler scheduler(workload.scheduler, sats, terminals,
                                         stations);
  using clock = std::chrono::steady_clock;

  // Best of three repetitions per variant: the workload runs in fractions of
  // a second, so a single sample would fold scheduler noise into the speedup
  // the CI regression gate keys on.
  constexpr int kRepeats = 5;
  const auto timed = [&](auto&& invoke) {
    double best = 0.0;
    net::ScheduleResult result;
    for (int rep = 0; rep < kRepeats; ++rep) {
      const auto t0 = clock::now();
      result = invoke();
      const double sec = std::chrono::duration<double>(clock::now() - t0).count();
      if (rep == 0 || sec < best) best = sec;
    }
    return std::pair{std::move(result), best};
  };

  const auto [reference, sec_reference] = timed(
      [&] { return scheduler.run_reference(grid, kParties, nullptr, /*keep_steps=*/true); });
  const auto [serial, sec_serial] =
      timed([&] { return scheduler.run(grid, kParties, /*keep_steps=*/true); });
  const auto [pooled, sec_pooled] = timed(
      [&] { return scheduler.run(grid, kParties, context, /*keep_steps=*/true); });

  const bool identical = serial == reference && pooled == reference;

  // Every run() takes the footprint-stream phase 1, so "streamed" and
  // "pooled" are now one path; the streamed variant is a second pooled
  // measurement, kept so the report's keys and gates stay as they were.
  const auto [streamed, sec_streamed] = timed(
      [&] { return scheduler.run(grid, kParties, context, /*keep_steps=*/true); });
  const bool streamed_identical = streamed == reference;

  // Faulted identity on a 6 h sub-grid: outages, degradations, and station
  // faults exercise the detach/backoff path through both schedulers.
  const orbit::TimeGrid fault_grid =
      orbit::TimeGrid::over_duration(kEpoch, 6.0 * 3600.0, 60.0);
  fault::FaultTimeline faults(fault_grid, sats.size(), stations.size());
  for (std::size_t si = 0; si < sats.size(); si += 7) {
    const double start = static_cast<double>(si % 11) * 1800.0;
    faults.add_satellite_outage(si, start, start + 3600.0);
  }
  for (std::size_t si = 3; si < sats.size(); si += 9) {
    const double start = static_cast<double>(si % 13) * 1200.0;
    faults.add_transponder_degradation(si, start, start + 5400.0, 0.5);
  }
  for (std::size_t gi = 0; gi < stations.size(); gi += 3) {
    faults.add_station_outage(gi, 3600.0 * static_cast<double>(gi % 4), 3600.0 * 5.0);
  }
  context.use_faults(&faults);
  const net::ScheduleResult faulted_reference =
      scheduler.run_reference(fault_grid, kParties, &faults, /*keep_steps=*/true);
  const bool faulted_identical =
      scheduler.run(fault_grid, kParties, context, /*keep_steps=*/true) ==
      faulted_reference;
  const bool streamed_faulted_identical =
      scheduler.run(fault_grid, kParties, context, /*keep_steps=*/true) ==
      faulted_reference;
  context.clear_faults();

  std::printf(
      "scheduler workload: %zu satellites x %zu terminals x %zu stations"
      " x %zu steps (1 day / 60 s, %zu parties)\n",
      sats.size(), terminals.size(), stations.size(), grid.count, kParties);
  std::printf("scalar reference    : %8.3f s\n", sec_reference);
  std::printf("pipelined (serial)  : %8.3f s  (%.2fx)\n", sec_serial,
              sec_reference / sec_serial);
  std::printf("pipelined (%2zu thr)  : %8.3f s  (%.2fx)\n", context.thread_count(),
              sec_pooled, sec_reference / sec_pooled);
  std::printf("streamed  (%2zu thr)  : %8.3f s  (%.2fx)\n", context.thread_count(),
              sec_streamed, sec_reference / sec_streamed);
  std::printf("schedules bit-identical: %s   faulted: %s   streamed: %s/%s\n",
              identical ? "yes" : "NO", faulted_identical ? "yes" : "NO",
              streamed_identical ? "yes" : "NO",
              streamed_faulted_identical ? "yes" : "NO");

  std::fprintf(out,
               "  \"scheduler_compare\": {\n"
               "    \"workload\": {\"satellites\": %zu, \"terminals\": %zu,"
               " \"stations\": %zu, \"parties\": %zu, \"steps\": %zu,"
               " \"step_seconds\": 60.0},\n"
               "    \"threads\": %zu,\n"
               "    \"scalar_reference\": {\"seconds\": %.6f},\n"
               "    \"pipelined_serial\": {\"seconds\": %.6f, \"speedup\": %.4f},\n"
               "    \"pipelined_pooled\": {\"seconds\": %.6f, \"speedup\": %.4f},\n"
               "    \"pipelined_streamed\": {\"seconds\": %.6f, \"speedup\": %.4f},\n"
               "    \"bit_identical\": %s,\n"
               "    \"faulted_bit_identical\": %s,\n"
               "    \"streamed_bit_identical\": %s\n"
               "  }",
               sats.size(), terminals.size(), stations.size(), kParties, grid.count,
               context.thread_count(), sec_reference, sec_serial,
               sec_reference / sec_serial, sec_pooled, sec_reference / sec_pooled,
               sec_streamed, sec_reference / sec_streamed,
               identical ? "true" : "false", faulted_identical ? "true" : "false",
               streamed_identical && streamed_faulted_identical ? "true" : "false");
  return identical && faulted_identical && streamed_identical &&
         streamed_faulted_identical;
}

// --backends: per-backend ephemeris-fill throughput on the canonical
// 500-satellite x 1-day/60s catalog — the pure EphemerisSet fill with no
// visibility work, so the number isolates the propagation kernel itself.
// Three variants run serially: the J2 analytic fill with the SIMD dispatch
// forced scalar, the same fill forced onto the AVX2 lane-batched kernel, and
// the SGP4 backend. The lane-batched tables must match the scalar tables
// bit for bit, and the SGP4-vs-J2 maximum position error must stay inside
// the documented one-day envelope (DESIGN.md §11). Returns false on a
// bit-identity or envelope violation.
bool run_compare_backends(std::FILE* out) {
  // Each timed fill allocates ~23 MB of tables and frees them before the
  // next repetition; without the trim guard every repetition would re-fault
  // every page and mostly time the kernel instead of the fill.
  bench::disable_malloc_trim();
  const orbit::TimeGrid grid = orbit::TimeGrid::over_duration(kEpoch, 86400.0, 60.0);
  const orbit::GmstTable gmst = orbit::GmstTable::for_grid(grid);

  constellation::WalkerShell shell;
  shell.plane_count = 25;
  shell.sats_per_plane = 20;
  const std::vector<constellation::Satellite> sats = shell.build(kEpoch);
  const std::vector<orbit::EphemerisSpec> j2_specs = cov::ephemeris_specs(sats);
  const std::vector<orbit::EphemerisSpec> sgp4_specs =
      cov::ephemeris_specs(sats, orbit::PropagatorBackend::kSgp4);

  const double sat_steps =
      static_cast<double>(sats.size()) * static_cast<double>(grid.count);
  using clock = std::chrono::steady_clock;

  // Best-of-N wall time for one serial fill; the first call's result is kept
  // for the identity/accuracy checks below.
  constexpr int kRepeats = 3;
  const auto timed_fill = [&](const std::vector<orbit::EphemerisSpec>& specs) {
    orbit::EphemerisSet set;
    double best = 0.0;
    for (int rep = 0; rep < kRepeats; ++rep) {
      const auto t0 = clock::now();
      orbit::EphemerisSet current = orbit::EphemerisSet::compute(specs, grid, gmst);
      const double sec = std::chrono::duration<double>(clock::now() - t0).count();
      if (rep == 0) set = std::move(current);
      if (rep == 0 || sec < best) best = sec;
    }
    return std::pair{std::move(set), best};
  };

  const orbit::SimdMode initial_mode = orbit::active_simd_mode();
  orbit::force_simd_mode(orbit::SimdMode::kScalar);
  const auto [scalar_set, sec_scalar] = timed_fill(j2_specs);

  const bool have_avx2 = orbit::cpu_supports_avx2();
  orbit::force_simd_mode(have_avx2 ? orbit::SimdMode::kAvx2
                                   : orbit::SimdMode::kScalar);
  const auto [batched_set, sec_batched] = timed_fill(j2_specs);
  const auto [sgp4_set, sec_sgp4] = timed_fill(sgp4_specs);
  orbit::force_simd_mode(initial_mode);

  // Lane-batched J2 vs scalar J2: bit-identical, coordinate by coordinate.
  bool identical = true;
  for (std::size_t i = 0; i < sats.size() && identical; ++i) {
    const orbit::EphemerisTable& a = scalar_set.table(i);
    const orbit::EphemerisTable& b = batched_set.table(i);
    for (std::size_t k = 0; k < grid.count; ++k) {
      if (a.x()[k] != b.x()[k] || a.y()[k] != b.y()[k] || a.z()[k] != b.z()[k] ||
          a.radius_m()[k] != b.radius_m()[k]) {
        identical = false;
        break;
      }
    }
  }

  // Cross-backend accuracy: max |r_sgp4 - r_j2| over every satellite and
  // step of the day. Dominated by the Kozai vs un-Kozai mean-motion
  // conventions (see DESIGN.md §11); the envelope matches the
  // backend-property test's documented worst case.
  constexpr double kEnvelopeM = 1500e3;
  double max_error_m = 0.0;
  bool sgp4_ran = true;
  for (std::size_t i = 0; i < sats.size(); ++i) {
    if (sgp4_set.backend(i) != orbit::PropagatorBackend::kSgp4) sgp4_ran = false;
    for (std::size_t k = 0; k < grid.count; ++k) {
      const util::Vec3 d =
          scalar_set.table(i).position_ecef(k) - sgp4_set.table(i).position_ecef(k);
      max_error_m = std::max(max_error_m, d.norm());
    }
  }
  const bool within_envelope = sgp4_ran && max_error_m < kEnvelopeM;

  const double thr_scalar = sat_steps / sec_scalar;
  const double thr_batched = sat_steps / sec_batched;
  const double thr_sgp4 = sat_steps / sec_sgp4;

  std::printf("backend workload: %zu satellites x %zu steps (1 day / 60 s)\n",
              sats.size(), grid.count);
  std::printf("j2 scalar fill   : %8.3f s  %10.3e sat*steps/s\n", sec_scalar,
              thr_scalar);
  std::printf("j2 batched (%s): %8.3f s  %10.3e sat*steps/s  (%.2fx)\n",
              have_avx2 ? "avx2" : "none", sec_batched, thr_batched,
              sec_scalar / sec_batched);
  std::printf("sgp4 fill        : %8.3f s  %10.3e sat*steps/s\n", sec_sgp4, thr_sgp4);
  std::printf("batched bit-identical: %s\n", identical ? "yes" : "NO");
  std::printf("sgp4 vs j2 max error : %.3f km over 1 day (envelope %.0f km): %s\n",
              max_error_m / 1e3, kEnvelopeM / 1e3,
              within_envelope ? "within" : "EXCEEDED");

  std::fprintf(out,
               "  \"backend_compare\": {\n"
               "    \"workload\": {\"satellites\": %zu, \"steps\": %zu,"
               " \"step_seconds\": 60.0},\n"
               "    \"simd\": \"%s\",\n"
               "    \"j2_scalar\": {\"seconds\": %.6f, \"sat_steps_per_sec\": %.6e},\n"
               "    \"j2_batched\": {\"seconds\": %.6f, \"sat_steps_per_sec\": %.6e,"
               " \"speedup\": %.4f},\n"
               "    \"sgp4\": {\"seconds\": %.6f, \"sat_steps_per_sec\": %.6e},\n"
               "    \"batched_bit_identical\": %s,\n"
               "    \"cross_backend\": {\"max_error_m\": %.3f, \"envelope_m\": %.1f,"
               " \"within_envelope\": %s}\n"
               "  }",
               sats.size(), grid.count, have_avx2 ? "avx2" : "scalar", sec_scalar,
               thr_scalar, sec_batched, thr_batched, sec_scalar / sec_batched,
               sec_sgp4, thr_sgp4, identical ? "true" : "false", max_error_m,
               kEnvelopeM, within_envelope ? "true" : "false");
  return identical && within_envelope;
}

// Current peak resident set, in bytes (0 where getrusage is unavailable).
std::size_t peak_rss_bytes() {
#if defined(__unix__)
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    return static_cast<std::size_t>(usage.ru_maxrss) * 1024;  // KB on Linux
  }
#endif
  return 0;
}

// --scale=mega|mega-smoke: the mega-constellation scale-out workload. The
// synthetic Gen2-scale Starlink catalog (~30k satellites across 7 shells)
// serves population-gridded user terminals over one day at 60 s steps
// through the footprint-stream scheduler: spatial-index candidate discovery,
// shell-sharded satellite iteration, bounded-queue chunk streaming, and a
// per-terminal candidate cap so staging memory stays bounded. mega is the
// full 30k x 1M acceptance run; mega-smoke cuts the catalog to 3k satellites
// and 50k terminals so CI can exercise the identical code path in seconds.
// Writes the "mega_scale" JSON section (throughput + peak RSS, the fields
// tools/check_perf_regression.py --mega gates on). Returns false if the run
// granted no links at all (a scheduling pipeline failure).
bool run_mega(std::FILE* out, bool smoke) {
  bench::disable_malloc_trim();
  // The whole workload definition — Gen2-scale catalog, population-gridded
  // sites, footprint-stream scheduler preset — comes from the Scenario scale
  // preset, so this bench, the CI smoke step and any example requesting
  // --scale=mega all run the identical workload.
  const sim::Scenario scenario =
      sim::ScenarioBuilder()
          .epoch(kEpoch)
          .threads(0)
          .scale(smoke ? sim::ScalePreset::kMegaSmoke : sim::ScalePreset::kMega)
          .build();
  const orbit::TimeGrid grid = scenario.grid();
  const sim::Workload workload = sim::build_workload(scenario);
  const std::size_t kParties = workload.party_count;
  const net::SchedulerConfig& config = workload.scheduler;
  const std::size_t terminal_count = workload.terminals.size();

  const net::BentPipeScheduler scheduler(config, workload.satellites,
                                         workload.terminals, workload.stations);
  sim::RunContext context(scenario);

  std::printf("mega workload: %zu satellites x %zu terminals x %zu stations"
              " x %zu steps (1 day / 60 s, %zu parties)%s\n",
              workload.satellites.size(), workload.terminals.size(),
              workload.stations.size(), grid.count, kParties, smoke ? " [smoke]" : "");
  std::fflush(stdout);

  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  const net::ScheduleResult result =
      scheduler.run(grid, kParties, context, /*keep_steps=*/false);
  const double seconds = std::chrono::duration<double>(clock::now() - t0).count();

  const double terminal_steps =
      static_cast<double>(terminal_count) * static_cast<double>(grid.count);
  const double tps = terminal_steps / seconds;
  const double links_granted = result.total_served_seconds / grid.step_seconds;
  const std::size_t rss = peak_rss_bytes();

  // Bit-identity spot check at bench time: the pipeline vs run_reference on
  // a deterministic sub-fleet of this exact workload (first 200 satellites,
  // first 2,000 terminals, 6 h). Uncapped, the pipeline is exact, so the two
  // ScheduleResults must match down to link ordering. Reference-fleet
  // identity is pinned by --compare-scheduler; this flag proves the mega
  // catalog/site geometry never flips bits either, and feeds the
  // "bit_identical" gate in tools/check_perf_regression.py --mega.
  const bool identical = [&] {
    const orbit::TimeGrid sub_grid =
        orbit::TimeGrid::over_duration(kEpoch, 6.0 * 3600.0, 60.0);
    const std::vector<constellation::Satellite> sub_sats(
        workload.satellites.begin(),
        workload.satellites.begin() +
            std::min<std::size_t>(workload.satellites.size(), 200));
    const std::vector<net::Terminal> sub_terminals(
        workload.terminals.begin(),
        workload.terminals.begin() +
            std::min<std::size_t>(workload.terminals.size(), 2000));
    net::SchedulerConfig exact_config = config;
    exact_config.max_candidates_per_terminal = 0;  // uncapped -> exact
    const net::BentPipeScheduler sub_scheduler(exact_config, sub_sats, sub_terminals,
                                               workload.stations);
    return sub_scheduler.run(sub_grid, kParties, /*keep_steps=*/true) ==
           sub_scheduler.run_reference(sub_grid, kParties, nullptr, /*keep_steps=*/true);
  }();

  const bool ok = result.total_served_seconds > 0.0 && identical;

  std::printf("scheduled        : %8.1f s  %10.3e terminal*steps/s\n", seconds, tps);
  std::printf("links granted    : %.0f  (served %.3e s, unserved %.3e s)\n",
              links_granted, result.total_served_seconds,
              result.total_unserved_seconds);
  std::printf("peak RSS         : %.2f GB\n", static_cast<double>(rss) / 1e9);
  std::printf("sub-fleet identity (stream vs reference): %s\n",
              identical ? "bit-identical" : "MISMATCH");

  std::fprintf(out,
               "  \"mega_scale\": {\n"
               "    \"workload\": {\"satellites\": %zu, \"terminals\": %zu,"
               " \"stations\": %zu, \"parties\": %zu, \"steps\": %zu,"
               " \"step_seconds\": 60.0, \"scale\": \"%s\"},\n"
               "    \"threads\": %zu,\n"
               "    \"stream\": {\"chunk_steps\": %zu, \"slots\": %zu,"
               " \"candidate_cap\": %zu},\n"
               "    \"seconds\": %.3f,\n"
               "    \"terminal_steps_per_sec\": %.6e,\n"
               "    \"links_granted\": %.0f,\n"
               "    \"peak_rss_bytes\": %zu,\n"
               "    \"bit_identical\": %s,\n"
               "    \"obs\": %s\n"
               "  }",
               workload.satellites.size(), workload.terminals.size(),
               workload.stations.size(), kParties, grid.count,
               smoke ? "mega-smoke" : "mega", context.thread_count(),
               config.stream_chunk_steps, config.stream_slots,
               config.max_candidates_per_terminal, seconds, tps, links_granted, rss,
               identical ? "true" : "false", context.metrics().to_json(4).c_str());
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bool compare = false;
  bool compare_scheduler = false;
  std::string out_path = "BENCH_perf_simulator.json";
  bool backends = false;
  bool mega = false;
  bool mega_smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--compare") == 0) {
      compare = true;
    } else if (std::strcmp(argv[i], "--compare-scheduler") == 0) {
      compare_scheduler = true;
    } else if (std::strcmp(argv[i], "--backends") == 0) {
      backends = true;
    } else if (std::strcmp(argv[i], "--scale=mega") == 0) {
      mega = true;
    } else if (std::strcmp(argv[i], "--scale=mega-smoke") == 0) {
      mega_smoke = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    }
  }
  if (compare || compare_scheduler || backends || mega || mega_smoke) {
    std::FILE* out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "perf_simulator: cannot open %s for writing\n",
                   out_path.c_str());
      return 1;
    }
    // One hardware-pooled run context drives every pooled/faulted compare
    // pass; the accumulated metrics become the report's "obs" section.
    sim::Scenario obs_scenario;
    obs_scenario.threads = 0;
    sim::RunContext context(obs_scenario);
    std::fprintf(out, "{\n");
    bool ok = true;
    bool first_section = true;
    const auto separate = [&] {
      if (!first_section) std::fprintf(out, ",\n");
      first_section = false;
    };
    if (compare) {
      separate();
      ok = run_compare(out) && ok;
    }
    if (backends) {
      separate();
      ok = run_compare_backends(out) && ok;
    }
    if (compare_scheduler) {
      separate();
      ok = run_compare_scheduler(out, context) && ok;
      std::fprintf(out, ",\n  \"obs\": %s", context.metrics().to_json(2).c_str());
    }
    if (mega || mega_smoke) {
      separate();
      ok = run_mega(out, /*smoke=*/!mega) && ok;
    }
    std::fprintf(out, "\n}\n");
    std::fclose(out);
    std::printf("report written to %s\n", out_path.c_str());
    return ok ? 0 : 1;
  }

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
