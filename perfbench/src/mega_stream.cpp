// mega-stream: the mega-smoke geometry through the footprint-stream
// scheduler on a pooled RunContext. The first 3,000 Gen2 satellites and 4
// parties come from sim::build_workload's mega-smoke preset, and so does the
// SchedulerConfig, so a retuned preset is measured as shipped; the 50,000
// terminals and 128 stations are drawn by PopulationSampler from the
// benchmark seed. The day is stepped as consecutive equal windows, one
// BentPipeScheduler::run call each; an op is one window. Footprint-index
// discovery, phase-1 link budgets and contended phase-2 grants do the work
// here; the ephemeris fill is a rounding error.
#include <algorithm>
#include <cmath>
#include <memory>
#include <numbers>
#include <optional>

#include "common.hpp"
#include "constellation/population.hpp"
#include "coverage/engine.hpp"
#include "coverage/footprint_index.hpp"
#include "net/scheduler.hpp"
#include "orbit/ephemeris.hpp"
#include "sim/run_context.hpp"
#include "sim/scenario.hpp"
#include "sim/workload.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {
namespace {

using namespace mpleo;

constexpr double kTailPct = 65.0;

struct Inputs {
  sim::Scenario scenario;
  sim::Workload workload;
  std::size_t window_steps = 0;
};

Inputs make_inputs(const Options& options) {
  Inputs in;
  sim::ScenarioBuilder builder;
  builder.scale(sim::ScalePreset::kMegaSmoke).seed(options.seed).threads(pool_threads());
  if (options.tiny) builder.terminal_count(2000).station_count(32);
  in.scenario = builder.build();
  in.workload = sim::build_workload(in.scenario);
  if (options.tiny) in.workload.satellites.resize(300);
  in.window_steps = options.tiny ? 8 : 16;

  // Re-draw the sites from the benchmark seed (the preset's are fixed).
  const constellation::PopulationSampler sampler;
  const util::Xoshiro256PlusPlus root(options.seed);
  const std::vector<orbit::Geodetic> terminal_sites =
      sampler.sample(in.workload.terminals.size(), root.split(1).next());
  const std::vector<orbit::Geodetic> station_sites =
      sampler.sample(in.workload.stations.size(), root.split(2).next());
  for (std::size_t i = 0; i < terminal_sites.size(); ++i) {
    in.workload.terminals[i].location = terminal_sites[i];
  }
  for (std::size_t i = 0; i < station_sites.size(); ++i) {
    in.workload.stations[i].location = station_sites[i];
  }
  return in;
}

// Window `index` of the day, `steps` long (default: the op window).
orbit::TimeGrid window(const Inputs& in, std::size_t index, std::size_t steps = 0) {
  if (steps == 0) steps = in.window_steps;
  const std::size_t per_day = in.scenario.grid().count / steps;
  orbit::TimeGrid grid;
  grid.start = in.scenario.epoch.plus_seconds(static_cast<double>((index % per_day) * steps) *
                                              in.scenario.step_s);
  grid.step_seconds = in.scenario.step_s;
  grid.count = steps;
  return grid;
}

struct LoopResult {
  double wall_s = 0.0;
  std::vector<double> op_seconds;
  // Terminal-steps scheduled per wall second, one entry per op.
  std::vector<double> op_rates;
  std::size_t failed_ops = 0;
  std::optional<net::ScheduleResult> first;
  SchedulerLayers layers;
};

// Consecutive windows until `seconds` have passed at an op boundary.
LoopResult measure(const Inputs& in, const net::BentPipeScheduler& scheduler,
                   sim::RunContext& context, Tracer& tracer, double seconds) {
  LoopResult out;
  const std::size_t terminals = in.workload.terminals.size();
  const Clock::time_point start = Clock::now();
  for (std::size_t op = 0;; ++op) {
    const orbit::TimeGrid grid = window(in, op);
    tracer.set_op(static_cast<std::int64_t>(op));
    if (tracer.enabled()) context.metrics().reset();
    bool ok = true;
    const Clock::time_point t0 = Clock::now();
    try {
      Tracer::Scope span = tracer.span("net.BentPipeScheduler.run");
      net::ScheduleResult result = scheduler.run(grid, in.workload.party_count, context);
      span.close();
      ok = conserves_time(result, terminals, grid);
      if (op == 0) out.first = std::move(result);
    } catch (const std::exception&) {
      ok = false;
    }
    const double op_s = seconds_between(t0, Clock::now());
    out.op_seconds.push_back(op_s);
    out.op_rates.push_back(static_cast<double>(terminals * grid.count) / op_s);
    if (!ok) ++out.failed_ops;
    if (tracer.enabled() && ok) {
      out.layers.add(context.metrics().snapshot(),
                     tracer.durations("net.BentPipeScheduler.run").back());
    }
    out.wall_s = seconds_between(start, Clock::now());
    if (out.wall_s >= seconds) break;
  }
  tracer.set_op(-1);
  return out;
}

}  // namespace

void run_mega_stream(const Options& options, Tracer& tracer, Report& report) {
  std::optional<Inputs> in;
  std::unique_ptr<net::BentPipeScheduler> scheduler;
  std::unique_ptr<sim::RunContext> context;
  std::vector<double> input_times, ctor_times;
  const double setup_s = median_time(options.tiny, [&] {
    context.reset();
    scheduler.reset();
    in.reset();
    const Clock::time_point t0 = Clock::now();
    in.emplace(make_inputs(options));
    const Clock::time_point t1 = Clock::now();
    scheduler = std::make_unique<net::BentPipeScheduler>(
        in->workload.scheduler, in->workload.satellites, in->workload.terminals,
        in->workload.stations);
    const Clock::time_point t2 = Clock::now();
    input_times.push_back(seconds_between(t0, t1));
    ctor_times.push_back(seconds_between(t1, t2));
    context = std::make_unique<sim::RunContext>(in->scenario);
  });
  const std::size_t terminals = in->workload.terminals.size();

  Tracer off(false);
  LoopResult loop = measure(*in, *scheduler, *context, off,
                            options.trace ? options.seconds / 2 : options.seconds);
  const double throughput = median(loop.op_rates);
  report.ops(loop.op_seconds.size(), loop.failed_ops);
  report.metric("setup_s", setup_s, "s");
  report.metric("throughput", throughput, "item-steps/s");
  report_op_latency(report, loop.op_seconds, kTailPct);
  report.info_text("throughput_work", "terminal x step per wall second");
  report.info_number("pool_threads", static_cast<double>(context->thread_count()));
  report.info_number("satellites", static_cast<double>(in->workload.satellites.size()));
  report.info_number("terminals", static_cast<double>(terminals));
  report.info_number("stations", static_cast<double>(in->workload.stations.size()));
  report.info_number("window_steps", static_cast<double>(in->window_steps));

  // --- oracles, untimed ---
  const orbit::TimeGrid grid0 = window(*in, 0);
  {
    // Uncapped pipeline against the scalar reference on a sub-fleet of the
    // same geometry, link by link.
    net::SchedulerConfig uncapped = in->workload.scheduler;
    uncapped.max_candidates_per_terminal = 0;
    const std::size_t sub_sats = options.tiny ? 60 : 240;
    const std::size_t sub_terms = options.tiny ? 400 : 1500;
    const net::BentPipeScheduler sub(
        uncapped,
        {in->workload.satellites.begin(), in->workload.satellites.begin() + sub_sats},
        {in->workload.terminals.begin(), in->workload.terminals.begin() + sub_terms},
        in->workload.stations);
    const net::ScheduleResult fast = sub.run(grid0, in->workload.party_count, *context, true);
    const net::ScheduleResult slow =
        sub.run_reference(grid0, in->workload.party_count, nullptr, true);
    report.check("net.run_equals_reference", fast == slow);
  }
  if (loop.first.has_value()) {
    const net::ScheduleResult again = scheduler->run(grid0, in->workload.party_count, *context);
    report.check("determinism.repeat", again == *loop.first);
  }

  if (!options.trace) return;

  LoopResult traced = measure(*in, *scheduler, *context, tracer, options.seconds / 2);
  report.ops(traced.op_seconds.size(), traced.failed_ops);
  report.metric("trace.throughput_delta", median(traced.op_rates) - throughput,
                "item-steps/s");
  report.metric("sim.inputs_s", median(input_times), "s");
  report.metric("net.scheduler_ctor_s", median(ctor_times), "s");

  report.metric("net.run_s", median(tracer.durations("net.BentPipeScheduler.run")), "s");
  traced.layers.report_to(report);

  // Thread scaling of the scheduler and the ephemeris fill, plus the
  // 1-thread versus pool determinism check. The window is four op windows
  // long, so a change that keeps more chunks in flight than one op window
  // holds still shows here.
  const orbit::TimeGrid long_grid = window(*in, 0, 4 * in->window_steps);
  const std::vector<orbit::EphemerisSpec> specs = cov::ephemeris_specs(in->workload.satellites);
  orbit::EphemerisSet eph;
  std::optional<net::ScheduleResult> serial;
  for (const std::size_t want : {1UL, 2UL, 4UL}) {
    const std::string suffix = ".t" + std::to_string(want);
    sim::RunContext scaled(in->scenario);
    scaled.use_threads(std::min(want, hardware_threads()));
    Tracer::Scope run = tracer.span("net.BentPipeScheduler.run" + suffix);
    net::ScheduleResult result = scheduler->run(long_grid, in->workload.party_count, scaled);
    run.close();
    report.metric("net.run_s" + suffix,
                  tracer.durations("net.BentPipeScheduler.run" + suffix).back(), "s");
    if (want == 1) serial = result;
    if (want == 4) report.check("determinism.threads", result == *serial);

    Tracer::Scope fill = tracer.span("orbit.EphemerisSet.compute" + suffix);
    eph = orbit::EphemerisSet::compute(specs, long_grid, scaled.pool());
    fill.close();
    const double eph_s = tracer.durations("orbit.EphemerisSet.compute" + suffix).back();
    report.metric("orbit.ephemeris_s" + suffix, eph_s, "s");
    if (want == 4) {
      report.metric("orbit.ephemeris_s", eph_s, "s");
      report.metric("orbit.sat_steps_per_s",
                    static_cast<double>(specs.size() * long_grid.count) / eph_s, "sat-steps/s");
    }
  }

  // The footprint index standalone, on a seeded sample of this workload's
  // satellite-steps: query time, and exact-visible over returned sites.
  {
    std::vector<orbit::TopocentricFrame> frames;
    frames.reserve(terminals);
    for (const net::Terminal& t : in->workload.terminals) frames.push_back(t.frame());
    const cov::FootprintIndex index(frames);
    const double mask_deg = in->workload.scheduler.elevation_mask_deg;
    const double sin_mask = std::sin(mask_deg * std::numbers::pi / 180.0);
    util::Xoshiro256PlusPlus rng = util::Xoshiro256PlusPlus(options.seed).split(0x1DE7);
    const std::size_t samples = options.tiny ? 200 : 4000;
    std::vector<std::pair<util::Vec3, double>> queries;
    for (std::size_t q = 0; q < samples; ++q) {
      const orbit::EphemerisTable& table = eph.table(rng.uniform_index(eph.size()));
      const double psi = cov::FootprintCone::make(table.min_radius_m(), table.max_radius_m(),
                                                  index.min_site_radius_m(), mask_deg)
                             .psi_rad;
      queries.emplace_back(table.position_ecef(rng.uniform_index(long_grid.count)), psi);
    }
    std::vector<cov::FootprintIndex::Range> ranges;
    double returned = 0.0;
    Tracer::Scope span = tracer.span("cov.FootprintIndex.query_cap");
    for (const auto& [position, psi] : queries) {
      ranges.clear();
      index.query_cap(position, psi, ranges);
      for (const auto& r : ranges) returned += r.end - r.begin;
    }
    span.close();
    double visible = 0.0;
    for (const auto& [position, psi] : queries) {
      ranges.clear();
      index.query_cap(position, psi, ranges);
      for (const auto& r : ranges) {
        for (std::uint32_t slot = r.begin; slot < r.end; ++slot) {
          visible += frames[index.site_ids()[slot]].visible_above(position, sin_mask) ? 1 : 0;
        }
      }
    }
    report.metric("coverage.index_query_s", tracer.durations("cov.FootprintIndex.query_cap").back(),
                  "s");
    report.metric("coverage.index_precision", returned > 0 ? visible / returned : 0.0, "ratio");
  }
}

}  // namespace perfbench
