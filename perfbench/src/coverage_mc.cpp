// coverage-mc: the paper's Monte-Carlo coverage shape (Figs 2 and 5). The
// Starlink Gen1+Gen2 catalog against the 21 paper cities over 7 days at
// 60 s steps, on a pooled RunContext. Each round builds a fresh
// VisibilityCache, fills it with precompute_all and runs a seeded plan of
// withdrawal_impact trials at L in {200, 500, 1000, 2000}; an op is one
// trial. The orbit and coverage layers do the work; the scheduler does none.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <span>

#include "common.hpp"
#include "constellation/sampler.hpp"
#include "constellation/starlink.hpp"
#include "core/robustness.hpp"
#include "coverage/cities.hpp"
#include "coverage/engine.hpp"
#include "orbit/ephemeris.hpp"
#include "sim/run_context.hpp"
#include "sim/scenario.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace mpleo;

// EXPERIMENTS.md, Fig 5: the paper's mean coverage drop at L = 200, in %.
constexpr double kPaperDropL200Pct = 24.17;
constexpr double kTailPct = 99.0;
constexpr std::size_t kEphemerisBatch = 256;

struct Trial {
  std::size_t size = 0;
  std::vector<std::size_t> base;
  std::vector<std::size_t> withdrawn;
};

struct Inputs {
  sim::Scenario scenario;
  std::vector<constellation::Satellite> catalog;
  std::vector<cov::GroundSite> sites;
  // Interleaved by size (200, 500, 1000, 2000, 200, ...), so any prefix of
  // the plan mixes every L.
  std::vector<Trial> trials;
};

Inputs make_inputs(const Options& options) {
  Inputs in;
  in.scenario = sim::ScenarioBuilder()
                    .duration_days(options.tiny ? 1.0 : 7.0)
                    .step_seconds(60.0)
                    .seed(options.seed)
                    .threads(pool_threads())
                    .build();
  in.catalog = constellation::build_starlink_catalog(in.scenario.epoch, {.include_gen2 = true});
  if (options.tiny) in.catalog.resize(400);
  in.sites = cov::sites_from_cities(cov::paper_cities());

  const std::size_t divisor = options.tiny ? 10 : 1;
  const std::size_t per_size = options.tiny ? 2 : 20;
  const util::Xoshiro256PlusPlus root(options.seed);
  for (std::size_t k = 0; k < per_size; ++k) {
    for (const std::size_t paper_size : {200UL, 500UL, 1000UL, 2000UL}) {
      Trial trial;
      trial.size = paper_size / divisor;
      util::Xoshiro256PlusPlus rng = root.split(paper_size * 7919 + k);
      trial.base = constellation::sample_indices(in.catalog.size(), trial.size, rng);
      for (const std::size_t p : rng.sample_without_replacement(trial.size, trial.size / 2)) {
        trial.withdrawn.push_back(trial.base[p]);
      }
      in.trials.push_back(std::move(trial));
    }
  }
  return in;
}

// FNV-style hash over every mask word of the cache.
std::uint64_t mask_digest(cov::VisibilityCache& cache) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (std::size_t s = 0; s < cache.satellite_count(); ++s) {
    for (std::size_t j = 0; j < cache.site_count(); ++j) {
      for (const std::uint64_t word : cache.mask(s, j).words()) {
        hash = (hash ^ word) * 1099511628211ULL;
      }
    }
  }
  return hash;
}

struct LoopResult {
  double wall_s = 0.0;
  std::size_t rounds = 0;
  // Pair-steps filled per wall second, one entry per round.
  std::vector<double> round_rates;
  std::vector<double> op_seconds;
  // The first round's impacts, one per plan trial.
  std::vector<core::WithdrawalImpact> first_round;
  std::size_t failed_ops = 0;
  std::unique_ptr<cov::VisibilityCache> last_cache;
};

bool same(const core::WithdrawalImpact& a, const core::WithdrawalImpact& b) {
  return a.before_fraction == b.before_fraction && a.after_fraction == b.after_fraction;
}

bool plausible(const core::WithdrawalImpact& impact) {
  return impact.after_fraction >= 0.0 && impact.after_fraction <= impact.before_fraction &&
         impact.before_fraction <= 1.0;
}

// Rounds of (fresh cache, precompute_all, every plan trial) until `seconds`
// have passed at a round boundary. An op fails when it throws, returns an
// implausible impact, or differs from the same trial in the first round.
LoopResult measure(const Inputs& in, const cov::CoverageEngine& engine, sim::RunContext& context,
                   Tracer& tracer, double seconds) {
  LoopResult out;
  const Clock::time_point start = Clock::now();
  const double pair_steps =
      static_cast<double>(in.catalog.size() * in.sites.size() * engine.grid().count);
  std::int64_t op = 0;
  while (true) {
    const Clock::time_point round_start = Clock::now();
    tracer.set_op(-1);
    Tracer::Scope round = tracer.span("round");
    out.last_cache.reset();
    out.last_cache = std::make_unique<cov::VisibilityCache>(engine, in.catalog, in.sites);
    {
      Tracer::Scope fill = tracer.span("cov.VisibilityCache.precompute_all");
      out.last_cache->precompute_all(context);
    }
    for (std::size_t k = 0; k < in.trials.size(); ++k) {
      const Trial& trial = in.trials[k];
      tracer.set_op(op++);
      bool ok = true;
      const Clock::time_point t0 = Clock::now();
      try {
        Tracer::Scope span = tracer.span("core.withdrawal_impact");
        const core::WithdrawalImpact impact =
            core::withdrawal_impact(*out.last_cache, trial.base, trial.withdrawn);
        span.close();
        if (out.rounds == 0) out.first_round.push_back(impact);
        ok = plausible(impact) && same(impact, out.first_round[k]);
      } catch (const std::exception&) {
        if (out.rounds == 0) out.first_round.emplace_back();
        ok = false;
      }
      out.op_seconds.push_back(seconds_between(t0, Clock::now()));
      if (!ok) ++out.failed_ops;
    }
    round.close();
    ++out.rounds;
    const Clock::time_point round_end = Clock::now();
    out.round_rates.push_back(pair_steps / seconds_between(round_start, round_end));
    out.wall_s = seconds_between(start, round_end);
    if (out.wall_s >= seconds) break;
  }
  tracer.set_op(-1);
  return out;
}

}  // namespace

void run_coverage_mc(const Options& options, Tracer& tracer, Report& report) {
  // --- set-up, repeated; the last instance is the one measured ---
  std::optional<Inputs> in;
  std::optional<cov::CoverageEngine> engine;
  std::unique_ptr<sim::RunContext> context;
  std::vector<double> input_times;
  const double setup_s = median_time(options.tiny, [&] {
    context.reset();
    engine.reset();
    in.reset();
    const Clock::time_point t0 = Clock::now();
    in.emplace(make_inputs(options));
    input_times.push_back(seconds_between(t0, Clock::now()));
    engine.emplace(in->scenario.grid(), in->scenario.elevation_mask_deg);
    context = std::make_unique<sim::RunContext>(in->scenario);
    cov::VisibilityCache probe(*engine, in->catalog, in->sites);
  });

  const std::size_t sats = in->catalog.size();
  const std::size_t sites = in->sites.size();
  const std::size_t steps = engine->grid().count;

  // --- measured loop (untraced; a traced run also repeats it with spans) ---
  Tracer off(false);
  const double untraced_seconds = options.trace ? options.seconds / 2 : options.seconds;
  LoopResult loop = measure(*in, *engine, *context, off, untraced_seconds);
  const double throughput = median(loop.round_rates);
  report.ops(loop.op_seconds.size(), loop.failed_ops);

  report.metric("setup_s", setup_s, "s");
  report.metric("throughput", throughput, "item-steps/s");
  report_op_latency(report, loop.op_seconds, kTailPct);
  report.info_number("rounds", static_cast<double>(loop.rounds));
  report.info_number("pool_threads", static_cast<double>(context->thread_count()));
  report.info_text("throughput_work", "satellite x site x step per wall second");
  report.info_number("satellites", static_cast<double>(sats));
  report.info_number("sites", static_cast<double>(sites));
  report.info_number("steps", static_cast<double>(steps));

  // The paper-figure error: mean L=200 drop of the plan against Fig 5.
  {
    const std::size_t smallest = in->trials.front().size;
    std::vector<double> drops;
    for (std::size_t k = 0; k < in->trials.size(); ++k) {
      if (in->trials[k].size == smallest) drops.push_back(loop.first_round[k].drop_fraction());
    }
    report.info_number("fig5_drop_err_pts", std::abs(100.0 * mean(drops) - kPaperDropL200Pct));
    report.info_number("fig5_mean_drop_pct_smallest_L", 100.0 * mean(drops));
  }

  // --- oracles, untimed ---
  cov::VisibilityCache& cache = *loop.last_cache;
  {
    // Cached masks against the exhaustive scalar scan, on seeded satellites.
    util::Xoshiro256PlusPlus rng = util::Xoshiro256PlusPlus(options.seed).split(0x0AC1E);
    bool equal = true;
    for (const std::size_t s : constellation::sample_indices(sats, options.tiny ? 4 : 12, rng)) {
      const std::vector<cov::StepMask> reference =
          engine->visibility_masks_reference(in->catalog[s], in->sites);
      for (std::size_t j = 0; j < sites; ++j) {
        const auto got = cache.mask(s, j).words();
        const auto want = reference[j].words();
        equal = equal && std::equal(got.begin(), got.end(), want.begin(), want.end());
      }
    }
    report.check("coverage.masks_equal_reference", equal);
  }
  {
    const core::WithdrawalImpact again =
        core::withdrawal_impact(cache, in->trials[0].base, in->trials[0].withdrawn);
    report.check("determinism.repeat", same(again, loop.first_round[0]));
  }

  if (!options.trace) return;

  // --- traced repetition of the loop: per-layer spans and counters ---
  context->metrics().reset();
  LoopResult traced = measure(*in, *engine, *context, tracer, options.seconds / 2);
  report.ops(traced.op_seconds.size(), traced.failed_ops);
  report.metric("sim.inputs_s", median(input_times), "s");
  report.metric("trace.throughput_delta", median(traced.round_rates) - throughput,
                "item-steps/s");

  const obs::MetricsSnapshot snap = context->metrics().snapshot();
  const double filled = static_cast<double>(counter(snap, "cov.masks_filled"));
  report.metric("coverage.mask_fill_s", median(tracer.durations("cov.VisibilityCache.precompute_all")),
                "s");
  report.metric("coverage.visible_ratio",
                filled > 0 ? static_cast<double>(counter(snap, "cov.visible_steps")) /
                                 (filled * static_cast<double>(steps))
                           : 0.0,
                "ratio");
  report.metric("coverage.union_s", median(tracer.durations("core.withdrawal_impact")), "s");
  {
    double unioned = 0.0;
    for (const Trial& trial : in->trials) {
      unioned += static_cast<double>((2 * trial.base.size() - trial.withdrawn.size()) * sites);
    }
    report.metric("coverage.masks_unioned", unioned / static_cast<double>(in->trials.size()),
                  "count");
  }

  // Thread scaling of the two layers this workload loads, plus the
  // 1-thread versus pool determinism check on the full mask set.
  const std::vector<orbit::EphemerisSpec> specs = cov::ephemeris_specs(in->catalog);
  const std::uint64_t pool_digest = mask_digest(cache);
  for (const std::size_t want : {1UL, 2UL, 4UL}) {
    sim::RunContext scaled_context(in->scenario);
    scaled_context.use_threads(std::min(want, hardware_threads()));
    util::ThreadPool* pool = scaled_context.pool();
    const std::string suffix = ".t" + std::to_string(want);

    cov::VisibilityCache scaled(*engine, in->catalog, in->sites);
    Tracer::Scope fill = tracer.span("cov.VisibilityCache.precompute_all" + suffix);
    scaled.precompute_all(pool);
    fill.close();
    report.metric("coverage.mask_fill_s" + suffix,
                  tracer.durations("cov.VisibilityCache.precompute_all" + suffix).back(), "s");
    if (want == 1) report.check("determinism.threads", mask_digest(scaled) == pool_digest);

    // The whole catalog's tables over 7 days would take 2 GB at once, so
    // the fill is timed in batches of kEphemerisBatch satellites and summed.
    for (std::size_t first = 0; first < specs.size(); first += kEphemerisBatch) {
      const std::span<const orbit::EphemerisSpec> batch(
          specs.data() + first, std::min(kEphemerisBatch, specs.size() - first));
      Tracer::Scope eph = tracer.span("orbit.EphemerisSet.compute" + suffix);
      const orbit::EphemerisSet set = orbit::EphemerisSet::compute(batch, engine->grid(), pool);
      eph.close();
    }
    double eph_s = 0.0;
    for (const double s : tracer.durations("orbit.EphemerisSet.compute" + suffix)) eph_s += s;
    report.metric("orbit.ephemeris_s" + suffix, eph_s, "s");
    if (want == 4) {
      report.metric("orbit.ephemeris_s", eph_s, "s");
      report.metric("orbit.sat_steps_per_s", static_cast<double>(specs.size() * steps) / eph_s,
                    "sat-steps/s");
    }
  }
}

}  // namespace perfbench
