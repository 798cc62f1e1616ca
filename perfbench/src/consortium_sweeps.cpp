// consortium-sweeps: the reference fleet (500-satellite Walker 25x20, 200
// terminals, 20 stations, 4 parties), serial, as the single-thread baseline.
// A cycle runs two kinds of op:
//  * chaos cells: the storm, blackout, withdrawal and mixed EventBook
//    presets, each compiled against the decentralized fleet and its
//    single-party twin and replayed with the chaos bench's DegradationPolicy
//    and SLO window;
//  * epochs of a fresh Campaign armed with a mixed Byzantine book at f = 0.5
//    and the Doppler audit on.
// Event and adversary seeds come from the benchmark seed and the cycle. This
// is the only workload where the fault, SLO, settlement and audit layers
// run, and the scheduler sees a small fleet, pair-mask candidates and
// almost no beam contention.
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "adversary/policy.hpp"
#include "common.hpp"
#include "core/campaign.hpp"
#include "coverage/engine.hpp"
#include "fault/event_book.hpp"
#include "net/scheduler.hpp"
#include "orbit/ephemeris.hpp"
#include "sim/run_context.hpp"
#include "sim/scenario.hpp"
#include "sim/workload.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace mpleo;

constexpr double kTailPct = 90.0;
constexpr fault::EventProfile kProfiles[] = {
    fault::EventProfile::kStorm, fault::EventProfile::kBlackout,
    fault::EventProfile::kWithdrawal, fault::EventProfile::kMixed};
constexpr std::size_t kEpochsPerCycle = 2;

struct Fleet {
  sim::Workload workload;
  std::unique_ptr<net::BentPipeScheduler> scheduler;
};

struct Inputs {
  sim::Scenario scenario;  // the chaos replay window
  Fleet decentralized;
  Fleet centralized;
  core::CampaignConfig campaign;
};

// The chaos bench's mitigation policy, with the SLO window on.
net::DegradationPolicy chaos_policy(bool tiny) {
  net::DegradationPolicy policy;
  policy.enabled = true;
  policy.spare_hysteresis_margin = 0.15;
  policy.backoff_initial_steps = 2;
  policy.backoff_multiplier = 2.0;
  policy.backoff_max_steps = 16;
  policy.backoff_clean_horizon_steps = 8;
  policy.slo_window_steps = tiny ? 15 : 30;
  return policy;
}

// The single-party twin: same fleet, sites and radios, one owner.
sim::Workload centralize(sim::Workload workload) {
  for (constellation::Satellite& sat : workload.satellites) sat.owner_party = 0;
  for (net::Terminal& terminal : workload.terminals) terminal.owner_party = 0;
  for (net::GroundStation& station : workload.stations) station.owner_party = 0;
  workload.party_count = 1;
  return workload;
}

std::uint64_t cycle_seed(std::uint64_t seed, std::uint64_t stream, std::size_t cycle) {
  return util::Xoshiro256PlusPlus(seed).split(stream).split(cycle).next();
}

// A fresh consortium over the reference fleet, armed with the mixed
// Byzantine book at f = 0.5; `doppler` arms the audit's track-fit stage.
std::unique_ptr<core::Campaign> make_campaign(const Inputs& in, std::uint64_t seed,
                                              bool doppler = true) {
  const sim::Workload& w = in.decentralized.workload;
  core::Consortium consortium;
  for (std::size_t p = 0; p < w.party_count; ++p) {
    core::Party party;
    party.name = "party-";
    party.name += std::to_string(p);
    const core::PartyId id = consortium.add_party(party);
    std::vector<constellation::Satellite> own;
    for (const constellation::Satellite& sat : w.satellites) {
      if (sat.owner_party == id) own.push_back(sat);
    }
    (void)consortium.contribute(id, std::move(own));
  }
  auto campaign = std::make_unique<core::Campaign>(std::move(consortium), w.terminals, w.stations,
                                                   in.campaign, seed);
  adversary::AuditConfig audit;
  audit.doppler.enabled = doppler;
  const std::vector<adversary::Behavior> mix = adversary::mix_for_mode(sim::AdversaryMode::kMixed);
  campaign->arm_adversaries(
      adversary::BehaviorBook::sample(w.party_count, 0.5, mix, 1.0, 6, seed), audit);
  return campaign;
}

// Ledger conservation, summed here rather than trusted from the ledger.
bool conserves_tokens(const core::Ledger& ledger) {
  double sum = 0.0;
  for (core::AccountId a = 0; a < ledger.account_count(); ++a) sum += ledger.balance(a);
  return std::abs(sum - ledger.total_minted()) <= 1e-9 * std::max(1.0, ledger.total_minted());
}

struct EpochDigest {
  double served = 0.0;
  double unserved = 0.0;
  std::vector<double> balances;
  std::size_t poc_valid = 0;
  std::size_t poc_rejected = 0;
  std::optional<core::AdversaryEpochSummary> adversary;

  explicit EpochDigest(const core::EpochReport& r)
      : served(r.total_served_seconds),
        unserved(r.total_unserved_seconds),
        balances(r.balances),
        poc_valid(r.poc_valid),
        poc_rejected(r.poc_rejected),
        adversary(r.adversary) {}
  friend bool operator==(const EpochDigest&, const EpochDigest&) = default;
};

struct LoopResult {
  double wall_s = 0.0;
  // Terminal-steps scheduled per wall second, one entry per cycle.
  std::vector<double> cycle_rates;
  std::vector<double> op_seconds;
  std::size_t failed_ops = 0;
  std::optional<net::ScheduleResult> first_cell;
  std::optional<EpochDigest> first_epoch;
  SchedulerLayers layers;  // chaos cells
  std::vector<double> events, epoch_self_s, receipts_audited, fraud_detected, doppler_rejections;
  std::size_t fraud_injected = 0;
  std::size_t fraud_caught = 0;
};

// Whole cycles (8 chaos cells, then the epochs of a fresh campaign) until
// `seconds` have passed at a cycle boundary.
LoopResult measure(const Inputs& in, sim::RunContext& context, Tracer& tracer, double seconds,
                   std::uint64_t seed) {
  LoopResult out;
  const orbit::TimeGrid grid = in.scenario.grid();
  const std::size_t terminals = in.decentralized.workload.terminals.size();
  const double epoch_steps = static_cast<double>(
      orbit::TimeGrid::over_duration(in.campaign.start, in.campaign.epoch_duration_s,
                                     in.campaign.step_s)
          .count);
  std::int64_t op = 0;
  const Clock::time_point start = Clock::now();
  for (std::size_t cycle = 0;; ++cycle) {
    const Clock::time_point cycle_start = Clock::now();
    double work = 0.0;
    const std::uint64_t event_seed = cycle_seed(seed, 0xE7, cycle);
    for (const fault::EventProfile profile : kProfiles) {
      const fault::EventBook book =
          fault::EventBook::preset(profile, grid.duration_seconds(), event_seed);
      for (const Fleet* fleet : {&in.decentralized, &in.centralized}) {
        tracer.set_op(op++);
        if (tracer.enabled()) context.metrics().reset();
        bool ok = true;
        const Clock::time_point t0 = Clock::now();
        try {
          Tracer::Scope compile = tracer.span("fault.EventBook.compile");
          const fault::FaultTimeline timeline =
              book.compile(grid, fleet->workload.satellites, fleet->workload.stations);
          compile.close();
          context.use_faults(&timeline);
          Tracer::Scope run = tracer.span("net.BentPipeScheduler.run");
          net::ScheduleResult result =
              fleet->scheduler->run(grid, fleet->workload.party_count, context);
          run.close();
          context.clear_faults();
          ok = conserves_time(result, terminals, grid) && result.slo.has_value();
          if (!out.first_cell.has_value()) out.first_cell = std::move(result);
        } catch (const std::exception&) {
          context.clear_faults();
          ok = false;
        }
        out.op_seconds.push_back(seconds_between(t0, Clock::now()));
        work += static_cast<double>(terminals * grid.count);
        if (!ok) ++out.failed_ops;
        if (tracer.enabled() && ok) {
          out.layers.add(context.metrics().snapshot(),
                         tracer.durations("net.BentPipeScheduler.run").back());
          out.events.push_back(static_cast<double>(book.event_count()));
        }
      }
    }

    const std::unique_ptr<core::Campaign> campaign =
        make_campaign(in, cycle_seed(seed, 0xAD, cycle));
    for (std::size_t e = 0; e < kEpochsPerCycle; ++e) {
      tracer.set_op(op++);
      if (tracer.enabled()) context.metrics().reset();
      bool ok = true;
      const Clock::time_point t0 = Clock::now();
      try {
        Tracer::Scope span = tracer.span("core.Campaign.run_epoch");
        const core::EpochReport report = campaign->run_epoch(context);
        span.close();
        ok = report.adversary.has_value() && conserves_tokens(campaign->ledger());
        if (report.adversary.has_value()) {
          out.fraud_injected +=
              report.adversary->receipts_injected + report.adversary->misreports_injected;
          out.fraud_caught += report.adversary->fraud_detected;
          if (tracer.enabled()) {
            out.fraud_detected.push_back(static_cast<double>(report.adversary->fraud_detected));
            out.doppler_rejections.push_back(
                static_cast<double>(report.adversary->rf_doppler_rejections));
          }
        }
        if (!out.first_epoch.has_value()) out.first_epoch.emplace(report);
      } catch (const std::exception&) {
        ok = false;
      }
      out.op_seconds.push_back(seconds_between(t0, Clock::now()));
      work += static_cast<double>(terminals) * epoch_steps;
      if (!ok) ++out.failed_ops;
      if (tracer.enabled() && ok) {
        const obs::MetricsSnapshot snap = context.metrics().snapshot();
        out.epoch_self_s.push_back(tracer.durations("core.Campaign.run_epoch").back() -
                                   histogram_sum(snap, "sched.run_seconds"));
        out.receipts_audited.push_back(
            static_cast<double>(counter(snap, "audit.receipts_submitted")));
      }
    }
    const Clock::time_point cycle_end = Clock::now();
    out.cycle_rates.push_back(work / seconds_between(cycle_start, cycle_end));
    out.wall_s = seconds_between(start, cycle_end);
    if (out.wall_s >= seconds) break;
  }
  tracer.set_op(-1);
  return out;
}

}  // namespace

void run_consortium_sweeps(const Options& options, Tracer& tracer, Report& report) {
  std::optional<Inputs> in;
  std::unique_ptr<sim::RunContext> context;
  std::unique_ptr<core::Campaign> probe;
  std::vector<double> input_times, ctor_times;
  const double setup_s = median_time(options.tiny, [&] {
    probe.reset();
    context.reset();
    in.reset();
    const Clock::time_point t0 = Clock::now();
    in.emplace();
    in->scenario = sim::ScenarioBuilder()
                       .duration_seconds(options.tiny ? 3600.0 : 6.0 * 3600.0)
                       .step_seconds(60.0)
                       .seed(options.seed)
                       .threads(1)
                       .build();
    in->decentralized.workload = sim::build_workload(in->scenario);
    in->centralized.workload = centralize(in->decentralized.workload);
    in->campaign.start = in->scenario.epoch;
    in->campaign.epoch_duration_s = options.tiny ? 4.0 * 3600.0 : 86400.0;
    const Clock::time_point t1 = Clock::now();
    for (Fleet* fleet : {&in->decentralized, &in->centralized}) {
      net::SchedulerConfig config = fleet->workload.scheduler;
      config.degradation = chaos_policy(options.tiny);
      fleet->scheduler = std::make_unique<net::BentPipeScheduler>(
          config, fleet->workload.satellites, fleet->workload.terminals,
          fleet->workload.stations);
    }
    const Clock::time_point t2 = Clock::now();
    input_times.push_back(seconds_between(t0, t1));
    ctor_times.push_back(seconds_between(t1, t2) / 2);
    context = std::make_unique<sim::RunContext>(in->scenario);
    probe = make_campaign(*in, cycle_seed(options.seed, 0xAD, 0));
  });
  probe.reset();
  const std::size_t terminals = in->decentralized.workload.terminals.size();
  const orbit::TimeGrid grid = in->scenario.grid();

  Tracer off(false);
  LoopResult loop = measure(*in, *context, off,
                            options.trace ? options.seconds / 2 : options.seconds, options.seed);
  const double throughput = median(loop.cycle_rates);
  report.ops(loop.op_seconds.size(), loop.failed_ops);
  report.metric("setup_s", setup_s, "s");
  report.metric("throughput", throughput, "item-steps/s");
  report_op_latency(report, loop.op_seconds, kTailPct);
  report.info_text("throughput_work", "terminal x step per wall second");
  report.info_number("pool_threads", static_cast<double>(context->thread_count()));
  report.info_number("satellites",
                     static_cast<double>(in->decentralized.workload.satellites.size()));
  report.info_number("terminals", static_cast<double>(terminals));
  report.info_number("chaos_window_steps", static_cast<double>(grid.count));
  // With the Doppler stage on, a forgery claiming a real pass too short to
  // fit a track is credited by design, so detected may trail injected here.
  report.info_number("doppler_audit_fraud_injected", static_cast<double>(loop.fraud_injected));
  report.info_number("doppler_audit_fraud_detected", static_cast<double>(loop.fraud_caught));

  // --- oracles, untimed ---
  {
    // An empty book with the policy off replays exactly like no faults.
    const sim::Workload& w = in->decentralized.workload;
    const net::BentPipeScheduler plain(w.scheduler, w.satellites, w.terminals, w.stations);
    const fault::FaultTimeline empty =
        fault::EventBook(options.seed).compile(grid, w.satellites, w.stations);
    context->use_faults(&empty);
    const net::ScheduleResult with_book = plain.run(grid, w.party_count, *context, true);
    context->clear_faults();
    const net::ScheduleResult baseline = plain.run(grid, w.party_count, *context, true);
    report.check("fault.empty_book_identity", with_book == baseline);
  }
  const fault::EventBook book0 = fault::EventBook::preset(
      kProfiles[0], grid.duration_seconds(), cycle_seed(options.seed, 0xE7, 0));
  const fault::FaultTimeline timeline0 = book0.compile(
      grid, in->decentralized.workload.satellites, in->decentralized.workload.stations);
  const auto replay_cell0 = [&](sim::RunContext& ctx) {
    ctx.use_faults(&timeline0);
    net::ScheduleResult result = in->decentralized.scheduler->run(
        grid, in->decentralized.workload.party_count, ctx);
    ctx.clear_faults();
    return result;
  };
  report.check("determinism.repeat",
               loop.first_cell.has_value() && replay_cell0(*context) == *loop.first_cell);
  {
    const std::unique_ptr<core::Campaign> again =
        make_campaign(*in, cycle_seed(options.seed, 0xAD, 0));
    report.check("determinism.repeat_epoch",
                 loop.first_epoch.has_value() &&
                     EpochDigest(again->run_epoch(*context)) == *loop.first_epoch);
  }

  {
    // Audit soundness where the auditor promises it (geometry and digest
    // stages): every injected fraud of a campaign is detected.
    const std::unique_ptr<core::Campaign> campaign =
        make_campaign(*in, cycle_seed(options.seed, 0xAD, 0), false);
    std::size_t injected = 0;
    std::size_t detected = 0;
    for (std::size_t e = 0; e < kEpochsPerCycle; ++e) {
      const core::EpochReport r = campaign->run_epoch(*context);
      if (!r.adversary.has_value()) continue;
      injected += r.adversary->receipts_injected + r.adversary->misreports_injected;
      detected += r.adversary->fraud_detected;
    }
    report.check("adversary.fraud_detected_ge_injected", injected > 0 && detected >= injected);
  }

  if (!options.trace) return;

  LoopResult traced = measure(*in, *context, tracer, options.seconds / 2, options.seed);
  report.ops(traced.op_seconds.size(), traced.failed_ops);
  report.metric("trace.throughput_delta", median(traced.cycle_rates) - throughput,
                "item-steps/s");
  report.metric("sim.inputs_s", median(input_times), "s");
  report.metric("net.scheduler_ctor_s", median(ctor_times), "s");
  report.metric("net.run_s", median(tracer.durations("net.BentPipeScheduler.run")), "s");
  traced.layers.report_to(report);
  report.metric("fault.compile_s", median(tracer.durations("fault.EventBook.compile")), "s");
  report.metric("fault.events", mean(traced.events), "count");
  report.metric("core.epoch_s", median(tracer.durations("core.Campaign.run_epoch")), "s");
  report.metric("core.epoch_self_s", median(traced.epoch_self_s), "s");
  report.metric("adversary.receipts_audited", mean(traced.receipts_audited), "count");
  report.metric("adversary.fraud_detected", mean(traced.fraud_detected), "count");
  report.metric("rf.doppler_rejections", mean(traced.doppler_rejections), "count");

  // Thread scaling of the decentralized storm cell and of the fleet's
  // ephemeris fill; the serial cell must replay identically on a pool.
  const std::vector<orbit::EphemerisSpec> specs =
      cov::ephemeris_specs(in->decentralized.workload.satellites);
  for (const std::size_t want : {1UL, 2UL, 4UL}) {
    const std::string suffix = ".t" + std::to_string(want);
    sim::RunContext scaled(in->scenario);
    scaled.use_threads(std::min(want, hardware_threads()));
    Tracer::Scope run = tracer.span("net.BentPipeScheduler.run" + suffix);
    const net::ScheduleResult result = replay_cell0(scaled);
    run.close();
    report.metric("net.run_s" + suffix,
                  tracer.durations("net.BentPipeScheduler.run" + suffix).back(), "s");
    if (want == 4) {
      report.check("determinism.threads",
                   loop.first_cell.has_value() && result == *loop.first_cell);
    }
    Tracer::Scope fill = tracer.span("orbit.EphemerisSet.compute" + suffix);
    const orbit::EphemerisSet eph = orbit::EphemerisSet::compute(specs, grid, scaled.pool());
    fill.close();
    const double eph_s = tracer.durations("orbit.EphemerisSet.compute" + suffix).back();
    report.metric("orbit.ephemeris_s" + suffix, eph_s, "s");
    if (want == 1) {
      report.metric("orbit.ephemeris_s", eph_s, "s");
      report.metric("orbit.sat_steps_per_s", static_cast<double>(eph.size() * grid.count) / eph_s,
                    "sat-steps/s");
    }
  }
}

}  // namespace perfbench
