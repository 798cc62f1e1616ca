#include "net/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "coverage/footprint_index.hpp"
#include "coverage/packed_masks.hpp"
#include "coverage/step_mask.hpp"
#include "coverage/visibility_cull.hpp"
#include "fault/timeline.hpp"
#include "obs/metrics.hpp"
#include "sim/run_context.hpp"
#include "util/stream_queue.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace mpleo::net {
namespace {

// One precomputed service option: for a (terminal, satellite) pair visible at
// a step, the best (highest end-to-end capacity, lowest index on ties) healthy
// same-party station and the resulting capacity. Beam contention is NOT
// resolved here — that is phase 2's job — so candidates depend only on
// geometry and faults, never on scheduling state, and chunks can be built in
// parallel in any order.
struct Candidate {
  std::uint32_t terminal = 0;
  std::uint32_t satellite = 0;
  std::uint32_t station = 0;
  double capacity_bps = 0.0;
};

// Candidates of one step, terminal-major with satellites ascending inside
// each terminal (the reference scan order), plus per-terminal offsets:
// terminal ti owns cands[offsets[ti] .. offsets[ti + 1]).
struct StepCandidates {
  std::vector<Candidate> cands;
  std::vector<std::uint32_t> offsets;

  // `reserve_hint` is the running high-water mark of per-step candidate
  // counts, so steady-state chunks emit into pre-sized vectors instead of
  // regrowing through the same doubling ladder every chunk.
  void reset(std::size_t terminal_count, std::size_t reserve_hint) {
    cands.clear();
    if (cands.capacity() < reserve_hint) cands.reserve(reserve_hint);
    offsets.assign(terminal_count + 1, 0);
  }
};

// Lock-free running maximum (no std::atomic::fetch_max in C++20).
void atomic_max(std::atomic<std::size_t>& target, std::size_t value) noexcept {
  std::size_t cur = target.load(std::memory_order_relaxed);
  while (cur < value &&
         !target.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
  }
}

// Wall time of one phase-1 task split by stage, accumulated locally and
// observed once per task as sched.phase1_{downlink,query,scan,merge}_seconds.
struct Phase1Split {
  double downlink = 0.0;  // satellite -> station legs
  double query = 0.0;     // footprint-index cap queries
  double scan = 0.0;      // exact re-test, uplink budget, candidate emission
  double merge = 0.0;     // reorder of the emitted candidates to terminal-major
};

// Charges elapsed wall time to stages with one clock read per stage boundary
// (per satellite or per stage, never per pair). A disabled clock — an
// uninstrumented run — never reads the clock.
class StageClock {
 public:
  explicit StageClock(bool enabled) : enabled_(enabled) {
    if (enabled_) last_ = std::chrono::steady_clock::now();
  }

  // Adds the time since the previous lap (or construction) to `stage`.
  void lap(double& stage) {
    if (!enabled_) return;
    const std::chrono::steady_clock::time_point now = std::chrono::steady_clock::now();
    stage += std::chrono::duration<double>(now - last_).count();
    last_ = now;
  }

 private:
  bool enabled_;
  std::chrono::steady_clock::time_point last_{};
};

// A downlink leg toward one station, cached per (satellite, step) so the
// satellite->station leg is computed once instead of once per terminal. Only
// the values relay_capacity_bps reads are kept; shannon_bps stays zero in
// transparent mode, where the combine never looks at it.
struct StationBudget {
  std::uint32_t station = 0;
  double snr_linear = 0.0;
  double shannon_bps = 0.0;
};

// Read-only phase-1 inputs, shared by every producer task. No terminal pair
// masks exist; visibility is discovered per (satellite, step) through the
// footprint index and re-tested exactly.
struct Phase1Context {
  const SchedulerConfig& config;
  std::span<const constellation::Satellite> satellites;
  std::span<const GroundStation> stations;
  std::span<const orbit::TopocentricFrame> station_frames;
  const orbit::EphemerisSet& ephemerides;
  const cov::FootprintIndex* index = nullptr;
  // Terminal inputs gathered into index-slot order once per run, so the scan
  // over a cap query's slot ranges reads them sequentially: slot j holds
  // terminal index->site_ids()[j].
  std::span<const std::uint32_t> slot_party;
  std::span<const orbit::TopocentricFrame> slot_frames;
  std::span<const HopEvaluator> slot_uplink_hops;
  // Orbital-shell shards (contiguous, ascending) and one conservative
  // footprint cone per shard from the shard's radius extremes.
  std::span<const constellation::ShellShard> shards;
  std::span<const cov::FootprintCone> shard_cones;
  const cov::PackedMasks* station_vis = nullptr;
  const cov::PackedMasks* party_avail = nullptr;
  std::size_t party_count = 0;
  std::span<const HopEvaluator> downlink_hops;
  bool regenerative = false;
  double sin_mask = 0.0;
  // max_candidates_per_terminal (0 = exact).
  std::size_t cap = 0;
  std::atomic<std::size_t>* step_high_water = nullptr;
  // (satellite, terminal, step) visits skipped by the index — the pruning
  // counter surfaced as sched.index_pruned_pairs.
  std::atomic<std::uint64_t>* pruned_pairs = nullptr;
};

// A capped-mode top-K entry; its terminal is implied by the slot whose block
// holds it. No member initialisers, so blocks allocate without a zero fill
// and pages no step touches are never faulted in.
struct TopKEntry {
  std::uint32_t satellite;
  std::uint32_t station;
  double capacity_bps;
};

// Scratch of the phase-1 fill. Each producer task borrows one for its
// duration, so concurrent tasks never share state and later tasks reuse the
// buffers' capacity and already-faulted pages.
struct Phase1Scratch {
  std::vector<StationBudget> downlinks;                // current satellite
  std::vector<cov::FootprintIndex::Range> ranges;
  // Exact mode: emission in (satellite-ascending, site-bucket) order,
  // counting-sorted into terminal-major afterwards.
  std::vector<Candidate> emitted;
  // Capped mode, indexed by index slot: blocks of 2*cap entries per slot —
  // own-satellite top-K in the front half, spare top-K in the back half,
  // each kept sorted by capacity descending (stable: earlier = lower
  // satellite index). Only the first own_count / spare_count entries of a
  // half are ever read, so the blocks need no initialisation.
  std::unique_ptr<TopKEntry[]> blocks;
  std::vector<std::uint8_t> own_count;
  std::vector<std::uint8_t> spare_count;
};

// Keeps region[0..n) the top-`cap` entries by capacity (descending, stable
// so the earlier — lower-satellite — entry wins ties).
void top_k_insert(TopKEntry* region, std::uint8_t& n, std::size_t cap,
                  const TopKEntry& entry) {
  if (n >= cap && !(entry.capacity_bps > region[cap - 1].capacity_bps)) return;
  std::size_t pos = n < cap ? n : cap - 1;
  while (pos > 0 && region[pos - 1].capacity_bps < entry.capacity_bps) {
    region[pos] = region[pos - 1];
    --pos;
  }
  region[pos] = entry;
  if (n < cap) ++n;
}

// The phase-1 fill of one step — the unit of phase-1 parallelism, since a
// step's candidates depend on that step alone. Emission is satellite-major
// (shards ascending, satellites ascending inside each shard); the counting
// sort at the end restores the terminal-major / satellite-ascending order of
// the reference scan, so with cap == 0 the output is bit-identical to it:
// the index + cone only prune (conservative superset of exact visibility),
// survivors run the same visible_above and the same hop arithmetic on the
// same table positions.
// The slot-order inputs are copies of the per-terminal ones, and each
// terminal's top-K block still sees its satellites in ascending order, so
// reading them by slot changes no value and no insertion order.
void fill_step(const Phase1Context& ctx, std::size_t step, StepCandidates& out,
               Phase1Scratch& scratch, StageClock& clock, Phase1Split& split) {
  const std::size_t sat_count = ctx.satellites.size();
  const std::size_t term_count = ctx.slot_party.size();
  const std::size_t station_count = ctx.stations.size();
  const std::size_t cap = ctx.cap;

  out.reset(term_count, ctx.step_high_water->load(std::memory_order_relaxed));
  if (cap == 0) {
    scratch.emitted.clear();
  } else {
    if (!scratch.blocks) {
      scratch.blocks = std::make_unique_for_overwrite<TopKEntry[]>(term_count * 2 * cap);
    }
    scratch.own_count.assign(term_count, 0);
    scratch.spare_count.assign(term_count, 0);
  }

  const std::span<const double> ux = ctx.index->unit_x();
  const std::span<const double> uy = ctx.index->unit_y();
  const std::span<const double> uz = ctx.index->unit_z();
  const std::span<const std::uint32_t> ids = ctx.index->site_ids();

  std::uint64_t pruned = 0;
  for (std::size_t shard_i = 0; shard_i < ctx.shards.size(); ++shard_i) {
    const constellation::ShellShard& shard = ctx.shards[shard_i];
    const cov::FootprintCone& cone = ctx.shard_cones[shard_i];
    for (std::size_t si = shard.begin; si < shard.end; ++si) {
      // A satellite that reaches no station of any party can carry no
      // candidate (party_avail is the union of its station legs): one test
      // per party instead of one mask read per station.
      bool reachable = false;
      for (std::size_t p = 0; p < ctx.party_count && !reachable; ++p) {
        reachable = ctx.party_avail->test(p * sat_count + si, step);
      }
      if (!reachable) {
        clock.lap(split.downlink);
        continue;
      }
      const util::Vec3 pos = ctx.ephemerides.table(si).position_ecef(step);

      // Downlink budgets for this satellite, station order ascending (the
      // reference tie-break order).
      scratch.downlinks.clear();
      for (std::size_t gi = 0; gi < station_count; ++gi) {
        if (!ctx.station_vis->test(si * station_count + gi, step)) continue;
        const double snr =
            ctx.downlink_hops[gi].snr_linear(ctx.station_frames[gi].range_m(pos));
        scratch.downlinks.push_back(
            {static_cast<std::uint32_t>(gi), snr,
             ctx.regenerative ? ctx.downlink_hops[gi].shannon_bps(snr) : 0.0});
      }
      clock.lap(split.downlink);

      scratch.ranges.clear();
      ctx.index->query_cap(pos, cone.psi_rad, scratch.ranges);
      clock.lap(split.query);

      std::size_t visited = 0;
      for (const cov::FootprintIndex::Range& range : scratch.ranges) {
        visited += range.end - range.begin;
        for (std::uint32_t j = range.begin; j < range.end; ++j) {
          // Conservative cone dot test, then the exact elevation test —
          // identical accept set to the reference's visible_above.
          if (ux[j] * pos.x + uy[j] * pos.y + uz[j] * pos.z < cone.dot_threshold) {
            continue;
          }
          const std::uint32_t party = ctx.slot_party[j];
          if (!ctx.party_avail->test(party * sat_count + si, step)) continue;
          const orbit::TopocentricFrame& frame = ctx.slot_frames[j];
          if (!frame.visible_above(pos, ctx.sin_mask)) continue;

          const double up_snr = ctx.slot_uplink_hops[j].snr_linear(frame.range_m(pos));
          const double up_shannon =
              ctx.regenerative ? ctx.slot_uplink_hops[j].shannon_bps(up_snr) : 0.0;
          double best_capacity = 0.0;
          std::uint32_t best_gs = 0;
          bool found = false;
          for (const StationBudget& sb : scratch.downlinks) {
            if (ctx.stations[sb.station].owner_party != party) continue;
            const double capacity = relay_capacity_bps(
                up_snr, up_shannon, sb.snr_linear, sb.shannon_bps,
                ctx.config.transponder, ctx.stations[sb.station].radio,
                ctx.config.relay_mode);
            if (capacity > best_capacity) {
              best_capacity = capacity;
              best_gs = sb.station;
              found = true;
            }
          }
          if (!found) continue;
          if (cap == 0) {
            scratch.emitted.push_back(
                {ids[j], static_cast<std::uint32_t>(si), best_gs, best_capacity});
          } else {
            const bool spare = ctx.satellites[si].owner_party != party;
            TopKEntry* region =
                scratch.blocks.get() + std::size_t{j} * 2 * cap + (spare ? cap : 0);
            top_k_insert(region, spare ? scratch.spare_count[j] : scratch.own_count[j],
                         cap, {static_cast<std::uint32_t>(si), best_gs, best_capacity});
          }
        }
      }
      pruned += term_count - visited;
      clock.lap(split.scan);
    }
  }

  if (cap == 0) {
    // Counting sort, stable by terminal, so within a terminal the satellite-
    // ascending emission order is preserved — the reference scan order.
    // offsets[ti] serves as terminal ti's write cursor and ends at the start
    // of ti + 1, so one shift restores it.
    const std::vector<Candidate>& em = scratch.emitted;
    for (const Candidate& cand : em) ++out.offsets[cand.terminal + 1];
    for (std::size_t ti = 0; ti < term_count; ++ti) out.offsets[ti + 1] += out.offsets[ti];
    out.cands.resize(em.size());
    for (const Candidate& cand : em) out.cands[out.offsets[cand.terminal]++] = cand;
    std::copy_backward(out.offsets.begin(), out.offsets.end() - 1, out.offsets.end());
    out.offsets[0] = 0;
  } else {
    // Each terminal's own/spare top-K blocks, merged into satellite-
    // ascending order (the canonical candidate order phase 2's strict-max
    // tie-break expects). Blocks are read in slot order and each lands in
    // its terminal's range of the terminal-major list, whose offsets come
    // from the per-slot counts first.
    for (std::size_t j = 0; j < term_count; ++j) {
      out.offsets[ids[j] + 1] = std::uint32_t{scratch.own_count[j]} + scratch.spare_count[j];
    }
    for (std::size_t ti = 0; ti < term_count; ++ti) out.offsets[ti + 1] += out.offsets[ti];
    out.cands.resize(out.offsets[term_count]);
    for (std::size_t j = 0; j < term_count; ++j) {
      const std::size_t n_own = scratch.own_count[j];
      const std::size_t n = n_own + scratch.spare_count[j];
      if (n == 0) continue;
      const TopKEntry* block = scratch.blocks.get() + j * 2 * cap;
      Candidate* dst = out.cands.data() + out.offsets[ids[j]];
      for (std::size_t k = 0; k < n; ++k) {
        // Own entries sit at block[0..n_own), spare ones at block[cap..).
        const TopKEntry& e = block[k < n_own ? k : cap + k - n_own];
        std::size_t pos = k;
        while (pos > 0 && dst[pos - 1].satellite > e.satellite) {
          dst[pos] = dst[pos - 1];
          --pos;
        }
        dst[pos] = {ids[j], e.satellite, e.station, e.capacity_bps};
      }
    }
  }
  clock.lap(split.merge);

  atomic_max(*ctx.step_high_water, out.cands.size());
  ctx.pruned_pairs->fetch_add(pruned, std::memory_order_relaxed);
}

// Phase-2 inputs: the step-invariant scheduling state.
struct ConsumeContext {
  const SchedulerConfig& config;
  std::span<const constellation::Satellite> satellites;
  std::span<const Terminal> terminals;
  std::span<const std::size_t> spare_order;
  // Per-satellite beams reserved from the spare pass (withholding).
  std::span<const int> spare_reserved;
};

// Per-run phase-2 scratch: beam counters and the served bitmap are assigned
// (not reallocated) every step — at a million terminals the per-step
// allocations the old code made would dominate the sequential phase.
struct ConsumeScratch {
  std::vector<int> beams_left;
  std::vector<std::uint8_t> served;
};

// Spare-commons ban check shared by both phase-2 implementations: parties
// beyond the exclusion vector are not excluded, so an empty vector bans
// no one (and constellation::Satellite::kUnowned can never index in).
bool spare_excluded(const SchedulerConfig& config, std::uint32_t party) noexcept {
  return party < config.spare_exclude_party.size() &&
         config.spare_exclude_party[party] != 0;
}

// Sequentially allocates beams for one step from its candidate list. Mirrors
// schedule_step exactly: same two passes, same strict-> maximisation, same
// tie-breaks — a candidate list entry stands in for the (si, best-station)
// column of the reference's joint scan, so the selected links and their
// order are bit-identical. `beam_rejections` counts candidates skipped
// because their satellite had no beam left — the contention signal the obs
// layer reports — and `withheld_rejections` spare candidates skipped because
// the remaining beams are withheld. Reads nothing but this step's candidates
// and the arguments, so with no faults, blocks or sticky state it may run
// for any step at any time.
StepSchedule consume_step(const ConsumeContext& ctx, const StepCandidates& sc,
                          std::size_t step, const fault::FaultTimeline* faults,
                          std::span<const std::uint8_t> blocked_terminals,
                          ConsumeScratch& scratch, std::uint64_t& beam_rejections,
                          std::uint64_t& withheld_rejections,
                          std::span<const std::uint32_t> sticky_prev = {},
                          double sticky_margin = 0.0) {
  StepSchedule schedule;
  schedule.step = step;

  const bool faulted = faults != nullptr && !faults->empty();
  std::vector<int>& beams_left = scratch.beams_left;
  beams_left.assign(ctx.satellites.size(), ctx.config.beams_per_satellite);
  if (faulted) {
    for (std::size_t si = 0; si < ctx.satellites.size(); ++si) {
      beams_left[si] = faults->degraded_beam_count(si, step, ctx.config.beams_per_satellite);
    }
  }

  std::vector<std::uint8_t>& served = scratch.served;
  served.assign(ctx.terminals.size(), 0);
  for (const bool spare_pass : {false, true}) {
    for (std::size_t order_index = 0; order_index < ctx.terminals.size(); ++order_index) {
      const std::size_t ti = spare_pass ? ctx.spare_order[order_index] : order_index;
      if (ti < blocked_terminals.size() && blocked_terminals[ti] != 0) continue;
      if (served[ti] != 0) continue;

      const std::uint32_t party = ctx.terminals[ti].owner_party;
      // A spare-banned party's terminals take nothing from the commons; its
      // own pass already ran untouched.
      if (spare_pass && spare_excluded(ctx.config, party)) continue;
      // Sticky spare grants (hysteresis): remember last step's satellite if
      // it is still a feasible spare candidate, and keep it unless some
      // competitor beats it by more than the margin.
      const std::uint32_t sticky_sat =
          spare_pass && sticky_margin > 0.0 && ti < sticky_prev.size()
              ? sticky_prev[ti]
              : 0xFFFFFFFFu;
      double sticky_capacity = 0.0;
      std::size_t sticky_gs = 0;
      bool sticky_found = false;
      double best_capacity = 0.0;
      std::size_t best_sat = 0, best_gs = 0;
      bool found = false;
      for (std::uint32_t k = sc.offsets[ti]; k < sc.offsets[ti + 1]; ++k) {
        const Candidate& cand = sc.cands[k];
        if (spare_pass &&
            spare_excluded(ctx.config, ctx.satellites[cand.satellite].owner_party)) {
          continue;  // quarantined capacity is not on offer
        }
        const int spare_floor = spare_pass ? ctx.spare_reserved[cand.satellite] : 0;
        if (beams_left[cand.satellite] <= spare_floor) {
          if (beams_left[cand.satellite] <= 0) {
            ++beam_rejections;
          } else {
            ++withheld_rejections;
          }
          continue;
        }
        const bool own = ctx.satellites[cand.satellite].owner_party == party;
        if (own == spare_pass) continue;  // pass 0: own only; pass 1: spare only
        if (cand.satellite == sticky_sat) {
          sticky_capacity = cand.capacity_bps;
          sticky_gs = cand.station;
          sticky_found = true;
        }
        if (cand.capacity_bps > best_capacity) {
          best_capacity = cand.capacity_bps;
          best_sat = cand.satellite;
          best_gs = cand.station;
          found = true;
        }
      }
      if (sticky_found && best_sat != sticky_sat &&
          !(best_capacity > sticky_capacity * (1.0 + sticky_margin))) {
        best_capacity = sticky_capacity;
        best_sat = sticky_sat;
        best_gs = sticky_gs;
      }
      if (found) {
        --beams_left[best_sat];
        served[ti] = 1;
        schedule.links.push_back({ti, best_sat, best_gs, best_capacity,
                                  ctx.satellites[best_sat].owner_party != party});
      }
    }
  }

  for (std::size_t ti = 0; ti < ctx.terminals.size(); ++ti) {
    if (served[ti] == 0) schedule.unserved_terminals.push_back(ti);
  }
  return schedule;
}

// Degraded-operations state shared by run and run_reference: who served each
// terminal last step, and how long each terminal still sits in
// re-acquisition backoff. All of it stays inert (and the sweep bit-identical
// to the no-fault path) when faults are null or empty.
struct DetachState {
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;
  std::vector<std::uint32_t> prev_satellite;
  std::vector<std::uint32_t> prev_station;
  std::vector<std::size_t> backoff_remaining;
  std::vector<std::uint8_t> blocked;
  // Engaged only by DegradationPolicy::backoff_initial_steps > 0; otherwise
  // the constant reacquisition_backoff_steps hold applies (PR 2 behavior).
  std::vector<ReacquisitionBackoff> machines;

  explicit DetachState(std::size_t terminal_count)
      : prev_satellite(terminal_count, kNone),
        prev_station(terminal_count, kNone),
        backoff_remaining(terminal_count, 0),
        blocked(terminal_count, 0) {}

  void configure(const DegradationPolicy& policy) {
    if (policy.enabled && policy.backoff_initial_steps > 0) {
      machines.assign(blocked.size(),
                      ReacquisitionBackoff(policy.backoff_initial_steps,
                                           policy.backoff_multiplier,
                                           policy.backoff_max_steps,
                                           policy.backoff_clean_horizon_steps));
    }
  }

  // A terminal whose serving satellite or station just went down is
  // failure-force-detached: it must re-acquire, which costs
  // reacquisition_backoff_steps of no service (or the policy's exponential
  // hold when engaged). Elevation-driven loss (the satellite flying out of
  // view) stays a free handover.
  void pre_step(const fault::FaultTimeline& faults, std::size_t step,
                std::size_t backoff_steps, double dt_step, ScheduleResult& result,
                SloAccumulator* slo = nullptr) {
    for (std::size_t ti = 0; ti < blocked.size(); ++ti) {
      if (prev_satellite[ti] != kNone &&
          (!faults.satellite_available(prev_satellite[ti], step) ||
           (prev_station[ti] != kNone &&
            !faults.station_available(prev_station[ti], step)))) {
        ++result.failure_forced_detaches;
        const std::size_t hold =
            machines.empty() ? backoff_steps : machines[ti].on_failure();
        backoff_remaining[ti] = std::max(backoff_remaining[ti], hold);
        prev_satellite[ti] = kNone;
        prev_station[ti] = kNone;
        if (slo != nullptr) slo->on_failure_detach(ti, step);
      } else if (!machines.empty()) {
        machines[ti].on_clean_step();
      }
      blocked[ti] = backoff_remaining[ti] > 0 ? 1 : 0;
      if (blocked[ti]) result.reacquisition_wait_seconds += dt_step;
    }
  }

  void post_step(const StepSchedule& schedule) {
    for (std::size_t ti = 0; ti < blocked.size(); ++ti) {
      if (backoff_remaining[ti] > 0) --backoff_remaining[ti];
      prev_satellite[ti] = kNone;
      prev_station[ti] = kNone;
    }
    for (const LinkAssignment& link : schedule.links) {
      prev_satellite[link.terminal_index] =
          static_cast<std::uint32_t>(link.satellite_index);
      prev_station[link.terminal_index] =
          static_cast<std::uint32_t>(link.station_index);
    }
  }
};

// One run's degradation-policy + SLO driver, shared verbatim by run() and
// run_reference() so both paths step the policy identically and the
// disabled-policy/no-SLO configuration stays bit-identical to the pre-policy
// scheduler (the blocked span handed to the step scheduler is exactly the
// historical one unless shedding actually fires).
struct PolicyDriver {
  const SchedulerConfig& config;
  std::span<const constellation::Satellite> satellites;
  std::span<const Terminal> terminals;
  const fault::FaultTimeline* faults;
  bool faulted = false;
  bool shedding = false;
  bool sticky = false;
  DetachState detach;
  SloAccumulator slo;
  std::vector<std::uint8_t> shed_blocked;  // detach.blocked | shed flags
  std::uint64_t shed_terminal_steps = 0;

  PolicyDriver(const SchedulerConfig& cfg,
               std::span<const constellation::Satellite> sats,
               std::span<const Terminal> terms, const fault::FaultTimeline* f,
               std::size_t party_count, double dt_step)
      : config(cfg),
        satellites(sats),
        terminals(terms),
        faults(f),
        detach(terms.size()) {
    faulted = f != nullptr && !f->empty();
    const DegradationPolicy& policy = cfg.degradation;
    shedding = policy.enabled && faulted && !policy.shed_below.empty();
    sticky = policy.enabled && policy.spare_hysteresis_margin > 0.0;
    if (policy.slo_window_steps > 0) {
      slo = SloAccumulator(party_count, terms.size(), policy.slo_window_steps,
                           dt_step);
    }
    if (shedding) shed_blocked.resize(terms.size(), 0);
    detach.configure(policy);
  }

  // Detach bookkeeping plus load shedding for `step`; returns the blocked
  // span the step scheduler must honor (empty when nothing can block).
  std::span<const std::uint8_t> pre_step(std::size_t step, double dt_step,
                                         ScheduleResult& result) {
    if (!faulted) return {};
    detach.pre_step(*faults, step, config.reacquisition_backoff_steps, dt_step,
                    result, slo.engaged() ? &slo : nullptr);
    if (!shedding) return detach.blocked;
    // Healthy-beam fraction across the fleet at this step; a tier whose
    // threshold exceeds it is deliberately unserved so better tiers keep the
    // surviving capacity.
    const int nominal = config.beams_per_satellite;
    double healthy = 0.0;
    for (std::size_t si = 0; si < satellites.size(); ++si) {
      healthy += static_cast<double>(faults->degraded_beam_count(
          si, step, nominal));
    }
    const double denom =
        static_cast<double>(satellites.size()) * static_cast<double>(nominal);
    const double fraction = denom > 0.0 ? healthy / denom : 1.0;
    for (std::size_t ti = 0; ti < terminals.size(); ++ti) {
      std::uint8_t block = detach.blocked[ti];
      if (block == 0 &&
          fraction < config.degradation.shed_threshold(terminals[ti].owner_party)) {
        block = 1;
        ++shed_terminal_steps;
        if (slo.engaged()) slo.on_shed(terminals[ti].owner_party);
      }
      shed_blocked[ti] = block;
    }
    return shed_blocked;
  }

  // True when a step's grant depends on that step's candidates alone: no
  // faults means no detach, backoff or shedding state, and no hysteresis
  // means no sticky satellites. Only then may steps grant out of order.
  [[nodiscard]] bool step_local() const { return !faulted && !sticky; }

  [[nodiscard]] std::span<const std::uint32_t> sticky_prev() const {
    return sticky ? std::span<const std::uint32_t>(detach.prev_satellite)
                  : std::span<const std::uint32_t>{};
  }
  [[nodiscard]] double sticky_margin() const {
    return sticky ? config.degradation.spare_hysteresis_margin : 0.0;
  }

  void post_step(const StepSchedule& schedule) {
    // Sticky grants need last step's satellites even on fault-free runs;
    // with no faults and no hysteresis this bookkeeping is skipped exactly
    // as before.
    if (faulted || sticky) detach.post_step(schedule);
    if (slo.engaged()) slo.record_step(schedule, terminals);
  }

  void finish(ScheduleResult& result) {
    if (slo.engaged()) result.slo = slo.finish();
  }
};

// Post-grant RF degradation (config.rf armed with active interferers). Link
// SELECTION already happened on nominal capacities — beam grants and their
// ordering are untouched, so growing the jam set can only degrade honest
// capacity, never reshuffle grants (the CRN sweep monotonicity carries
// through). Each granted link maps its nominal capacity to an effective SNR
// over the plan's reference bandwidth, divides by one plus the aggregate
// interference-to-noise of every plan-violating emission in view of the
// victim terminal, and maps back; capacity is only overwritten when some
// interference actually arrived (INR > 0), keeping clean links bit-identical
// through the Shannon round-trip's rounding.
void apply_rf_step(const rf::InterferenceEnvironment& env,
                   std::span<const util::Vec3> positions,
                   std::span<const Terminal> terminals,
                   std::span<const constellation::Satellite> satellites,
                   std::span<const orbit::TopocentricFrame> terminal_frames,
                   std::span<const HopEvaluator> jam_hops, double sin_mask,
                   StepSchedule& schedule, rf::RfLinkStats& stats) {
  const double band = env.reference_bandwidth_hz();
  for (LinkAssignment& link : schedule.links) {
    const std::size_t ti = link.terminal_index;
    const std::uint32_t victim = terminals[ti].owner_party;
    const double nominal = link.capacity_bps;
    double inr_total = 0.0;
    // Owner-attributed continuous emission: every satellite of a jamming or
    // squatting party radiates off-plan whenever it is above the victim's
    // horizon (a bent pipe repeats constantly), at the transponder's
    // transmit EIRP scaled by the environment's coupling factor.
    for (std::size_t si = 0; si < satellites.size(); ++si) {
      const std::uint32_t owner = satellites[si].owner_party;
      if (owner == constellation::Satellite::kUnowned) continue;
      if (!env.jams(owner) && !env.squats(owner)) continue;
      const double coupling = env.coupling(owner, victim);
      if (coupling <= 0.0) continue;
      const util::Vec3& pos = positions[si];
      if (!terminal_frames[ti].visible_above(pos, sin_mask)) continue;
      const double inr =
          coupling * jam_hops[ti].snr_linear(terminal_frames[ti].range_m(pos));
      inr_total += inr;
      stats.violation_inr_by_party[owner] += inr;
    }
    double realized = nominal;
    if (inr_total > 0.0) {
      const double snr_eff = std::exp2(nominal / band) - 1.0;
      realized = band * std::log2(1.0 + snr_eff / (1.0 + inr_total));
      link.capacity_bps = realized;
      ++stats.degraded_links;
    }
    stats.nominal_bps_by_party[victim] += nominal;
    stats.realized_bps_by_party[victim] += realized;
    stats.nominal_bps_total += nominal;
    stats.realized_bps_total += realized;
  }
}

// Folds one step's schedule into the per-party aggregates.
void accumulate_step(const StepSchedule& schedule, std::span<const Terminal> terminals,
                     std::span<const constellation::Satellite> satellites, double dt_step,
                     ScheduleResult& result) {
  for (const LinkAssignment& link : schedule.links) {
    const std::uint32_t term_party = terminals[link.terminal_index].owner_party;
    const std::uint32_t sat_party = satellites[link.satellite_index].owner_party;
    const double throughput_bytes =
        std::min(link.capacity_bps, terminals[link.terminal_index].demand_bps) *
        dt_step / 8.0;
    if (link.spare) {
      result.per_party[term_party].spare_used_seconds += dt_step;
      result.per_party[term_party].bytes_received_from_others += throughput_bytes;
      if (sat_party != constellation::Satellite::kUnowned) {
        result.per_party[sat_party].spare_provided_seconds += dt_step;
        result.per_party[sat_party].bytes_carried_for_others += throughput_bytes;
      }
    } else {
      result.per_party[term_party].own_link_seconds += dt_step;
    }
    result.total_served_seconds += dt_step;
  }
  for (std::size_t ti : schedule.unserved_terminals) {
    result.per_party[terminals[ti].owner_party].unserved_terminal_seconds += dt_step;
    result.total_unserved_seconds += dt_step;
  }
}

// Metric handles for one run(), registered up front so the hot loops never
// touch the registry's name tables. All handles are null-safe no-ops when no
// registry is attached, so the uninstrumented overloads pay only dead
// branches on null pointers. Metrics keep their meaning whatever the task
// shape and wherever the grant runs:
//  * chunk_seconds is observed once per producer task (one step) and times
//    the whole task, including a step-local grant run inside it, so its sum
//    is all the CPU time spent off the consumer thread;
//  * drain_seconds times the sequential, in-order consumer per chunk, so
//    chunk_seconds + drain_seconds covers phase 1 and phase 2 exactly once;
//  * the phase1_{downlink,query,scan,merge} timers split a task's fill by
//    stage, accumulated in the task and observed once per task;
//  * grant_seconds is observed once per step wherever consume_step runs —
//    in the producer task on step-local runs (no faults, no hysteresis,
//    counted by step_local_grant_steps), in the consumer otherwise;
//  * candidates, beam_rejections, withheld_rejections and links_granted are
//    exact integer sums over steps, and candidate_high_water is the largest
//    single step's list.
struct RunMetrics {
  obs::Histogram run_seconds;           // whole pipeline, one observation
  obs::Histogram propagate_seconds;     // shared ephemeris kernel
  obs::Histogram cull_seconds;          // station masks, party_avail, index
  obs::Histogram chunk_seconds;         // per phase-1 task (worker threads)
  obs::Histogram downlink_seconds;      // per task: satellite -> station legs
  obs::Histogram query_seconds;         // per task: footprint-index cap queries
  obs::Histogram scan_seconds;          // per task: exact re-test, uplink, top-K
  obs::Histogram merge_seconds;         // per task: terminal-major reorder
  obs::Histogram grant_seconds;         // per step: consume_step
  obs::Histogram drain_seconds;         // per phase-2 chunk drain
  obs::Histogram candidates_per_step;   // candidate-list occupancy
  obs::Counter candidates;              // candidates emitted by phase 1
  obs::Counter cull_masks;              // station masks filled by the culler
  obs::Counter cull_visible_steps;      // set bits across the station masks
  obs::Counter index_pruned_pairs;      // pair visits skipped by the spatial index
  obs::Counter beam_rejections;         // candidates skipped: no beam left
  obs::Counter withheld_rejections;     // spare candidates skipped: beams withheld
  obs::Counter links_granted;
  obs::Counter steps;
  obs::Counter step_local_grant_steps;  // steps granted inside their producer task
  obs::Counter failure_forced_detaches;
  obs::Counter shed_terminal_steps;    // terminals shed by the degradation policy
  obs::Counter grant_flaps;            // SLO-tracked serving-satellite changes
  obs::Gauge stream_slots;
  obs::Gauge candidate_high_water;      // max per-step candidate count seen
  obs::Gauge threads;

  static RunMetrics attach(obs::MetricsRegistry* registry) {
    RunMetrics m;
    if (registry == nullptr) return m;
    m.run_seconds = registry->histogram("sched.run_seconds");
    m.propagate_seconds = registry->histogram("sched.propagate_seconds");
    m.cull_seconds = registry->histogram("sched.cull_seconds");
    m.chunk_seconds = registry->histogram("sched.phase1_chunk_seconds");
    m.downlink_seconds = registry->histogram("sched.phase1_downlink_seconds");
    m.query_seconds = registry->histogram("sched.phase1_query_seconds");
    m.scan_seconds = registry->histogram("sched.phase1_scan_seconds");
    m.merge_seconds = registry->histogram("sched.phase1_merge_seconds");
    m.grant_seconds = registry->histogram("sched.grant_seconds");
    m.drain_seconds = registry->histogram("sched.phase2_drain_seconds");
    m.candidates_per_step = registry->histogram(
        "sched.candidates_per_step", obs::MetricsRegistry::default_count_bounds());
    m.candidates = registry->counter("sched.candidates");
    m.cull_masks = registry->counter("sched.cull_masks");
    m.cull_visible_steps = registry->counter("sched.cull_visible_steps");
    m.index_pruned_pairs = registry->counter("sched.index_pruned_pairs");
    m.beam_rejections = registry->counter("sched.beam_rejections");
    m.withheld_rejections = registry->counter("sched.spare_withheld_rejections");
    m.links_granted = registry->counter("sched.links_granted");
    m.steps = registry->counter("sched.steps");
    m.step_local_grant_steps = registry->counter("sched.step_local_grant_steps");
    m.failure_forced_detaches = registry->counter("sched.failure_forced_detaches");
    m.shed_terminal_steps = registry->counter("sched.shed_terminal_steps");
    m.grant_flaps = registry->counter("sched.grant_flaps");
    m.stream_slots = registry->gauge("sched.stream_slots");
    m.candidate_high_water = registry->gauge("sched.candidate_high_water");
    m.threads = registry->gauge("sched.threads");
    return m;
  }
};

}  // namespace

std::vector<core::ConfigIssue> SchedulerConfig::validate() const {
  std::vector<core::ConfigIssue> issues;
  const auto add = [&issues](const char* field, std::string message) {
    issues.push_back({"net.scheduler", field, std::move(message)});
  };
  if (!std::isfinite(elevation_mask_deg)) {
    add("elevation_mask_deg", "must be finite");
  }
  if (beams_per_satellite <= 0) {
    add("beams_per_satellite",
        "must be > 0, got " + std::to_string(beams_per_satellite));
  }
  if (stream_chunk_steps == 0 || stream_chunk_steps > 64 ||
      (stream_chunk_steps & (stream_chunk_steps - 1)) != 0) {
    add("stream_chunk_steps", "must be a power of two in [1, 64], got " +
                                  std::to_string(stream_chunk_steps));
  }
  if (max_candidates_per_terminal > 64) {
    add("max_candidates_per_terminal",
        "must be <= 64, got " + std::to_string(max_candidates_per_terminal));
  }
  for (const double weight : spare_priority_by_party) {
    if (!std::isfinite(weight) || weight < 0.0) {
      add("spare_priority_by_party", "weights must be finite and >= 0");
      break;
    }
  }
  for (const double fraction : spare_withheld_fraction) {
    if (!std::isfinite(fraction) || fraction < 0.0 || fraction > 1.0) {
      add("spare_withheld_fraction", "entries must be in [0, 1]");
      break;
    }
  }
  for (core::ConfigIssue& issue : degradation.validate()) {
    issues.push_back(std::move(issue));
  }
  return issues;
}

BentPipeScheduler::BentPipeScheduler(SchedulerConfig config,
                                     std::vector<constellation::Satellite> satellites,
                                     std::vector<Terminal> terminals,
                                     std::vector<GroundStation> stations)
    : config_(config),
      satellites_(std::move(satellites)),
      terminals_(std::move(terminals)),
      stations_(std::move(stations)),
      sin_mask_(std::sin(util::deg_to_rad(config.elevation_mask_deg))) {
  core::throw_if_invalid("BentPipeScheduler", config_.validate());
  if (!config_.spare_priority_by_party.empty()) {
    // A non-empty weight vector must cover every party index in play;
    // otherwise spare contention silently zero-weights (or worse, indexes
    // past) the uncovered parties.
    const std::size_t covered = config_.spare_priority_by_party.size();
    for (const Terminal& t : terminals_) {
      if (t.owner_party >= covered) {
        throw std::invalid_argument(
            "BentPipeScheduler: spare_priority_by_party does not cover terminal owner");
      }
    }
    for (const constellation::Satellite& s : satellites_) {
      if (s.owner_party != constellation::Satellite::kUnowned &&
          s.owner_party >= covered) {
        throw std::invalid_argument(
            "BentPipeScheduler: spare_priority_by_party does not cover satellite owner");
      }
    }
  }
  // Withheld beams, resolved per satellite once: ceil(nominal * fraction),
  // never the full beam count spilled past nominal. All-zero when the config
  // vector is empty — the spare beam check stays the historical `> 0`.
  spare_reserved_.assign(satellites_.size(), 0);
  if (!config_.spare_withheld_fraction.empty()) {
    for (std::size_t si = 0; si < satellites_.size(); ++si) {
      const std::uint32_t owner = satellites_[si].owner_party;
      if (owner >= config_.spare_withheld_fraction.size()) continue;
      const double fraction = config_.spare_withheld_fraction[owner];
      spare_reserved_[si] = std::min(
          config_.beams_per_satellite,
          static_cast<int>(std::ceil(fraction * config_.beams_per_satellite)));
    }
  }

  terminal_frames_.reserve(terminals_.size());
  for (const Terminal& t : terminals_) terminal_frames_.emplace_back(t.location);
  station_frames_.reserve(stations_.size());
  for (const GroundStation& gs : stations_) station_frames_.emplace_back(gs.location);

  spare_order_.resize(terminals_.size());
  for (std::size_t i = 0; i < spare_order_.size(); ++i) spare_order_[i] = i;
  if (!config_.spare_priority_by_party.empty()) {
    std::stable_sort(spare_order_.begin(), spare_order_.end(),
                     [this](std::size_t a, std::size_t b) {
                       const auto& weights = config_.spare_priority_by_party;
                       auto weight_of = [&weights](const Terminal& t) {
                         return t.owner_party < weights.size()
                                    ? weights[t.owner_party]
                                    : 0.0;
                       };
                       return weight_of(terminals_[a]) > weight_of(terminals_[b]);
                     });
  }
}

StepSchedule BentPipeScheduler::schedule_step(std::span<const util::Vec3> satellite_ecef,
                                              std::size_t step) const {
  return schedule_step(satellite_ecef, step, nullptr);
}

StepSchedule BentPipeScheduler::schedule_step(
    std::span<const util::Vec3> satellite_ecef, std::size_t step,
    const fault::FaultTimeline* faults,
    std::span<const std::uint8_t> blocked_terminals,
    std::span<const std::uint32_t> sticky_prev_satellite,
    double sticky_margin) const {
  StepSchedule schedule;
  schedule.step = step;

  const bool faulted = faults != nullptr && !faults->empty();
  std::vector<int> beams_left(satellites_.size(), config_.beams_per_satellite);
  if (faulted) {
    for (std::size_t si = 0; si < satellites_.size(); ++si) {
      beams_left[si] = faults->degraded_beam_count(si, step, config_.beams_per_satellite);
    }
  }

  // Two passes: own-satellite links first (owner priority), then spare
  // capacity on anyone's satellite. Terminals served in the first pass are
  // tracked in a flat bitmap (not a scan over the links granted so far).
  std::vector<std::uint8_t> served(terminals_.size(), 0);
  for (const bool spare_pass : {false, true}) {
    for (std::size_t order_index = 0; order_index < terminals_.size(); ++order_index) {
      const std::size_t ti = spare_pass ? spare_order_[order_index] : order_index;
      // Terminals waiting out a re-acquisition backoff take no service.
      if (ti < blocked_terminals.size() && blocked_terminals[ti] != 0) continue;
      if (served[ti] != 0) continue;

      const Terminal& term = terminals_[ti];
      // Spare-commons ban: same rule as the pipelined consume_step.
      if (spare_pass && spare_excluded(config_, term.owner_party)) continue;
      const orbit::TopocentricFrame& term_frame = terminal_frames_[ti];

      // Best (highest end-to-end capacity) feasible satellite+station pair.
      double best_capacity = 0.0;
      std::size_t best_sat = 0, best_gs = 0;
      bool found = false;
      // Sticky spare grants: same hysteresis rule as the pipelined
      // consume_step — remember last step's satellite if still feasible.
      const std::uint32_t sticky_sat =
          spare_pass && sticky_margin > 0.0 && ti < sticky_prev_satellite.size()
              ? sticky_prev_satellite[ti]
              : 0xFFFFFFFFu;
      double sticky_capacity = 0.0;
      std::size_t sticky_gs = 0;
      bool sticky_found = false;

      for (std::size_t si = 0; si < satellites_.size(); ++si) {
        if (spare_pass && spare_excluded(config_, satellites_[si].owner_party)) continue;
        if (beams_left[si] <= (spare_pass ? spare_reserved_[si] : 0)) continue;
        const bool own = satellites_[si].owner_party == term.owner_party;
        if (own == spare_pass) continue;  // pass 0: own only; pass 1: spare only
        const util::Vec3& sat_pos = satellite_ecef[si];
        if (!term_frame.visible_above(sat_pos, sin_mask_)) continue;

        for (std::size_t gi = 0; gi < stations_.size(); ++gi) {
          if (stations_[gi].owner_party != term.owner_party) continue;
          if (faulted && !faults->station_available(gi, step)) continue;
          if (!station_frames_[gi].visible_above(sat_pos, sin_mask_)) continue;

          const double up = term_frame.range_m(sat_pos);
          const double down = station_frames_[gi].range_m(sat_pos);
          const RelayBudget budget = compute_relay(term.radio, config_.transponder,
                                                   stations_[gi].radio, up, down,
                                                   config_.relay_mode);
          if (si == sticky_sat && budget.end_to_end_capacity_bps > sticky_capacity) {
            sticky_capacity = budget.end_to_end_capacity_bps;
            sticky_gs = gi;
            sticky_found = true;
          }
          if (budget.end_to_end_capacity_bps > best_capacity) {
            best_capacity = budget.end_to_end_capacity_bps;
            best_sat = si;
            best_gs = gi;
            found = true;
          }
        }
      }

      if (sticky_found && best_sat != sticky_sat &&
          !(best_capacity > sticky_capacity * (1.0 + sticky_margin))) {
        best_capacity = sticky_capacity;
        best_sat = sticky_sat;
        best_gs = sticky_gs;
      }

      if (found) {
        --beams_left[best_sat];
        served[ti] = 1;
        schedule.links.push_back({ti, best_sat, best_gs, best_capacity,
                                  satellites_[best_sat].owner_party != term.owner_party});
      }
    }
  }

  for (std::size_t ti = 0; ti < terminals_.size(); ++ti) {
    if (served[ti] == 0) schedule.unserved_terminals.push_back(ti);
  }
  return schedule;
}

void BentPipeScheduler::validate_owners(std::size_t party_count) const {
  for (const Terminal& t : terminals_) {
    if (t.owner_party >= party_count) {
      throw std::invalid_argument("BentPipeScheduler::run: terminal owner out of range");
    }
  }
  for (const constellation::Satellite& s : satellites_) {
    if (s.owner_party != constellation::Satellite::kUnowned && s.owner_party >= party_count) {
      throw std::invalid_argument("BentPipeScheduler::run: satellite owner out of range");
    }
  }
}

orbit::EphemerisSet BentPipeScheduler::ephemerides(const orbit::TimeGrid& grid,
                                                   util::ThreadPool* pool) const {
  std::vector<orbit::EphemerisSpec> specs;
  specs.reserve(satellites_.size());
  for (const constellation::Satellite& s : satellites_) {
    orbit::EphemerisSpec spec{s.elements, s.epoch, orbit::Perturbation::kJ2Secular};
    spec.backend = config_.propagator_backend;
    specs.push_back(std::move(spec));
  }
  return orbit::EphemerisSet::compute(specs, grid, pool);
}

ScheduleResult BentPipeScheduler::run(const orbit::TimeGrid& grid, std::size_t party_count,
                                      bool keep_steps, util::ThreadPool* pool) const {
  return run_impl(grid, party_count, nullptr, keep_steps, pool, nullptr);
}

ScheduleResult BentPipeScheduler::run(const orbit::TimeGrid& grid, std::size_t party_count,
                                      const fault::FaultTimeline* faults, bool keep_steps,
                                      util::ThreadPool* pool) const {
  return run_impl(grid, party_count, faults, keep_steps, pool, nullptr);
}

ScheduleResult BentPipeScheduler::run(const orbit::TimeGrid& grid, std::size_t party_count,
                                      sim::RunContext& context, bool keep_steps) const {
  return run_impl(grid, party_count, context.faults(), keep_steps, context.pool(),
                  &context.metrics());
}

ScheduleResult BentPipeScheduler::run_impl(const orbit::TimeGrid& grid,
                                           std::size_t party_count,
                                           const fault::FaultTimeline* faults,
                                           bool keep_steps, util::ThreadPool* pool,
                                           obs::MetricsRegistry* metrics) const {
  validate_owners(party_count);
  const RunMetrics rm = RunMetrics::attach(metrics);
  obs::ScopedTimer run_timer(rm.run_seconds);

  ScheduleResult result;
  result.per_party.resize(party_count);
  const std::size_t step_total = grid.count;
  if (step_total == 0) return result;

  const std::size_t sat_count = satellites_.size();
  const std::size_t term_count = terminals_.size();
  const std::size_t station_count = stations_.size();
  const bool faulted = faults != nullptr && !faults->empty();

  // Every satellite propagated once through the shared ephemeris kernel;
  // both phases (and run_reference) read positions from these tables.
  const orbit::EphemerisSet eph = [&] {
    obs::ScopedTimer propagate_timer(rm.propagate_seconds);
    return ephemerides(grid, pool);
  }();

  obs::ScopedTimer cull_timer(rm.cull_seconds);

  // Latitude-band pruning data: a conservative per-satellite footprint cone
  // (the culler's own derivation with the fleet-wide minimum site radius
  // substituted, so it can only be wider than any per-site cone) plus each
  // table's latitude reach. A (satellite, station) pair whose latitude bands
  // cannot intersect provably has an all-zero mask, so the cull fill is
  // skipped outright — same bits, no work.
  double site_r_min = 0.0;
  {
    bool first = true;
    for (const orbit::TopocentricFrame& f : terminal_frames_) {
      const double r = f.origin_ecef().norm();
      site_r_min = first ? r : std::min(site_r_min, r);
      first = false;
    }
    for (const orbit::TopocentricFrame& f : station_frames_) {
      const double r = f.origin_ecef().norm();
      site_r_min = first ? r : std::min(site_r_min, r);
      first = false;
    }
  }
  std::vector<double> sat_psi(sat_count, 0.0);
  std::vector<double> sat_max_sin_lat(sat_count, 1.0);
  for (std::size_t si = 0; si < sat_count; ++si) {
    const orbit::EphemerisTable& table = eph.table(si);
    sat_psi[si] = cov::FootprintCone::make(table.min_radius_m(), table.max_radius_m(),
                                           site_r_min, config_.elevation_mask_deg)
                      .psi_rad;
    sat_max_sin_lat[si] = cov::max_abs_sin_latitude(table);
  }
  std::vector<double> station_sin_lat(station_count, 0.0);
  for (std::size_t gi = 0; gi < station_count; ++gi) {
    const util::Vec3& o = station_frames_[gi].origin_ecef();
    const double r = o.norm();
    station_sin_lat[gi] = r > 0.0 ? o.z / r : 0.0;
  }

  // Station pair visibility masks through the coverage cull, packed into
  // slab storage. The cull only skips work — each set bit passed the exact
  // visible_above test the reference runs — so a mask word is precisely 64
  // reference visibility answers. Terminals get no pair masks: phase 1 finds
  // them per step through the footprint index.
  const cov::VisibilityCuller culler(grid, config_.elevation_mask_deg);
  const cov::CullCounters cull_counters{rm.cull_masks, rm.cull_visible_steps};
  std::atomic<std::uint64_t> pruned_pairs{0};

  cov::PackedMasks station_vis(sat_count * station_count, step_total);
  const auto fill_station_masks = [&](std::size_t si) {
    const orbit::EphemerisTable& table = eph.table(si);
    std::uint64_t local_pruned = 0;
    for (std::size_t gi = 0; gi < station_count; ++gi) {
      if (!cov::latitude_reachable(sat_max_sin_lat[si], sat_psi[si],
                                   station_sin_lat[gi])) {
        ++local_pruned;
        continue;
      }
      culler.fill(table, station_frames_[gi],
                  station_vis.words(si * station_count + gi), cull_counters);
    }
    pruned_pairs.fetch_add(local_pruned, std::memory_order_relaxed);
  };
  if (pool != nullptr) {
    pool->parallel_for(sat_count, fill_station_masks);
  } else {
    for (std::size_t si = 0; si < sat_count; ++si) fill_station_masks(si);
  }

  // Station outages come off the station masks up front, so phase 1 never
  // offers a downed station. Steps at or beyond the timeline's own grid
  // report healthy (the station_available contract).
  if (faulted) {
    for (std::size_t gi = 0; gi < station_count; ++gi) {
      const cov::StepMask* outage = faults->station_outage_steps(gi);
      if (outage == nullptr) continue;
      cov::StepMask clipped(step_total);
      const std::size_t limit = std::min(step_total, outage->step_count());
      for (std::size_t step = 0; step < limit; ++step) {
        if (outage->test(step)) clipped.set(step);
      }
      for (std::size_t si = 0; si < sat_count; ++si) {
        station_vis.subtract(si * station_count + gi, clipped);
      }
    }
  }

  // Per-(party, satellite) availability: the union of the party's healthy
  // station legs through that satellite. Stations owned by parties outside
  // [0, party_count) can never match a (validated) terminal owner, so they
  // contribute to no mask — exactly the reference's owner filter.
  cov::PackedMasks party_avail(party_count * sat_count, step_total);
  for (std::size_t gi = 0; gi < station_count; ++gi) {
    const std::uint32_t party = stations_[gi].owner_party;
    if (party >= party_count) continue;
    for (std::size_t si = 0; si < sat_count; ++si) {
      const std::span<std::uint64_t> dst = party_avail.words(party * sat_count + si);
      const std::span<const std::uint64_t> src =
          station_vis.words(si * station_count + gi);
      for (std::size_t w = 0; w < dst.size(); ++w) dst[w] |= src[w];
    }
  }

  // Phase-1 terminal discovery: the terminal footprint index, the shell
  // shards and one conservative cone per shard.
  const cov::FootprintIndex footprint_index(terminal_frames_);
  const std::vector<constellation::ShellShard> shards =
      constellation::shell_partition(satellites_);
  std::vector<cov::FootprintCone> shard_cones;
  shard_cones.reserve(shards.size());
  for (const constellation::ShellShard& shard : shards) {
    double r_min = 0.0, r_max = 0.0;
    for (std::size_t si = shard.begin; si < shard.end; ++si) {
      const orbit::EphemerisTable& table = eph.table(si);
      if (si == shard.begin) {
        r_min = table.min_radius_m();
        r_max = table.max_radius_m();
      } else {
        r_min = std::min(r_min, table.min_radius_m());
        r_max = std::max(r_max, table.max_radius_m());
      }
    }
    shard_cones.push_back(cov::FootprintCone::make(
        r_min, r_max, footprint_index.min_site_radius_m(), config_.elevation_mask_deg));
  }
  cull_timer.stop();

  std::vector<HopEvaluator> downlink_hops;
  downlink_hops.reserve(station_count);
  for (const GroundStation& station : stations_) {
    downlink_hops.push_back(HopEvaluator::make(config_.transponder.transmit, station.radio));
  }

  // Terminal inputs in index-slot order (see Phase1Context).
  std::vector<std::uint32_t> slot_party;
  std::vector<orbit::TopocentricFrame> slot_frames;
  std::vector<HopEvaluator> slot_uplink_hops;
  slot_party.reserve(term_count);
  slot_frames.reserve(term_count);
  slot_uplink_hops.reserve(term_count);
  for (const std::uint32_t ti : footprint_index.site_ids()) {
    slot_party.push_back(terminals_[ti].owner_party);
    slot_frames.push_back(terminal_frames_[ti]);
    slot_uplink_hops.push_back(
        HopEvaluator::make(terminals_[ti].radio, config_.transponder.receive));
  }

  std::atomic<std::size_t> step_high_water{0};
  const Phase1Context fctx{config_,
                           satellites_,
                           stations_,
                           station_frames_,
                           eph,
                           &footprint_index,
                           slot_party,
                           slot_frames,
                           slot_uplink_hops,
                           shards,
                           shard_cones,
                           &station_vis,
                           &party_avail,
                           party_count,
                           downlink_hops,
                           config_.relay_mode == RelayMode::kRegenerative,
                           sin_mask_,
                           config_.max_candidates_per_terminal,
                           &step_high_water,
                           &pruned_pairs};
  const ConsumeContext cctx{config_, satellites_, terminals_, spare_order_,
                            spare_reserved_};

  // Streaming pipeline: producer chunks publish in step order through a
  // bounded ring of slots; the sequential grant phase consumes each chunk
  // the moment it lands and frees the slot for chunk + slots. Peak candidate
  // memory is `slots` chunks regardless of horizon, and the consumption
  // order (strictly chunk 0, 1, 2, ...) makes the result bit-identical for
  // any pool size, slot count, or chunk size.
  const std::size_t chunk_steps = config_.stream_chunk_steps;
  const std::size_t chunk_total = (step_total + chunk_steps - 1) / chunk_steps;
  // A slot's staging buffers scale with terminals; keep few in flight.
  std::size_t slots = config_.stream_slots;
  if (slots == 0) {
    slots = pool != nullptr
                ? std::max<std::size_t>(2, std::min<std::size_t>(pool->thread_count(), 4))
                : 2;
  }
  slots = std::max<std::size_t>(1, std::min(slots, chunk_total));
  // RF interference is applied post-grant, symmetrically with run_reference.
  const bool rf_active = config_.rf != nullptr && config_.rf->any_interferer();
  std::vector<HopEvaluator> jam_hops;
  std::vector<util::Vec3> rf_positions;
  if (rf_active) {
    result.rf.emplace();
    result.rf->nominal_bps_by_party.assign(party_count, 0.0);
    result.rf->realized_bps_by_party.assign(party_count, 0.0);
    result.rf->violation_inr_by_party.assign(party_count, 0.0);
    jam_hops.reserve(term_count);
    for (const Terminal& terminal : terminals_) {
      jam_hops.push_back(HopEvaluator::make(config_.transponder.transmit, terminal.radio));
    }
    rf_positions.resize(sat_count);
  }

  const double dt_step = grid.step_seconds;
  PolicyDriver policy(config_, satellites_, terminals_, faults, party_count,
                      dt_step);
  // Step-local grants run inside the producer task that built the step's
  // candidates, while they are still in that core's cache; otherwise the
  // in-order consumer grants, after the policy's pre-step bookkeeping. The
  // condition depends on the policy alone, never on the pool.
  const bool step_local = policy.step_local();

  // A slot holds one chunk's grants (a short final chunk uses a prefix) and,
  // when the consumer grants, the chunk's candidates until it has. On
  // step-local runs candidates never leave the producer task that built them.
  const std::size_t slot_steps = std::min(chunk_steps, step_total);
  struct StepGrant {
    StepSchedule schedule;
    std::uint64_t beam_rejections = 0;
    std::uint64_t withheld_rejections = 0;
  };
  std::vector<std::vector<StepGrant>> grants(slots, std::vector<StepGrant>(slot_steps));
  std::vector<std::vector<StepCandidates>> buffers(
      step_local ? 0 : slots, std::vector<StepCandidates>(slot_steps));
  // Producer scratch is borrowed for one task at a time rather than owned
  // per (slot, step): no more exist than tasks ever ran at once, and a
  // lane's next task reuses the pages its previous one already faulted in.
  struct TaskScratch {
    Phase1Scratch fill;
    StepCandidates candidates;  // step-local runs only
    ConsumeScratch consume;
  };
  std::mutex scratch_mutex;
  std::vector<std::unique_ptr<TaskScratch>> idle_scratch;

  ConsumeScratch consume_scratch;
  rm.stream_slots.set(static_cast<double>(slots));
  rm.threads.set(static_cast<double>(pool != nullptr ? pool->thread_count() : 1));
  std::uint64_t beam_rejections = 0;
  std::uint64_t withheld_rejections = 0;
  std::uint64_t links_granted = 0;

  // On step-local runs `blocked`, sticky_prev() and sticky_margin() are all
  // empty, so a producer task reads no policy state the consumer writes.
  const auto grant = [&](std::size_t step, const StepCandidates& sc,
                         std::span<const std::uint8_t> blocked, ConsumeScratch& scratch,
                         StepGrant& out) {
    obs::ScopedTimer grant_timer(rm.grant_seconds);
    out.beam_rejections = 0;
    out.withheld_rejections = 0;
    out.schedule = consume_step(cctx, sc, step, faults, blocked, scratch,
                                out.beam_rejections, out.withheld_rejections,
                                policy.sticky_prev(), policy.sticky_margin());
  };

  // Phase-1 tasks: one step each, writing only that step's buffers.
  const bool timed = metrics != nullptr;
  const auto produce = [&](std::size_t chunk, std::size_t task, std::size_t slot) {
    obs::ScopedTimer chunk_timer(rm.chunk_seconds);
    StageClock clock(timed);
    Phase1Split split;
    std::unique_ptr<TaskScratch> scratch;
    {
      const std::lock_guard lock(scratch_mutex);
      if (!idle_scratch.empty()) {
        scratch = std::move(idle_scratch.back());
        idle_scratch.pop_back();
      }
    }
    if (!scratch) scratch = std::make_unique<TaskScratch>();

    const std::size_t step = chunk * chunk_steps + task;
    StepCandidates& out = step_local ? scratch->candidates : buffers[slot][task];
    fill_step(fctx, step, out, scratch->fill, clock, split);
    rm.candidates_per_step.observe(static_cast<double>(out.cands.size()));
    rm.candidates.add(out.cands.size());
    rm.downlink_seconds.observe(split.downlink);
    rm.query_seconds.observe(split.query);
    rm.scan_seconds.observe(split.scan);
    rm.merge_seconds.observe(split.merge);
    if (step_local) grant(step, out, {}, scratch->consume, grants[slot][task]);

    const std::lock_guard lock(scratch_mutex);
    idle_scratch.push_back(std::move(scratch));
  };

  const auto consume = [&](std::size_t chunk, std::size_t slot) {
    obs::ScopedTimer drain_timer(rm.drain_seconds);
    const std::size_t begin = chunk * chunk_steps;
    const std::size_t count = std::min(chunk_steps, step_total - begin);
    for (std::size_t b = 0; b < count; ++b) {
      const std::size_t step = begin + b;
      StepGrant& granted = grants[slot][b];
      if (!step_local) {
        grant(step, buffers[slot][b], policy.pre_step(step, dt_step, result),
              consume_scratch, granted);
      }
      StepSchedule& schedule = granted.schedule;
      policy.post_step(schedule);
      if (rf_active) {
        for (std::size_t si = 0; si < sat_count; ++si) {
          rf_positions[si] = eph.table(si).position_ecef(step);
        }
        apply_rf_step(*config_.rf, rf_positions, terminals_, satellites_,
                      terminal_frames_, jam_hops, sin_mask_, schedule, *result.rf);
      }
      accumulate_step(schedule, terminals_, satellites_, dt_step, result);
      links_granted += schedule.links.size();
      beam_rejections += granted.beam_rejections;
      withheld_rejections += granted.withheld_rejections;
      if (keep_steps) result.steps.push_back(std::move(schedule));
    }
  };

  util::stream_chunks(pool, step_total, chunk_steps, slots, produce, consume);

  policy.finish(result);
  rm.shed_terminal_steps.add(policy.shed_terminal_steps);
  if (result.slo.has_value()) rm.grant_flaps.add(result.slo->grant_flaps);
  rm.steps.add(step_total);
  rm.step_local_grant_steps.add(step_local ? step_total : 0);
  rm.beam_rejections.add(beam_rejections);
  rm.withheld_rejections.add(withheld_rejections);
  rm.links_granted.add(links_granted);
  rm.failure_forced_detaches.add(result.failure_forced_detaches);
  rm.index_pruned_pairs.add(pruned_pairs.load(std::memory_order_relaxed));
  rm.candidate_high_water.set(
      static_cast<double>(step_high_water.load(std::memory_order_relaxed)));
  return result;
}

ScheduleResult BentPipeScheduler::run_reference(const orbit::TimeGrid& grid,
                                                std::size_t party_count,
                                                const fault::FaultTimeline* faults,
                                                bool keep_steps) const {
  validate_owners(party_count);

  ScheduleResult result;
  result.per_party.resize(party_count);
  if (grid.count == 0) return result;

  // Same shared ephemeris tables as run(): the two paths see bit-identical
  // satellite positions, which is what makes full-result bit-identity
  // possible at all.
  const orbit::EphemerisSet eph = ephemerides(grid, nullptr);

  std::vector<util::Vec3> positions(satellites_.size());
  const double dt_step = grid.step_seconds;
  PolicyDriver policy(config_, satellites_, terminals_, faults, party_count,
                      dt_step);

  const bool rf_active = config_.rf != nullptr && config_.rf->any_interferer();
  std::vector<HopEvaluator> jam_hops;
  if (rf_active) {
    result.rf.emplace();
    result.rf->nominal_bps_by_party.assign(party_count, 0.0);
    result.rf->realized_bps_by_party.assign(party_count, 0.0);
    result.rf->violation_inr_by_party.assign(party_count, 0.0);
    jam_hops.reserve(terminals_.size());
    for (const Terminal& terminal : terminals_) {
      jam_hops.push_back(HopEvaluator::make(config_.transponder.transmit, terminal.radio));
    }
  }

  for (std::size_t step = 0; step < grid.count; ++step) {
    for (std::size_t si = 0; si < satellites_.size(); ++si) {
      positions[si] = eph.table(si).position_ecef(step);
    }

    const std::span<const std::uint8_t> blocked =
        policy.pre_step(step, dt_step, result);
    StepSchedule schedule = schedule_step(positions, step, faults, blocked,
                                          policy.sticky_prev(), policy.sticky_margin());
    policy.post_step(schedule);
    if (rf_active) {
      apply_rf_step(*config_.rf, positions, terminals_, satellites_, terminal_frames_,
                    jam_hops, sin_mask_, schedule, *result.rf);
    }
    accumulate_step(schedule, terminals_, satellites_, dt_step, result);
    if (keep_steps) result.steps.push_back(std::move(schedule));
  }
  policy.finish(result);
  return result;
}

}  // namespace mpleo::net
