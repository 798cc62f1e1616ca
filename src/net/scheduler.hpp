// Per-step bent-pipe link scheduling.
//
// A terminal is servable at a step iff some satellite is simultaneously
// visible to the terminal AND to a ground station of the terminal's party
// (transparent bent-pipe needs both legs up at once — no ISLs, §3.1).
// Satellites have a finite beam count; beams are granted owner-first, and
// whatever remains is *spare capacity* offered to other parties — the core
// sharing mechanism of MP-LEO. The aggregate accounting this produces (who
// carried whose traffic for how long) is what core/ledger bills from.
//
// run() executes a two-phase pipeline:
//   Phase 1 (parallel over steps, one step per task, streamed in step
//   chunks): propagate every satellite once through the shared ephemeris
//   kernel and cull the (satellite, station) pairs with the coverage engine's
//   conservative zenith-cone prefilter into StepMask bitmaps; their union per
//   (party, satellite) says at which steps a satellite can land a party's
//   traffic at all. Each step then queries a footprint index over the
//   terminals with every reachable satellite's footprint cap, re-tests the
//   survivors exactly, and builds the step's candidate list — for each
//   visible (terminal, satellite) pair the best same-party station with its
//   end-to-end relay capacity. Each downlink leg is computed once per
//   (satellite, step) and each uplink leg once per pair, never per triple.
//   Phase 2 (in step order, cheap): sweep steps in order consuming the
//   candidate lists for beam allocation, spare-priority ordering,
//   failure-forced detach, and re-acquisition backoff bookkeeping. With no
//   faults and no spare hysteresis a step's grant depends on that step
//   alone, so each phase-1 task grants its own steps and the in-order sweep
//   only folds the grants into the result.
// The result is bit-identical to run_reference — the retained scalar
// per-triple scan — on both the faulted and unfaulted paths.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "constellation/shell.hpp"
#include "core/validation.hpp"
#include "net/bent_pipe.hpp"
#include "net/degradation.hpp"
#include "net/ground_station.hpp"
#include "net/terminal.hpp"
#include "orbit/ephemeris.hpp"
#include "orbit/time.hpp"
#include "rf/interference.hpp"

namespace mpleo::fault {
class FaultTimeline;
}
namespace mpleo::obs {
class MetricsRegistry;
}
namespace mpleo::sim {
class RunContext;
}
namespace mpleo::util {
class ThreadPool;
}

namespace mpleo::net {

struct SchedulerConfig {
  double elevation_mask_deg = 25.0;
  int beams_per_satellite = 8;
  RelayMode relay_mode = RelayMode::kTransparent;
  TransponderConfig transponder = default_transponder();
  // Optional per-party priority weights (e.g. core::ReputationTracker
  // priority_weight) applied to SPARE-capacity contention only: terminals of
  // higher-weight parties are offered leftover beams first. Own-satellite
  // service is unaffected — a party can never be locked out of its own
  // satellites. Empty = FIFO by terminal index (all equal). Weights must be
  // finite and non-negative, and a non-empty vector must cover every party
  // index used by the terminals and owned satellites (validated at
  // construction).
  std::vector<double> spare_priority_by_party;
  // Steps a terminal stays detached after a failure-forced detach (its
  // serving satellite or station went down under it) before it may
  // re-attach — the re-pointing / re-ranging delay that gives outages tails
  // instead of free instant handovers. 0 = instant re-acquisition.
  std::size_t reacquisition_backoff_steps = 0;
  // Spare-capacity governance, both empty by default (bit-identical to the
  // ungoverned scheduler):
  //  * spare_exclude_party[p] != 0 bars party p from the spare commons in
  //    BOTH directions — its terminals take no spare capacity and its
  //    satellites offer none (the quarantine sanction). Own-satellite
  //    service is untouched: graceful degradation, never a blackout.
  //    Parties beyond the vector are not excluded.
  //  * spare_withheld_fraction[p] reserves ceil(beams * fraction) beams of
  //    every party-p satellite for p's own traffic — a withholding
  //    adversary hoarding capacity it nominally contributes. Entries must
  //    be finite fractions in [0, 1] (validated at construction); parties
  //    beyond the vector withhold nothing.
  std::vector<std::uint8_t> spare_exclude_party;
  std::vector<double> spare_withheld_fraction;
  // Co-channel interference environment (non-owning; must outlive the
  // scheduler's runs). Null by default — and with a null or interferer-free
  // environment every run is bit-identical to the pre-RF scheduler. When
  // armed with active jammers/squatters, link SELECTION is unchanged (beam
  // grants run on nominal capacities), but each granted link's capacity is
  // degraded post-grant by the aggregate interference-to-noise at the victim
  // terminal, and the accounting lands in ScheduleResult::rf.
  const rf::InterferenceEnvironment* rf = nullptr;
  // Orbit propagation backend for the shared ephemeris fill. One knob for
  // every run path — run(), run(context) and run_reference() all propagate
  // through it, so the pipeline/reference bit-identity contract holds for
  // either backend. Scenario-driven callers copy scenario.propagator here
  // (see sim::parse_scenario's --propagator= flag).
  orbit::PropagatorBackend propagator_backend = orbit::PropagatorBackend::kJ2Analytic;
  // Steps per phase-1 chunk, a power of two in [1, 64]. Smaller chunks
  // shrink the streaming pipeline's in-flight memory (the mega preset runs
  // 8). Chunk size never changes the result — candidates are a per-step pure
  // function of geometry.
  std::size_t stream_chunk_steps = 64;
  // In-flight chunk slots for the phase-1 -> phase-2 streaming pipeline.
  // 0 = auto (scaled to the pool, at most 4: a slot's candidate buffers are
  // the dominant allocation). The slot count never changes the result —
  // phase 2 consumes chunks strictly in order.
  std::size_t stream_slots = 0;
  // Per-terminal candidate cap, applied per step at phase-1 emission: keep
  // the top-K own-satellite and top-K spare candidates by capacity (ties to
  // the lower satellite index). 0 = unbounded (exact, bit-identical to
  // run_reference). A positive cap bounds candidate memory at mega scale —
  // deterministic for any pool/slot/chunk configuration, but approximate
  // under beam contention (a terminal whose top-K satellites are all beam-
  // exhausted goes unserved even if satellite K+1 had a beam). Max 64.
  std::size_t max_candidates_per_terminal = 0;
  // Graceful-degradation policy (net/degradation.hpp): priority-tiered load
  // shedding under capacity collapse, sticky spare grants (hysteresis), and
  // bounded exponential re-acquisition backoff, plus SLO observation. A
  // default-constructed (disabled) policy is bit-identical to the pre-policy
  // scheduler on every run path; slo_window_steps > 0 only adds
  // ScheduleResult::slo, never changes links.
  DegradationPolicy degradation;

  // Collects every invalid field as a unified core::ConfigIssue (component
  // "net.scheduler"); empty means the config is usable. The scheduler
  // constructor throws std::invalid_argument joining these; checks that need
  // the fleet (owner coverage of the spare-priority vector) stay in the
  // constructor.
  [[nodiscard]] std::vector<core::ConfigIssue> validate() const;
};

// One granted link at one step.
struct LinkAssignment {
  std::size_t terminal_index = 0;
  std::size_t satellite_index = 0;
  std::size_t station_index = 0;
  double capacity_bps = 0.0;
  // True when the satellite's owner differs from the terminal's owner, i.e.
  // the link rides spare capacity.
  bool spare = false;

  friend bool operator==(const LinkAssignment&, const LinkAssignment&) = default;
};

struct StepSchedule {
  std::size_t step = 0;
  std::vector<LinkAssignment> links;
  std::vector<std::size_t> unserved_terminals;

  friend bool operator==(const StepSchedule&, const StepSchedule&) = default;
};

// Aggregates over a whole grid run, per party.
struct PartyUsage {
  double own_link_seconds = 0.0;     // party terminals on party satellites
  double spare_used_seconds = 0.0;   // party terminals on others' satellites
  double spare_provided_seconds = 0.0;  // party satellites serving others
  double bytes_carried_for_others = 0.0;
  double bytes_received_from_others = 0.0;
  double unserved_terminal_seconds = 0.0;

  friend bool operator==(const PartyUsage&, const PartyUsage&) = default;
};

struct ScheduleResult {
  std::vector<StepSchedule> steps;        // optionally retained (see config)
  std::vector<PartyUsage> per_party;      // indexed by party id
  double total_served_seconds = 0.0;
  double total_unserved_seconds = 0.0;
  // Fault accounting (zero on the no-fault path): links dropped because the
  // serving satellite or station failed, and terminal-seconds spent waiting
  // out the re-acquisition backoff after such a drop.
  std::size_t failure_forced_detaches = 0;
  double reacquisition_wait_seconds = 0.0;
  // RF accounting, engaged only when the config carries an interference
  // environment with at least one active jammer/squatter (so RF-clean runs
  // compare equal to pre-RF results).
  std::optional<rf::RfLinkStats> rf;
  // SLO accounting, engaged only when config.degradation.slo_window_steps
  // > 0 (so SLO-silent runs compare equal to pre-SLO results). Identical
  // between run() and run_reference() like everything else here.
  std::optional<SloStats> slo;

  friend bool operator==(const ScheduleResult&, const ScheduleResult&) = default;
};

class BentPipeScheduler {
 public:
  BentPipeScheduler(SchedulerConfig config, std::vector<constellation::Satellite> satellites,
                    std::vector<Terminal> terminals, std::vector<GroundStation> stations);

  // Schedules one step given precomputed satellite ECEF positions (one entry
  // per satellite, same order as construction).
  [[nodiscard]] StepSchedule schedule_step(std::span<const util::Vec3> satellite_ecef,
                                           std::size_t step) const;

  // Fault- and backoff-aware step: faulted satellites and stations are
  // skipped, degraded satellites offer fewer beams, and terminals flagged in
  // `blocked_terminals` (byte per terminal; re-acquisition backoff or policy
  // shedding) go straight to unserved. `sticky_prev_satellite` (one entry
  // per terminal, 0xFFFFFFFF = none) with a positive `sticky_margin` makes
  // the spare pass keep a terminal's previous satellite unless a competitor
  // beats it by more than the margin (spare-reallocation hysteresis).
  // nullptr/empty faults, no blocked flags and no sticky state are
  // bit-identical to the plain overload.
  [[nodiscard]] StepSchedule schedule_step(
      std::span<const util::Vec3> satellite_ecef, std::size_t step,
      const fault::FaultTimeline* faults,
      std::span<const std::uint8_t> blocked_terminals = {},
      std::span<const std::uint32_t> sticky_prev_satellite = {},
      double sticky_margin = 0.0) const;

  // Runs the whole grid through the two-phase pipeline and aggregates
  // per-party usage. `party_count` sizes the aggregate vector;
  // terminals/satellites with owner >= party_count are rejected. Set
  // keep_steps to retain the per-step link lists. With a pool, phase 1
  // (ephemerides, station masks, per-step candidate lists) runs parallel
  // over steps; the result is bit-identical for any pool size, including
  // none.
  [[nodiscard]] ScheduleResult run(const orbit::TimeGrid& grid, std::size_t party_count,
                                   bool keep_steps = false,
                                   util::ThreadPool* pool = nullptr) const;

  // RunContext entry point — the preferred API. The context supplies the
  // pool, the (optional) fault timeline and the metrics registry in one
  // argument; phase timings (propagate / cull / chunk fill and its stages /
  // grant / wave drain),
  // candidate-list occupancy, beam-allocation rejections and fault-forced
  // detaches land in context.metrics() under the "sched." prefix. The
  // returned ScheduleResult is bit-identical to
  //   run(grid, party_count, context.faults(), keep_steps, context.pool())
  // for any context, and to the old default-argument run() for a
  // default-constructed context.
  [[nodiscard]] ScheduleResult run(const orbit::TimeGrid& grid, std::size_t party_count,
                                   sim::RunContext& context, bool keep_steps = false) const;

  // Degraded-operations run: `faults` gates per-step asset health, and a
  // terminal whose serving satellite or station fails enters a
  // `reacquisition_backoff_steps`-step hold before it may re-attach. With a
  // nullptr or empty timeline the result is bit-identical to the plain run.
  [[nodiscard]] ScheduleResult run(const orbit::TimeGrid& grid, std::size_t party_count,
                                   const fault::FaultTimeline* faults,
                                   bool keep_steps = false,
                                   util::ThreadPool* pool = nullptr) const;

  // The scalar reference: the original per-step, per-triple scan (via
  // schedule_step), kept as the correctness oracle the pipeline is validated
  // against. Satellite positions come from the same shared ephemeris tables
  // as run(), so the two are bit-identical down to link ordering — faulted
  // and unfaulted. Serial and slow; prefer run().
  [[nodiscard]] ScheduleResult run_reference(const orbit::TimeGrid& grid,
                                             std::size_t party_count,
                                             const fault::FaultTimeline* faults = nullptr,
                                             bool keep_steps = false) const;

  [[nodiscard]] const std::vector<constellation::Satellite>& satellites() const noexcept {
    return satellites_;
  }
  [[nodiscard]] const std::vector<Terminal>& terminals() const noexcept { return terminals_; }
  [[nodiscard]] const std::vector<GroundStation>& stations() const noexcept {
    return stations_;
  }

 private:
  void validate_owners(std::size_t party_count) const;
  [[nodiscard]] orbit::EphemerisSet ephemerides(const orbit::TimeGrid& grid,
                                                util::ThreadPool* pool) const;
  // The one pipeline body behind every run() overload; a null registry
  // disables instrumentation entirely (the metric handles become no-ops).
  [[nodiscard]] ScheduleResult run_impl(const orbit::TimeGrid& grid, std::size_t party_count,
                                        const fault::FaultTimeline* faults, bool keep_steps,
                                        util::ThreadPool* pool,
                                        obs::MetricsRegistry* metrics) const;

  SchedulerConfig config_;
  std::vector<constellation::Satellite> satellites_;
  std::vector<Terminal> terminals_;
  std::vector<GroundStation> stations_;
  std::vector<orbit::TopocentricFrame> terminal_frames_;
  std::vector<orbit::TopocentricFrame> station_frames_;
  // Spare-pass service order: by configured party priority (descending),
  // stable by terminal index. Step-invariant, so built once at construction.
  // Own-pass order stays index order.
  std::vector<std::size_t> spare_order_;
  // Per-satellite beams reserved from the spare pass (withholding); all-zero
  // when spare_withheld_fraction is empty, keeping the spare beam check
  // exactly the historical `beams_left > 0`.
  std::vector<int> spare_reserved_;
  double sin_mask_ = 0.0;
};

}  // namespace mpleo::net
