// Fault injection: per-asset availability timelines over a TimeGrid (§3.4).
//
// The paper's robustness argument is about parties and satellites *leaving*;
// until this layer the repo only modeled permanent, instantaneous withdrawal.
// A FaultTimeline makes failure a first-class simulated input — satellite
// outages, ground-station outages, and partial transponder degradation —
// built either from explicit deterministic schedules or from seeded
// exponential MTBF/MTTR processes (one util::Xoshiro256PlusPlus::split
// stream per asset, so asset i's fault history depends only on the seed and
// its index, never on how many other assets exist). Outages materialize as
// StepMask-compatible masks the coverage, scheduler, SLA, and reputation
// layers intersect with; an empty timeline leaves every consumer bit-
// identical to the no-fault code path.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/validation.hpp"
#include "coverage/step_mask.hpp"
#include "orbit/time.hpp"

namespace mpleo::fault {

enum class AssetKind : std::uint8_t { kSatellite, kGroundStation };

[[nodiscard]] const char* to_string(AssetKind kind) noexcept;

// One contiguous full outage of one asset, in seconds from grid start.
struct OutageRecord {
  AssetKind kind = AssetKind::kSatellite;
  std::size_t asset_index = 0;
  double start_offset_s = 0.0;
  double end_offset_s = 0.0;  // exclusive

  [[nodiscard]] double duration_s() const noexcept {
    return end_offset_s - start_offset_s;
  }
};

// Partial transponder degradation: the satellite stays up but only
// `capacity_factor` of its beams/capacity survives (cosmic-ray latch-up,
// thermal throttling, a failed amplifier chain).
struct Degradation {
  std::size_t satellite_index = 0;
  double start_offset_s = 0.0;
  double end_offset_s = 0.0;  // exclusive
  double capacity_factor = 1.0;  // in (0, 1]
};

// Exponential fail/repair model: time-to-failure ~ Exp(mtbf), repair
// duration ~ Exp(mttr). mtbf_seconds == 0 disables failures for the asset
// class.
struct MtbfMttr {
  double mtbf_seconds = 30.0 * 86400.0;
  double mttr_seconds = 6.0 * 3600.0;
};

// A fail or repair edge, for driving sim::SimEngine event interleaving.
struct FaultEvent {
  double time_s = 0.0;  // offset from grid start
  AssetKind kind = AssetKind::kSatellite;
  std::size_t asset_index = 0;
  bool failed = true;  // false = repaired
};

class FaultTimeline {
 public:
  // A default-constructed timeline is permanently fault-free (empty() is
  // true); every query reports full health.
  FaultTimeline() = default;
  FaultTimeline(const orbit::TimeGrid& grid, std::size_t satellite_count,
                std::size_t station_count);

  // True when no outage or degradation has been registered — the contract
  // consumers use to stay on the bit-identical no-fault fast path.
  [[nodiscard]] bool empty() const noexcept {
    return records_.empty() && degradations_.empty();
  }

  // Deterministic schedules. Offsets are seconds from grid start; a grid
  // step is affected when its sample instant falls inside [start, end).
  // Overlapping records are allowed and union. Windows are validated via
  // core::ConfigIssue (component "fault.timeline"): NaN, negative start or
  // end <= start throw std::invalid_argument with the structured report
  // instead of silently accepting an inverted window.
  void add_satellite_outage(std::size_t satellite, double start_offset_s,
                            double end_offset_s);
  void add_station_outage(std::size_t station, double start_offset_s,
                          double end_offset_s);
  void add_transponder_degradation(std::size_t satellite, double start_offset_s,
                                   double end_offset_s, double capacity_factor);

  // Seeded stochastic construction: each asset alternates Exp(mtbf) up-time
  // with Exp(mttr) down-time from its own split stream. Identical seeds
  // reproduce identical timelines; asset i's history is stable under changes
  // to the other assets' counts or models.
  [[nodiscard]] static FaultTimeline stochastic(const orbit::TimeGrid& grid,
                                               std::size_t satellite_count,
                                               std::size_t station_count,
                                               const MtbfMttr& satellite_model,
                                               const MtbfMttr& station_model,
                                               std::uint64_t seed);

  // Per-step health queries. Indices beyond the construction counts (and any
  // index on an empty timeline) report full health, so consumers need no
  // bounds bookkeeping.
  [[nodiscard]] bool satellite_available(std::size_t satellite,
                                         std::size_t step) const noexcept;
  [[nodiscard]] bool station_available(std::size_t station,
                                       std::size_t step) const noexcept;
  // Remaining transponder capacity: 0 during a full outage, otherwise the
  // product, in registration order, of the satellite's degradations active
  // at the step (1 when healthy). Costs O(the satellite's own degradations).
  [[nodiscard]] double satellite_capacity_factor(std::size_t satellite,
                                                 std::size_t step) const noexcept;
  // Usable beam count under degradation; exactly `nominal_beams` at full
  // health, 0 during a full outage.
  [[nodiscard]] int degraded_beam_count(std::size_t satellite, std::size_t step,
                                        int nominal_beams) const noexcept;

  // Outage masks (set bit = asset OUT at that step); nullptr when the asset
  // never faults, so callers can skip mask arithmetic entirely on healthy
  // assets — this is what keeps the no-fault path bit-identical.
  [[nodiscard]] const cov::StepMask* satellite_outage_steps(
      std::size_t satellite) const noexcept;
  [[nodiscard]] const cov::StepMask* station_outage_steps(
      std::size_t station) const noexcept;

  // Availability as a positive mask (set bit = healthy), always materialized.
  [[nodiscard]] cov::StepMask satellite_availability(std::size_t satellite) const;

  // Canonicalizes the outage record list in place: records are sorted by
  // (kind, asset, start), clipped to the grid window [0, duration), and
  // overlapping or touching records of the same asset are merged into one.
  // Masks are untouched (they already union), but events() stops emitting
  // redundant fail/repair edge pairs and outage_seconds_by_party stops
  // double-counting overlap — call this after bulk injection (EventBook
  // compilation does it automatically). Deterministic: the result depends
  // only on the record set, never on insertion order.
  void normalize();

  // The validation behind add_*: issues (component "fault.timeline") for a
  // non-finite / negative start or an end not strictly after the start.
  // Empty means the window is usable.
  [[nodiscard]] static std::vector<core::ConfigIssue> validate_window(
      double start_offset_s, double end_offset_s);

  [[nodiscard]] const std::vector<OutageRecord>& outages() const noexcept {
    return records_;
  }
  [[nodiscard]] const std::vector<Degradation>& degradations() const noexcept {
    return degradations_;
  }

  // Fail/repair edges sorted by time (ties in registration order), clamped
  // to the grid window — ready to schedule on a sim::SimEngine so market
  // examples can interleave faults with price updates.
  [[nodiscard]] std::vector<FaultEvent> events() const;

  // Total full-outage seconds attributed to each owning party (the
  // reputation layer's evidence). `satellite_owner[i]` / `station_owner[i]`
  // give the owning party of asset i; entries >= party_count (e.g.
  // constellation::Satellite::kUnowned) are skipped, as are assets beyond
  // the owner spans.
  [[nodiscard]] std::vector<double> outage_seconds_by_party(
      std::span<const std::uint32_t> satellite_owner,
      std::span<const std::uint32_t> station_owner, std::size_t party_count) const;

  [[nodiscard]] const orbit::TimeGrid& grid() const noexcept { return grid_; }
  [[nodiscard]] std::size_t satellite_count() const noexcept {
    return satellite_out_.size();
  }
  [[nodiscard]] std::size_t station_count() const noexcept {
    return station_out_.size();
  }

 private:
  void add_outage(AssetKind kind, std::size_t index, double start_offset_s,
                  double end_offset_s);

  orbit::TimeGrid grid_;
  // Per-asset outage masks; a step_count() == 0 mask means "never faulted".
  std::vector<cov::StepMask> satellite_out_;
  std::vector<cov::StepMask> station_out_;
  std::vector<Degradation> degradations_;
  // Per satellite, indices into degradations_ in registration order; empty
  // until the first degradation is added.
  std::vector<std::vector<std::size_t>> degradations_by_satellite_;
  std::vector<OutageRecord> records_;
};

}  // namespace mpleo::fault
