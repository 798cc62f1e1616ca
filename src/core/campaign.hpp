// Campaign: multi-epoch operation of an MP-LEO constellation.
//
// Each epoch (e.g. one day) the campaign:
//   1. schedules bent-pipe service over the epoch window (owner-priority,
//      spare capacity shared);
//   2. settles spare-capacity usage on the token ledger;
//   3. runs proof-of-coverage spot checks and pays rewards;
//   4. mints the epoch's token emission and distributes it by stake.
// Parties can withdraw between epochs; the next epoch simply runs with the
// remaining satellites — the §3.4 degradation shows up in the reports.
//
// This is the facade downstream users drive; examples/mpleo_consortium.cpp
// shows the underlying pieces wired manually.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "adversary/audit.hpp"
#include "adversary/policy.hpp"
#include "adversary/quarantine.hpp"
#include "core/allocation.hpp"
#include "core/bootstrap.hpp"
#include "core/consortium.hpp"
#include "core/fairness.hpp"
#include "core/ledger.hpp"
#include "core/proof_of_coverage.hpp"
#include "net/scheduler.hpp"
#include "orbit/time.hpp"
#include "rf/doppler.hpp"
#include "rf/spectrum_plan.hpp"
#include "util/rng.hpp"

namespace mpleo::sim {
class RunContext;
}
namespace mpleo::util {
class ThreadPool;
}

namespace mpleo::core {

struct CampaignConfig {
  orbit::TimePoint start = orbit::TimePoint::from_iso8601("2024-11-18T00:00:00Z");
  double epoch_duration_s = 86400.0;
  double step_s = 120.0;
  net::SchedulerConfig scheduler;
  SettlementConfig settlement;
  EmissionSchedule emission;
  double bootstrap_grant = 200.0;  // tokens granted to each party at start
  ProofOfCoverage::Config poc;
  std::size_t poc_challenges_per_party_per_epoch = 4;
};

// Per-epoch Byzantine accounting; present on EpochReport::adversary only for
// an armed campaign (see Campaign::arm_adversaries).
struct AdversaryEpochSummary {
  std::size_t receipts_injected = 0;    // forged + resubmitted this epoch
  std::size_t fraud_detected = 0;       // audit fraud evidence, this epoch
  std::size_t misreports_injected = 0;  // SLA overclaims attempted
  std::size_t misreports_detected = 0;
  std::size_t quarantined_parties = 0;  // standing at end of epoch
  std::size_t expelled_parties = 0;
  double slashed_total = 0.0;           // cumulative tokens slashed to treasury
  // RF accounting, all zero unless arm_rf / the Doppler audit stage engaged.
  std::size_t rf_forgeries_injected = 0;       // overhead-step forgeries with fabricated tracks
  std::size_t rf_doppler_rejections = 0;       // receipts the track fit rejected, this epoch
  std::size_t rf_interference_violations = 0;  // plan-violation evidence recorded, this epoch
  double rf_nominal_bps = 0.0;                 // scheduler granted capacity before interference
  double rf_capacity_lost_bps = 0.0;           // scheduler nominal - realized under interference

  friend bool operator==(const AdversaryEpochSummary&,
                         const AdversaryEpochSummary&) = default;
};

struct EpochReport {
  std::size_t epoch = 0;
  orbit::TimePoint window_start;
  // Service outcome.
  double total_served_seconds = 0.0;
  double total_unserved_seconds = 0.0;
  double service_fairness = 0.0;
  std::vector<net::PartyUsage> usage;        // per party
  // Economics.
  SettlementReport settlement;
  double emission_minted = 0.0;
  std::size_t poc_valid = 0;
  std::size_t poc_rejected = 0;
  std::vector<double> balances;              // per party, end of epoch
  std::size_t active_satellites = 0;
  // Byzantine accounting; nullopt when the campaign is not armed.
  std::optional<AdversaryEpochSummary> adversary;
};

class Campaign {
 public:
  // The consortium is taken by value: the campaign owns membership evolution
  // from here on. Terminal/station owner ids must reference its parties.
  Campaign(Consortium consortium, std::vector<net::Terminal> terminals,
           std::vector<net::GroundStation> stations, CampaignConfig config,
           std::uint64_t seed);

  // Runs the next epoch and returns its report. The context's pool
  // parallelises the epoch's scheduling phase 1 (ephemerides, station
  // masks, candidate lists); the report is bit-identical for any pool size,
  // including none. Scheduler metrics land in context.metrics() under
  // "sched." plus campaign aggregates under "campaign.", and an epoch
  // summary line is recorded into context.trace().
  EpochReport run_epoch(sim::RunContext& context);

  // Withdraws a party effective from the next epoch; returns satellites
  // removed.
  std::size_t withdraw_party(PartyId party);

  // Arms Byzantine behaviors for every subsequent epoch: parties the book
  // marks Byzantine inject their misbehavior (forged / resubmitted receipts,
  // withheld spare beams, inflated SLA claims), every receipt is routed
  // through a ReceiptAuditor before crediting, and a QuarantineManager turns
  // confirmed fraud into slashing, spare-commons exclusion and eventual
  // expulsion. Arming with an empty() book is bit-identical to never arming
  // — same ledger entries, same allocations, same scheduler output. Arming
  // twice replaces the previous harness.
  void arm_adversaries(adversary::BehaviorBook book,
                       adversary::AuditConfig audit_config = {},
                       adversary::QuarantineConfig quarantine_config = {});

  // Arms the RF layer on an already-armed campaign: carves an equal-partition
  // spectrum plan over the consortium's parties, builds the co-channel
  // interference environment from the book's jamming/squatting masks (fed to
  // every subsequent epoch's scheduler), and fixes the sophistication level
  // Byzantine forgers invest in fabricated Doppler tracks (consumed only when
  // the audit's Doppler stage is enabled). With no jamming or squatting party
  // in the book the scheduler never sees the environment, so service output
  // stays bit-identical to the pre-RF campaign. Throws std::logic_error when
  // the campaign is not armed, std::invalid_argument on an invalid spectrum
  // config. Calling again replaces the RF state.
  void arm_rf(rf::SpectrumConfig spectrum,
              rf::ForgeryLevel forgery_level = rf::ForgeryLevel::kFlatTone);

  [[nodiscard]] bool armed() const noexcept { return harness_ != nullptr; }
  [[nodiscard]] bool rf_armed() const noexcept;
  // Null until arm_rf is called.
  [[nodiscard]] const rf::InterferenceEnvironment* rf_environment() const noexcept;
  // Armed-campaign introspection; each throws std::logic_error when the
  // campaign was never armed.
  [[nodiscard]] const adversary::BehaviorBook& behavior_book() const;
  [[nodiscard]] const adversary::ReceiptAuditor& auditor() const;
  [[nodiscard]] const adversary::QuarantineManager& quarantine() const;
  [[nodiscard]] const ReputationTracker& adversary_reputation() const;

  [[nodiscard]] const Consortium& consortium() const noexcept { return consortium_; }
  [[nodiscard]] const Ledger& ledger() const noexcept { return ledger_; }
  [[nodiscard]] AccountId account_of(PartyId party) const { return accounts_.at(party); }
  [[nodiscard]] std::size_t epochs_run() const noexcept { return next_epoch_; }
  [[nodiscard]] orbit::TimePoint current_time() const noexcept { return clock_; }

  ~Campaign();
  Campaign(Campaign&&) noexcept;
  Campaign& operator=(Campaign&&) noexcept;

 private:
  // The armed state: behavior book, audit trail, sanction ladder, reputation
  // memory, and the per-party stash of credited receipts inflation attacks
  // resubmit.
  struct AdversaryHarness;

  EpochReport run_epoch_impl(util::ThreadPool* pool, sim::RunContext* context);
  void inject_adversary_behavior(const orbit::TimeGrid& grid,
                                 const std::vector<constellation::Satellite>& sats,
                                 const net::ScheduleResult& usage, EpochReport& report);

  Consortium consortium_;
  std::vector<net::Terminal> terminals_;
  std::vector<net::GroundStation> stations_;
  CampaignConfig config_;
  Ledger ledger_;
  std::vector<AccountId> accounts_;
  ProofOfCoverage poc_;
  std::vector<std::uint64_t> satellite_keys_;  // parallel to registration order
  std::vector<constellation::SatelliteId> registered_satellite_ids_;
  std::vector<std::uint32_t> verifier_ids_;    // one per terminal
  util::Xoshiro256PlusPlus rng_;
  orbit::TimePoint clock_;
  std::size_t next_epoch_ = 0;
  std::unique_ptr<AdversaryHarness> harness_;  // null until arm_adversaries
};

}  // namespace mpleo::core
