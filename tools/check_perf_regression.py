#!/usr/bin/env python3
"""Gate perf_simulator speedups against the committed baseline.

Usage:
    check_perf_regression.py --baseline BENCH_perf_simulator.json \
                             --current  BENCH_current.json [--tolerance 0.2]
    check_perf_regression.py --adversary-sweep BENCH_adversary_sweep.json
    check_perf_regression.py --mega BENCH_mega.json
    check_perf_regression.py --chaos BENCH_chaos_sweep.json

Absolute seconds are machine-dependent, so the gate compares *speedups*
(scalar reference vs optimized path on the same box, same run): the current
speedup of every section present in both reports must be at least
(1 - tolerance) x the baseline speedup, and every bit-identity flag must be
true. Exits non-zero on any regression, so CI can fail the build.

When the current report carries a backend_compare section (perf_simulator
--backends), it is schema-checked and gated absolutely: the lane-batched J2
fill must clear 4x the pre-refactor 1.5e7 sat-steps/sec kernel baseline on
AVX2 machines, its bit-identity flag must be true, and the SGP4-vs-J2
cross-backend position error must sit inside the envelope the report
declares (and above 1 m, proving SGP4 did not silently fall back to J2).

When the current report carries a scheduler_compare section it must also
carry the "obs" metrics section perf_simulator emits from its RunContext,
and that section must be schema-valid: integer counters >= 0, histograms
whose bucket counts sum to their count over non-decreasing "le" bounds
ending in "inf", and the scheduler metric names the pipeline is known to
record. A perf run that silently stopped observing is a regression too.

When the current report carries a mega_scale section (perf_simulator
--scale=mega or --scale=mega-smoke) it is gated absolutely: throughput must
clear a loose terminal-steps/sec floor and peak RSS must stay under the
scale's ceiling — the bounded-memory acceptance criterion of the 30k x 1M
streaming pipeline. --mega FILE runs the same gate standalone (no baseline),
which is how CI checks the smoke run it just produced.

--chaos FILE validates a BENCH_chaos_sweep.json report absolutely (no
baseline): the report's own gate flags (empty_book_identity,
availability_gate, slo_finite) must be true, every cell's availability and
worst-window availability must be finite and inside [0, 1] (a NaN that
leaked through the bench's own finiteness check is caught here too), cells
must come in (decentralized, centralized) pairs per profile on the same
seed, the decentralized worst-window availability must be at least the
centralized one on every withdrawal-bearing profile AND strictly positive
there (the consortium keeps a floor where the single operator collapses to
zero), and spare-grant hysteresis must not increase storm flap counts.

--adversary-sweep validates a BENCH_adversary_sweep.json report instead:
the sweep's byzantine fractions must start at 0 and be strictly increasing,
every point must detect at least as much fraud as it injected, the honest-core
payoff must be non-increasing in the byzantine fraction (the robustness
contract the sweep is built to certify), and the report's own gate flags must
be true. The report's "rf" section is required and gated too: the Doppler-fit
audit must reject >= 99% of forged tracks at every detectable sophistication
level while flagging zero honest receipts (ephemeris_exact is the documented
blind spot and is exempt), jamming welfare must be non-increasing in the
jammer fraction, and every jamming party must yield at least one attributed
spectrum-plan violation (detection >= injection for continuous emitters). No
baseline is needed — the properties are absolute, not relative.
"""

import argparse
import json
import math
import sys

# (section, subsection) pairs whose "speedup" field is gated.
SPEEDUPS = [
    ("ephemeris_compare", "batched_serial"),
    ("ephemeris_compare", "batched_pooled"),
    ("scheduler_compare", "pipelined_serial"),
    ("scheduler_compare", "pipelined_pooled"),
    ("backend_compare", "j2_batched"),
]

# (section, flag) pairs that must be true in the current report.
IDENTITY_FLAGS = [
    ("ephemeris_compare", "masks_identical"),
    ("scheduler_compare", "bit_identical"),
    ("scheduler_compare", "faulted_bit_identical"),
    ("scheduler_compare", "streamed_bit_identical"),
    ("backend_compare", "batched_bit_identical"),
]

# Absolute gates for the mega_scale section (perf_simulator --scale=mega or
# --scale=mega-smoke). Throughput floors are deliberately loose — an order of
# magnitude under a healthy single-threaded run — so they catch the pipeline
# falling off an algorithmic cliff (accidental O(sats x terminals) scans,
# unbounded staging), not machine-to-machine noise. The RSS ceilings are the
# actual acceptance criterion: 30k x 1M must stream through bounded memory.
MEGA_TPS_FLOOR_FULL = 8e4       # terminal-steps/sec at >= 500k terminals
MEGA_TPS_FLOOR_SMOKE = 2e5      # terminal-steps/sec below that
MEGA_RSS_CEILING_FULL = 24e9    # bytes, --scale=mega
MEGA_RSS_CEILING_SMOKE = 4e9    # bytes, --scale=mega-smoke
# Wall-clock ceilings: the acceptance criterion says the day-long 30k x 1M
# run *completes*, so the gate pins "completes in bounded time" too. Both are
# generous multiples of a healthy single-core run — they catch the pipeline
# regressing to an overnight job, not machine-to-machine noise.
MEGA_WALL_CEILING_FULL = 43_200.0   # seconds (12 h), --scale=mega
MEGA_WALL_CEILING_SMOKE = 1_800.0   # seconds, --scale=mega-smoke

# Absolute floor for the SIMD lane-batched J2 fill when the report ran on an
# AVX2 machine: >= 4x the 1.5e7 sat-steps/sec pre-refactor kernel baseline.
BATCHED_BASELINE_SAT_STEPS_PER_SEC = 1.5e7
BATCHED_SPEEDUP_FLOOR = 4.0

# Metric names the scheduler pipeline is known to record; their absence
# means the obs plumbing came unhooked.
REQUIRED_OBS_COUNTERS = [
    "sched.candidates",
    "sched.beam_rejections",
    "sched.failure_forced_detaches",
    "sched.links_granted",
    "sched.steps",
]
REQUIRED_OBS_HISTOGRAMS = [
    "sched.run_seconds",
    "sched.phase1_chunk_seconds",
    "sched.candidates_per_step",
]


def is_uint(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_backend_compare(section) -> list:
    """Schema + gates for the per-backend throughput report (empty = valid)."""
    problems = []
    if not isinstance(section, dict):
        return ["backend_compare section is not an object"]

    workload = section.get("workload")
    if not isinstance(workload, dict) or not is_uint(workload.get("satellites")) \
            or not is_uint(workload.get("steps")):
        problems.append("backend_compare.workload missing satellites/steps")
    if section.get("simd") not in ("avx2", "scalar"):
        problems.append(f"backend_compare.simd is {section.get('simd')!r}, "
                        f"expected \"avx2\" or \"scalar\"")

    for name in ("j2_scalar", "j2_batched", "sgp4"):
        entry = section.get(name)
        if not isinstance(entry, dict) or not is_number(entry.get("seconds")) \
                or not is_number(entry.get("sat_steps_per_sec")) \
                or entry.get("sat_steps_per_sec") <= 0:
            problems.append(f"backend_compare.{name} missing seconds/"
                            f"sat_steps_per_sec")

    cross = section.get("cross_backend")
    if not isinstance(cross, dict) or not is_number(cross.get("max_error_m")) \
            or not is_number(cross.get("envelope_m")):
        problems.append("backend_compare.cross_backend missing "
                        "max_error_m/envelope_m")
    else:
        if cross.get("within_envelope") is not True:
            problems.append("backend_compare.cross_backend.within_envelope "
                            "is not true")
        if cross["max_error_m"] >= cross["envelope_m"]:
            problems.append(
                f"backend_compare cross-backend error {cross['max_error_m']:.1f} m "
                f"exceeds the documented envelope {cross['envelope_m']:.1f} m")
        if cross["max_error_m"] <= 1.0:
            problems.append(
                "backend_compare cross-backend error <= 1 m: SGP4 output is "
                "indistinguishable from J2, the backend likely fell back")
    if problems:
        return problems

    # Throughput gate, only meaningful when the SIMD kernel actually ran.
    if section["simd"] == "avx2":
        floor = BATCHED_SPEEDUP_FLOOR * BATCHED_BASELINE_SAT_STEPS_PER_SEC
        thr = section["j2_batched"]["sat_steps_per_sec"]
        status = "OK " if thr >= floor else "REGRESSED"
        print(f"{status} backend_compare.j2_batched: {thr:.3e} sat-steps/s "
              f"(floor {floor:.3e} = {BATCHED_SPEEDUP_FLOOR:.0f}x baseline)")
        if thr < floor:
            problems.append(
                f"backend_compare.j2_batched throughput {thr:.3e} below the "
                f"{BATCHED_SPEEDUP_FLOOR:.0f}x-over-baseline floor {floor:.3e}")
    return problems


def validate_obs(obs) -> list:
    """Returns a list of schema-violation strings (empty = valid)."""
    problems = []
    if not isinstance(obs, dict):
        return ["obs section is not an object"]
    for kind in ("counters", "gauges", "histograms"):
        if not isinstance(obs.get(kind), dict):
            problems.append(f"obs.{kind} missing or not an object")
    if problems:
        return problems

    for name, value in obs["counters"].items():
        if not is_uint(value):
            problems.append(f"obs.counters.{name} is not a non-negative integer")
    for name, value in obs["gauges"].items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            problems.append(f"obs.gauges.{name} is not a number")

    for name, hist in obs["histograms"].items():
        if not isinstance(hist, dict):
            problems.append(f"obs.histograms.{name} is not an object")
            continue
        if not is_uint(hist.get("count")):
            problems.append(f"obs.histograms.{name}.count is not a non-negative integer")
            continue
        buckets = hist.get("buckets")
        if not isinstance(buckets, list) or not buckets:
            problems.append(f"obs.histograms.{name}.buckets missing or empty")
            continue
        total = 0
        prev_bound = None
        for i, bucket in enumerate(buckets):
            le = bucket.get("le") if isinstance(bucket, dict) else None
            count = bucket.get("count") if isinstance(bucket, dict) else None
            if not is_uint(count):
                problems.append(f"obs.histograms.{name}.buckets[{i}].count invalid")
                break
            total += count
            last = i == len(buckets) - 1
            if last:
                if le != "inf":
                    problems.append(
                        f"obs.histograms.{name} last bucket le is {le!r}, not \"inf\"")
            else:
                if not isinstance(le, (int, float)) or isinstance(le, bool):
                    problems.append(
                        f"obs.histograms.{name}.buckets[{i}].le is not a number")
                    break
                if prev_bound is not None and le <= prev_bound:
                    problems.append(
                        f"obs.histograms.{name} bucket bounds not increasing at [{i}]")
                    break
                prev_bound = le
        else:
            if total != hist["count"]:
                problems.append(
                    f"obs.histograms.{name} bucket counts sum to {total}, "
                    f"count says {hist['count']}")
        if hist["count"] > 0:
            for field in ("sum", "min", "max"):
                value = hist.get(field)
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    problems.append(f"obs.histograms.{name}.{field} is not a number")

    for name in REQUIRED_OBS_COUNTERS:
        if name not in obs["counters"]:
            problems.append(f"obs.counters missing required metric {name}")
    for name in REQUIRED_OBS_HISTOGRAMS:
        if name not in obs["histograms"]:
            problems.append(f"obs.histograms missing required metric {name}")
    return problems


def validate_mega_scale(section) -> list:
    """Schema + absolute gates for the mega_scale section (empty = valid)."""
    problems = []
    if not isinstance(section, dict):
        return ["mega_scale section is not an object"]

    workload = section.get("workload")
    if not isinstance(workload, dict):
        return ["mega_scale.workload missing or not an object"]
    for field in ("satellites", "terminals", "stations", "parties", "steps"):
        if not is_uint(workload.get(field)) or workload.get(field) == 0:
            problems.append(f"mega_scale.workload.{field} missing or not a "
                            f"positive integer")
    scale = workload.get("scale")
    if scale not in ("mega", "mega-smoke"):
        problems.append(f"mega_scale.workload.scale is {scale!r}, expected "
                        f"\"mega\" or \"mega-smoke\"")
    for field in ("seconds", "terminal_steps_per_sec", "links_granted"):
        if not is_number(section.get(field)) or section.get(field) <= 0:
            problems.append(f"mega_scale.{field} missing or not positive")
    if not is_uint(section.get("peak_rss_bytes")):
        problems.append("mega_scale.peak_rss_bytes missing or invalid")
    stream = section.get("stream")
    if not isinstance(stream, dict) or not is_uint(stream.get("chunk_steps")) \
            or not is_uint(stream.get("slots")) \
            or not is_uint(stream.get("candidate_cap")):
        problems.append("mega_scale.stream missing chunk_steps/slots/candidate_cap")
    if section.get("bit_identical") is not True:
        problems.append("mega_scale.bit_identical is not true (the sub-fleet "
                        "stream-vs-run_reference identity check failed or is missing)")
    if problems:
        return problems

    full = workload["terminals"] >= 500_000
    tps_floor = MEGA_TPS_FLOOR_FULL if full else MEGA_TPS_FLOOR_SMOKE
    rss_ceiling = (MEGA_RSS_CEILING_FULL if scale == "mega"
                   else MEGA_RSS_CEILING_SMOKE)
    tps = section["terminal_steps_per_sec"]
    rss = section["peak_rss_bytes"]

    status = "OK " if tps >= tps_floor else "REGRESSED"
    print(f"{status} mega_scale[{scale}] throughput: {tps:.3e} "
          f"terminal-steps/s (floor {tps_floor:.1e})")
    if tps < tps_floor:
        problems.append(f"mega_scale throughput {tps:.3e} terminal-steps/s "
                        f"below the {tps_floor:.1e} floor")

    # peak_rss_bytes may be 0 where getrusage is unavailable; only gate when
    # the run actually measured it.
    if rss > 0:
        status = "OK " if rss <= rss_ceiling else "REGRESSED"
        print(f"{status} mega_scale[{scale}] peak RSS: {rss / 1e9:.2f} GB "
              f"(ceiling {rss_ceiling / 1e9:.0f} GB)")
        if rss > rss_ceiling:
            problems.append(f"mega_scale peak RSS {rss / 1e9:.2f} GB exceeds "
                            f"the {rss_ceiling / 1e9:.0f} GB ceiling")

    wall = section["seconds"]
    wall_ceiling = (MEGA_WALL_CEILING_FULL if scale == "mega"
                    else MEGA_WALL_CEILING_SMOKE)
    status = "OK " if wall <= wall_ceiling else "REGRESSED"
    print(f"{status} mega_scale[{scale}] wall clock: {wall:.1f} s "
          f"(ceiling {wall_ceiling:.0f} s)")
    if wall > wall_ceiling:
        problems.append(f"mega_scale wall clock {wall:.1f} s exceeds the "
                        f"{wall_ceiling:.0f} s ceiling")
    return problems


# Chaos-sweep cell schema: field -> (type, is a [0, 1] fraction).
CHAOS_CELL_FIELDS = {
    "profile": (str, False),
    "topology": (str, False),
    "availability": (float, True),
    "worst_window_availability": (float, True),
    "grant_flaps": (int, False),
    "failure_forced_detaches": (int, False),
    "recoveries": (int, False),
    "mean_recovery_seconds": (float, False),
    "max_recovery_seconds": (float, False),
    "unrecovered_terminals": (int, False),
    "shed_terminal_steps": (int, False),
}

CHAOS_PROFILES = {"storm", "blackout", "withdrawal", "debris", "mixed"}
CHAOS_WITHDRAWAL_BEARING = {"withdrawal", "mixed"}


def check_chaos(path: str) -> list:
    """Returns a list of failure strings (empty = report passes the gate)."""
    with open(path) as f:
        report = json.load(f)
    failures = []

    workload = report.get("workload")
    if not isinstance(workload, dict):
        failures.append("workload section missing or not an object")
    else:
        for field in ("duration_seconds", "step_seconds", "event_intensity"):
            if not is_number(workload.get(field)) or workload.get(field) <= 0:
                failures.append(f"workload.{field} missing or not positive")
        if not is_uint(workload.get("event_seed")):
            failures.append("workload.event_seed missing or invalid")
        if not is_uint(workload.get("slo_window_steps")) \
                or workload.get("slo_window_steps") == 0:
            failures.append("workload.slo_window_steps missing or zero")

    cells = report.get("cells")
    if not isinstance(cells, list) or not cells:
        failures.append("cells missing or empty")
        return failures

    for i, cell in enumerate(cells):
        if not isinstance(cell, dict):
            failures.append(f"cells[{i}] is not an object")
            continue
        for field, (kind, fraction) in CHAOS_CELL_FIELDS.items():
            value = cell.get(field)
            if kind is str:
                if not isinstance(value, str):
                    failures.append(f"cells[{i}].{field} is not a string")
                continue
            if kind is int and not is_uint(value):
                failures.append(f"cells[{i}].{field} is not a non-negative integer")
                continue
            if kind is float:
                # json.load happily parses NaN/Infinity literals, so the
                # finiteness of every SLO number is gated here, not just by
                # the bench's own slo_finite flag.
                if not is_number(value) or not math.isfinite(value) or value < 0.0:
                    failures.append(f"cells[{i}].{field} is not a finite "
                                    f"non-negative number")
                    continue
                if fraction and value > 1.0:
                    failures.append(f"cells[{i}].{field} = {value} is outside [0, 1]")
    if failures:
        return failures

    # Cells come in (decentralized, centralized) pairs per profile.
    if len(cells) % 2 != 0:
        failures.append(f"cells has {len(cells)} entries, expected "
                        f"(decentralized, centralized) pairs")
        return failures
    for i in range(0, len(cells), 2):
        dec, cen = cells[i], cells[i + 1]
        profile = dec["profile"]
        if profile not in CHAOS_PROFILES:
            failures.append(f"cells[{i}].profile {profile!r} is not a known "
                            f"chaos profile")
            continue
        if cen["profile"] != profile:
            failures.append(f"cells[{i + 1}].profile {cen['profile']!r} does "
                            f"not pair with {profile!r}")
            continue
        if dec["topology"] != "decentralized" or cen["topology"] != "centralized":
            failures.append(f"cells[{i}..{i + 1}] topologies are "
                            f"({dec['topology']!r}, {cen['topology']!r}), "
                            f"expected (decentralized, centralized)")
            continue
        status = "OK "
        if profile in CHAOS_WITHDRAWAL_BEARING:
            # The decentralized consortium must keep a service floor where
            # the centralized operator's worst window collapses to zero.
            if dec["worst_window_availability"] < cen["worst_window_availability"]:
                status = "REGRESSED"
                failures.append(
                    f"{profile}: decentralized worst-window availability "
                    f"{dec['worst_window_availability']:.4f} below centralized "
                    f"{cen['worst_window_availability']:.4f}")
            if dec["worst_window_availability"] <= 0.0:
                status = "REGRESSED"
                failures.append(
                    f"{profile}: decentralized worst-window availability is "
                    f"zero — the consortium lost its whole-fleet floor")
        print(f"{status} chaos {profile}: worst-window dec "
              f"{dec['worst_window_availability']:.4f} vs cen "
              f"{cen['worst_window_availability']:.4f}, availability dec "
              f"{dec['availability']:.4f} vs cen {cen['availability']:.4f}")

    if not any(cells[i]["profile"] in CHAOS_WITHDRAWAL_BEARING
               for i in range(0, len(cells), 2)):
        failures.append("no withdrawal-bearing profile in the sweep — the "
                        "centralized-vs-decentralized gate never ran")

    for flag in ("empty_book_identity", "availability_gate", "slo_finite"):
        if report.get(flag) is not True:
            failures.append(f"report flag {flag} is not true")

    flaps_on = report.get("storm_flaps_hysteresis_on")
    flaps_off = report.get("storm_flaps_hysteresis_off")
    if not is_uint(flaps_on) or not is_uint(flaps_off):
        failures.append("storm_flaps_hysteresis_on/off missing or invalid")
    else:
        status = "OK " if flaps_on <= flaps_off else "REGRESSED"
        print(f"{status} chaos hysteresis: {flaps_on} storm flaps on vs "
              f"{flaps_off} off")
        if flaps_on > flaps_off:
            failures.append(f"spare-grant hysteresis increased storm flaps: "
                            f"{flaps_on} on vs {flaps_off} off")
        if flaps_off > 0 and flaps_on >= flaps_off:
            failures.append(f"spare-grant hysteresis did not reduce storm "
                            f"flaps: {flaps_on} on vs {flaps_off} off")
    return failures


def check_mega(path: str) -> list:
    """Standalone gate for a report carrying a mega_scale section."""
    with open(path) as f:
        report = json.load(f)
    if "mega_scale" not in report:
        return [f"no mega_scale section in {path}"]
    return validate_mega_scale(report["mega_scale"])


# Fields every adversary-sweep point must carry, with (type check, floor).
SWEEP_POINT_FIELDS = {
    "byzantine_fraction": float,
    "byzantine_parties": int,
    "fraud_injected": int,
    "fraud_detected": int,
    "quarantined_parties": int,
    "expelled_parties": int,
    "mean_detection_epochs": float,
    "total_slashed": float,
    "honest_core_welfare": float,
    "honest_core_payoff": float,
    "mean_honest_balance": float,
}

# Honest payoff may wiggle by numerical noise, never by economics.
PAYOFF_MONOTONE_TOLERANCE = 1e-9

# Doppler-fit audit floor: fraction of forged tracks the fit must reject at
# every detectable (gated) sophistication level.
RF_DETECTION_FLOOR = 0.99

# Forgery ladder the doppler axis must report, in sophistication order;
# ephemeris_exact is the documented blind spot (gated must be false there).
RF_FORGERY_LEVELS = ["flat_tone", "linear_ramp", "time_mirrored", "ephemeris_exact"]

RF_DOPPLER_FIELDS = {
    "level": str,
    "gated": bool,
    "forged_submitted": int,
    "forged_rejected": int,
    "honest_submitted": int,
    "honest_flagged": int,
    "detection_rate": float,
}

RF_JAMMING_FIELDS = {
    "jammer_fraction": float,
    "jamming_parties": int,
    "capacity_nominal_bps": float,
    "capacity_realized_bps": float,
    "honest_welfare": float,
    "violations_detected": int,
    "quarantined_parties": int,
    "expelled_parties": int,
    "total_slashed": float,
}


def check_rf_section(rf) -> list:
    """Schema + gates for the RF section of an adversary-sweep report."""
    failures = []
    if not isinstance(rf, dict):
        return ["rf section missing or not an object (RF-grounded audit "
                "results are required)"]
    if not is_uint(rf.get("doppler_trials")) or rf.get("doppler_trials") == 0:
        failures.append("rf.doppler_trials missing or not a positive integer")

    doppler = rf.get("doppler")
    if not isinstance(doppler, list) or not doppler:
        failures.append("rf.doppler missing or empty")
    else:
        levels = []
        for i, point in enumerate(doppler):
            if not isinstance(point, dict):
                failures.append(f"rf.doppler[{i}] is not an object")
                continue
            for field, kind in RF_DOPPLER_FIELDS.items():
                value = point.get(field)
                if kind is int and not is_uint(value):
                    failures.append(
                        f"rf.doppler[{i}].{field} is not a non-negative integer")
                elif kind is float and (not is_number(value) or value < 0.0):
                    failures.append(
                        f"rf.doppler[{i}].{field} is not a non-negative number")
                elif kind is bool and not isinstance(value, bool):
                    failures.append(f"rf.doppler[{i}].{field} is not a boolean")
                elif kind is str and not isinstance(value, str):
                    failures.append(f"rf.doppler[{i}].{field} is not a string")
            if failures:
                continue
            levels.append(point["level"])
            status = "OK "
            if point["gated"] and point["detection_rate"] < RF_DETECTION_FLOOR:
                status = "MISSED"
                failures.append(
                    f"rf.doppler[{i}] ({point['level']}): detection rate "
                    f"{point['detection_rate']:.4f} below the "
                    f"{RF_DETECTION_FLOOR:.2f} floor")
            if point["honest_flagged"] != 0:
                status = "MISSED"
                failures.append(
                    f"rf.doppler[{i}] ({point['level']}): flagged "
                    f"{point['honest_flagged']} honest receipts (must be 0)")
            print(f"{status} rf doppler {point['level']}: "
                  f"rejected {point['forged_rejected']}/"
                  f"{point['forged_submitted']} forged, flagged "
                  f"{point['honest_flagged']}/{point['honest_submitted']} honest")
        if levels and levels != RF_FORGERY_LEVELS:
            failures.append(f"rf.doppler levels are {levels}, expected the "
                            f"full ladder {RF_FORGERY_LEVELS}")

    jamming = rf.get("jamming")
    if not isinstance(jamming, list) or not jamming:
        failures.append("rf.jamming missing or empty")
    else:
        schema_ok = True
        for i, point in enumerate(jamming):
            if not isinstance(point, dict):
                failures.append(f"rf.jamming[{i}] is not an object")
                schema_ok = False
                continue
            for field, kind in RF_JAMMING_FIELDS.items():
                value = point.get(field)
                if kind is int and not is_uint(value):
                    failures.append(
                        f"rf.jamming[{i}].{field} is not a non-negative integer")
                    schema_ok = False
                elif kind is float and (not is_number(value) or value < 0.0):
                    failures.append(
                        f"rf.jamming[{i}].{field} is not a non-negative number")
                    schema_ok = False
        if schema_ok:
            if jamming[0]["jammer_fraction"] != 0.0:
                failures.append("rf.jamming[0].jammer_fraction is not 0 "
                                "(the sweep must anchor on the clean baseline)")
            for i, point in enumerate(jamming):
                if i > 0:
                    if point["jammer_fraction"] <= jamming[i - 1]["jammer_fraction"]:
                        failures.append(
                            f"rf.jamming fractions not strictly increasing at [{i}]")
                    if (point["honest_welfare"] >
                            jamming[i - 1]["honest_welfare"] +
                            PAYOFF_MONOTONE_TOLERANCE):
                        failures.append(
                            f"rf.jamming[{i}]: honest_welfare "
                            f"{point['honest_welfare']:.6f} rose above "
                            f"{jamming[i - 1]['honest_welfare']:.6f} as the "
                            f"jammer fraction grew")
                # Detection >= injection for continuous emitters: every
                # jamming party must yield at least one attributed violation.
                detected = point["violations_detected"]
                jammers = point["jamming_parties"]
                status = "OK " if detected >= jammers else "MISSED"
                print(f"{status} rf jamming f={point['jammer_fraction']:.3f}: "
                      f"{detected} violations / {jammers} jammers, "
                      f"honest welfare {point['honest_welfare']:.4f}")
                if detected < jammers:
                    failures.append(
                        f"rf.jamming[{i}]: {detected} violations detected < "
                        f"{jammers} jamming parties")

    for flag in ("rf_detection_gate", "rf_honest_clean", "rf_welfare_monotone",
                 "rf_violations_detected"):
        if rf.get(flag) is not True:
            failures.append(f"rf flag {flag} is not true")
    return failures


def check_adversary_sweep(path: str) -> list:
    """Returns a list of failure strings (empty = report passes the gate)."""
    with open(path) as f:
        report = json.load(f)
    failures = []

    workload = report.get("workload")
    if not isinstance(workload, dict):
        failures.append("workload section missing or not an object")
    else:
        for field in ("parties", "satellites", "terminals", "stations",
                      "epochs", "seed"):
            if not is_uint(workload.get(field)) or workload.get(field) == 0:
                failures.append(f"workload.{field} missing or not a positive integer")

    points = report.get("points")
    if not isinstance(points, list) or not points:
        failures.append("points missing or empty")
        return failures

    for i, point in enumerate(points):
        if not isinstance(point, dict):
            failures.append(f"points[{i}] is not an object")
            continue
        for field, kind in SWEEP_POINT_FIELDS.items():
            value = point.get(field)
            numeric = (isinstance(value, (int, float))
                       and not isinstance(value, bool))
            if kind is int and not is_uint(value):
                failures.append(f"points[{i}].{field} is not a non-negative integer")
            elif kind is float and (not numeric or value < 0.0):
                failures.append(f"points[{i}].{field} is not a non-negative number")
    if failures:
        return failures

    if points[0]["byzantine_fraction"] != 0.0:
        failures.append("points[0].byzantine_fraction is not 0 "
                        "(the sweep must anchor on the honest baseline)")
    for i in range(1, len(points)):
        if points[i]["byzantine_fraction"] <= points[i - 1]["byzantine_fraction"]:
            failures.append(f"byzantine fractions not strictly increasing at "
                            f"points[{i}]")

    for i, point in enumerate(points):
        injected = point["fraud_injected"]
        detected = point["fraud_detected"]
        status = "OK " if detected >= injected else "MISSED"
        print(f"{status} f={point['byzantine_fraction']:.3f}: "
              f"detected {detected} / injected {injected}, "
              f"honest payoff {point['honest_core_payoff']:.2f}")
        if detected < injected:
            failures.append(f"points[{i}]: audit detected {detected} < "
                            f"injected {injected}")
        if i > 0:
            prev = points[i - 1]["honest_core_payoff"]
            if point["honest_core_payoff"] > prev + PAYOFF_MONOTONE_TOLERANCE:
                failures.append(
                    f"points[{i}]: honest_core_payoff "
                    f"{point['honest_core_payoff']:.6f} rose above "
                    f"{prev:.6f} as the byzantine fraction grew")

    for flag in ("honest_payoff_monotone", "fraud_detected_ge_injected"):
        if report.get(flag) is not True:
            failures.append(f"report flag {flag} is not true")

    failures.extend(check_rf_section(report.get("rf")))
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline")
    parser.add_argument("--current")
    parser.add_argument("--tolerance", type=float, default=0.2,
                        help="allowed fractional speedup drop (default 0.2)")
    parser.add_argument("--adversary-sweep", metavar="FILE",
                        help="validate a BENCH_adversary_sweep.json report "
                             "(no baseline needed)")
    parser.add_argument("--mega", metavar="FILE",
                        help="validate the mega_scale section of a perf "
                             "report absolutely (no baseline needed)")
    parser.add_argument("--chaos", metavar="FILE",
                        help="validate a BENCH_chaos_sweep.json report "
                             "(no baseline needed)")
    args = parser.parse_args()

    if args.adversary_sweep:
        failures = check_adversary_sweep(args.adversary_sweep)
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        print("adversary sweep check passed")
        if not (args.baseline and args.current) and not args.mega \
                and not args.chaos:
            return 0

    if args.chaos:
        failures = check_chaos(args.chaos)
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        print("chaos sweep check passed")
        if not (args.baseline and args.current) and not args.mega:
            return 0

    if args.mega:
        failures = check_mega(args.mega)
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        print("mega scale check passed")
        if not (args.baseline and args.current):
            return 0

    if not (args.baseline and args.current):
        parser.error("--baseline and --current are required unless "
                     "--adversary-sweep, --mega or --chaos is given")

    with open(args.baseline) as f:
        baseline = json.load(f)
    with open(args.current) as f:
        current = json.load(f)

    failures = []
    for section, flag in IDENTITY_FLAGS:
        if section not in current:
            continue
        if current[section].get(flag) is not True:
            failures.append(f"{section}.{flag} is not true in {args.current}")

    if "backend_compare" in current:
        backend_problems = validate_backend_compare(current["backend_compare"])
        failures.extend(backend_problems)
        if not backend_problems:
            cross = current["backend_compare"]["cross_backend"]
            print(f"OK  backend_compare schema-valid (sgp4-vs-j2 max error "
                  f"{cross['max_error_m'] / 1e3:.1f} km, envelope "
                  f"{cross['envelope_m'] / 1e3:.0f} km)")

    if "mega_scale" in current:
        mega_problems = validate_mega_scale(current["mega_scale"])
        failures.extend(mega_problems)

    if "scheduler_compare" in current:
        if "obs" not in current:
            failures.append(f"scheduler_compare present but no obs section in "
                            f"{args.current}")
        else:
            obs_problems = validate_obs(current["obs"])
            failures.extend(obs_problems)
            if not obs_problems:
                n_counters = len(current["obs"]["counters"])
                n_hists = len(current["obs"]["histograms"])
                print(f"OK  obs section schema-valid "
                      f"({n_counters} counters, {n_hists} histograms)")

    for section, sub in SPEEDUPS:
        if section not in baseline or section not in current:
            continue
        base = baseline[section][sub]["speedup"]
        cur = current[section][sub]["speedup"]
        floor = (1.0 - args.tolerance) * base
        status = "OK " if cur >= floor else "REGRESSED"
        print(f"{status} {section}.{sub}: current {cur:.2f}x vs baseline "
              f"{base:.2f}x (floor {floor:.2f}x)")
        if cur < floor:
            failures.append(
                f"{section}.{sub} regressed: {cur:.2f}x < {floor:.2f}x "
                f"({(1.0 - args.tolerance) * 100:.0f}% of baseline {base:.2f}x)")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("perf check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
