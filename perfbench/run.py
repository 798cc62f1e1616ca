#!/usr/bin/env python3
"""The mpleo benchmark: one command, one workload per process.

    python3 perfbench/run.py --workload coverage-mc|mega-stream|consortium-sweeps \
        --seed N --seconds S --trace 0|1 [--tiny]

Run from the repository root. The first run configures and builds the
library from src/ plus the workload binary (perfbench/src) in Release
mode under $CARGO_TARGET_DIR, or .bench_build when that is unset; later runs
reuse the build. The binary runs the workload in its own process, checks its
outputs against the oracles and writes its spans (traced runs) and a full
report under <build>/reports.

The last line of standard output is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
--trace 0 reports every end_to_end metric of BENCHMARK.json, --trace 1 every
per_layer metric; a layer the workload does not run reports 0. The exit code
is 0 only when every op and every check passed.
"""
import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("coverage-mc", "mega-stream", "consortium-sweeps")
# Longest the workload process may take before it is killed and the run failed.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path) if not os.path.isabs(path) else path


def build(out):
    """Configures once and builds the binary; build output goes to stderr."""
    os.makedirs(out, exist_ok=True)
    cmake_dir = os.path.join(out, "cmake")
    # Serialises concurrent first runs in one checkout.
    with open(os.path.join(out, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", cmake_dir, "-j", jobs],
                       stdout=sys.stderr, check=True)
    return os.path.join(cmake_dir, "mpleo_perfbench")


def source_digest():
    """sha256 over the library and benchmark sources: the build's identity
    when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def git_sha():
    try:
        result = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, check=True)
        return result.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unavailable: not a git checkout"


def select_metrics(spec, report, trace):
    """The metric set the result line carries, in BENCHMARK.json's order and
    units. A missing end-to-end metric or a unit mismatch is an error."""
    metrics = {}
    measured = report["metrics"]
    for entry in spec["per_layer" if trace else "end_to_end"]:
        name, unit = entry["name"], entry["unit"]
        got = measured.get(name)
        if got is None:
            if not trace:
                raise ValueError(f"end-to-end metric {name} was not measured")
            got = {"value": 0, "unit": unit}  # the workload does not run this layer
        if got["unit"] != unit:
            raise ValueError(f"metric {name} has unit {got['unit']}, expected {unit}")
        metrics[name] = {"value": got["value"], "unit": unit}
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 2

    reports = os.path.join(out, "reports")
    os.makedirs(reports, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out-dir", reports, "--git-sha", git_sha(),
               "--source-digest", source_digest()]
    if args.tiny:
        command.append("--tiny")
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
        return 3
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"{args.workload} printed no report (exit code {proc.returncode})")
        return 3
    report = json.loads(lines[-1])
    try:
        metrics = select_metrics(spec, report, args.trace == 1)
    except ValueError as e:
        log(str(e))
        return 3

    attempted, failed = report["attempted"], report["failed"]
    correct = (proc.returncode == 0 and failed == 0 and attempted > 0
               and all(report["checks"].values()))
    info = report["info"]
    info["failed_ops_frac"] = failed / attempted if attempted else 1.0
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(reports, name + ".json"), "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)

    print(f"perfbench {args.workload}: seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} threads={info.get('pool_threads')} nproc={info['nproc']} "
          f"simd={info['simd_mode']} build={info['build_type']} compiler={info['compiler']} "
          f"git={info['git_sha']} source={info['source_digest'][:16]}")
    print(f"  ops={info['op_count']:.0f} tail=p{info['op_tail_percentile']:g} "
          f"(ops beyond: {info['ops_beyond_tail']:.0f}) "
          f"failed_ops_frac={info['failed_ops_frac']:g} checks={report['checks']}")
    if "fig5_drop_err_pts" in info:
        print(f"  fig5_drop_err_pts={info['fig5_drop_err_pts']:.4f} pts")
    for key, entry in metrics.items():
        print(f"  {key} = {entry['value']:.6g} {entry['unit']}")
    print(f"  full report: {os.path.join(reports, name + '.json')}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
