#!/usr/bin/env python3
"""Runs one workload of the ftms benchmark and prints its result.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload farm_failover --seed 1 \
        --seconds 20 --trace 0

Builds perfbench/ (the ftms_perfbench binary plus the library under src/)
into .bench_build/, runs the binary for --seconds, checks its report against
BENCHMARK.json, writes the full report (environment stamp, exact counts,
per-drill samples, workload figures) to .bench_results/, and prints one
JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list (from a separate traced run; the spans are
written to .bench_results/ as Chrome trace JSON).

Exit status: 0 when every output was correct, 1 when one was wrong (the
result line is still printed, with "correct": false), 2 when the
benchmark could not run (no sources, build failure, crash); no result
line is printed then.
"""

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build"
RESULTS_DIR = ROOT / ".bench_results"
BINARY = BUILD_DIR / "ftms_perfbench"
WORKLOADS = ("farm_failover", "rebuild_datapath", "mttdl_montecarlo")
DEFAULT_SEED = 1

# The program reads its observability sinks, telemetry port and other
# knobs from FTMS_* variables. The benchmark runs with all of them unset
# except these, which select the configuration under test and are
# stamped into every result.
KEPT_ENV = ("FTMS_THREADS", "FTMS_XOR_KERNEL", "FTMS_PQ_KERNEL")

RUN_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not produce a result."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd):
    """Runs a build step, sending its output to stderr."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(map(str, cmd))} exited {proc.returncode}")


def build():
    """Configures (once) and builds the binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no ftms sources at {ROOT / 'src'}; run from the "
                         "root of a full checkout")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_quiet(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=Release", *generator])
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", BUILD_DIR, "-j", jobs])
    return BINARY


def bench_env():
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("FTMS_") or k in KEPT_ENV}
    return env


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")


def run_binary(binary, workload, seed, seconds, trace, spans_out=None):
    """Runs the binary; returns (report dict, exit code)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=bench_env(),
                              stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"ftms_perfbench did not finish in {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise BenchError(
            f"ftms_perfbench exited {proc.returncode} without a report")
    try:
        report = json.loads(lines[-1])
    except ValueError:
        raise BenchError("ftms_perfbench's last line is not JSON")
    return report, proc.returncode


def check_metrics(report, spec, trace):
    """The report must carry exactly BENCHMARK.json's metrics and units."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = report["metrics"]
    names = {m["name"] for m in wanted}
    if set(got) != names:
        raise BenchError(
            "metric set differs from BENCHMARK.json: missing "
            f"{sorted(names - set(got))}, extra {sorted(set(got) - names)}")
    for m in wanted:
        if got[m["name"]]["unit"] != m["unit"]:
            raise BenchError(f"{m['name']}: unit {got[m['name']]['unit']} "
                             f"!= {m['unit']}")


def summary(report):
    """One human-readable line per metric group, for the log."""
    env = report["env"]
    yield (f"{report['workload']} seed={report['seed']} "
           f"trace={report['trace']} drills={report['drills']} "
           f"correct={report['correct']}")
    yield (f"env: {env['cpu_model']}, nproc={env['nproc']}, "
           f"threads={env['threads']}, xor={env['xor_kernel']}, "
           f"pq={env['pq_kernel']}, {env['compiler']} {env['build_type']}")
    for e in report["errors"]:
        yield f"error: {e}"
    for group in ("metrics", "extras"):
        for name, m in sorted(report[group].items()):
            yield f"  {name} = {m['value']:.6g} {m['unit']}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        binary = build()
        RESULTS_DIR.mkdir(exist_ok=True)
        stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
        spans_out = RESULTS_DIR / f"{stem}_spans.json" if args.trace else None
        report, code = run_binary(binary, args.workload, args.seed,
                                  args.seconds, args.trace, spans_out)
        check_metrics(report, spec, args.trace)
    except BenchError as e:
        log(f"error: {e}")
        return 2
    (RESULTS_DIR / f"{stem}.json").write_text(json.dumps(report, indent=1))
    for line in summary(report):
        print(line)
    result = {
        "correct": bool(report["correct"]) and code == 0,
        "attempted": max(1, int(report["attempted"])),
        "failed": int(report["failed"]),
        "metrics": report["metrics"],
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
