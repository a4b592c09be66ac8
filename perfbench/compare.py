#!/usr/bin/env python3
"""Compares two benchmark reports written by perfbench/run.py.

    python3 perfbench/compare.py BASE.json NEW.json [--identical-counts]

The reports are the files run.py leaves in .bench_results/. Two results
are only comparable when they come from the same workload, seed and trace
mode on the same kind of host and code path: the guard refuses (exit 2)
when the CPU model, core count, thread count, build type, compiler or the
active XOR / P+Q parity kernels differ, because each of those moves the
figures by more than any bound the benchmark sets.

Otherwise it prints every metric of both runs with the ratio NEW/BASE and
marks end-to-end metrics that got worse by more than their BENCHMARK.json
bound (one run per side is only a hint; the benchmark's rule for a claim
is ten runs per side). Then it compares the exact simulated counts, which
must be identical across changes that claim to alter only speed;
--identical-counts turns a difference into exit status 1.
"""

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Environment fields that must match for a comparison to mean anything.
GUARDED_ENV = ("cpu_model", "nproc", "affinity_cpus", "threads",
               "build_type", "compiler", "xor_kernel", "pq_kernel")
GUARDED_RUN = ("workload", "seed", "trace")


def load(path):
    try:
        return json.loads(pathlib.Path(path).read_text())
    except (OSError, ValueError) as e:
        raise SystemExit(f"compare: cannot read {path}: {e}")


def mismatches(base, new):
    """Reasons the two reports cannot be compared (empty when they can)."""
    out = []
    for key in GUARDED_RUN:
        if base.get(key) != new.get(key):
            out.append(f"{key}: {base.get(key)!r} vs {new.get(key)!r}")
    for key in GUARDED_ENV:
        b, n = base["env"].get(key), new["env"].get(key)
        if b != n:
            out.append(f"env.{key}: {b!r} vs {n!r}")
    return out


def bounds():
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return {}
    return {m["name"]: (m["bound"], m["better"])
            for m in spec.get("end_to_end", [])}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--identical-counts", action="store_true",
                        help="exit 1 when any exact count differs")
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)

    reasons = mismatches(base, new)
    if reasons:
        print("compare: refusing to compare results from different setups:",
              file=sys.stderr)
        for r in reasons:
            print(f"  {r}", file=sys.stderr)
        return 2

    limits = bounds()
    print(f"{'metric':36s} {'base':>14s} {'new':>14s} {'new/base':>9s}")
    for group in ("metrics", "extras"):
        for name in sorted(set(base[group]) | set(new[group])):
            b = base[group].get(name, {}).get("value")
            n = new[group].get(name, {}).get("value")
            if b is None or n is None:
                print(f"{name:36s} {'-' if b is None else f'{b:.6g}':>14s} "
                      f"{'-' if n is None else f'{n:.6g}':>14s}")
                continue
            ratio = n / b if b else float("nan")
            flag = ""
            if group == "metrics" and name in limits and b:
                bound, better = limits[name]
                worse = ratio - 1 if better == "lower" else 1 - ratio
                if worse > bound:
                    flag = f"  worse than bound {bound:g}"
            print(f"{name:36s} {b:14.6g} {n:14.6g} {ratio:9.4f}{flag}")

    diff = [k for k in sorted(set(base["counts"]) | set(new["counts"]))
            if base["counts"].get(k) != new["counts"].get(k)]
    if diff:
        print(f"\n{len(diff)} exact counts differ:")
        for k in diff:
            print(f"  {k}: {base['counts'].get(k)} -> {new['counts'].get(k)}")
    else:
        print(f"\nall {len(base['counts'])} exact counts identical")
    return 1 if diff and args.identical_counts else 0


if __name__ == "__main__":
    sys.exit(main())
