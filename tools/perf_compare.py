#!/usr/bin/env python3
"""Perf-smoke regression gate for the bench --json artifacts.

Usage:
    perf_compare.py BASELINE.json CURRENT.json [CURRENT2.json ...]
                    [--max-ratio 2.0] [--min-seconds 0.05]
    perf_compare.py --cold-reference CURRENT.json [CURRENT2.json ...]
                    [--max-ratio 0.75] [--min-seconds 0.05]

Each file is the {"metrics": [{"name", "value", "unit"}, ...]} object
written by bench binaries via --json= (bench/bench_util.h); the unit is
"seconds", "count" or "ratio". The gate fails (exit 1) when any timing
(unit "seconds") present in both the baseline and the current run is
slower than max-ratio x its baseline AND both sides exceed min-seconds in
absolute terms (the floor keeps sub-50ms timer noise from flapping CI).
Counts and ratios are printed with their units but not gated here (CI holds
the counts that matter under fixed ceilings). A metric whose unit differs
between the baseline and the current run fails the gate: the two numbers
do not measure the same thing. Metrics missing on either side are reported
but never fail the gate, so adding or renaming benches does not require a
lockstep baseline update.

--cold-reference gates without a checked-in baseline: every metric pair
"X (incremental)" / "X (cold)" measured in the SAME run must satisfy
incremental <= max-ratio x cold (default 0.75 in this mode). Both sides
scale with the machine, so hosted-runner speed differences cannot flap the
gate the way an absolute checked-in baseline can — this is the gate for
the warm-started online serving path (bench_online_sessions), which is
only correct if it stays well under the same run's cold re-solves. The two
metrics of a pair must have one unit; a pair of two units fails the gate.
The min-seconds floor applies to timing pairs only.

--suffixes NUM DEN renames the pair suffixes of the --cold-reference mode,
e.g. --suffixes " (sharded)" " (monolithic)" gates the sharded solve
paths of bench_shard_scale against the same run's monolithic solves.

Refresh the baseline with a Release build on a quiet machine:
    ./build/bench_fig4_lambda --json=f4.json --benchmark_filter=DISABLED_none
    ./build/bench_fig8_scalability --json=f8.json \
        --benchmark_filter=DISABLED_none
    python3 tools/perf_compare.py --merge f4.json f8.json \
        > bench/perf_baseline.json
"""

import argparse
import json
import sys


SECONDS = "seconds"


def load_metrics(path):
    """Returns {name: (value, unit)}."""
    with open(path) as fh:
        data = json.load(fh)
    return {entry["name"]: (float(entry["value"]), entry["unit"])
            for entry in data.get("metrics", [])}


def show(value, unit):
    return f"{value:.3f}s" if unit == SECONDS else f"{value:g} {unit}"


INCREMENTAL_SUFFIX = " (incremental)"
COLD_SUFFIX = " (cold)"


def compare_cold_reference(metrics, max_ratio, min_seconds,
                           num_suffix=INCREMENTAL_SUFFIX,
                           den_suffix=COLD_SUFFIX):
    """Gates numerator metrics against their same-run reference partners."""
    pairs = 0
    failures = []
    for name, (value, unit) in sorted(metrics.items()):
        if not name.endswith(num_suffix):
            continue
        cold_name = name[: -len(num_suffix)] + den_suffix
        if cold_name not in metrics:
            print(f"  unpaired incremental metric (no cold partner): {name}")
            continue
        cold, cold_unit = metrics[cold_name]
        pairs += 1
        if cold_unit != unit:
            failures.append(name)
            print(f"  {'UNIT':>10}: {name}: {show(value, unit)} cannot be "
                  f"paired with {cold_name}: {show(cold, cold_unit)}")
            continue
        ratio = value / cold if cold > 0 else float("inf")
        marker = "ok"
        # The noise floor only exempts a fast NUMERATOR side: a tiny
        # reference with a slow numerator is exactly the regression this
        # gate exists to catch.
        if ratio > max_ratio and (unit != SECONDS or value > min_seconds):
            marker = "REGRESSION"
            failures.append(name)
        print(f"  {marker:>10}: {name}: {show(value, unit)} "
              f"(reference {show(cold, unit)}, ratio {ratio:.2f})")
    if pairs == 0:
        # A rename silently disabling the gate must not look green.
        print(f"no {num_suffix!r}/{den_suffix!r} metric pairs found")
        return 1
    if failures:
        print(f"\n{len(failures)} metric(s) above {max_ratio}x their "
              f"same-run {den_suffix.strip()} reference or of another "
              f"unit: {', '.join(failures)}")
        return 1
    print("\ncold-reference gate ok")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="baseline json (or first file with --merge / --cold-reference)")
    parser.add_argument("current", nargs="*", help="current-run json files")
    parser.add_argument("--max-ratio", type=float, default=None,
                        help="fail when current > ratio x baseline "
                             "(default 2.0; 0.75 with --cold-reference)")
    parser.add_argument("--min-seconds", type=float, default=0.05,
                        help="ignore metrics below this absolute time")
    parser.add_argument("--merge", action="store_true",
                        help="merge all inputs into one json on stdout")
    parser.add_argument("--cold-reference", action="store_true",
                        help="gate (incremental) metrics against the "
                             "same-run (cold) partner instead of a "
                             "checked-in baseline")
    parser.add_argument("--suffixes", nargs=2,
                        metavar=("NUM", "DEN"),
                        default=[INCREMENTAL_SUFFIX, COLD_SUFFIX],
                        help="metric-name suffixes forming the "
                             "--cold-reference pairs (numerator, "
                             "denominator)")
    args = parser.parse_args()

    if args.cold_reference:
        metrics = {}
        for path in [args.baseline] + args.current:
            metrics.update(load_metrics(path))
        max_ratio = args.max_ratio if args.max_ratio is not None else 0.75
        return compare_cold_reference(metrics, max_ratio, args.min_seconds,
                                      args.suffixes[0], args.suffixes[1])
    if args.max_ratio is None:
        args.max_ratio = 2.0
    if not args.current:
        parser.error("need BASELINE.json plus at least one CURRENT.json")

    if args.merge:
        merged = {}
        for path in [args.baseline] + args.current:
            merged.update(load_metrics(path))
        json.dump({"metrics": [{"name": name, "value": value, "unit": unit}
                               for name, (value, unit)
                               in sorted(merged.items())]},
                  sys.stdout, indent=2)
        sys.stdout.write("\n")
        return 0

    baseline = load_metrics(args.baseline)
    current = {}
    for path in args.current:
        current.update(load_metrics(path))

    failures = []
    for name, (value, unit) in sorted(current.items()):
        if name not in baseline:
            print(f"  new metric (no baseline): {name} = {show(value, unit)}")
            continue
        base, base_unit = baseline[name]
        if base_unit != unit:
            failures.append(name)
            print(f"  {'UNIT':>10}: {name}: {show(value, unit)} "
                  f"(baseline {show(base, base_unit)})")
            continue
        ratio = value / base if base > 0 else float("inf")
        if unit != SECONDS:
            print(f"  {'not gated':>10}: {name}: {show(value, unit)} "
                  f"(baseline {show(base, unit)}, ratio {ratio:.2f})")
            continue
        marker = "ok"
        # Both sides must clear the noise floor: a sub-floor baseline is
        # pure timer jitter and must not be able to fail the gate.
        if (ratio > args.max_ratio and value > args.min_seconds
                and base > args.min_seconds):
            marker = "REGRESSION"
            failures.append(name)
        print(f"  {marker:>10}: {name}: {show(value, unit)} "
              f"(baseline {show(base, unit)}, ratio {ratio:.2f})")
    for name in sorted(set(baseline) - set(current)):
        print(f"  metric missing from current run: {name}")

    if failures:
        print(f"\n{len(failures)} metric(s) regressed more than "
              f"{args.max_ratio}x or changed unit: {', '.join(failures)}")
        return 1
    print("\nperf smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
