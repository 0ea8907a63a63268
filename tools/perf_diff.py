#!/usr/bin/env python3
"""Diff two BENCH_simcore.json baselines and print a per-scenario table.

Usage: perf_diff.py BASELINE.json FRESH.json

Prints, for every scenario present in either file, the fast-path
sim-seconds-per-wall-second, wall seconds and event count side by side
with the relative delta. Exit code is always 0 (the CI perf-smoke job is
informational — shared runners have noisy clocks), except for unreadable
or malformed input, which exits 2 so a broken bench run is visible.
"""

import json
import sys


def load_scenarios(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as err:
        print(f"perf_diff: cannot read {path}: {err}", file=sys.stderr)
        sys.exit(2)
    if "scenarios" in doc:
        return {s["name"]: s for s in doc["scenarios"]}
    # Pre-multi-point format: a single unnamed sparse scenario.
    if "fast_path" in doc:
        return {"sparse-7": doc}
    print(f"perf_diff: {path} is not a BENCH_simcore baseline", file=sys.stderr)
    sys.exit(2)


def fmt_delta(old, new):
    if old is None or new is None:
        return "      -"
    if old == 0:
        return "      ?"
    pct = 100.0 * (new - old) / old
    return f"{pct:+6.1f}%"


def metric(scenario, key):
    if scenario is None:
        return None
    return scenario.get("fast_path", {}).get(key)


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        sys.exit(2)
    base = load_scenarios(sys.argv[1])
    fresh = load_scenarios(sys.argv[2])

    names = list(base.keys()) + [n for n in fresh.keys() if n not in base]
    header = (
        f"{'scenario':<20} {'sim-s/wall-s':>14} {'(was)':>10} {'delta':>7}"
        f" {'wall-s':>9} {'(was)':>9} {'delta':>7} {'events':>12} {'delta':>7}"
    )
    print(header)
    print("-" * len(header))
    for name in names:
        b = base.get(name)
        f = fresh.get(name)
        spw_b = metric(b, "sim_seconds_per_wall_second")
        spw_f = metric(f, "sim_seconds_per_wall_second")
        wall_b = metric(b, "wall_seconds")
        wall_f = metric(f, "wall_seconds")
        ev_b = metric(b, "events_processed")
        ev_f = metric(f, "events_processed")

        def num(v, width, fmt):
            return f"{v:{width}{fmt}}" if v is not None else f"{'-':>{width}}"

        print(
            f"{name:<20} {num(spw_f, 14, ',.0f')} {num(spw_b, 10, ',.0f')}"
            f" {fmt_delta(spw_b, spw_f)} {num(wall_f, 9, '.2f')} {num(wall_b, 9, '.2f')}"
            f" {fmt_delta(wall_b, wall_f)} {num(ev_f, 12, ',d')} {fmt_delta(ev_b, ev_f)}"
        )

    print(
        "\n(deltas are fresh vs baseline; sim-s/wall-s up and wall-s/events"
        " down are improvements; shared-runner clocks are noisy — event"
        " counts are the stable signal)"
    )


if __name__ == "__main__":
    main()
