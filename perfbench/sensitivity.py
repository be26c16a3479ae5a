"""Fit the host sensitivities of ``calibration.SENSITIVITY``.

Usage (from the root of a checkout)::

    python3 perfbench/sensitivity.py --rounds 15

Runs ``--rounds`` rounds; a round is one repetition of each workload (seed
900 + round) and one bare set-up probe.  For each workload, and for set-up
over every spawn, it fits the slope of log(measured time) on log(mean kernel
time) by least squares and prints the slope, the correlation and the standard
deviation of log time before and after scaling with that slope.  The last
line is the fitted table as JSON.  The result depends on the host; the
constants in ``calibration.py`` come from one such fit (see ``baseline.json``).
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time

import run
import workloads


def slope(times: list[float], hosts: list[float]) -> dict:
    """Least-squares slope of log time on log kernel time, with its effect."""
    y = [math.log(t) for t in times]
    x = [math.log(h) for h in hosts]
    fitted = statistics.covariance(x, y) / statistics.variance(x)
    return {
        "slope": round(fitted, 3),
        "correlation": round(statistics.correlation(x, y), 3),
        "sd_log_measured": round(statistics.stdev(y), 4),
        "sd_log_scaled": round(statistics.stdev([b - fitted * a for a, b in zip(x, y)]), 4),
        "samples": len(y),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--workloads", default=",".join(workloads.NAMES))
    args = parser.parse_args(argv)
    names = args.workloads.split(",")
    walls: dict[str, tuple[list, list]] = {name: ([], []) for name in names}
    setup: tuple[list, list] = ([], [])
    for r in range(args.rounds):
        reports = [("setup", run.spawn([], False, time.monotonic() + 170, "setup"))]
        for name in names:
            tasks = workloads.make_tasks(name, 900 + r)
            reports.append((name, run.spawn(tasks, False, time.monotonic() + 170, name)))
        for name, report in reports:
            setup[0].append(report["measured"]["setup_s"])
            setup[1].append(report["host_s"])
            if name != "setup":
                walls[name][0].append(report["measured"]["wall_s"])
                walls[name][1].append(report["host_s"])
        print(f"round {r + 1} of {args.rounds} done", file=sys.stderr)
    fits = {"setup": slope(*setup)}
    fits.update({name: slope(*walls[name]) for name in names})
    for name, fit in fits.items():
        print(f"{name:18s} " + " ".join(f"{k}={v}" for k, v in fit.items()))
    print(json.dumps(fits))
    return 0


if __name__ == "__main__":
    sys.exit(main())
