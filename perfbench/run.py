"""Benchmark of the loopcells pipelines, end to end and layer by layer.

Usage (from the root of a checkout; nothing needs building)::

    python3 perfbench/run.py --workload spin-b --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 28
    python3 perfbench/selftest.py
    python3 perfbench/sensitivity.py --rounds 15

Each repetition of a workload runs in a fresh interpreter (``child.py``) with
cold caches, as a user pays them on every run, and one BLAS thread.  With
``--trace 0`` the run times set-up in a few bare interpreters, then repeats
the workload while another repetition still fits in ``--seconds`` (once at
least), and reports medians of ``wall_s``, ``cpu_s``, ``peak_rss_mb`` and
``setup_s``.  The three times are in reference seconds: each repetition's
measured times scaled by the host speed that a calibration kernel, timed
around its pipeline calls, saw, to the workload's sensitivity
(``calibration.py``); the measured times are printed beside them.  With
``--trace 1`` it alternates untraced and traced repetitions and reports the
per-layer metrics of ``spans.py`` together with the tracing overhead.  Every
repetition checks every task against its reference; any failure makes the
exit code nonzero.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import calibration
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCES = ROOT / "src"

BUDGET_S = 165.0  # a run, repetitions included, must end within 180 s
SETUP_PROBES = 3
BLAS_THREADS = 1
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
)
#: The end-to-end metrics that are times, reported in reference seconds.
TIMES = ("wall_s", "cpu_s", "setup_s")


class ChildFailed(RuntimeError):
    """A repetition crashed, timed out or printed no report."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SOURCES), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    for name in THREAD_VARIABLES:
        env[name] = str(BLAS_THREADS)
    return env


def spawn(tasks: list[dict], trace: bool, deadline: float, workload: str) -> dict:
    """Run one repetition in a fresh interpreter; returns its report.

    ``setup_s`` runs from just before the spawn to the end of the child's
    imports; ``peak_rss_mb`` is the child's own peak from ``wait4``.  The
    report's times are in reference seconds, scaled with the sensitivity of
    ``workload`` (of set-up, for ``setup_s``); ``measured`` keeps them as timed.
    """
    spec = json.dumps({"tasks": tasks, "trace": trace})
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), spec],
        cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
    )
    watchdog = threading.Timer(max(deadline - spawned, 0.0), proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.decode().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"repetition exited with status {proc.returncode}")
    report = json.loads(lines[-1])
    report["setup_s"] = report["ready"] - spawned
    report["peak_rss_mb"] = usage.ru_maxrss / 1024
    report["measured"] = {name: report[name] for name in TIMES if name in report}
    for name, value in report["measured"].items():
        kind = "setup" if name == "setup_s" else workload
        report[name] = value * calibration.factor(report["host_s"],
                                                  calibration.SENSITIVITY[kind])
    return report


class Tally:
    """Attempted and failed tasks over all repetitions of one run."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0

    def add(self, report: dict) -> None:
        failures = [f"{task}: {'; '.join(p)}" for task, p in report["verdicts"].items() if p]
        self.attempted += len(report["verdicts"])
        self.failed += len(failures)
        self.problems += failures

    def crash(self, tasks: list[dict], exc: Exception) -> None:
        self.attempted += len(tasks)
        self.failed += len(tasks)
        self.problems.append(str(exc))


def _another(done: int, start: float, longest: float, seconds: float, deadline: float) -> bool:
    """Whether to start another repetition: one always, more while the
    longest so far would still end inside the window and the deadline."""
    if not done:
        return True
    now = time.monotonic()
    return now + longest <= min(start + seconds, deadline)


def measure(workload: str, tasks: list[dict], seconds: float, deadline: float,
            tally: Tally) -> tuple[dict, dict]:
    """Untraced run: set-up probes, then repetitions.

    Returns the metric samples (reference seconds) and, for the printout, the
    same times as measured together with the kernel's mean times.
    """
    samples = {name: [] for name, _ in END_TO_END}
    measured = {f"{name} measured": [] for name in TIMES}
    measured["kernel host_s"] = []

    def add(report: dict) -> None:
        for name, value in report["measured"].items():
            samples[name].append(report[name])
            measured[f"{name} measured"].append(value)
        measured["kernel host_s"].append(report["host_s"])

    try:
        for _ in range(SETUP_PROBES):
            add(spawn([], False, deadline, workload))
    except ChildFailed as exc:
        tally.crash(tasks, exc)
        return samples, measured
    start = time.monotonic()
    longest = 0.0
    while _another(len(samples["wall_s"]), start, longest, seconds, deadline):
        began = time.monotonic()
        try:
            report = spawn(tasks, False, deadline, workload)
        except ChildFailed as exc:
            tally.crash(tasks, exc)
            break
        longest = max(longest, time.monotonic() - began)
        tally.add(report)
        add(report)
        samples["peak_rss_mb"].append(report["peak_rss_mb"])
    return samples, measured


def measure_traced(workload: str, tasks: list[dict], seconds: float, deadline: float,
                   tally: Tally) -> dict:
    """Traced run: untraced/traced pairs; returns per-layer samples."""
    import spans

    samples: dict[str, list] = {name: [] for name, _ in spans.PER_LAYER}
    start = time.monotonic()
    longest = 0.0
    while _another(len(samples["trace.overhead_s"]), start, longest, seconds, deadline):
        began = time.monotonic()
        try:
            plain = spawn(tasks, False, deadline, workload)
            traced = spawn(tasks, True, deadline, workload)
        except ChildFailed as exc:
            tally.crash(tasks, exc)
            break
        longest = max(longest, time.monotonic() - began)
        for report in (plain, traced):
            tally.add(report)
        for hook in traced.get("missing_hooks", []):
            print(f"warning: no hook for {hook}", file=sys.stderr)
        for name, value in traced["layers"].items():
            samples[name].append(value)
        samples["trace.overhead_s"].append(traced["wall_s"] - plain["wall_s"])
    for name, unit in spans.PER_LAYER:
        if unit == "s":
            continue
        if len(set(samples[name])) > 1:
            tally.failed += 1
            tally.problems.append(f"count {name} differs between repetitions: {samples[name]}")
        samples[name] = samples[name][:1]  # counts repeat exactly: report the count
    return samples


def machine() -> str:
    """One line naming the cores, memory, interpreter and numerical libraries."""
    mem = "unknown"
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    mem = f"{int(line.split()[1]) // 1024} MiB"
    except OSError:
        pass
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    versions = []
    for package in ("numpy", "scipy", "numba"):
        try:
            versions.append(f"{package}={metadata.version(package)}")
        except metadata.PackageNotFoundError:
            versions.append(f"{package}=absent")
    return (f"nproc={os.cpu_count()} cpu={cpu!r} mem_available={mem} "
            f"python={platform.python_version()} {' '.join(versions)} "
            f"blas_threads={BLAS_THREADS}")


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return "1 sample"
    return f"median of {len(values)}, min {min(values):.4g}, max {max(values):.4g}"


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[Tally, dict]:
    """One workload; prints its summary and returns its tally and metrics."""
    import spans

    deadline = time.monotonic() + BUDGET_S
    tasks = workloads.make_tasks(workload, seed)
    tally = Tally()
    print(f"workload {workload} seed={seed} seconds={seconds:g} trace={int(trace)} "
          f"tasks={len(tasks)}: {workloads.WHY[workload]}")
    measured: dict = {}
    if trace:
        samples = measure_traced(workload, tasks, seconds, deadline, tally)
        units = dict(spans.PER_LAYER)
    else:
        samples, measured = measure(workload, tasks, seconds, deadline, tally)
        units = dict(END_TO_END)
    metrics = {}
    for name, values in samples.items():
        if not values:
            continue
        value = statistics.median(values)
        metrics[name] = {"value": value, "unit": units[name]}
        print(f"  {name:30s} {value:14.6g} {units[name]:6s} {_spread(values)}")
    for name, values in measured.items():
        if values:
            print(f"  {name:30s} {statistics.median(values):14.6g} {'s':6s} {_spread(values)}")
    rate = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"  {'fail_rate':30s} {rate:14.6g} {'':6s} {tally.failed} of {tally.attempted} tasks failed")
    for problem in tally.problems[:20]:
        print(f"  FAIL {problem}")
    return tally, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCES / "loopcells" / "__init__.py").is_file():
        print(f"error: no package sources under {SOURCES}", file=sys.stderr)
        return 2

    print(f"machine: {machine()}")
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics: dict = {}
    for name in names:
        tally, found = run_workload(name, args.seed, args.seconds, bool(args.trace))
        attempted += tally.attempted
        failed += tally.failed
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in found.items()})
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
