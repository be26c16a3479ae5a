"""One workload repetition in a fresh interpreter; started by ``run.py``.

Usage: ``python3 perfbench/child.py '<json spec>'`` with ``PYTHONPATH`` naming
the package sources.  The spec holds the task list and a ``trace`` flag.  The
child imports loopcells and every submodule (the set-up that ``setup_s``
times), runs the tasks through the public API with cold caches, checks each
result against its reference and prints one JSON line:
``ready`` (``time.monotonic()`` after the imports), ``wall_s`` and ``cpu_s``
summed over the pipeline calls, ``host_s`` (the mean time of the calibration
kernel, sampled before, between and after the calls; see ``calibration.py``),
the per-task verdicts and, when traced, the per-layer metrics.  With no tasks
it only samples the kernel after the imports.
"""

from __future__ import annotations

import importlib
import json
import math
import pkgutil
import sys
import time
import traceback

import calibration

# Acceptance tolerances (tests/test_acceptance.py).
CLOSED_FORM_TOL = 1e-9
TABLE_TOL = 1e-4
ISING_FIXED_TOL = 5e-3
ISING_FREE_TOL = 1e-3
LOOP_ENTROPY_TOL = 5e-2
CELL_EQUALITY_TOL = 1e-8
NILPOTENT_TOL = 1e-8


def import_package() -> None:
    """Import loopcells and every public submodule, as a full user would."""
    import loopcells

    for info in pkgutil.iter_modules(loopcells.__path__):
        if not info.name.startswith("_"):
            importlib.import_module(f"loopcells.{info.name}")


# ---------------------------------------------------------------------------
# Running tasks


def _complex(pair) -> complex:
    return complex(pair[0], pair[1])


def run_task(task: dict, obs, spectral, done: dict) -> dict:
    """One pipeline call through the public API; returns what the checks read."""
    fn = task["fn"]
    if fn == "b_xxz":
        saved = spectral.DENSE_LIMIT
        spectral.DENSE_LIMIT = task.get("dense_limit", saved)
        try:
            m = obs.b_xxz(task["L"], cell_scale=_complex(task["cell_scale"]))
        finally:
            spectral.DENSE_LIMIT = saved
        return {"value": m.value}
    if fn == "b_polymer":
        m = obs.b_polymer(task["L"], right_scale=task["right_scale"],
                          left_scale=task["left_scale"])
        return {"value": m.value}
    if fn == "b_deformed":
        m = obs.b_deformed(task["L"], task["y"], cell_scale=_complex(task["cell_scale"]))
        return {"value": m.value}
    if fn == "extrapolate_b":
        sizes = [done[i]["L"] for i in task["inputs"]]
        values = [done[i]["value"] for i in task["inputs"]]
        return {"value": obs.extrapolate_b(sizes, values).value}
    if fn == "ising_boundary_entropy":
        return {"value": obs.ising_boundary_entropy(tuple(task["sizes"]), task["bc"]).value}
    if fn == "loop_boundary_entropy":
        report = obs.loop_boundary_entropy(task["n"], task["n1"], tuple(task["sizes"]))
        return {"value": report.fit.value}
    if fn == "percolation_check":
        r = obs.percolation_check(task["L"], tuple(task["y_values"]))
        return {
            "geometric_multiplicity": r.geometric_multiplicity,
            "nilpotent_norm": r.nilpotent_norm,
            "genuine": [bool(r.deformed_genuine.get(y)) for y in task["y_values"]],
        }
    raise ValueError(f"unknown task function {fn!r}")


def run_tasks(tasks: list[dict], obs, spectral, kernel=None) -> dict[str, dict]:
    """Run every task in order; an exception becomes that task's ``error``.

    Each outcome holds the wall and CPU time of its call; ``kernel``, when
    given, is sampled after each call, outside those times.
    """
    done: dict[str, dict] = {}
    for task in tasks:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            outcome = run_task(task, obs, spectral, done)
        except Exception as exc:  # a failed task is counted, the run goes on
            outcome = {"error": "".join(traceback.format_exception_only(exc)).strip()}
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        done[task["id"]] = {**outcome, "id": task["id"], "L": task.get("L"),
                            "wall_s": wall, "cpu_s": cpu}
        if kernel is not None:
            kernel.follow(wall)
    return done


# ---------------------------------------------------------------------------
# Checks


def references(tasks: list[dict]) -> dict:
    """Reference values from the package's fixtures and closed forms."""
    from loopcells import fixtures as fx
    from loopcells import observables as obs

    return {
        "xxz_table": dict(fx.B_XXZ_TABLE),
        "xxz_l4": float(fx.B_XXZ_L4_EXACT),
        "polymer_table": dict(fx.B_POLYMER_TABLE),
        "polymer_l2": fx.b_polymer_l2_exact(),
        "windows": {"xxz": fx.B_XXZ_LIMIT, "polymer": fx.B_POLYMER_LIMIT},
        "ising_fixed": fx.ISING_FIXED_ENTROPY,
        "loop": {
            t["id"]: obs.loop_entropy_exact(t["n"], t["n1"])
            for t in tasks if t["fn"] == "loop_boundary_entropy"
        },
    }


def _within(value, ref, tol, what: str) -> list[str]:
    err = abs(value - ref)
    return [] if err < tol else [f"{what}: {value!r} vs {ref!r} (|err| {err:.3g} >= {tol:g})"]


def _check(task: dict, out: dict, refs: dict) -> list[str]:
    fn, L = task["fn"], task.get("L")
    if fn in ("b_xxz", "b_deformed"):
        problems = []
        if L in refs["xxz_table"]:
            problems += _within(out["value"], refs["xxz_table"][L], TABLE_TOL, "spin table")
        if L == 4:
            problems += _within(out["value"], refs["xxz_l4"], CLOSED_FORM_TOL, "closed form")
        if fn == "b_xxz" and L not in refs["xxz_table"]:
            problems.append(f"no spin reference at L={L}")
        return problems
    if fn == "b_polymer":
        problems = []
        if L in refs["polymer_table"]:
            problems += _within(out["value"], refs["polymer_table"][L], TABLE_TOL, "polymer table")
        if L == 2:
            problems += _within(out["value"], refs["polymer_l2"], CLOSED_FORM_TOL, "closed form")
        if L not in refs["polymer_table"]:
            problems.append(f"no polymer reference at L={L}")
        return problems
    if fn == "extrapolate_b":
        centre, half = refs["windows"][task["model"]]
        return _within(out["value"], centre, half + 1e-12, "extrapolation window")
    if fn == "ising_boundary_entropy":
        if task["bc"] == "fixed":
            return _within(out["value"], refs["ising_fixed"], ISING_FIXED_TOL, "Ising fixed")
        return _within(out["value"], 0.0, ISING_FREE_TOL, "Ising free")
    if fn == "loop_boundary_entropy":
        return _within(out["value"], refs["loop"][task["id"]], LOOP_ENTROPY_TOL, "loop entropy")
    if fn == "percolation_check":
        problems = []
        if out["geometric_multiplicity"] != 2:
            problems.append(f"geometric multiplicity {out['geometric_multiplicity']} != 2")
        if not out["nilpotent_norm"] < NILPOTENT_TOL:
            problems.append(f"nilpotent norm {out['nilpotent_norm']:.3g} >= {NILPOTENT_TOL:g}")
        if not all(out["genuine"]):
            problems.append(f"deformations not all genuine: {out['genuine']}")
        return problems
    return [f"no check for {fn!r}"]


def check_all(tasks: list[dict], done: dict[str, dict], refs: dict) -> dict[str, list[str]]:
    """Problems per task id (empty list: the task passed)."""
    verdicts: dict[str, list[str]] = {}
    for task in tasks:
        out = done[task["id"]]
        if "error" in out:
            verdicts[task["id"]] = [out["error"]]
            continue
        value = out.get("value", 0.0)
        if not math.isfinite(value):
            verdicts[task["id"]] = [f"non-finite result {value!r}"]
            continue
        verdicts[task["id"]] = _check(task, out, refs)
    # the deformed chains realize one representation for every y != 1
    groups: dict[int, list[str]] = {}
    for task in tasks:
        if task["fn"] == "b_deformed":
            groups.setdefault(task["L"], []).append(task["id"])
    for L, ids in groups.items():
        values = [done[i].get("value", math.nan) for i in ids]
        spread = max(values) - min(values)
        if not spread < CELL_EQUALITY_TOL:
            for i in ids:
                verdicts[i].append(f"b differs across y at L={L} by {spread:.3g}")
    return verdicts


# ---------------------------------------------------------------------------


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    import_package()
    ready = time.monotonic()
    kernel = calibration.Kernel()
    tasks = spec["tasks"]
    report: dict = {"ready": ready}
    if not tasks:
        kernel.sample(calibration.SETUP)
    else:
        from loopcells import observables, spectral

        recorder = None
        if spec.get("trace"):
            import spans

            recorder = spans.Recorder()
            report["missing_hooks"] = spans.install(recorder)
        kernel.sample(calibration.BEFORE)
        done = run_tasks(tasks, observables, spectral, kernel)
        kernel.sample(calibration.AFTER)
        report["wall_s"] = sum(d["wall_s"] for d in done.values())
        report["cpu_s"] = sum(d["cpu_s"] for d in done.values())
        report["verdicts"] = check_all(tasks, done, references(tasks))
        if recorder is not None:
            report["layers"] = spans.layer_metrics(recorder)
    report["host_s"] = kernel.mean()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
