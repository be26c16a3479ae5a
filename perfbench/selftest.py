"""Self-test of the benchmark harness: ``python3 perfbench/selftest.py``.

Checks the self-time arithmetic on synthetic nested spans, that the
correctness checks flag a deliberately perturbed reference, that tracing
reaches every namespace holding a wrapped function, that the calibration
kernel's time stays out of the task times, and that ``BENCHMARK.json`` names
the metrics and workloads the harness reports.
Needs only the standard library, NumPy/SciPy and the package sources.
"""

from __future__ import annotations

import json
import sys
import time
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import calibration  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


class SpanArithmetic(unittest.TestCase):
    def record(self, events, ticks):
        rec = spans.Recorder(clock=_fake_clock(ticks))
        open_ = []
        for event in events:
            if event == ")":
                rec.end(open_.pop())
            else:
                open_.append(rec.begin(event)[0])
        return rec

    def test_self_time_subtracts_direct_children(self):
        # a[0,10] holds b[1,4] (which holds c[2,3]) and d[5,9]
        rec = self.record("abc))d))", [0, 1, 2, 3, 4, 5, 9, 10])
        own = spans.self_times(rec.spans)
        self.assertEqual(own, {"a": 3, "b": 2, "c": 1, "d": 4})
        self.assertEqual(sum(own.values()), 10)

    def test_nested_same_layer_counts_one_call(self):
        # x[0,8] calls x[2,5] (say a fallback inside the same layer), then y[6,7]
        rec = self.record(["x", "x", ")", "y", ")", ")"], [0, 2, 5, 6, 7, 8])
        self.assertEqual(rec.counts["x.calls"], 1)
        self.assertEqual(rec.counts["y.calls"], 1)
        self.assertEqual(spans.self_times(rec.spans), {"x": 7, "y": 1})
        self.assertEqual(spans.outer_times(rec.spans), {"x": 8, "y": 1})

    def test_spans_must_nest(self):
        rec = spans.Recorder(clock=_fake_clock(range(10)))
        first, _ = rec.begin("a")
        rec.begin("b")
        with self.assertRaises(RuntimeError):
            rec.end(first)


class Checks(unittest.TestCase):
    TASKS = [
        {"id": "b4", "fn": "b_xxz", "L": 4},
        {"id": "d6a", "fn": "b_deformed", "L": 6, "y": 2.0},
        {"id": "d6b", "fn": "b_deformed", "L": 6, "y": 0.5},
        {"id": "fit", "fn": "extrapolate_b", "model": "xxz"},
        {"id": "perc", "fn": "percolation_check", "L": 4},
    ]
    REFS = {
        "xxz_table": {4: -1.36035}, "xxz_l4": -1.3603495231756633,
        "polymer_table": {}, "polymer_l2": 0.0,
        "windows": {"xxz": (-0.61, 0.02)}, "ising_fixed": 0.0, "loop": {},
    }
    DONE = {
        "b4": {"value": -1.3603495231756633},
        "d6a": {"value": -0.2028889907117312},
        "d6b": {"value": -0.2028889907117266},
        "fit": {"value": -0.6051},
        "perc": {"geometric_multiplicity": 2, "nilpotent_norm": 1e-15,
                 "genuine": [True, True, True]},
    }

    def verdicts(self, refs=None, done=None):
        return child.check_all(self.TASKS, done or self.DONE, refs or self.REFS)

    def test_exact_references_pass(self):
        self.assertTrue(all(not p for p in self.verdicts().values()))

    def test_perturbed_references_are_flagged(self):
        closed = dict(self.REFS, xxz_l4=self.REFS["xxz_l4"] + 1e-8)
        self.assertTrue(self.verdicts(refs=closed)["b4"])
        table = dict(self.REFS, xxz_table={4: -1.36035 + 2e-4})
        self.assertTrue(self.verdicts(refs=table)["b4"])
        window = dict(self.REFS, windows={"xxz": (-0.65, 0.02)})
        self.assertTrue(self.verdicts(refs=window)["fit"])

    def test_bad_outcomes_are_flagged(self):
        spread = dict(self.DONE, d6b={"value": -0.2028889})
        bad = self.verdicts(done=spread)
        self.assertTrue(bad["d6a"] and bad["d6b"])
        diag = dict(self.DONE, perc={"geometric_multiplicity": 1, "nilpotent_norm": 0.3,
                                     "genuine": [True, False, True]})
        self.assertEqual(len(self.verdicts(done=diag)["perc"]), 3)
        self.assertTrue(self.verdicts(done=dict(self.DONE, b4={"error": "boom"}))["b4"])
        self.assertTrue(self.verdicts(done=dict(self.DONE, b4={"value": float("nan")}))["b4"])

    def test_real_pipeline_against_perturbed_fixture(self):
        child.import_package()
        from loopcells import observables, spectral

        tasks = [{"id": "b_xxz L=4", "fn": "b_xxz", "L": 4, "cell_scale": [0.7, 1.3]}]
        done = child.run_tasks(tasks, observables, spectral)
        refs = child.references(tasks)
        self.assertEqual(child.check_all(tasks, done, refs), {"b_xxz L=4": []})
        refs["xxz_table"] = {**refs["xxz_table"], 4: refs["xxz_table"][4] + 1e-3}
        self.assertTrue(child.check_all(tasks, done, refs)["b_xxz L=4"])


class Tracing(unittest.TestCase):
    def test_every_namespace_is_wrapped(self):
        child.import_package()
        modules = [m for name, m in sys.modules.items() if name.startswith("loopcells.")]
        originals = {
            name: getattr(sys.modules[f"loopcells.{module}"], name)
            for targets in spans.LAYERS.values() for module, name in targets
        }
        recorder = spans.Recorder()
        self.assertEqual(spans.install(recorder), [])
        for name, fn in originals.items():
            for module in modules:
                self.assertFalse(any(v is fn for v in vars(module).values()),
                                 f"{module.__name__} still holds the unwrapped {name}")
        from loopcells import models, observables, tl

        self.assertIs(models.dense_generators, tl.dense_generators)
        observables.b_xxz(4)
        metrics = spans.layer_metrics(recorder)
        self.assertGreater(metrics["observables.pipeline.s"], 0)
        self.assertEqual(metrics["spectral.jordan.calls"], 1)
        self.assertEqual(metrics["models.assemble.calls"], 2)
        self.assertEqual(set(metrics) | {"trace.overhead_s"}, {n for n, _ in spans.PER_LAYER})


class Calibration(unittest.TestCase):
    def test_kernel_time_is_left_out_of_task_times(self):
        class SlowKernel:
            calls = 0

            def follow(self, busy_s):
                self.calls += 1
                time.sleep(0.05)

        def b_xxz(L, cell_scale):
            time.sleep(0.01)
            return types.SimpleNamespace(value=1.0)

        obs = types.SimpleNamespace(b_xxz=b_xxz)
        spectral = types.SimpleNamespace(DENSE_LIMIT=0)
        tasks = [{"id": f"t{i}", "fn": "b_xxz", "L": 4, "cell_scale": [1, 0]} for i in range(3)]
        kernel = SlowKernel()
        done = child.run_tasks(tasks, obs, spectral, kernel)
        self.assertEqual(kernel.calls, 3)
        wall = sum(d["wall_s"] for d in done.values())
        self.assertGreaterEqual(wall, 0.03)
        self.assertLess(wall, 0.1)  # three 0.01 s tasks, none of the 0.05 s samples

    def test_reference_seconds(self):
        kernel = calibration.Kernel()
        self.assertEqual(kernel.samples, [])  # the warm-up run is not recorded
        kernel.sample(2)
        self.assertEqual(len(kernel.samples), 2)
        self.assertGreater(kernel.mean(), 0)
        self.assertAlmostEqual(calibration.factor(2 * calibration.REFERENCE_S, 1.0), 0.5)
        self.assertAlmostEqual(calibration.factor(4 * calibration.REFERENCE_S, 0.5), 0.5)
        self.assertEqual(calibration.factor(2 * calibration.REFERENCE_S, 0.0), 1.0)
        self.assertEqual(set(calibration.SENSITIVITY), {"setup", *workloads.NAMES})


class BenchmarkFile(unittest.TestCase):
    def test_benchmark_json_matches_the_harness(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.NAMES))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(spans.PER_LAYER))

    def test_seed_fixes_inputs(self):
        for name in workloads.NAMES:
            self.assertEqual(workloads.make_tasks(name, 5), workloads.make_tasks(name, 5))
            ids = sorted(t["id"] for t in workloads.make_tasks(name, 6))
            self.assertEqual(ids, sorted(t["id"] for t in workloads.make_tasks(name, 5)))


if __name__ == "__main__":
    unittest.main()
