"""Spans and counters for the traced benchmark run.

The package itself is not instrumented.  :func:`install` wraps loopcells'
public functions from outside: each wrapper opens a span named after the
layer it belongs to, and replaces the original in *every* loopcells module
namespace that holds it, so a call through ``models.dense_generators`` is seen
as well as one through ``tl.dense_generators``.  Spans are kept in memory and
turned into per-layer metrics once, at the end (:func:`layer_metrics`).

A layer's self time is the summed duration of its spans minus the time their
direct child spans cover.  A call into a layer from inside the same layer
(``fast_loop_count_matrix`` falling back to ``loop_count_matrix``, say) is a
nested span: it moves self time but does not count as another call.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from collections import defaultdict

#: (module, function) pairs wrapped in a span of each layer.  Two private
#: helpers of ``observables`` are included because they are a power
#: iteration and a fit, which would otherwise land in the pipeline self time.
LAYERS = {
    "diagrams.enumerate": [("diagrams", f) for f in (
        "enumerate_dense", "enumerate_open", "enumerate_dilute")],
    "tl.generators": [("tl", f) for f in (
        "open_generators", "dense_generators", "spin_generators")],
    "models.assemble": [("models", f) for f in (
        "build_xxz", "build_xxz_sparse", "build_ising", "build_dense_loop_T",
        "build_dilute_T", "build_percolation_H", "dilute_blocks")],
    "forms.gram": [("forms", f) for f in (
        "loop_gram", "loop_count_matrix", "fast_loop_count_matrix",
        "dilute_gram", "dilute_sector_gram", "link_gram")],
    "spectral.eig_dense": [("spectral", f) for f in (
        "full_spectrum", "ground_state", "geometric_multiplicity", "nilpotent_norm")],
    "spectral.jordan": [("spectral", f) for f in (
        "extract_jordan_cell", "block_jordan_cell", "block_jordan_cell_sparse",
        "sparse_jordan_cell")],
    "spectral.perron": [("spectral", "perron_pair"), ("observables", "_transfer_perron")],
    "observables.pipeline": [("observables", f) for f in (
        "b_xxz", "b_polymer", "b_deformed", "percolation_check",
        "ising_boundary_entropy", "loop_boundary_entropy")],
    "observables.fit": [("observables", f) for f in (
        "extrapolate_b", "_inverse_power_fit")],
}

#: Every per-layer metric the traced run reports, with its unit.
PER_LAYER = (
    ("diagrams.enumerate.s", "s"),
    ("diagrams.enumerate.states", "count"),
    ("diagrams.glue.calls", "count"),
    ("tl.generators.s", "s"),
    ("tl.generators.bytes", "B"),
    ("models.assemble.s", "s"),
    ("models.assemble.calls", "count"),
    ("models.assemble.nnz", "count"),
    ("models.transfer_apply.calls", "count"),
    ("forms.gram.s", "s"),
    ("forms.gram.calls", "count"),
    ("forms.gram.entries", "count"),
    ("spectral.eig_dense.s", "s"),
    ("spectral.eig_dense.calls", "count"),
    ("spectral.jordan.s", "s"),
    ("spectral.jordan.calls", "count"),
    ("spectral.perron.s", "s"),
    ("spectral.perron.calls", "count"),
    ("spectral.eig_sparse.s", "s"),
    ("spectral.eig_sparse.calls", "count"),
    ("spectral.factorize.s", "s"),
    ("spectral.factorize.calls", "count"),
    ("observables.pipeline.s", "s"),
    ("observables.self.s", "s"),
    ("observables.fit.s", "s"),
    ("trace.overhead_s", "s"),
)


class Recorder:
    """In-memory spans ``[layer, start, end, parent]`` and integer counters."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._stack: list[int] = []
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)

    def begin(self, layer: str) -> tuple[int, bool]:
        """Open a span; returns its index and whether it is outermost in its layer."""
        outermost = all(self.spans[i][0] != layer for i in self._stack)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, self._clock(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        if outermost:
            self.counts[f"{layer}.calls"] += 1
        return index, outermost

    def end(self, index: int) -> None:
        if not self._stack or self._stack.pop() != index:
            raise RuntimeError("spans must close in the order they opened")
        self.spans[index][2] = self._clock()


def self_times(spans: list[list]) -> dict[str, float]:
    """Per-layer sum of span durations minus the durations of direct children."""
    covered = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: defaultdict[str, float] = defaultdict(float)
    for (layer, start, end, _), child in zip(spans, covered):
        out[layer] += (end - start) - child
    return dict(out)


def outer_times(spans: list[list]) -> dict[str, float]:
    """Per-layer summed duration of spans with no ancestor in the same layer."""
    out: defaultdict[str, float] = defaultdict(float)
    for layer, start, end, parent in spans:
        while parent >= 0 and spans[parent][0] != layer:
            parent = spans[parent][3]
        if parent < 0:
            out[layer] += end - start
    return dict(out)


def layer_metrics(recorder: Recorder) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric except the tracing overhead."""
    own = self_times(recorder.spans)
    values: dict[str, float] = {}
    for name, _ in PER_LAYER:
        if name.endswith(".s"):
            values[name] = own.get(name[:-2], 0.0)
        else:
            values[name] = recorder.counts.get(name, 0)
    values["observables.pipeline.s"] = outer_times(recorder.spans).get(
        "observables.pipeline", 0.0)
    values["observables.self.s"] = own.get("observables.pipeline", 0.0)
    del values["trace.overhead_s"]
    return values


# ---------------------------------------------------------------------------
# Sizes of returned objects


def _is_matrix(obj) -> bool:
    return hasattr(obj, "nnz") or getattr(obj, "ndim", 0) == 2


def nnz(obj) -> int:
    """Nonzeros of the matrices in a returned object (sequences, dataclasses)."""
    if hasattr(obj, "nnz"):
        return int(obj.nnz)
    if getattr(obj, "ndim", 0) == 2:
        import numpy as np

        return int(np.count_nonzero(obj))
    if isinstance(obj, (tuple, list)):
        return sum(nnz(x) for x in obj if _is_matrix(x) or isinstance(x, list))
    if dataclasses.is_dataclass(obj):
        return sum(nnz(getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return 0


def nbytes(obj) -> int:
    """Computed storage of the matrices in a returned object, in bytes."""
    if isinstance(obj, (tuple, list)):
        return sum(nbytes(x) for x in obj)
    if hasattr(obj, "nnz"):
        parts = ("data", "indices", "indptr", "row", "col", "offsets")
        return sum(getattr(obj, p).nbytes for p in parts if hasattr(obj, p))
    return int(getattr(obj, "nbytes", 0))


def entries(obj) -> int:
    """Stored entries of a Gram: dense size, or nonzeros when sparse."""
    gram = getattr(obj, "gram", obj)
    return int(gram.nnz) if hasattr(gram, "nnz") else int(gram.size)


# ---------------------------------------------------------------------------
# Installation


def _traced(fn, layer: str, recorder: Recorder, size=None):
    """Wrap ``fn`` in a span of ``layer``; ``size(result)`` adds to ``size[0]``."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index, outermost = recorder.begin(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(index)
        if size is not None and outermost:
            recorder.counts[size[0]] += size[1](result)
        return result

    return traced


def _enumeration(fn, recorder: Recorder):
    """Span around a (cached) basis enumeration; states count only on a miss."""
    info = getattr(fn, "cache_info", None)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        before = info().misses if info else None
        index, _ = recorder.begin("diagrams.enumerate")
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end(index)
        if before is None or info().misses > before:
            recorder.counts["diagrams.enumerate.states"] += len(result)
        return result

    return traced


def _counted(fn, recorder: Recorder, name: str):
    """Count calls without a span (for functions called a million times)."""
    counts = recorder.counts

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    return counted


def _sparse_solver(fn, recorder: Recorder):
    """Span around ARPACK; a call with ``sigma`` also counts a factorization."""
    traced = _traced(fn, "spectral.eig_sparse", recorder)

    @functools.wraps(fn)
    def solve(*args, **kwargs):
        if kwargs.get("sigma") is not None or len(args) > 3 and args[3] is not None:
            recorder.counts["spectral.factorize.calls"] += 1
        return traced(*args, **kwargs)

    return solve


class _LinalgProxy:
    """Stands in for ``scipy.sparse.linalg`` inside one loopcells module."""

    def __init__(self, module, replacements: dict):
        self._module = module
        self.__dict__.update(replacements)

    def __getattr__(self, name):
        return getattr(self._module, name)


def _replace(modules, original, wrapper) -> None:
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(recorder: Recorder) -> list[str]:
    """Wrap the package's layer functions; returns the hooks that were not found.

    Call after the package and all of its submodules are imported.  Missing
    hooks (a later version renamed or removed a function) are skipped.
    """
    import scipy.sparse.linalg as spla

    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "loopcells" or name.startswith("loopcells."))]
    by_name = {m.__name__.rpartition(".")[2]: m for m in modules}
    missing: list[str] = []

    def original(module: str, name: str):
        fn = getattr(by_name.get(module), name, None)
        if fn is None:
            missing.append(f"{module}.{name}")
        return fn

    sizes = {
        "tl.generators": ("tl.generators.bytes", nbytes),
        "models.assemble": ("models.assemble.nnz", nnz),
        "forms.gram": ("forms.gram.entries", entries),
    }
    for layer, targets in LAYERS.items():
        for module, name in targets:
            fn = original(module, name)
            if fn is None:
                continue
            if layer == "diagrams.enumerate":
                wrapper = _enumeration(fn, recorder)
            else:
                wrapper = _traced(fn, layer, recorder, sizes.get(layer))
            _replace(modules, fn, wrapper)

    glue = original("diagrams", "glue")
    if glue is not None:
        _replace(modules, glue, _counted(glue, recorder, "diagrams.glue.calls"))
    operator = original("models", "TransferOperator")
    if operator is not None:
        operator.apply = _counted(operator.apply, recorder, "models.transfer_apply.calls")

    solvers = {
        "eigs": _sparse_solver(spla.eigs, recorder),
        "eigsh": _sparse_solver(spla.eigsh, recorder),
        "splu": _traced(spla.splu, "spectral.factorize", recorder),
    }
    for name, wrapper in solvers.items():
        _replace(modules, getattr(spla, name), wrapper)
    _replace(modules, spla, _LinalgProxy(spla, solvers))
    return missing
