"""The four benchmark workloads and their seeded task lists.

A task is one pipeline call: one ``b(L)``, one fit, one boundary entropy or
one ``percolation_check``.  The ladders are fixed; the seed only draws the
gauge rescalings (``cell_scale``, ``right_scale``/``left_scale`` from
U(0.2, 2.0), as in acceptance test 7) and the order of the independent tasks.
Every reference stays valid for any seed because ``b`` is gauge-invariant.

This module uses only the standard library: the parent process builds the
inputs here and hands them to a fresh interpreter as JSON.
"""

from __future__ import annotations

import random

SPIN_DENSE = (4, 8, 12)
#: The sparse spin path runs at this width with the dense limit lowered below
#: its sector dimension (924), so ``b_xxz`` takes the shift-invert/splu branch.
SPIN_SPARSE = 12
SPIN_SPARSE_DENSE_LIMIT = 512
POLYMER = (2, 4, 6, 8, 10)
POLYMER_FIT = (4, 6, 8, 10)
ISING_SIZES = (10, 12, 14, 16)
LOOP_SIZES = (8, 10, 12, 14)
LOOP_PAIRS = (
    (1.0, 1.0), (1.0, 1.5), (1.0, 0.5), (0.5, 0.5),
    (0.5, 1.0), (1.5, 1.5), (1.5, 1.0), (1.25, 0.8),
)
OPEN_SIZES = (4, 6, 8, 10)
DEFORMATIONS = (2.0, -1.0, 0.5)

WHY = {
    "spin-b": "b_xxz at L=4,8,12 on the dense SVD path and L=12 on the sparse "
              "shift-invert/splu path, plus the 1/L fit; no Gram",
    "polymer-b": "b_polymer at L=2..10 plus the fit; the dense block Jordan "
                 "solve at dim0 2188 dominates, with a small sparse dilute Gram",
    "boundary-entropy": "Ising entropies (eigsh) and 8 loop-model pairs; the "
                        "O(dim^2) loop-count Gram built cold once, then reused",
    "open-chain": "percolation_check and b_deformed for 3 deformations at "
                  "L=4..10; the only user of link_gram and open generators",
}


def _scale(rng: random.Random) -> float:
    return rng.uniform(0.2, 2.0)


def _spin(rng: random.Random) -> tuple[list[dict], list[dict]]:
    tasks = [
        {"id": f"b_xxz L={L}", "fn": "b_xxz", "L": L,
         "cell_scale": [_scale(rng), _scale(rng)]}
        for L in SPIN_DENSE
    ]
    tasks.append({
        "id": f"b_xxz L={SPIN_SPARSE} sparse", "fn": "b_xxz", "L": SPIN_SPARSE,
        "cell_scale": [_scale(rng), _scale(rng)],
        "dense_limit": SPIN_SPARSE_DENSE_LIMIT,
    })
    fit = {"id": "extrapolate_b xxz", "fn": "extrapolate_b", "model": "xxz",
           "inputs": [f"b_xxz L={L}" for L in SPIN_DENSE]}
    return tasks, [fit]


def _polymer(rng: random.Random) -> tuple[list[dict], list[dict]]:
    tasks = [
        {"id": f"b_polymer L={L}", "fn": "b_polymer", "L": L,
         "right_scale": _scale(rng), "left_scale": _scale(rng)}
        for L in POLYMER
    ]
    fit = {"id": "extrapolate_b polymer", "fn": "extrapolate_b", "model": "polymer",
           "inputs": [f"b_polymer L={L}" for L in POLYMER_FIT]}
    return tasks, [fit]


def _entropy(rng: random.Random) -> tuple[list[dict], list[dict]]:
    tasks = [
        {"id": f"ising {bc}", "fn": "ising_boundary_entropy", "bc": bc,
         "sizes": list(ISING_SIZES)}
        for bc in ("fixed", "free")
    ]
    tasks += [
        {"id": f"loop n={n} n1={n1}", "fn": "loop_boundary_entropy", "n": n,
         "n1": n1, "sizes": list(LOOP_SIZES)}
        for n, n1 in LOOP_PAIRS
    ]
    return tasks, []


def _open_chain(rng: random.Random) -> tuple[list[dict], list[dict]]:
    tasks = [
        {"id": f"percolation_check L={L}", "fn": "percolation_check", "L": L,
         "y_values": list(DEFORMATIONS)}
        for L in OPEN_SIZES
    ]
    tasks += [
        {"id": f"b_deformed L={L} y={y}", "fn": "b_deformed", "L": L, "y": y,
         "cell_scale": [_scale(rng), _scale(rng)]}
        for L in OPEN_SIZES
        for y in DEFORMATIONS
    ]
    return tasks, []


_BUILDERS = {
    "spin-b": _spin,
    "polymer-b": _polymer,
    "boundary-entropy": _entropy,
    "open-chain": _open_chain,
}

NAMES = tuple(_BUILDERS)


def make_tasks(workload: str, seed: int) -> list[dict]:
    """The seeded task list: shuffled independent tasks, then the fits."""
    rng = random.Random(f"{workload}:{seed}")
    tasks, fits = _BUILDERS[workload](rng)
    rng.shuffle(tasks)
    return tasks + fits
