"""End-to-end acceptance checks for the package's headline numerical claims.

One test per checklist item; each prints a visible PASS/FAIL line with the
measured deviations, then asserts the same conditions, so the suite both
reports and enforces the full gate.  The three iterative large-size groups
(spin widths 16/20, polymer widths 12/14, percolation widths 12/14) are opt-in via the
``LOOPCELLS_BEST_EFFORT`` environment variable, and the heaviest widths
additionally skip themselves on machines without enough free memory.
"""

from __future__ import annotations

import os
import time

import link_state_oracles as ls
import numpy as np
import operator_oracles as oracles
import pytest
from loop_form_oracles import loop_gram

from loopcells import diagrams as dg
from loopcells import fixtures as fx
from loopcells import forms, models
from loopcells import observables as obs
from loopcells import spectral, tl

RUN_BEST_EFFORT = bool(os.environ.get("LOOPCELLS_BEST_EFFORT"))

FIXTURE_TOL = 1e-10          # reference matrices and spectra
CLOSED_FORM_TOL = 1e-9       # widths with exact answers
TABLE_TOL = 1e-4             # finite-size regression values
ISING_FIXED_TOL = 5e-3       # universal boundary term, fixed spins
ISING_FREE_TOL = 1e-3        # universal boundary term, free spins
LOOP_ENTROPY_TOL = 5e-2      # lattice vs closed-form boundary entropy
CELL_EQUALITY_TOL = 1e-8     # deformed-chain b against the spin value
RELATION_TOL = 1e-12         # algebra relation residuals
ADJOINT_TOL = 1e-10          # bilinear-form self-adjointness defects
GAUGE_TOL = 1e-10            # b invariance under cell rescalings

XXZ_SIZES = (4, 8, 12)
POLYMER_SIZES = (2, 4, 6, 8, 10)
ENTROPY_SIZES = (12, 14, 16, 18)
LOOP_PAIRS = (
    (1.0, 1.0), (1.0, 1.5), (1.0, 0.5), (0.5, 0.5),
    (0.5, 1.0), (1.5, 1.5), (1.5, 1.0), (1.25, 0.8),
)
DEFORMATIONS = (2.0, -1.0, 0.5)


def announce(capsys, ok: bool, label: str, detail: str) -> None:
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {label}: {detail}")


@pytest.fixture(scope="module")
def xxz_b():
    return {L: obs.b_xxz(L) for L in XXZ_SIZES}


@pytest.fixture(scope="module")
def polymer_b():
    return {L: obs.b_polymer(L) for L in POLYMER_SIZES}


def test_1_reference_matrices_and_spectra(capsys):
    start = time.perf_counter()
    worst: dict[str, float] = {}

    H = models.build_xxz(4)[0].toarray()
    worst["H4"] = float(np.max(np.abs(H - fx.SPIN_L4_HAMILTONIAN)))

    clusters = spectral.full_spectrum(H)
    values = np.array([c.value for c in clusters])
    worst["spectrum"] = float(np.max(np.abs(values - fx.SPIN_L4_EIGENVALUES)))
    sizes_ok = [c.size for c in clusters] == [1, 1, 1, 2, 1]
    geometric_ok = oracles.geometric_multiplicity(H, fx.SPIN_L4_JORDAN_LEVEL) == 1

    row = models.build_dilute_T(2)
    worst["T2"] = float(np.max(np.abs(row.ket_row.matrix() - fx.dilute_T2())))

    built = tl.open_generators(4, 1.0)
    printed = fx.open_L4_generators(1.0)
    worst["e(geometric)"] = max(
        float(np.max(np.abs(b - p))) for b, p in zip(built, printed)
    )
    worst["e(deformed)"] = max(
        float(np.max(np.abs(b - p)))
        for y in DEFORMATIONS
        for b, p in zip(tl.open_generators(4, 1.0, y), fx.deformed_L4_generators(y))
    )

    elapsed = time.perf_counter() - start
    deviation = max(worst.values())
    ok = deviation < FIXTURE_TOL and sizes_ok and geometric_ok and elapsed < 1.0
    announce(
        capsys, ok,
        "1/7 reference matrices and spectra",
        f"max deviation {deviation:.2e}, multiplicities {'ok' if sizes_ok else 'WRONG'}, "
        f"degenerate level geometric mult {'1' if geometric_ok else 'WRONG'}, {elapsed:.2f} s",
    )
    assert deviation < FIXTURE_TOL
    assert sizes_ok and geometric_ok
    assert elapsed < 1.0


def test_2_closed_form_couplings(capsys):
    start = time.perf_counter()
    spin = obs.b_xxz(4).value
    spin_err = abs(spin - fx.B_XXZ_L4_EXACT)
    poly = obs.b_polymer(2).value
    poly_err = abs(poly - fx.b_polymer_l2_exact())
    elapsed = time.perf_counter() - start
    ok = spin_err < CLOSED_FORM_TOL and poly_err < CLOSED_FORM_TOL and elapsed < 1.0
    announce(
        capsys, ok,
        "2/7 closed-form couplings",
        f"spin b(4) = {spin:.10f} (err {spin_err:.2e}), "
        f"polymer b(2) = {poly:.10f} (err {poly_err:.2e}), {elapsed:.2f} s",
    )
    assert spin_err < CLOSED_FORM_TOL
    assert poly_err < CLOSED_FORM_TOL
    assert elapsed < 1.0


def test_3_finite_size_tables(capsys, xxz_b, polymer_b):
    start = time.perf_counter()
    spin_errs = {L: abs(xxz_b[L].value - fx.B_XXZ_TABLE[L]) for L in (8, 12)}
    poly_errs = {L: abs(polymer_b[L].value - fx.B_POLYMER_TABLE[L]) for L in (4, 6, 8, 10)}
    elapsed = time.perf_counter() - start
    ok = all(e < TABLE_TOL for e in spin_errs.values()) and all(
        e < TABLE_TOL for e in poly_errs.values()
    )
    announce(
        capsys, ok,
        "3/7 finite-size tables",
        "spin " + " ".join(f"L={L}:{e:.1e}" for L, e in spin_errs.items())
        + " | polymer " + " ".join(f"L={L}:{e:.1e}" for L, e in poly_errs.items())
        + f", {elapsed:.1f} s",
    )
    for e in (*spin_errs.values(), *poly_errs.values()):
        assert e < TABLE_TOL


def test_4_extrapolation_windows(capsys, xxz_b, polymer_b):
    spin_fit = obs.extrapolate_b(list(XXZ_SIZES), [xxz_b[L].value for L in XXZ_SIZES])
    poly_sizes = [L for L in POLYMER_SIZES if L >= 4]
    poly_fit = obs.extrapolate_b(poly_sizes, [polymer_b[L].value for L in poly_sizes])
    spin_lo, spin_hi = -0.63, -0.59
    poly_lo, poly_hi = 0.71, 0.87
    spin_ok = spin_lo <= spin_fit.value <= spin_hi
    poly_ok = poly_lo <= poly_fit.value <= poly_hi
    announce(
        capsys, spin_ok and poly_ok,
        "4/7 extrapolation windows",
        f"spin b_inf = {spin_fit.value:+.4f} in [{spin_lo}, {spin_hi}]: "
        f"{'yes' if spin_ok else 'NO'}; polymer b_inf = {poly_fit.value:+.4f} "
        f"in [{poly_lo}, {poly_hi}]: {'yes' if poly_ok else 'NO'}",
    )
    assert spin_ok
    assert poly_ok


def test_5_boundary_entropies(capsys):
    start = time.perf_counter()
    ising = obs.ising_boundary_entropies(ENTROPY_SIZES)
    fixed_err = abs(ising["fixed"].value - fx.ISING_FIXED_ENTROPY)
    free_err = abs(ising["free"].value)
    loop_errs = {
        (n, n1): obs.loop_boundary_entropy(n, n1, ENTROPY_SIZES).difference
        for n, n1 in LOOP_PAIRS
    }
    elapsed = time.perf_counter() - start
    loop_passing = sum(1 for e in loop_errs.values() if e < LOOP_ENTROPY_TOL)
    ok = fixed_err < ISING_FIXED_TOL and free_err < ISING_FREE_TOL and loop_passing >= 6
    announce(
        capsys, ok,
        "5/7 boundary entropies",
        f"Ising fixed err {fixed_err:.2e}, free magnitude {free_err:.2e}; "
        f"loop pairs within {LOOP_ENTROPY_TOL:g}: {loop_passing}/{len(LOOP_PAIRS)} "
        f"(worst {max(loop_errs.values()):.2e}), {elapsed:.0f} s",
    )
    assert fixed_err < ISING_FIXED_TOL
    assert free_err < ISING_FREE_TOL
    assert loop_passing >= 6


def test_6_percolation_has_no_cell_but_deformations_do(capsys, xxz_b):
    start = time.perf_counter()
    diagnostics = {}
    deformed_errs = {}
    for L in (4, 6, 8):
        report = obs.percolation_check(L, y_values=DEFORMATIONS)
        diagnostics[L] = (
            report.geometric_multiplicity == 2
            and report.nilpotent_norm < 1e-8
            and all(report.deformed_genuine.values())
        )
        values = {y: obs.b_deformed(L, y).value for y in DEFORMATIONS}
        if L % 4 == 0:
            # the spin value itself exists at these widths
            deformed_errs[L] = max(abs(v - xxz_b[L].value) for v in values.values())
        else:
            # width six has no spin counterpart; the deformations realize the
            # same representation for every y != 1, so they must agree pairwise
            spread = max(values.values()) - min(values.values())
            deformed_errs[L] = spread
    elapsed = time.perf_counter() - start
    ok = all(diagnostics.values()) and all(
        e < CELL_EQUALITY_TOL for e in deformed_errs.values()
    )
    announce(
        capsys, ok,
        "6/7 undeformed level diagonalizable, deformed cells match the spin b",
        "structure " + " ".join(f"L={L}:{'ok' if good else 'WRONG'}" for L, good in diagnostics.items())
        + " | b equality " + " ".join(f"L={L}:{e:.1e}" for L, e in deformed_errs.items())
        + f", {elapsed:.0f} s",
    )
    assert all(diagnostics.values())
    for e in deformed_errs.values():
        assert e < CELL_EQUALITY_TOL


def test_7_property_suites(capsys, xxz_b, polymer_b):
    start = time.perf_counter()

    residual = 0.0
    for L in (2, 4, 6, 8):
        residual = max(residual, oracles.check_relations_chain(tl.open_generators(L, 1.0), 1.0))
        residual = max(residual, oracles.check_relations_chain(tl.open_generators(L, 1.3), 1.3))
        for y in DEFORMATIONS:
            residual = max(
                residual, oracles.check_relations_chain(tl.open_generators(L, 1.0, y), 1.0)
            )
        if L >= 4:
            # the two-site ring repeats the same bond, so the adjacent-pair
            # relations only apply from width four on
            n_dense = 1.2
            residual = max(
                residual,
                oracles.check_relations_periodic(tl.dense_generators(L, n_dense), n_dense),
            )
        q = fx.Q_VALUE
        masks = tl.spin_sector_basis(L, L // 2)
        residual = max(
            residual, oracles.check_relations_chain(oracles.spin_generators(L, q, masks), q + 1 / q)
        )

    adjoint = 0.0
    for L in (4, 6, 8):
        H, masks = models.build_xxz(L)
        adjoint = max(
            adjoint,
            oracles.adjointness_matrix_defect(H.toarray(), np.eye(len(masks))),
        )
        Hp = models.build_percolation_H(L, 1.0)
        adjoint = max(
            adjoint, oracles.adjointness_matrix_defect(Hp, forms.link_gram(L, 1.0))
        )

    rng = np.random.default_rng(20260816)
    gauge = 0.0
    scale = complex(*rng.uniform(0.2, 2.0, 2))
    gauge = max(gauge, abs(obs.b_xxz(4, cell_scale=scale).value - xxz_b[4].value))
    r_scale, l_scale = rng.uniform(0.2, 2.0, 2)
    gauge = max(
        gauge,
        abs(
            obs.b_polymer(4, right_scale=r_scale, left_scale=l_scale).value
            - polymer_b[4].value
        ),
    )
    base_deformed = obs.b_deformed(4, 2.0).value
    gauge = max(
        gauge,
        abs(obs.b_deformed(4, 2.0, cell_scale=complex(*rng.uniform(0.2, 2.0, 2))).value
            - base_deformed),
    )

    basis = ls.states(dg._dense_sites(6))
    i = basis.index(ls.from_text("()(())"))
    j = basis.index(ls.from_text("(()())"))
    gram_err = 0.0
    for n in (0.3, 1.0, 2.0):
        gram = loop_gram(6, n)
        gram_err = max(gram_err, abs(gram[i, j] - n**2))
        vec = np.zeros(len(gram))
        vec[i], vec[j] = 1.0, -1.0
        gram_err = max(
            gram_err, abs(vec @ (gram @ vec) - 2 * n**2 * (n - 1))
        )

    elapsed = time.perf_counter() - start
    ok = (
        residual < RELATION_TOL
        and adjoint < ADJOINT_TOL
        and gauge < GAUGE_TOL
        and gram_err < 1e-12
    )
    announce(
        capsys, ok,
        "7/7 property suites",
        f"relation residual {residual:.1e}, self-adjointness defect {adjoint:.1e}, "
        f"rescaling sensitivity {gauge:.1e}, pairing examples {gram_err:.1e}, {elapsed:.0f} s",
    )
    assert residual < RELATION_TOL
    assert adjoint < ADJOINT_TOL
    assert gauge < GAUGE_TOL
    assert gram_err < 1e-12


def _available_memory_gib() -> float:
    """Best available estimate of free memory, in GiB (inf when unknown)."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) / 2**20
    except OSError:
        pass
    return float("inf")


# Memory each heavy width needs, in GiB.  The width-20 spin chain does not
# fit under a 5 GB address-space limit even in its reflection-flip sector
# (92,890 states): the first sparse LU ran out at column 24,686 of 92,890,
# so 8 GiB is a floor, not a measurement.  The width-14 polymer cell
# factors nothing, and its row is applied tile by tile without forming
# its half-rows: a pytest process running polymer widths 12 and 14
# together peaked at 0.37 GiB with one BLAS thread under a 5 GB
# address-space limit (1.72 GiB while the half-rows were formed), so
# 1.2 GiB leaves the same 0.8 GiB of room as before.  Lighter widths,
# spin 16 (0.21 GiB) among them, are not checked.
_HEAVY_WIDTH_GIB = {("spin", 20): 8.0, ("polymer", 14): 1.2}


def _skip_without_memory(model: str, L: int) -> None:
    need = _HEAVY_WIDTH_GIB.get((model, L))
    if need is not None and _available_memory_gib() < need:
        pytest.skip(f"{model} width {L} needs roughly {need:g} GiB of memory")


@pytest.mark.skipif(not RUN_BEST_EFFORT, reason="set LOOPCELLS_BEST_EFFORT=1 to run")
@pytest.mark.parametrize("L", (16, 20))
def test_best_effort_spin_sizes(capsys, L):
    _skip_without_memory("spin", L)
    err = abs(obs.b_xxz(L).value - fx.B_XXZ_TABLE[L])
    announce(capsys, err < TABLE_TOL, f"best-effort spin width {L}", f"deviation {err:.1e}")
    assert err < TABLE_TOL


@pytest.mark.skipif(not RUN_BEST_EFFORT, reason="set LOOPCELLS_BEST_EFFORT=1 to run")
@pytest.mark.parametrize("L", (12, 14))
def test_best_effort_polymer_sizes(capsys, L):
    _skip_without_memory("polymer", L)
    err = abs(obs.b_polymer(L).value - fx.B_POLYMER_TABLE[L])
    announce(capsys, err < TABLE_TOL, f"best-effort polymer width {L}", f"deviation {err:.1e}")
    assert err < TABLE_TOL


@pytest.mark.skipif(not RUN_BEST_EFFORT, reason="set LOOPCELLS_BEST_EFFORT=1 to run")
@pytest.mark.parametrize("L", (12, 14))
def test_best_effort_percolation_sizes(capsys, xxz_b, L):
    # test 6 at widths 12 and 14: the probes and b_deformed of one (L, y)
    # read the same solve of the chain and the same cell, certified once
    report = obs.percolation_check(L, y_values=DEFORMATIONS)
    structure = (
        report.diagonalizable
        and report.geometric_multiplicity == 2
        and report.nilpotent_norm < 1e-8
        and all(report.deformed_genuine.values())
    )
    values = [obs.b_deformed(L, y).value for y in DEFORMATIONS]
    if L % 4 == 0:
        err = max(abs(v - xxz_b[L].value) for v in values)
    else:
        # no spin counterpart: the deformations must agree pairwise
        err = max(values) - min(values)
    announce(
        capsys, structure and err < CELL_EQUALITY_TOL, f"best-effort percolation width {L}",
        f"structure {'ok' if structure else 'WRONG'}, b equality {err:.1e}",
    )
    assert structure
    assert err < CELL_EQUALITY_TOL
