"""Tests for the b measurements, extrapolation, and boundary entropies."""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import link_state_oracles as ls
import numpy as np
import operator_oracles as oracles
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from loop_form_oracles import loop_count_matrix, loop_normalized, loop_pairing, singlet_factor
from scipy.optimize import OptimizeWarning, brentq, curve_fit

import loopcells
from loopcells import diagrams as dg
from loopcells import fixtures as fx
from loopcells import forms, models, spectral, tl
from loopcells import observables as obs


def row_basis_oracle(L: int) -> tuple[ls.LinkState, ...]:
    """The zero- and two-string states of the even dilute basis, in its order."""
    return tuple(s for s in ls.states(dg._path_sites(L, True, L, 0)) if s.n_strings <= 2)


def loop_count_gram(L: int, n: float) -> np.ndarray:
    """The weight-``n`` loop Gram from diagrammatic loop counts (the oracle)."""
    counts = loop_count_matrix(dg._dense_sites(L))
    return np.power(n, counts.astype(np.float64))


def entropy_at(n: float, r: float) -> float:
    """The boundary entropy of :func:`loopcells.observables.loop_entropy_exact` at a given ``r``."""
    gamma = float(np.arccos(n / 2))
    g = 1 - gamma / np.pi
    value = (
        (2 * g) ** -0.25
        * (np.sin(r * gamma / g) / np.sin(r * gamma))
        * np.sqrt(np.sin(gamma) / np.sin(gamma / g))
    )
    return float(-np.log(value))


IMPORT_FOOTPRINT = """
import importlib, pkgutil, sys
import loopcells
for info in pkgutil.iter_modules(loopcells.__path__):
    importlib.import_module(f"loopcells.{info.name}")
from loopcells import observables as obs
obs.extrapolate_b([4, 8, 12], [-1.36, -0.87, -0.75])
obs.extrapolate_b([4, 8, 12, 16, 20], [-1.36, -0.87, -0.75, -0.71, -0.68])
obs.loop_entropy_exact(1.0, 1.5)
print(",".join(m for m in ("scipy.optimize", "scipy.special", "scipy.fft") if m in sys.modules))
"""


def test_package_loads_no_optimizer():
    # a fresh interpreter: the oracles of this module import scipy.optimize
    src = str(Path(obs.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_FOOTPRINT], capture_output=True, text=True,
        check=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == ""


class TestTrousers:
    def test_spin_width_four_matches_published_components(self):
        t = obs.trousers_xxz(4)
        np.testing.assert_allclose(t.vector, fx.SPIN_L4_TROUSERS, atol=1e-12)
        assert t.model == "xxz" and t.L == 4

    def test_dilute_all_empty_component_is_one(self):
        basis = row_basis_oracle(4)
        empty = next(k for k, s in enumerate(basis) if not any(s.occupied_mask))
        for side in ("left", "right"):
            t = obs.trousers_dilute(4, side=side)
            assert len(t.vector) == len(basis)
            assert t.vector[empty] == pytest.approx(1.0)

    def test_dilute_vector_lives_in_zero_string_sector(self):
        basis = row_basis_oracle(6)
        for side in ("left", "right"):
            t = obs.trousers_dilute(6, side=side)
            assert len(t.vector) == len(basis)
            for coeff, state in zip(t.vector, basis):
                if state.n_strings:
                    assert coeff == 0.0

    @pytest.mark.parametrize("side", ["rigth", "", "banana"])
    def test_dilute_side_must_be_left_or_right(self, side):
        with pytest.raises(ValueError, match="side must be"):
            obs.trousers_dilute(4, side=side)

    @pytest.mark.parametrize("half", [2, 3])
    def test_bra_ground_off_the_bra_row_is_refused(self, half, monkeypatch):
        # a half-width ground kicked off the ket-row eigenvector leaves its
        # image under the lower half-row off the bra row lower @ upper
        perron = spectral.perron_pair

        def kicked(M, **kwargs):
            lam, v = perron(M, **kwargs)
            return lam, v + 0.05 * np.arange(len(v))

        monkeypatch.setattr(spectral, "perron_pair", kicked)
        with pytest.raises(ArithmeticError, match="fails the bra row"):
            obs._dilute_trousers(models.build_dilute_T(half), models.build_dilute_T(2 * half).basis)

    def test_vanishing_bra_ground_is_refused(self):
        row = models.build_dilute_T(2)
        maps = oracles.tile_maps(row.lower)
        zero = models.TransferOperator([(0 * s, c, r, 0 * m) for s, c, r, m in maps])
        fake = models.TransferRow(row.basis, zero, row.upper)
        with pytest.raises(ArithmeticError, match="annihilates"):
            obs._dilute_trousers(fake, models.build_dilute_T(4).basis)

    def test_dilute_width_must_be_even(self):
        with pytest.raises(ValueError, match="even"):
            obs.trousers_dilute(3)

    def test_open_chain_trousers_exist(self):
        t = obs.trousers_open(4, 2.0)
        assert t.vector.shape == (6,)
        assert np.linalg.norm(t.vector) > 0

    @pytest.mark.parametrize("y", [1.0, 2.0])
    def test_open_chain_trousers_at_width_two(self, y):
        # the half chain has one site and no generators
        t = obs.trousers_open(2, y)
        basis = ls.states(dg._open_sites(2))
        assert t.vector.shape == (2,)
        assert t.vector[basis.index(ls.from_text("()"))] == 0
        assert abs(t.vector[basis.index(ls.from_text("||"))]) > 0


class TestSpinChainB:
    def test_width_four_equals_closed_form(self):
        m = obs.b_xxz(4)
        assert m.value == pytest.approx(fx.B_XXZ_L4_EXACT, abs=1e-9)
        assert m.imag_defect < 1e-10
        assert m.gauge_sensitivity < 1e-10

    def test_invariant_under_cell_rescaling(self):
        base = obs.b_xxz(4).value
        for scale in (0.7 + 0.3j, 13.0, -2.0):
            assert obs.b_xxz(4, cell_scale=scale).value == pytest.approx(base, abs=1e-10)

    def test_width_must_be_multiple_of_four(self):
        with pytest.raises(ValueError, match="multiple of 4"):
            obs.b_xxz(6)
        # multiples of four below two have no zero-magnetization chain
        for L in (0, -4):
            with pytest.raises(ValueError, match="needs even L"):
                obs.b_xxz(L)

    def test_width_eight_matches_table(self):
        m = obs.b_xxz(8)
        assert m.value == pytest.approx(fx.B_XXZ_TABLE[8], abs=1e-4)
        assert 0 < m.delta < 2.5

    @pytest.mark.parametrize(
        "L, expected",
        [(8, -0.8702992252199105), (12, -0.7540116291682993)],
        ids=["L8", "L12"],
    )
    def test_matches_the_dense_svd_values(self, L, expected):
        # captured from the former dense SVD/lstsq path, which decomposed
        # the whole sector; the defective pair splits by ~sqrt(eps), so
        # cluster means from different eigensolvers may differ at ~1e-9
        assert obs.b_xxz(L).value == pytest.approx(expected, abs=1e-7)


def full_chain_b_xxz(L: int, cell_scale: complex = 1.0) -> obs.BMeasurement:
    """b from the whole zero-magnetization chain at its fourth level (the oracle).

    This is the spin pipeline before the reflection-flip sector: the cell
    and the ground state are solved on the full chain.
    """
    q = fx.Q_VALUE
    H, masks = models.build_xxz(L, q)
    half_H, half_masks = models.build_xxz(L // 2, q)
    _, g, _ = obs._ground(obs._low_spectrum(half_H, L // 2), np.eye(len(half_masks)))
    half = np.array(half_masks)
    rows = dg._lookup(np.array(masks))(((half[:, None] << L // 2) | half).ravel())
    product = obs._place(rows, g, g, len(masks))
    spectrum = obs._low_spectrum(H, L)
    identity = sp.identity(len(masks), format="csr")
    _, cell = obs._level_cell(L, H, spectrum, 3, identity, 1e-5)
    return obs._chain_b("xxz", L, obs._Chain(H, identity, product, spectrum), cell, cell_scale)


def kick_spin_chain(monkeypatch, L: int, sign: int) -> None:
    """Kick the diagonal of the width-L spin chain so it no longer commutes with the reflection-flip.

    The first mask of a two-mask orbit gets ``1e-3`` and its image
    ``sign * 1e-3``.  With ``sign = 0`` the sector operator ``S^T H S`` sees
    the kick; with ``sign = -1`` (P-odd) it cannot, so the chain and its
    cell solve and the lifted cell fails the full chain.
    """
    build = models.build_xxz
    masks = np.array(build(L)[1])
    images = dg._lookup(masks)(models.reflect_flip(masks, L))
    k = int(np.flatnonzero(images != np.arange(len(masks)))[0])

    def kicked(width, q=None):
        H, masks = build(width, q)
        if width == L:
            H = H.tolil()
            H[k, k] += 1e-3
            H[images[k], images[k]] += sign * 1e-3
            H = H.tocsr()
        return H, masks

    monkeypatch.setattr(models, "build_xxz", kicked)


class TestSpinSector:
    @pytest.mark.parametrize("L", [4, 8, 12])
    def test_matches_the_full_chain(self, L):
        got, expect = obs.b_xxz(L, cell_scale=0.7 - 0.2j), full_chain_b_xxz(L)
        assert got.value == pytest.approx(expect.value, abs=1e-10)
        assert got.delta == pytest.approx(expect.delta, abs=1e-10)
        assert got.level == pytest.approx(expect.level, abs=1e-10)
        assert got.gauge_sensitivity < 1e-10 and expect.gauge_sensitivity < 1e-10

    def test_cell_is_the_third_sector_level(self):
        chain = obs._xxz_chain(8, fx.Q_VALUE)
        cluster, cell = obs._xxz_cell(8, fx.Q_VALUE, 1e-5)
        assert cluster == obs._level(chain.spectrum, 2, 1e-5) and cell.value == cluster.value
        assert chain.H.shape == (43, 43)

    @pytest.mark.parametrize(
        "sign, error, match",
        [
            # one mask of a two-mask orbit: S^T H S sees the kick, which
            # splits the cell's cluster
            (0, spectral.ClusterSizeError, "not a double cluster"),
            # P-odd, the two masks of one orbit in opposite directions:
            # S^T H S cannot see it, so the lifted cell misses the full chain
            (-1, ArithmeticError, "L=8 spin chain .* fails the full chain"),
        ],
        ids=["one-sided", "P-odd"],
    )
    def test_chain_breaking_the_symmetry_is_refused(self, monkeypatch, sign, error, match):
        kick_spin_chain(monkeypatch, 8, sign)
        with pytest.raises(error, match=match):
            obs.b_xxz(8)

    def test_odd_state_is_refused(self):
        # an exact eigenvector that is odd under the reflection-flip passes
        # the residual and fails the odd-part check
        L = 4
        H, masks = models.build_xxz(L)
        masks = np.array(masks)
        mirror = dg._lookup(masks)(models.reflect_flip(masks, L))
        vals, vecs = np.linalg.eig(H.toarray())
        parity = np.array([vecs[mirror, k] @ vecs[:, k].conj() for k in range(len(vals))])
        k = int(np.argmin(parity.real))
        assert parity[k].real < -0.99
        certify = obs._lift_certificate(H, lambda u: u, mirror, "test")
        certify(vals[int(np.argmax(parity.real))], vecs[:, int(np.argmax(parity.real))])
        with pytest.raises(ArithmeticError, match="odd part"):
            certify(vals[k], vecs[:, k])


# b_polymer(L) value, delta and level from the solver that extracted the bra
# cell by a second block solve on the bra row
POLYMER_GOLDEN = {
    2: (0.6808010400707563, 1.3540055217936988, 0.08578643762690495),
    4: (0.6643131944800545, 1.6301102900764923, 0.22801439777483842),
    6: (0.6703192581103377, 1.7399207222187143, 0.349254044659375),
    8: (0.6789299920824888, 1.8000433309512187, 0.44209549760207467),
    10: (0.6875346549793578, 1.8379780242320867, 0.5133770701065583),
}


def stacked_to_row(row, idx0, idx2, stacked):
    """A stacked zero-string/two-string vector on the full row basis."""
    out = np.zeros(len(row.basis))
    out[idx0] = stacked[: len(idx0)]
    out[idx2] = stacked[len(idx0):]
    return out


def ket_row_cell(L):
    """The width-L dilute row, its ket-row cell, and the cell on the row basis."""
    row = models.build_dilute_T(L)
    T00, T02, T22, idx0, idx2 = models.dilute_blocks(row)
    cell, _ = spectral.block_jordan_cell(T00, T02, T22)
    v = stacked_to_row(row, idx0, idx2, cell.vector)
    w = stacked_to_row(row, idx0, idx2, cell.partner)
    return row, cell, v, w


class TestPolymerB:
    def test_width_two_equals_closed_form(self):
        m = obs.b_polymer(2)
        assert m.value == pytest.approx(fx.b_polymer_l2_exact(), abs=1e-12)

    @pytest.mark.parametrize("L", [4, 6])
    def test_delta_reads_the_cells_leading_ritz_value(self, L, monkeypatch):
        # no eigensolve of b_polymer's own: delta comes from the Perron
        # value of T00 that the cell solve's Ritz values already hold
        m = obs.b_polymer(L)
        T00 = models.dilute_blocks(models.build_dilute_T(L))[0]
        lam0, _ = spectral.perron_pair(T00)
        assert m.delta == pytest.approx(spectral.transfer_delta(L, m.level.real, lam0), abs=1e-12)
        calls = count_calls(monkeypatch, spectral, "perron_pair")
        obs.b_polymer(L)
        # T22 in the cell, and the half-width ground of the trousers
        assert len(calls) == 2

    @pytest.mark.parametrize("kick", ["vector", "value"])
    def test_uncertified_leading_ritz_pair_is_refused(self, kick, monkeypatch):
        solve = spectral.block_jordan_cell

        def kicked(*blocks):
            cell, (lam0, u0) = solve(*blocks)
            if kick == "vector":
                return cell, (lam0, u0 + 1e-6 * np.arange(len(u0)))
            return cell, (0.5 * cell.value, u0)

        monkeypatch.setattr(spectral, "block_jordan_cell", kicked)
        with pytest.raises(ArithmeticError, match="not a Perron value above"):
            obs.b_polymer(6)

    def test_invariant_under_cell_rescaling(self):
        base = obs.b_polymer(4).value
        assert obs.b_polymer(4, right_scale=3.7).value == pytest.approx(base, abs=1e-10)
        assert obs.b_polymer(4, left_scale=-0.4).value == pytest.approx(base, abs=1e-10)
        assert obs.b_polymer(4, right_scale=2.0, left_scale=5.0).value == pytest.approx(
            base, abs=1e-10
        )

    def test_builds_no_link_state(self, monkeypatch):
        # every basis is generated as a site array: with every store emptied
        # and every LinkState construction of the tests' oracle refused,
        # every pipeline still runs to the same values
        def refuse(*args, **kwargs):
            raise AssertionError("a LinkState was built")

        def percolation(L):
            report = obs.percolation_check(L)
            return [report.level, report.geometric_multiplicity, report.nilpotent_norm,
                    *report.deformed_genuine.values()]

        runs = [
            lambda: obs.b_polymer(6).value,
            lambda: obs.b_deformed(6, 2.0).value,
            lambda: percolation(6),
            lambda: obs.trousers_open(6, 2.0).vector,
            lambda: obs.loop_boundary_entropy(1.0, 1.5, (8, 10)).fit.value,
            lambda: obs.b_xxz(8).value,
            lambda: obs.ising_boundary_entropy((8, 10)).value,
        ]
        expect = [run() for run in runs]
        for kept in dg._STORES:
            kept.store.clear()
        monkeypatch.setattr(ls.LinkState, "__init__", refuse)
        for run, value in zip(runs, expect):
            np.testing.assert_allclose(run(), value, rtol=0, atol=1e-12)
        with pytest.raises(AssertionError, match="LinkState was built"):
            ls.states(dg.dilute_row_sites(6))

    def test_width_four_matches_table(self):
        assert obs.b_polymer(4).value == pytest.approx(fx.B_POLYMER_TABLE[4], abs=1e-4)

    def test_width_must_be_even(self):
        with pytest.raises(ValueError, match="even"):
            obs.b_polymer(3)

    @pytest.mark.parametrize("L", sorted(POLYMER_GOLDEN))
    def test_matches_the_two_solve_values(self, L):
        value, delta, level = POLYMER_GOLDEN[L]
        m = obs.b_polymer(L)
        assert m.value == pytest.approx(value, abs=1e-12)
        assert m.delta == pytest.approx(delta, abs=1e-12)
        assert m.level == pytest.approx(level, abs=1e-12)

    @pytest.mark.parametrize("L", [2, 4, 6, 8])
    def test_bra_cell_matches_a_bra_row_solve(self, L):
        row, cell, v, w = ket_row_cell(L)
        lam = cell.value
        left = obs._bra_cell(row, lam, v, w, row.lower)
        # the bra row lower @ upper is the ket row of the swapped halves
        swapped = models.TransferRow(row.basis, row.upper, row.lower)
        M00, M02, M22, idx0, idx2 = models.dilute_blocks(swapped)
        oracle, _ = spectral.block_jordan_cell(M00, M02, M22)
        u = stacked_to_row(row, idx0, idx2, oracle.vector)
        cos = abs(np.vdot(u, left.vector)) / (np.linalg.norm(u) * np.linalg.norm(left.vector))
        assert 1 - cos < 1e-12
        assert oracle.value == pytest.approx(lam, rel=1e-12)
        relation = row.bra_row @ left.partner - lam * left.partner - left.vector
        assert np.linalg.norm(relation) <= 1e-10 * np.linalg.norm(left.vector)

    @pytest.mark.parametrize("L", [2, 4, 6, 8])
    def test_wrong_intertwiner_is_refused(self, L):
        # the upper half-row does not carry ket-row cells to bra-row cells
        row, cell, v, w = ket_row_cell(L)
        lam = cell.value
        with pytest.raises(ArithmeticError):
            obs._bra_cell(row, lam, v, w, row.upper)

    @pytest.mark.parametrize("L", [2, 4, 6, 8])
    def test_perturbed_partner_is_refused(self, L):
        # a perturbation of the partner by 1e-6 of its norm reaches the
        # mapped partner and breaks its residual
        row, cell, v, w = ket_row_cell(L)
        lam = cell.value
        kick = np.random.default_rng(L).standard_normal(len(w))
        kick *= 1e-6 * np.linalg.norm(w) / np.linalg.norm(kick)
        with pytest.raises(ArithmeticError):
            obs._bra_cell(row, lam, v, w + kick, row.lower)


class TestCellResidual:
    @pytest.mark.parametrize(
        "measure",
        [lambda: obs.b_xxz(4), lambda: obs.b_polymer(4), lambda: obs.b_deformed(4, 2.0)],
        ids=["xxz", "polymer", "deformed"],
    )
    def test_measurements_carry_small_cell_residuals(self, measure):
        m = measure()
        assert 0.0 <= m.cell_residual < 1e-8

    @pytest.mark.parametrize("L", [2, 6])
    def test_polymer_residual_covers_both_cells(self, L):
        # at L=2 the bra image has the larger residual, at L=6 the ket cell
        row, ket, v, w = ket_row_cell(L)
        bra = obs._bra_cell(row, ket.value, v, w, row.lower)
        assert obs.b_polymer(L).cell_residual == max(ket.residual_w, bra.residual_w)


class TestDeformedB:
    @pytest.mark.parametrize("y", [2.0, -1.0, 0.5])
    def test_agrees_with_spin_chain(self, y):
        assert obs.b_deformed(4, y).value == pytest.approx(obs.b_xxz(4).value, abs=1e-8)

    def test_invariant_under_cell_rescaling(self):
        base = obs.b_deformed(4, 2.0).value
        assert obs.b_deformed(4, 2.0, cell_scale=0.3 - 1.1j).value == pytest.approx(
            base, abs=1e-10
        )

    def test_undeformed_point_has_no_cell(self):
        with pytest.raises(spectral.DiagonalizableLevelError):
            obs.b_deformed(4, 1.0)

    @pytest.mark.parametrize("L", [6, 8, 10])
    def test_undeformed_point_is_refused_on_the_spectral_block(self, L, factor_dtypes):
        # the two eigenvectors of the y=1 cluster both lie in the kernel;
        # only ARPACK's shift is factored (none on the dense spectrum, L <= 8)
        with pytest.raises(spectral.DiagonalizableLevelError, match="kernel dimension 2"):
            obs.b_deformed(L, 1.0)
        assert len(factor_dtypes) == (L > 8)

    @pytest.mark.parametrize("chain, L", [("_xxz_chain", 8), ("_xxz_chain", 12), ("_open_chain", 10)])
    def test_border_form_that_does_not_intertwine_is_refused(self, monkeypatch, chain, L):
        # scaling the columns of the form breaks G H = H^T G, so conj(G v)
        # is no left kernel vector and may not border the partner system;
        # the open chain's cell is bordered by the link form it builds
        def bent(form, dim):
            return form @ np.diag(np.random.default_rng(4).uniform(0.5, 1.5, dim))

        if chain == "_xxz_chain":
            build = obs._xxz_chain

            def bent_chain(*args):
                built = build(*args)
                return built._replace(gram=bent(built.gram, built.H.shape[0]))

            monkeypatch.setattr(obs, chain, bent_chain)
            measure = obs.b_xxz
        else:
            link_form = forms.link_form
            monkeypatch.setattr(
                forms, "link_form", lambda L, y: bent(link_form(L, y), len(dg._open_sites(L)))
            )
            measure = lambda L: obs.b_deformed(L, 2.0)  # noqa: E731
        with pytest.raises(ArithmeticError, match="left residual"):
            measure(L)

    def test_border_form_that_annihilates_the_kernel_vector_is_refused(self, monkeypatch):
        # the half chain's form is kept, so only the cell's border vanishes
        link_form = forms.link_form
        monkeypatch.setattr(
            forms, "link_form", lambda L, y: sp.csr_matrix((70, 70)) if L == 8 else link_form(L, y)
        )
        with pytest.raises(ArithmeticError, match="annihilates"):
            obs.b_deformed(8, 2.0)

    def test_width_must_be_even(self):
        with pytest.raises(ValueError, match="even"):
            obs.b_deformed(5, 2.0)

    def test_width_twelve_agrees_across_deformations(self):
        values = [obs.b_deformed(12, y).value for y in (2.0, -1.0, 0.5)]
        assert max(values) - min(values) < 1e-8
        for value in values:
            assert value == pytest.approx(fx.B_XXZ_TABLE[12], abs=1e-4)

    @pytest.mark.parametrize("y", [2.0, -1.0, 0.5])
    @pytest.mark.parametrize("L", [4, 6, 8, 10])
    def test_real_chain_matches_complex_arithmetic(self, L, y, factor_dtypes):
        # a real chain is factored in float64 throughout; the same chain
        # built with a complex y runs in complex arithmetic
        real = obs.b_deformed(L, y)
        assert factor_dtypes and set(factor_dtypes) == {np.dtype(np.float64)}
        factor_dtypes.clear()
        assert obs.b_deformed(L, complex(y, 0.0)).value == pytest.approx(real.value, abs=1e-10)
        assert set(factor_dtypes) == {np.dtype(np.complex128)}

    def test_width_two_has_no_fourth_level(self):
        with pytest.raises(ValueError, match="only 2 distinct levels"):
            obs.b_deformed(2, 2.0)
        with pytest.raises(ValueError, match="only 2 distinct levels"):
            obs.percolation_check(2)


# captured before the trousers builders and chain pipelines were merged
GOLDEN = json.loads(Path(__file__).with_name("golden_values.json").read_text())


def golden_vector(entry):
    vec = np.zeros(entry["dim"], dtype=complex)
    vec[entry["index"]] = np.asarray(entry["real"]) + 1j * np.asarray(entry.get("imag", 0.0))
    return vec


def assert_golden_b(m, entry):
    value, delta, level_re, level_im = entry
    assert m.value == pytest.approx(value, abs=1e-12)
    assert m.delta == pytest.approx(delta, abs=1e-12)
    assert m.level == pytest.approx(complex(level_re, level_im), abs=1e-12)


class TestGoldenValues:
    @pytest.mark.parametrize("L", [4, 8, 12])
    def test_b_xxz(self, L):
        assert_golden_b(obs.b_xxz(L), GOLDEN["b_xxz"][str(L)])

    @pytest.mark.parametrize("y", [2.0, -1.0, 0.5])
    @pytest.mark.parametrize("L", [4, 6, 8, 10])
    def test_b_deformed(self, L, y):
        assert_golden_b(obs.b_deformed(L, y), GOLDEN["b_deformed"][f"{L},{y}"])

    @pytest.mark.parametrize("y", [None, 2.0, -1.0, 0.5], ids=["xxz", "y=2", "y=-1", "y=0.5"])
    def test_arpack_spectrum_matches_lapack(self, monkeypatch, y):
        # below a lowered threshold ARPACK solves the width-8 chains, and
        # the 6-state half chains stay dense
        def measure():
            return obs.b_xxz(8) if y is None else obs.b_deformed(8, y)

        dense = measure()
        # the dense solves of the chains and their cells are kept; solve and
        # build them again
        for kept in (obs._xxz_chain, obs._xxz_cell, obs._open_solve, obs._open_cell):
            kept.store.clear()
        solved = []
        low_spectrum = obs._low_spectrum

        def recorded(H, L):
            vals, vecs = low_spectrum(H, L)
            solved.append((H.shape[0], len(vals)))
            return vals, vecs

        monkeypatch.setattr(obs, "_low_spectrum", recorded)
        monkeypatch.setattr(obs, "_DENSE_SPECTRUM_STATES", 10)
        sparse = measure()
        assert sorted(solved)[0] == (6, 6)
        assert any(states > 10 and pairs == 6 for states, pairs in solved)
        assert sparse.value == pytest.approx(dense.value, abs=1e-10)

    def test_trousers_xxz(self):
        expect = golden_vector(GOLDEN["trousers_xxz"]["8"])
        np.testing.assert_allclose(obs.trousers_xxz(8).vector, expect, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("L", [4, 6, 8])
    def test_trousers_open(self, L):
        expect = golden_vector(GOLDEN["trousers_open_y2"][str(L)])
        np.testing.assert_allclose(obs.trousers_open(L, 2.0).vector, expect, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("L", [2, 4, 6, 8, 10])
    def test_trousers_dilute(self, L, side):
        # the left side was a second power iteration on the bra row: the
        # oracle for the bra ground mapped through the lower half-row
        expect = golden_vector(GOLDEN["trousers_dilute"][f"{L},{side}"])
        got = obs.trousers_dilute(L, side=side)
        assert got.side == side
        np.testing.assert_allclose(got.vector, expect, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "chain, L",
        [("xxz", 4), ("xxz", 8), ("open", 4), ("open", 6), ("open", 8)],
    )
    def test_chain_ground_matches_dense_reference(self, chain, L):
        H, gram, *_ = obs._xxz_chain(L, fx.Q_VALUE) if chain == "xxz" else obs._open_chain(L, 2.0)
        e0, v0, g_v0 = obs._ground(obs._low_spectrum(H, L), gram)
        lam, ref = spectral.ground_state(H, "min", gram=gram)
        assert abs(e0 - lam) < 1e-10
        np.testing.assert_allclose(v0, ref, rtol=0, atol=1e-10)
        np.testing.assert_allclose(g_v0, gram @ v0, rtol=0, atol=1e-12)


def count_calls(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that records the width of each call."""
    widths = []
    original = getattr(module, name)

    def wrapper(L, *args, **kwargs):
        widths.append(L)
        return original(L, *args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return widths


#: The one-state link layer, the dense twins and the relation checks, which the
#: tests keep as oracles (link_state_oracles, operator_oracles) and no module
#: of the package defines or imports.
ORACLE_NAMES = {
    "EMPTY", "STRING", "ARC", "LinkState", "from_text", "validate", "reflect", "_states", "glue", "GlueResult",
    "concatenate", "catalan", "motzkin", "sector_dimension", "enumerate_dense",
    "enumerate_open", "enumerate_dilute", "basis_index", "sector_indices",
    "spin_generators", "check_relations_chain", "check_relations_periodic",
    "_relation_residual", "contraction_weight", "build_ising", "geometric_multiplicity",
    "nilpotent_norm", "ising_diagonal", "apply_ising_gather", "adjointness_matrix_defect",
}


class TestBuildOnce:
    def test_package_holds_no_oracle(self):
        for info in pkgutil.iter_modules(loopcells.__path__):
            module = importlib.import_module(f"loopcells.{info.name}")
            assert not ORACLE_NAMES & set(vars(module)), info.name

    def test_polymer_builds_each_row_once(self, monkeypatch):
        rows = count_calls(monkeypatch, models, "build_dilute_T")
        obs.b_polymer(6)
        assert sorted(rows) == [3, 6]

    def test_deformed_builds_each_chain_and_contraction_walk_once(self, monkeypatch):
        # every contraction walk goes through _upper_pairs once, by the state
        # count; the half chain's ground is used unnormalized, so its form is
        # never applied and its counts are never walked
        walks = count_calls(monkeypatch, forms, "_upper_pairs")
        chains = count_calls(monkeypatch, models, "build_percolation_H")
        obs.b_deformed(6, 2.0)
        assert walks == [20]
        assert sorted(chains) == [3, 6]

    def test_open_maps_and_link_walk_are_built_once_per_width(self):
        # the stores start empty and hold each basis with its value, so one
        # entry per width means one basis object and one build
        obs.percolation_check(6)
        for y in (2.0, -1.0, 0.5):
            obs.b_deformed(6, y)
        maps, walks = tl._cup_caps.store.values(), forms._link_contractions.store.values()
        assert sorted(basis.shape[1] for (basis,), _ in maps) == [3, 6]
        # the half width's counts are never walked: its ground is used unnormalized
        assert [basis.shape[1] for (basis,), _ in walks] == [6]
        cached = [a for _, value in maps for cup_cap in value for a in cup_cap]
        cached += [counts for _, counts in walks]
        assert len(cached) == 3 * (2 + 5) + 1  # three arrays per generator, one count matrix
        assert not any(a.flags.writeable for a in cached)

    def test_open_chain_holds_no_gram(self):
        # with the contraction counts and the solves already kept, the traced
        # peak of either open-chain pipeline stays below one float Gram of width 14
        dim = len(dg._open_sites(14))
        for L in (7, 14):
            forms._link_contractions(dg._open_sites(L))
        for y in (1.0, 2.0, -1.0, 0.5):
            obs._open_solve(14, y)
        obs._open_solve(7, 2.0)
        for run in (lambda: obs.b_deformed(14, 2.0), lambda: obs.percolation_check(14)):
            obs._open_cell.store.clear()
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < dim * dim * 8

    @staticmethod
    def form_applications(monkeypatch, form) -> list:
        """The shape of each block or vector ``form`` (a form class) is applied to."""
        shapes = []
        apply = form.__matmul__

        def recorded(self, x):
            shapes.append(np.shape(x))
            return apply(self, x)

        monkeypatch.setattr(form, "__matmul__", recorded)
        return shapes

    def test_warm_deformed_applies_the_link_form_twice(self, monkeypatch):
        # the ground's normalization, whose image the trousers overlap reads,
        # and one block for the pairing; the half ground is not normalized
        obs.b_deformed(10, 2.0)
        shapes = self.form_applications(monkeypatch, forms.LinkForm)
        obs.b_deformed(10, 2.0)
        assert shapes == [(252,), (252, 3)]

    def test_polymer_applies_the_dilute_form_once(self, monkeypatch):
        shapes = self.form_applications(monkeypatch, forms.DiluteForm)
        obs.b_polymer(8)
        assert shapes == [(len(dg.dilute_row_sites(8)), 3)]

    def test_polymer_forms_no_gram(self, monkeypatch):
        # the dilute form is applied through its per-count blocks: with every
        # array constructor of forms refusing a dim x dim array on the row
        # basis, b_polymer still runs, while forming the Gram as the form
        # applied to the identity is refused. Width 4 is the narrowest guarded:
        # width 2 has 3 states, so its three-column pairing block is 3 x 3 too
        class Guarded:
            """``numpy`` whose constructors refuse an array with two axes of ``dim`` or more."""

            def __init__(self, dim):
                self.dim = dim

            def __getattr__(self, name):
                make = getattr(np, name)
                if name not in ("empty", "zeros", "ones", "full"):
                    return make

                def refuse_gram(shape, *args, **kwargs):
                    if sum(int(n) >= self.dim for n in np.atleast_1d(shape)) >= 2:
                        raise AssertionError("a Gram matrix was formed")
                    return make(shape, *args, **kwargs)

                return refuse_gram

        edge = obs.b_polymer(2).value
        expect = {L: obs.b_polymer(L).value for L in (4, 8)}
        for L, value in expect.items():
            basis = models.build_dilute_T(L).basis
            monkeypatch.setattr(forms, "np", Guarded(len(basis)))
            assert obs.b_polymer(L).value == pytest.approx(value, abs=1e-12)
            with pytest.raises(AssertionError, match="Gram matrix was formed"):
                forms.dilute_form(basis) @ np.eye(len(basis))
        assert edge == pytest.approx(fx.b_polymer_l2_exact(), abs=1e-12)

    @pytest.mark.parametrize("L, counts", [(1, [0]), (2, [0, 2]), (8, [0, 2, 4, 6, 8])])
    def test_dilute_form_walks_once_per_occupancy_count(self, monkeypatch, L, counts):
        # one line walk per occupancy count k, of k//2 + 1 rounds, against
        # one per occupation mask (128 at width 8) before
        rounds = []
        original = forms._line_ends

        def counted(*args):
            rounds.append(args[-1])
            return original(*args)

        monkeypatch.setattr(forms, "_line_ends", counted)
        if L % 2:
            forms.dilute_form(models.build_dilute_T(L).basis)
        else:
            obs.b_polymer(L)
        assert rounds == [k // 2 + 1 for k in counts]

    def test_spin_builds_each_chain_once(self, monkeypatch):
        chains = count_calls(monkeypatch, models, "build_xxz")
        obs.b_xxz(8)
        assert sorted(chains) == [4, 8]

    @pytest.mark.parametrize(
        "measure", [lambda: obs.b_deformed(10, 2.0), lambda: obs.b_xxz(12)], ids=["open", "spin"]
    )
    def test_two_factorizations_all_through_the_helper(self, monkeypatch, factor_dtypes, measure):
        # ARPACK's shift and the bordered partner; ARPACK gets the first as
        # its inverse and builds no LU of its own, and the cell's kernel
        # block comes from the spectrum, so the singular shift is not factored
        calls = []
        splu = spla.splu

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return splu(*args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("ARPACK built its own LU")

        monkeypatch.setattr(spla, "splu", counted)
        monkeypatch.setattr(sys.modules[spla.eigs.__module__], "splu", refuse)
        measure()
        assert len(calls) == len(factor_dtypes) == 2


def factor_shapes(monkeypatch) -> list:
    """The shape of each matrix factored through ``spectral._factor`` from now on."""
    shapes = []
    factor = spectral._factor

    def spy(M):
        shapes.append(M.shape)
        return factor(M)

    monkeypatch.setattr(spectral, "_factor", spy)
    return shapes


class TestOpenSolves:
    def test_warm_deformed_b_equals_a_cold_one(self, monkeypatch):
        # after the probe has solved each deformed chain and certified its
        # cell, b_deformed factors nothing: no ARPACK shift, no bordered
        # system, no chain rebuilt
        ys = (2.0, -1.0, 0.5)
        cold = [obs.b_deformed(10, y) for y in ys]
        obs._open_solve.store.clear()
        obs._open_cell.store.clear()
        obs.percolation_check(10, ys)
        factored = factor_shapes(monkeypatch)
        for y, expect in zip(ys, cold):
            assert vars(obs.b_deformed(10, y)) == vars(expect)
        assert factored == []

    def test_probe_after_deformed_b_factors_only_the_undeformed_shift(self, monkeypatch):
        # b_deformed stored the y=2 cell, so the probe solves only the y=1
        # chain, whose level is read off its eigenvectors with no border
        obs.b_deformed(10, 2.0)
        factored = factor_shapes(monkeypatch)
        assert obs.percolation_check(10, (2.0,)).deformed_genuine == {2.0: True}
        assert factored == [(252, 252)]

    def test_doubled_widths_share_a_chain(self, monkeypatch):
        # the half chain of width 8 is the full chain of width 4
        chains = count_calls(monkeypatch, models, "build_percolation_H")
        obs.b_deformed(4, 2.0)
        obs.b_deformed(8, 2.0)
        assert chains == [2, 4, 8]

    def test_real_and_complex_y_are_kept_apart(self, factor_dtypes):
        H_real, _ = obs._open_solve(10, 2.0)
        assert obs._open_solve(10, 2)[0] is H_real
        H_complex, _ = obs._open_solve(10, 2 + 0j)
        assert factor_dtypes == [np.dtype(np.float64), np.dtype(np.complex128)]
        assert (H_real.dtype, H_complex.dtype) == (np.float64, np.complex128)
        assert len(obs._open_solve.store) == 2

    @pytest.mark.parametrize("L", [4, 10], ids=["dense", "arpack"])
    def test_stored_spectrum_is_read_only(self, L):
        for array in obs._open_solve(L, 2.0)[1]:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_seventeenth_chain_drops_the_first(self, monkeypatch):
        chains = count_calls(monkeypatch, models, "build_percolation_H")
        ys = [1.0 + k for k in range(17)]
        for y in ys:
            obs._open_solve(4, y)
        assert len(chains) == 17 and len(obs._open_solve.store) == 16
        obs._open_solve(4, ys[-1])
        assert len(chains) == 17
        obs._open_solve(4, ys[0])
        assert len(chains) == 18


class TestOpenCells:
    def test_real_and_complex_y_and_tolerances_are_kept_apart(self, factor_dtypes):
        _, cell = obs._open_cell(10, 2.0, 1e-5)
        assert obs._open_cell(10, 2, 1e-5)[1] is cell
        assert obs._open_cell(10, 2 + 0j, 1e-5)[1] is not cell
        assert obs._open_cell(10, 2.0, 1e-6)[1] is not cell
        assert len(obs._open_cell.store) == 3
        # one float and one complex chain, and a bordered system per cell
        assert factor_dtypes.count(np.dtype(np.complex128)) == 2
        assert len(factor_dtypes) == 5

    def test_seventeenth_cell_drops_the_first(self, monkeypatch):
        cells = count_calls(monkeypatch, obs, "_level_cell")
        ys = [2.0 + k for k in range(17)]
        for y in ys:
            obs._open_cell(4, y, 1e-5)
        assert len(cells) == 17 and len(obs._open_cell.store) == 16
        obs._open_cell(4, ys[-1], 1e-5)
        assert len(cells) == 17
        obs._open_cell(4, ys[0], 1e-5)
        assert len(cells) == 18

    def test_store_keeps_no_gram(self):
        # the Gram a cell is bordered by is a build input, held by no entry
        obs.percolation_check(10)
        obs.b_deformed(8, 2.0)
        assert len(obs._open_cell.store) == 4
        for args, (cluster, cell) in obs._open_cell.store.values():
            assert all(np.isscalar(arg) for arg in args)
            assert cluster.size == 2 and cell.value == cluster.value
            arrays = [v for v in vars(cell).values() if isinstance(v, np.ndarray)]
            assert len(arrays) == 2
            for array in arrays:
                assert array.ndim == 1 and not array.flags.writeable

    def test_refused_level_is_not_kept(self):
        with pytest.raises(spectral.DiagonalizableLevelError):
            obs._open_cell(6, 1.0, 1e-5)
        assert obs._open_cell.store == {}

    @pytest.mark.parametrize("L", [4, 6, 8, 10])
    def test_stored_level_is_the_undeformed_one(self, monkeypatch, L):
        # the probe reads every stored cell: each chain's fourth level lies
        # within the y=1 spectrum's clustering reach of the y=1 level
        fallbacks = count_calls(monkeypatch, obs, "_nearest_cell")
        ys = (2.0, -1.0, 0.5)
        report = obs.percolation_check(L, ys)
        assert report.deformed_genuine == dict.fromkeys(ys, True)
        assert fallbacks == []
        assert len(obs._open_cell.store) == len(ys)  # the probe kept every cell
        vals = obs._open_solve(L, 1.0)[1][0]
        reach = 1e-5 * np.max(np.abs(vals))
        cells = count_calls(monkeypatch, obs, "_level_cell")
        for y in ys:
            cluster, _ = obs._open_cell(L, y, 1e-5)
            assert abs(cluster.value - report.level) <= reach
        assert cells == []  # every cell was read, none built

    @pytest.mark.parametrize(
        "refusal", ["test_deformed_chain_without_the_level_is_refused", "test_simple_deformed_level_is_refused"]
    )
    def test_moved_chains_fall_back_to_the_nearest_cluster(self, monkeypatch, refusal):
        # the refusal tests move each deformed chain off the y=1 level, so
        # the stored level lies elsewhere and the probe builds its cell afresh
        fallbacks = count_calls(monkeypatch, obs, "_nearest_cell")
        getattr(TestPercolationCheck(), refusal)(monkeypatch)
        assert fallbacks and len(obs._open_cell.store) == 1


class TestSpinSolves:
    @pytest.mark.parametrize("L", [8, 12], ids=["dense", "arpack"])
    def test_warm_b_xxz_solves_nothing(self, monkeypatch, L):
        # the second call builds no chain and factors nothing: no ARPACK
        # shift, no bordered system; only the ground state is certified again
        cold = obs.b_xxz(L, cell_scale=0.7 - 0.2j)
        chains = count_calls(monkeypatch, models, "build_xxz")
        factored = factor_shapes(monkeypatch)
        assert vars(obs.b_xxz(L, cell_scale=0.7 - 0.2j)) == vars(cold)
        for scale in (13.0, -2.0 + 1j):
            assert obs.b_xxz(L, cell_scale=scale).value == pytest.approx(cold.value, abs=1e-10)
        assert chains == [] and factored == []

    def test_trousers_after_b_xxz_solves_nothing(self, monkeypatch):
        obs.b_xxz(12)
        chains = count_calls(monkeypatch, models, "build_xxz")
        spectra = count_calls(monkeypatch, obs, "_low_spectrum")
        factored = factor_shapes(monkeypatch)
        trousers = obs.trousers_xxz(12)
        assert chains == [] and spectra == [] and factored == []
        obs._xxz_chain.store.clear()
        np.testing.assert_array_equal(obs.trousers_xxz(12).vector, trousers.vector)
        assert sorted(chains) == [6, 12]

    def test_real_and_complex_q_and_tolerances_are_kept_apart(self):
        chain = obs._xxz_chain(8, 2.0)
        assert obs._xxz_chain(8, 2) is chain
        assert obs._xxz_chain(8, 2 + 0j) is not chain
        assert len(obs._xxz_chain.store) == 2
        q = fx.Q_VALUE
        _, cell = obs._xxz_cell(8, q, 1e-5)
        assert obs._xxz_cell(8, q, 1e-5)[1] is cell
        assert obs._xxz_cell(8, q, 1e-6)[1] is not cell
        assert [args for args, _ in obs._xxz_cell.store.values()] == [(8, q, 1e-5), (8, q, 1e-6)]

    @pytest.mark.parametrize("L", [8, 12], ids=["dense", "arpack"])
    def test_stored_arrays_are_read_only(self, L):
        obs.b_xxz(L)
        chain = obs._xxz_chain(L, fx.Q_VALUE)
        (_, (cluster, cell)), = obs._xxz_cell.store.values()
        assert cluster.size == 2 and cell.value == cluster.value
        for array in (chain.product, *chain.spectrum, cell.vector, cell.partner):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_refused_level_is_not_kept(self, monkeypatch):
        # the chain is kept, and its cell, refused on the full chain, is
        # certified and refused again at every call
        kick_spin_chain(monkeypatch, 8, -1)
        cells = count_calls(monkeypatch, obs, "_level_cell")
        for _ in range(2):
            with pytest.raises(ArithmeticError, match="L=8 spin chain .* fails the full chain"):
                obs.b_xxz(8)
        assert len(cells) == 2 and obs._xxz_cell.store == {}
        assert [args for args, _ in obs._xxz_chain.store.values()] == [(8, fx.Q_VALUE)]

    def test_seventeenth_chain_drops_the_first(self, monkeypatch):
        # spin chains keep 16 of their own and evict no open chain; each
        # chain builds its full and its half chain
        chains = count_calls(monkeypatch, models, "build_xxz")
        H, _ = obs._open_solve(4, 2.0)
        qs = [np.exp(1j * np.pi / (3 + k)) for k in range(17)]
        for q in qs:
            obs._xxz_chain(4, q)
        assert len(chains) == 34 and len(obs._xxz_chain.store) == 16
        assert obs._open_solve(4, 2.0)[0] is H
        obs._xxz_chain(4, qs[-1])
        assert len(chains) == 34
        obs._xxz_chain(4, qs[0])
        assert len(chains) == 36

    def test_seventeenth_cell_drops_the_first(self, monkeypatch):
        cells = count_calls(monkeypatch, obs, "_level_cell")
        tols = [1e-5 * (1 + k / 100) for k in range(17)]
        for tol in tols:
            obs._xxz_cell(8, fx.Q_VALUE, tol)
        assert len(cells) == 17 and len(obs._xxz_cell.store) == 16
        obs._xxz_cell(8, fx.Q_VALUE, tols[-1])
        assert len(cells) == 17
        obs._xxz_cell(8, fx.Q_VALUE, tols[0])
        assert len(cells) == 18


def test_store_fixture_empties_every_store():
    # every store is a function of diagrams._kept, listed in its registry,
    # which the autouse fixture of conftest has emptied
    assert {f"{kept.__module__}.{kept.__name__}" for kept in dg._STORES} == {
        f"loopcells.{name}" for name in (
            "diagrams.dilute_row_sites", "diagrams._dense_sites", "diagrams._open_sites",
            "diagrams._array_forms", "tl._cup_caps", "forms.boundary_loops",
            "forms._link_contractions", "observables._xxz_chain", "observables._xxz_cell",
            "observables._open_solve", "observables._open_cell",
            "observables._ising_log_overlaps", "observables._loop_moments",
        )
    }
    assert all(kept.store == {} for kept in dg._STORES)
    # no lru_cache is left, and no pipeline keeps anything in a module-level dict
    modules = [
        importlib.import_module(f"loopcells.{info.name}")
        for info in pkgutil.iter_modules(loopcells.__path__)
    ]
    names = [(module, name) for module in modules for name in vars(module) if name[:2] != "__"]
    assert not [name for module, name in names if hasattr(getattr(module, name), "cache_info")]
    dicts = {key: dict(getattr(*key)) for key in names if isinstance(getattr(*key), dict)}
    obs.b_xxz(4)
    obs.percolation_check(4)
    obs.b_deformed(4, 2.0)
    obs.b_polymer(4)
    obs.ising_boundary_entropies((4, 6))
    obs.loop_boundary_entropy(1.0, 1.5, (4, 6))
    assert {key: getattr(*key) for key in dicts} == dicts
    assert all(kept.store for kept in dg._STORES)


def dense_cell(L: int, y: complex) -> spectral.JordanCell:
    """The cell at the fourth level of the width-L chain, from its two nearest dense eigenvectors."""
    H = models.build_percolation_H(L, y)
    vals, vecs = np.linalg.eig(H.toarray())
    level = spectral.full_spectrum(H)[3].value
    block = vecs[:, np.argsort(np.abs(vals - level))[:2]]
    return spectral.extract_jordan_cell(H, level, block, forms.link_form(L, y))


class TestClusterTolerance:
    @pytest.mark.parametrize("tol", [-1.0, 0.0, np.nan, np.inf], ids=["negative", "zero", "nan", "inf"])
    def test_bad_tolerance_is_refused_before_any_chain(self, monkeypatch, tol):
        def refuse(L, *args):
            raise AssertionError(f"a width-{L} chain was built")

        monkeypatch.setattr(models, "build_percolation_H", refuse)
        monkeypatch.setattr(models, "build_xxz", refuse)
        message = re.escape(f"cluster tolerance must be positive and finite, got {tol}")
        with pytest.raises(ValueError, match=message):
            obs.b_xxz(8, cluster_tol=tol)
        with pytest.raises(ValueError, match=message):
            obs.b_deformed(6, 2.0, cluster_tol=tol)
        with pytest.raises(ValueError, match=message):
            obs.percolation_check(6, cluster_tol=tol)


class TestModelParameter:
    @pytest.mark.parametrize(
        "value", [np.nan, np.inf, -np.inf, complex(np.nan, 1), complex(2, np.inf)],
        ids=["nan", "inf", "-inf", "complex nan", "complex inf"],
    )
    def test_non_finite_parameter_is_refused_before_any_chain_or_row(self, monkeypatch, value):
        def refuse(L, *args):
            raise AssertionError(f"a width-{L} chain or row was built")

        for name in ("build_percolation_H", "build_xxz", "build_dilute_T"):
            monkeypatch.setattr(models, name, refuse)
        calls = [
            ("q", lambda: obs.b_xxz(8, q=value)),
            ("x", lambda: obs.b_polymer(6, x=value)),
            ("y", lambda: obs.b_deformed(6, value)),
            ("y", lambda: obs.percolation_check(6, (2.0, value))),
        ]
        for name, call in calls:
            message = re.escape(f"the parameter {name} must be finite, got {value}")
            with pytest.raises(ValueError, match=message):
                call()


class TestPercolationStructure:
    @pytest.mark.parametrize("L", [4, 6, 8])
    def test_undeformed_level_is_diagonalizable(self, L):
        H = models.build_percolation_H(L, 1.0)
        level = spectral.full_spectrum(H)[3].value
        assert oracles.geometric_multiplicity(H, level) == 2
        with pytest.raises(spectral.DiagonalizableLevelError):
            dense_cell(L, 1.0)

    @pytest.mark.parametrize("y", [2.0, -1.0, 0.5])
    @pytest.mark.parametrize("L", [4, 6, 8])
    def test_deformed_levels_carry_cells(self, L, y):
        assert dense_cell(L, y).residual_w < 1e-8

    def test_width_four_report(self):
        report = obs.percolation_check(4)
        assert report.cluster_size == 2
        assert report.geometric_multiplicity == 2
        assert report.nilpotent_norm < 1e-8
        assert report.diagonalizable
        assert report.deformed_genuine == {2.0: True, -1.0: True, 0.5: True}


def dense_percolation_check(L: int, y_values=(2.0, -1.0, 0.5), cluster_tol: float = 1e-5):
    """:func:`obs.percolation_check` from dense spectra of every chain (the oracle)."""
    H1 = models.build_percolation_H(L, 1.0)
    clusters = spectral.full_spectrum(H1, cluster_tol)
    c3 = spectral.level_cluster(clusters, 3)
    gm = oracles.geometric_multiplicity(H1, c3.value)
    scale = max(abs(c.value) for c in clusters)
    nil = oracles.nilpotent_norm(H1, c3.value, 1e-4 * scale)
    genuine: dict = {}
    for y in y_values:
        Hy = models.build_percolation_H(L, y)
        cy = spectral.level_cluster(spectral.full_spectrum(Hy, cluster_tol), 3)
        try:
            oracles.inverse_iteration_cell(Hy, cy.value)
            genuine[y] = True
        except spectral.DiagonalizableLevelError:
            genuine[y] = False
    return obs.PercolationReport(L, complex(c3.value), c3.size, gm, nil, gm >= c3.size, genuine)


def ladder(states: int) -> sp.csr_matrix:
    """Diagonal chain with levels 0, 1, 2 and six eigenvalues within 1e-8 of 3."""
    near_three = 3.0 + 1e-9 * np.arange(6)
    return sp.diags(np.concatenate([[0.0, 1.0, 2.0], near_three, 4.0 + np.arange(states - 9)]))


class TestPercolationCheck:
    @pytest.mark.parametrize("L", [4, 6, 8, 10])
    def test_matches_the_dense_oracle(self, L):
        got, expect = obs.percolation_check(L), dense_percolation_check(L)
        assert got.level == pytest.approx(expect.level, abs=1e-12)
        assert got.cluster_size == expect.cluster_size == 2
        assert got.geometric_multiplicity == expect.geometric_multiplicity == 2
        assert got.diagonalizable and expect.diagonalizable
        assert got.nilpotent_norm < 1e-12 and expect.nilpotent_norm < 1e-12
        assert got.deformed_genuine == expect.deformed_genuine == {2.0: True, -1.0: True, 0.5: True}

    def test_forms_no_dense_spectrum(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dense spectral helper called")

        for name in ("full_spectrum", "ground_state"):
            monkeypatch.setattr(spectral, name, refuse)
        assert obs.percolation_check(10).diagonalizable

    def test_deformed_chain_without_the_level_is_refused(self, monkeypatch):
        build = models.build_percolation_H

        def moved(L, y=1.0):
            H = build(L, y)
            return H if y == 1.0 else H + 0.1 * sp.identity(H.shape[0], format="csr")

        monkeypatch.setattr(models, "build_percolation_H", moved)
        with pytest.raises(spectral.ClusterSizeError, match="no kernel"):
            obs.percolation_check(6)

    def test_simple_deformed_level_is_refused(self, monkeypatch):
        # the y=2 chain moved so that its simple ground sits at the probed
        # level: one kernel direction, as on a genuine cell, but no partner
        build = models.build_percolation_H
        clusters = spectral.full_spectrum(build(8, 2.0))
        assert clusters[0].size == 1
        shift = (clusters[3].value - clusters[0].value).real

        def moved(L, y=1.0):
            H = build(L, y)
            return H if y == 1.0 else H + shift * sp.identity(H.shape[0], format="csr")

        monkeypatch.setattr(models, "build_percolation_H", moved)
        with pytest.raises(ArithmeticError, match="fails its cell relations"):
            obs.percolation_check(8, y_values=(2.0,))

    def test_probes_factor_only_their_arpack_shift_and_border(self, monkeypatch):
        # the y=1 structure is read off the spectrum's eigenvectors, and each
        # deformed probe takes its cell from its own spectrum: every chain
        # factors ARPACK's shift, each probe one bordered system, and no
        # chain its shift at the level
        factored = []
        factor = spectral._factor

        def spy(M):
            factored.append(M)
            return factor(M)

        monkeypatch.setattr(spectral, "_factor", spy)
        y_values = (2.0, -1.0, 0.5)
        report = obs.percolation_check(10, y_values)
        assert report.diagonalizable and all(report.deformed_genuine.values())
        assert [M.shape for M in factored] == [(252, 252)] + [(252, 252), (253, 253)] * 3
        sigma = -1.5 * (10 - 1) - 1.0
        shifts = [M for M in factored if M.shape == (252, 252)]
        for y, M in zip((1.0,) + y_values, shifts):
            H = models.build_percolation_H(10, y)
            np.testing.assert_allclose((H - M).diagonal(), sigma, rtol=0, atol=1e-12)

    def test_undeformed_chain_reads_as_no_cell(self):
        assert obs.percolation_check(6, y_values=(1.0, 2.0)).deformed_genuine == {1.0: False, 2.0: True}

    def test_level_cut_short_by_arpack_is_refused(self, monkeypatch):
        # ARPACK returns 6 eigenvalues: three levels and three of the six
        # near 3, so the fourth level is the last one returned
        H = ladder(200)
        spectrum = obs._low_spectrum(H, 2)
        assert len(spectrum[0]) == 6
        with pytest.raises(spectral.ClusterSizeError, match="cut short"):
            obs._level_cell(2, H, spectrum, 3, sp.identity(200, format="csr"), 1e-5)
        monkeypatch.setattr(models, "build_percolation_H", lambda L, y=1.0: H)
        with pytest.raises(spectral.ClusterSizeError, match="cut short"):
            obs.percolation_check(2)

    @pytest.mark.parametrize(
        "chain, L, index",
        [("spin", 12, 2), ("spin", 16, 2)]
        + [(f"open y={y}", L, 3) for L in (10, 12, 14) for y in (1.0, 2.0)],
    )
    def test_six_arpack_pairs_hold_every_level_read(self, chain, L, index):
        # the deepest level a pipeline reads is the open chain's fourth, its
        # 4th and 5th eigenvalue; the sixth closes it off
        if chain == "spin":
            H = obs._xxz_chain(L, fx.Q_VALUE).H
        else:
            H = models.build_percolation_H(L, float(chain.split("=")[1]))
        spectrum = obs._low_spectrum(H, L)
        assert len(spectrum[0]) == 6 < H.shape[0]
        assert obs._level(spectrum, index, 1e-5).size == 2

    @pytest.mark.parametrize("y", [1.0, 2.0])
    @pytest.mark.parametrize("L", [11, 13])
    def test_eight_arpack_pairs_hold_the_odd_fourth_level(self, L, y):
        # on an odd chain the ground is simple and the next levels double:
        # the fourth level is the 6th and 7th eigenvalue, the 8th closes it off
        H = models.build_percolation_H(L, y)
        spectrum = obs._low_spectrum(H, L)
        assert len(spectrum[0]) == 8 < H.shape[0]
        assert [c.size for c in spectral.cluster_eigenvalues(spectrum[0], 1e-5)][:4] == [1, 2, 2, 2]
        assert obs._level(spectrum, 3, 1e-5).size == 2

    def test_arpack_reports_match_lapack_at_odd_widths(self, monkeypatch):
        dense = [obs.percolation_check(L) for L in (7, 9)]
        obs._open_solve.store.clear()
        obs._open_cell.store.clear()
        monkeypatch.setattr(obs, "_DENSE_SPECTRUM_STATES", 20)
        solved = []
        low_spectrum = obs._low_spectrum

        def recorded(H, L):
            vals, vecs = low_spectrum(H, L)
            solved.append((L, H.shape[0], len(vals)))
            return vals, vecs

        monkeypatch.setattr(obs, "_low_spectrum", recorded)
        sparse = [obs.percolation_check(L) for L in (7, 9)]
        assert sorted(set(solved)) == [(7, 35, 8), (9, 126, 8)]
        for got, expect in zip(sparse, dense):
            assert got.level == pytest.approx(expect.level, abs=1e-10)
            assert (got.cluster_size, got.geometric_multiplicity, got.diagonalizable) == (
                expect.cluster_size, expect.geometric_multiplicity, expect.diagonalizable
            )
            assert got.nilpotent_norm < 1e-8 and expect.nilpotent_norm < 1e-8
            assert got.deformed_genuine == expect.deformed_genuine

    def test_dense_spectrum_is_never_cut_short(self):
        # all nine eigenvalues: the last level is whole
        assert obs._level(obs._low_spectrum(ladder(9), 2), 3, 1e-5).size == 6


class TestExtrapolation:
    def test_exact_quadratic_recovery(self):
        sizes = [6, 8, 10, 12]
        values = [0.43 - 1.7 / L + 0.9 / L**2 for L in sizes]
        fit = obs.extrapolate_b(sizes, values)
        assert fit.value == pytest.approx(0.43, abs=1e-10)
        assert "b + a1/L" in fit.candidates
        assert "b + a1/L + a2/L^2" in fit.candidates

    def test_power_law_candidate_when_it_fits(self):
        sizes = [4, 6, 8, 10, 12]
        values = [-0.6 + 2.0 / L**1.3 for L in sizes]
        fit = obs.extrapolate_b(sizes, values)
        assert fit.candidates["b + a1/L^p"] == pytest.approx(-0.6, abs=1e-6)
        assert fit.uncertainty is not None and fit.uncertainty > 0

    def test_needs_three_sizes(self):
        with pytest.raises(ValueError, match="three sizes"):
            obs.extrapolate_b([4, 8], [1.0, 2.0])

    @pytest.mark.parametrize("fit", [obs.extrapolate_b, obs._inverse_power_fit])
    @pytest.mark.parametrize(
        "values", [[-0.6, -0.62, -0.63, 99.0], [-0.6, -0.62]], ids=["more values", "fewer values"]
    )
    def test_one_value_per_size(self, fit, values):
        # a fourth value was dropped silently, a missing one raised IndexError
        with pytest.raises(ValueError, match=f"got 3 sizes and {len(values)} values"):
            fit([4, 8, 12], values)

    @pytest.mark.parametrize("sizes", [[4, 4, 8], [8, 4, 8, 4]])
    def test_needs_three_distinct_sizes(self, sizes, monkeypatch):
        # two distinct sizes leave the three-parameter ansatz undetermined
        def refuse(*args, **kwargs):
            raise AssertionError("fitted")

        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        with pytest.raises(ValueError, match="three sizes, all distinct"):
            obs.extrapolate_b(sizes, [1.0 / L for L in sizes])

    def test_published_tables_land_in_windows(self):
        xxz = obs.extrapolate_b(list(fx.B_XXZ_TABLE), list(fx.B_XXZ_TABLE.values()))
        lo, hi = fx.B_XXZ_LIMIT[0] - fx.B_XXZ_LIMIT[1], fx.B_XXZ_LIMIT[0] + fx.B_XXZ_LIMIT[1]
        assert lo <= xxz.value <= hi
        poly = obs.extrapolate_b(
            list(fx.B_POLYMER_TABLE), list(fx.B_POLYMER_TABLE.values())
        )
        lo, hi = (
            fx.B_POLYMER_LIMIT[0] - fx.B_POLYMER_LIMIT[1],
            fx.B_POLYMER_LIMIT[0] + fx.B_POLYMER_LIMIT[1],
        )
        assert lo <= poly.value <= hi


def curve_fit_power_law(sizes, values):
    """The ``scipy.optimize.curve_fit`` power-law candidate (the fit oracle).

    Returns ``(kept, b, p, rss)``: whether the candidate is kept (a finite
    covariance and an exponent away from its bounds), the fitted ``b`` and
    ``p``, and the squared residual of the fit.
    """
    order = np.argsort(sizes)
    ell = np.asarray(sizes, dtype=float)[order]
    val = np.asarray(values, dtype=float)[order]
    a3 = np.column_stack([np.ones_like(ell), 1 / ell, 1 / ell**2])
    c3, *_ = np.linalg.lstsq(a3, val, rcond=None)

    def power_law(length, b_inf, amp, p):
        return b_inf + amp / np.power(length, p)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OptimizeWarning)
        popt, pcov = curve_fit(
            power_law, ell, val,
            p0=[c3[0], (val[0] - c3[0]) * ell[0], 1.0],
            bounds=([-np.inf, -np.inf, 0.2], [np.inf, np.inf, 5.0]),
            maxfev=20000,
        )
    at_bound = min(abs(popt[2] - 0.2), abs(popt[2] - 5.0)) < 1e-6
    kept = bool(np.all(np.isfinite(pcov)) and not at_bound)
    rss = float(np.sum((power_law(ell, *popt) - val) ** 2))
    return kept, float(popt[0]), float(popt[2]), rss


def power_law_rss(sizes, values, p: float) -> float:
    """Squared residual of the least-squares ``b + a1/L^p`` at a fixed exponent."""
    ell = np.asarray(sizes, dtype=float)
    X = np.column_stack([np.ones_like(ell), ell**-p])
    coef, *_ = np.linalg.lstsq(X, np.asarray(values, dtype=float), rcond=None)
    return float(np.sum((X @ coef - values) ** 2))


#: b_polymer(L).value at L=4..10, the sizes of the benchmark's polymer fit
POLYMER_4_TO_10 = {
    4: 0.6643131944800528,
    6: 0.6703192581103539,
    8: 0.678929992082503,
    10: 0.6875346549793752,
}

#: name -> (sizes, values, agreement with the oracle where both keep the fit)
FIT_CASES = {
    # curve_fit stops 5.3e-9 in b short of the least-squares minimum here (its
    # default xtol is 1e-8), which the variable projection reaches to 2e-10
    "xxz table": (list(fx.B_XXZ_TABLE), list(fx.B_XXZ_TABLE.values()), 1e-8),
    "polymer table": (list(fx.B_POLYMER_TABLE), list(fx.B_POLYMER_TABLE.values()), 1e-6),
    "polymer 4..10": (list(POLYMER_4_TO_10), list(POLYMER_4_TO_10.values()), 1e-6),
    "p = 1.3": ([4, 6, 8, 10, 12], [-0.6 + 2.0 / L**1.3 for L in (4, 6, 8, 10, 12)], 1e-6),
    "quadratic": ([6, 8, 10, 12], [0.43 - 1.7 / L + 0.9 / L**2 for L in (6, 8, 10, 12)], 1e-6),
}


class TestPowerLawFit:
    @pytest.mark.parametrize("case", list(FIT_CASES))
    def test_matches_the_curve_fit_oracle(self, case):
        sizes, values, tol = FIT_CASES[case]
        kept, b_oracle, _, rss_oracle = curve_fit_power_law(sizes, values)
        fit = obs.extrapolate_b(sizes, values)
        assert ("b + a1/L^p" in fit.candidates) == kept
        if kept:
            assert abs(fit.candidates["b + a1/L^p"] - b_oracle) < tol
        order = np.argsort(sizes)
        ell, val = np.asarray(sizes, float)[order], np.asarray(values, float)[order]
        b, p = obs._power_law_fit(ell, val)
        assert abs(b - b_oracle) < 1e-6
        assert power_law_rss(ell, val, p) <= rss_oracle * (1 + 1e-9)

    @pytest.mark.parametrize("sizes", [[4, 8, 12], [6, 8, 10]])
    def test_three_sizes_hold_no_power_law(self, sizes):
        values = [-0.6 + 2.0 / L**1.3 for L in sizes]
        assert not curve_fit_power_law(sizes, values)[0]
        assert "b + a1/L^p" not in obs.extrapolate_b(sizes, values).candidates

    def test_exponent_on_a_bound_is_dropped(self):
        # an exact 1/L^6 correction: the best exponent is the upper bound
        sizes = [4, 6, 8, 10]
        values = [0.3 + 5.0 / L**6 for L in sizes]
        ell = np.asarray(sizes, dtype=float)
        assert obs._power_law_fit(ell, np.asarray(values))[1] == pytest.approx(5.0, abs=1e-6)
        assert not curve_fit_power_law(sizes, values)[0]
        assert "b + a1/L^p" not in obs.extrapolate_b(sizes, values).candidates


class TestInversePowerFit:
    def test_exact_recovery_with_extensive_term(self):
        # representable by both the full and the drop-smallest ansatz, so the
        # constant term is exact and the spread estimate collapses
        sizes = [8, 10, 12, 14]
        values = [0.7 * L + 0.3 + 0.11 / L for L in sizes]
        fit = obs._inverse_power_fit(sizes, values)
        assert fit.value == pytest.approx(0.3, abs=1e-8)
        assert fit.uncertainty is not None and fit.uncertainty < 1e-7
        assert "drop-smallest" in fit.candidates

    def test_spread_reports_unmodeled_corrections(self):
        sizes = [8, 10, 12, 14]
        values = [0.7 * L + 0.3 + 0.11 / L + 0.05 / L**2 for L in sizes]
        fit = obs._inverse_power_fit(sizes, values)
        assert fit.value == pytest.approx(0.3, abs=1e-8)
        assert fit.uncertainty is not None and 1e-5 < fit.uncertainty < 1e-2

    def test_three_sizes_have_no_spread_estimate(self):
        sizes = [8, 10, 12]
        values = [0.7 * L + 0.3 + 0.11 / L for L in sizes]
        fit = obs._inverse_power_fit(sizes, values)
        assert fit.value == pytest.approx(0.3, abs=1e-9)
        assert fit.uncertainty is None


class TestIsingEntropy:
    def test_fixed_boundary_universal_term(self):
        fit = obs.ising_boundary_entropy(sizes=(8, 10, 12, 14), bc="fixed")
        assert fit.value == pytest.approx(fx.ISING_FIXED_ENTROPY, abs=5e-3)

    def test_free_boundary_term_vanishes(self):
        fit = obs.ising_boundary_entropy(sizes=(8, 10, 12, 14), bc="free")
        assert abs(fit.value) < 1e-3

    def test_unknown_boundary_condition(self):
        with pytest.raises(ValueError, match="unknown boundary condition"):
            obs.ising_boundary_entropy(bc="twisted")

    @pytest.mark.parametrize("sizes", [(26,), (12, 12), (), (8, 10, 10), (0, 2), (0, 2, 4)])
    def test_fewer_than_two_sizes_are_refused_before_any_solve(self, sizes, monkeypatch):
        def refuse(L):
            raise AssertionError(f"width {L} was solved")

        monkeypatch.setattr(obs, "_ising_ground_state", refuse)
        for run in (lambda: obs.ising_boundary_entropy(sizes),
                    lambda: obs.ising_boundary_entropies(sizes)):
            with pytest.raises(ValueError, match="at least two sizes, all distinct"):
                run()

    def test_repeated_calls_agree_exactly(self):
        first = obs.ising_boundary_entropy(sizes=(8, 10, 12), bc="fixed")
        second = obs.ising_boundary_entropy(sizes=(8, 10, 12), bc="fixed")
        assert first.value == second.value
        assert first.coefficients == second.coefficients


def full_ring_ground_state(L: int) -> tuple[float, np.ndarray]:
    """Ground state from ARPACK on the full ``2^L`` ring (the oracle), positive."""
    H = oracles.build_ising(L)
    energies, vecs = spla.eigsh(H, k=1, which="SA", v0=np.ones(H.shape[0]))
    v = vecs[:, 0]
    return float(energies[0]), v * np.sign(v[int(np.argmax(np.abs(v)))])


class TestIsingSectorGround:
    @pytest.mark.parametrize("L", range(1, 13))
    def test_matches_full_ring_solve(self, L):
        energy, v = obs._ising_ground_state(L)
        expect_energy, expect = full_ring_ground_state(L)
        assert energy == pytest.approx(expect_energy, abs=1e-12)
        np.testing.assert_allclose(v, expect, atol=1e-12)

    def test_closed_form_energy_at_width_sixteen(self):
        L = 16
        ks = 2 * np.arange(L) + 1
        exact = -2 * np.sum(np.sin(np.pi * ks / (2 * L)))
        assert obs._ising_ground_state(L)[0] == pytest.approx(exact, abs=1e-9)

    @pytest.mark.parametrize("L", range(1, 15))
    def test_log_overlaps_match_full_ring_values(self, L):
        _, v = obs._ising_ground_state(L)
        fixed, free = models.ising_boundary_vectors(L)
        got = [-np.log(v @ fixed), -np.log(v @ free)]
        np.testing.assert_allclose(got, GOLDEN["ising"]["log_overlaps"][str(L)], rtol=0, atol=2e-14)

    @pytest.mark.parametrize("bc", ["fixed", "free"])
    @pytest.mark.parametrize("sizes", [(1, 2, 3), (3, 5, 7), (8, 10, 12, 14)])
    def test_entropies_match_full_ring_values(self, sizes, bc):
        # The constant term is a fixed linear combination of the log-overlaps;
        # its weights amplify their 2e-14 rounding agreement (sum of |weights|
        # is 671 at L=8..14, so the full-ring values themselves carry about
        # 3e-12 of rounding noise there).
        ell = np.asarray(sizes, dtype=float)
        weights = np.linalg.inv(ell[:, None] ** -np.arange(-1, len(sizes) - 1))[1]
        tol = max(1e-12, 2e-14 * np.abs(weights).sum())
        expect = GOLDEN["ising"]["entropy"][f"{','.join(map(str, sizes))} {bc}"]
        assert obs.ising_boundary_entropy(sizes, bc).value == pytest.approx(expect, abs=tol)

    def test_corrupted_reduction_is_refused(self, monkeypatch):
        build = models.build_ising_sector

        def corrupted(L):
            H, label, size = build(L)
            H = H.tolil()
            H[1, 2] += 1e-3
            H[2, 1] += 1e-3
            return H.tocsr(), label, size

        monkeypatch.setattr(models, "build_ising_sector", corrupted)
        with pytest.raises(ArithmeticError, match="residual"):
            obs.ising_boundary_entropy(sizes=(8, 10, 12), bc="fixed")

    def test_excited_state_is_refused(self, monkeypatch):
        # an exact eigenvector of the sector that is not the ground state
        # passes the residual check and fails the positivity check
        eigsh = spla.eigsh

        def second_level(A, k, **kwargs):
            energies, vecs = eigsh(A, k=2, **kwargs)
            return energies[1:], vecs[:, 1:]

        monkeypatch.setattr(spla, "eigsh", second_level)
        with pytest.raises(ArithmeticError, match="not positive"):
            obs.ising_boundary_entropy(sizes=(8, 10, 12), bc="fixed")


def glue_boundary_row(L: int) -> np.ndarray:
    """Loop counts of the all-adjacent-arcs boundary glued onto each dense state (the oracle)."""
    boundary = ls.from_text("()" * (L // 2))
    return np.array([ls.glue(boundary, s).loops for s in ls.states(dg._dense_sites(L))])


class TestLoopEntropy:
    @pytest.mark.parametrize("n1", [0.5, 0.8, 1.0, 1.5, 1.9, 2.5])
    @pytest.mark.parametrize("L", range(2, 15, 2))
    def test_boundary_overlap_matches_the_glue_row(self, L, n1):
        v = np.random.default_rng(L).uniform(0.5, 1.5, len(dg._dense_sites(L)))
        expect = np.power(n1, glue_boundary_row(L).astype(float)) @ v
        assert obs._boundary_overlap(v, L, n1) == pytest.approx(expect, rel=1e-12, abs=0)

    def test_boundary_overlap_glues_no_pair(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("glue called")

        monkeypatch.setattr(ls, "glue", refuse)
        report = obs.loop_boundary_entropy(1.0, 1.5, sizes=(6, 8, 10))
        assert np.isfinite(report.fit.value)

    def test_entropy_forms_no_sparse_matrix(self, monkeypatch):
        # neither a singlet factor nor a CSR generator: the row is applied
        # plaquette by plaquette and the form is read off one Gram row
        def refuse(*args, **kwargs):
            raise AssertionError("sparse matrix formed")

        for name in ("csr_matrix", "csc_matrix", "coo_matrix"):
            monkeypatch.setattr(sp, name, refuse)
        monkeypatch.setattr(tl, "dense_generators", refuse)
        report = obs.loop_boundary_entropy(0.5, 1.0, sizes=(6, 8, 10))
        assert np.isfinite(report.fit.value)

    @pytest.mark.parametrize("pair", GOLDEN["loop_entropy"]["fit"])
    def test_golden_fit_values(self, pair):
        n, n1 = map(float, pair.split(","))
        sizes = tuple(GOLDEN["loop_entropy"]["sizes"])
        got = obs.loop_boundary_entropy(n, n1, sizes).fit.value
        assert abs(got - GOLDEN["loop_entropy"]["fit"][pair]) < 1e-10

    @pytest.mark.parametrize("n", [0.25, 0.5, 1.0, 1.25, 1.9])
    @pytest.mark.parametrize("L", range(4, 17, 2))
    def test_square_matches_the_singlet_oracle(self, L, n):
        row = models.build_dense_loop_T(L, n)
        lam, v = spectral.perron_pair(row.ket_row)
        square = obs._loop_square(row, v, lam, L, n)
        assert square == pytest.approx(loop_pairing(v, v, L, n), rel=1e-12, abs=0)
        np.testing.assert_allclose(
            v / np.sqrt(square), loop_normalized(v, L, n), rtol=1e-12, atol=0
        )

    def test_dual_in_the_wrong_order_fails_the_certificate(self):
        # the row with its halves swapped has the dual T^T = Lo^T U^T, which
        # shares the Perron value of (Lo U)^T, but its Perron vector is not
        # G v: the two boundary rows disagree
        L, n = 8, 0.5
        row = models.build_dense_loop_T(L, n)
        lam, v = spectral.perron_pair(row.ket_row)
        swapped = models.TransferRow(row.basis, row.upper, row.lower)
        with pytest.raises(ArithmeticError, match=f"L={L}, n={n} is not along"):
            obs._loop_square(swapped, v, lam, L, n)

    def test_wrong_perron_value_fails_the_certificate(self):
        L, n = 8, 0.5
        row = models.build_dense_loop_T(L, n)
        lam, v = spectral.perron_pair(row.ket_row)
        with pytest.raises(ArithmeticError, match=f"Perron values .* at L={L}, n={n}"):
            obs._loop_square(row, v, lam * (1 + 1e-9), L, n)

    def test_closed_form_vanishes_at_the_symmetric_point(self):
        assert abs(obs.loop_entropy_exact(1.0, 1.0)) < 1e-12

    def test_closed_form_root_matches_brentq(self):
        for n in np.linspace(0.05, 1.95, 20):
            gamma = float(np.arccos(n / 2))
            for n1 in np.geomspace(0.02, 50.0, 30):
                if abs(n1 - n) < 1e-12:
                    continue
                r = brentq(
                    lambda r_: np.sin((r_ + 1) * gamma) / np.sin(r_ * gamma) - n1,
                    1e-9, np.pi / gamma - 1 - 1e-9,
                )
                assert obs.loop_entropy_exact(n, n1) == pytest.approx(
                    entropy_at(n, r), abs=1e-10, rel=1e-10
                )

    @pytest.mark.parametrize("n", [0.3, 1.0, np.sqrt(2), 1.9])
    def test_symmetric_boundary_has_r_one(self, n):
        assert obs.loop_entropy_exact(n, n) == entropy_at(n, 1.0)

    @pytest.mark.parametrize("n1", [0.0, -0.5])
    def test_closed_form_refuses_nonpositive_boundary_weights(self, n1):
        with pytest.raises(ValueError, match="boundary loop weight"):
            obs.loop_entropy_exact(1.0, n1)

    def test_lattice_tracks_closed_form(self):
        report = obs.loop_boundary_entropy(1.0, 1.5, sizes=(10, 12, 14, 16))
        assert report.difference < 5e-2
        assert report.exact == pytest.approx(obs.loop_entropy_exact(1.0, 1.5))

    def test_loop_weight_must_be_subcritical(self):
        with pytest.raises(ValueError, match="loop weight"):
            obs.loop_entropy_exact(2.5, 1.0)
        with pytest.raises(ValueError, match="loop weight"):
            obs.loop_boundary_entropy(2.5, 1.0)

    @pytest.mark.parametrize("n", [-0.5, 0.0])
    def test_closed_form_refuses_nonpositive_weights(self, n):
        # the formula has no real value there: NaN for n < 0, a pole at n = 0
        with pytest.raises(ValueError, match="loop weight"):
            obs.loop_entropy_exact(n, 1.0)

    def test_boundary_weight_must_be_positive(self):
        with pytest.raises(ValueError, match="boundary loop weight"):
            obs.loop_boundary_entropy(1.0, -0.2)

    @pytest.mark.parametrize("n1", [np.nan, np.inf], ids=["nan", "inf"])
    def test_nonfinite_boundary_weight_is_refused_before_any_solve(self, n1, monkeypatch):
        def refuse(L, n):
            raise AssertionError(f"width {L} was solved")

        monkeypatch.setattr(models, "build_dense_loop_T", refuse)
        with pytest.raises(ValueError, match="boundary loop weight must be positive and finite"):
            obs.loop_boundary_entropy(1.0, n1, sizes=(8, 10, 12))
        with pytest.raises(ValueError, match="boundary loop weight must be positive and finite"):
            obs.loop_entropy_exact(1.0, n1)

    def test_row_parity_is_checked(self):
        with pytest.raises(ValueError, match="even sizes"):
            obs.loop_boundary_entropy(1.0, 1.0, sizes=(7, 9))

    @pytest.mark.parametrize("sizes, match", [
        ((26,), "at least two sizes"), ((12, 12), "all distinct"), ((), "at least two sizes"),
        ((8, 10, 10), "all distinct"), ((8, 11), "even sizes"),
    ])
    def test_bad_sizes_are_refused_before_any_solve(self, sizes, match, monkeypatch):
        def refuse(L, n):
            raise AssertionError(f"width {L} was solved")

        monkeypatch.setattr(models, "build_dense_loop_T", refuse)
        with pytest.raises(ValueError, match=match):
            obs.loop_boundary_entropy(1.0, 1.5, sizes)

    def test_normalization_matches_the_loop_count_gram(self):
        n, n1, sizes = 0.5, 1.0, (6, 8, 10)
        values = []
        for L in sizes:
            _, v = spectral.perron_pair(models.build_dense_loop_T(L, n).ket_row)
            v = v / np.sqrt(v @ loop_count_gram(L, n) @ v)
            loops = glue_boundary_row(L)
            values.append(-np.log(np.power(n1, loops) @ v))
        expect = obs._inverse_power_fit(sizes, values).value
        got = obs.loop_boundary_entropy(n, n1, sizes).fit.value
        assert abs(got - expect) < 1e-10

    def test_nonpositive_weight_ground_state_has_negative_square(self):
        # at n = -0.5 the row's leading state has a negative square under
        # the loop form, so there is no real normalization: the weight is
        # refused up front rather than yield a NaN entropy
        n, L = -0.5, 6
        vals, vecs = np.linalg.eig(models.build_dense_loop_T(L, n).ket_row.matrix())
        v = vecs[:, int(np.argmax(np.abs(vals)))].real
        oracle = v @ loop_count_gram(L, n) @ v
        image = singlet_factor(L, n) @ v
        assert oracle < 0
        assert abs(complex(image @ image) - oracle) < 1e-10
        with pytest.raises(ValueError, match="loop weight"):
            obs.loop_boundary_entropy(n, 1.0, sizes=(6, 8, 10))

    @pytest.mark.parametrize("n", [0.3, 0.0])
    def test_nonpositive_square_raises(self, n):
        # ()(()) - (()()) has square 2 n^2 (n - 1) <= 0 for these weights;
        # it is no Perron vector, so the certificate refuses it
        basis = ls.states(dg._dense_sites(6))
        vec = np.zeros(len(basis))
        vec[basis.index(ls.from_text("()(())"))] = 1.0
        vec[basis.index(ls.from_text("(()())"))] = -1.0
        row = models.build_dense_loop_T(6, n)
        lam, _ = spectral.perron_pair(row.ket_row)
        with pytest.raises(ArithmeticError, match=f"L=6, n={n}"):
            obs._loop_square(row, vec, lam, 6, n)
        with pytest.raises(ArithmeticError, match=f"L=6, n={n}"):
            loop_normalized(vec, 6, n)


class TestBoundaryStores:
    def test_warm_ising_entropy_equals_a_cold_one(self, monkeypatch):
        cold = obs.ising_boundary_entropy((8, 10, 12), "free")
        obs._ising_log_overlaps.store.clear()
        obs.ising_boundary_entropy((8, 10, 12), "fixed")
        warm = obs.ising_boundary_entropy((8, 10, 12), "free")
        assert vars(warm) == vars(cold)

    def test_warm_loop_entropy_equals_a_cold_one(self, monkeypatch):
        cold = obs.loop_boundary_entropy(1.0, 1.5, (6, 8, 10))
        obs._loop_moments.store.clear()
        obs.loop_boundary_entropy(1.0, 0.5, (6, 8, 10))
        warm = obs.loop_boundary_entropy(1.0, 1.5, (6, 8, 10))
        assert vars(warm.fit) == vars(cold.fit)
        assert (warm.exact, warm.difference) == (cold.exact, cold.difference)

    def test_fixed_then_free_solves_each_width_once(self, monkeypatch):
        solved = count_calls(monkeypatch, obs, "_ising_ground_state")
        obs.ising_boundary_entropy((8, 10, 12), "fixed")
        obs.ising_boundary_entropy((8, 10, 12), "free")
        assert solved == [8, 10, 12]

    def test_boundary_weight_sweep_builds_each_row_once(self, monkeypatch):
        rows = count_calls(monkeypatch, models, "build_dense_loop_T")
        for n1 in (0.5, 1.0, 1.5, 1.9):
            obs.loop_boundary_entropy(1.25, n1, (6, 8, 10))
        assert rows == [6, 8, 10]

    def test_integer_and_float_loop_weights_share_an_entry(self, monkeypatch):
        rows = count_calls(monkeypatch, models, "build_dense_loop_T")
        assert obs._loop_moments(6, 1) is obs._loop_moments(6, 1.0)
        assert rows == [6] and len(obs._loop_moments.store) == 1

    @pytest.mark.parametrize("L", [6, 10])
    def test_moments_give_the_boundary_overlap(self, L):
        n = 0.5
        row = models.build_dense_loop_T(L, n)
        lam, v = spectral.perron_pair(row.ket_row)
        v = v / np.sqrt(obs._loop_square(row, v, lam, L, n))
        moments = obs._loop_moments(L, n)
        assert moments.shape == (L // 2 + 1,)
        for n1 in (0.5, 1.0, 1.5):
            expect = obs._boundary_overlap(v, L, n1)
            got = np.power(n1, np.arange(len(moments))) @ moments
            assert got == pytest.approx(expect, rel=1e-13, abs=0)

    def test_stores_keep_no_state(self):
        obs.ising_boundary_entropies((8, 10))
        obs.loop_boundary_entropy(1.0, 1.5, (8, 10))
        assert all(
            isinstance(pair, tuple) and [type(x) for x in pair] == [float, float]
            for _, pair in obs._ising_log_overlaps.store.values()
        )
        assert [m.shape for _, m in obs._loop_moments.store.values()] == [(5,), (6,)]

    def test_stored_moments_are_read_only(self):
        moments = obs._loop_moments(8, 1.0)
        with pytest.raises(ValueError, match="read-only"):
            moments[0] = 1.0

    def test_seventeenth_ising_width_drops_the_first(self, monkeypatch):
        solved = count_calls(monkeypatch, obs, "_ising_ground_state")
        for L in range(1, 18):
            obs._ising_log_overlaps(L)
        assert len(solved) == 17 and len(obs._ising_log_overlaps.store) == 16
        obs._ising_log_overlaps(17)
        assert len(solved) == 17
        obs._ising_log_overlaps(1)
        assert len(solved) == 18

    def test_seventeenth_loop_weight_drops_the_first(self, monkeypatch):
        rows = count_calls(monkeypatch, models, "build_dense_loop_T")
        weights = [0.1 * k for k in range(1, 18)]
        for n in weights:
            obs._loop_moments(4, n)
        assert len(rows) == 17 and len(obs._loop_moments.store) == 16
        obs._loop_moments(4, weights[-1])
        assert len(rows) == 17
        obs._loop_moments(4, weights[0])
        assert len(rows) == 18
