"""Tests for the b measurements, extrapolation, and boundary entropies."""

from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from loopcells import diagrams as dg
from loopcells import fixtures as fx
from loopcells import forms, models, spectral
from loopcells import observables as obs


def loop_count_gram(L: int, n: float) -> np.ndarray:
    """The weight-``n`` loop Gram from diagrammatic loop counts (the oracle)."""
    counts = forms.loop_count_matrix(dg.enumerate_dense(L))
    return np.power(n, counts.astype(np.float64))


class TestTrousers:
    def test_spin_width_four_matches_published_components(self):
        t = obs.trousers_xxz(4)
        np.testing.assert_allclose(t.vector, fx.SPIN_L4_TROUSERS, atol=1e-12)
        assert t.model == "xxz" and t.L == 4

    def test_dilute_all_empty_component_is_one(self):
        basis = models.build_dilute_T(4).basis
        empty = next(k for k, s in enumerate(basis) if not any(s.occupied_mask))
        for side in ("left", "right"):
            t = obs.trousers_dilute(4, side=side)
            assert len(t.vector) == len(basis)
            assert t.vector[empty] == pytest.approx(1.0)

    def test_dilute_vector_lives_in_zero_string_sector(self):
        basis = models.build_dilute_T(6).basis
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
    def test_bra_ground_off_the_bra_row_is_refused(self, half):
        # a ket row perturbed away from upper @ lower leaves the mapped
        # ground off the bra row lower @ upper
        row = models.build_dilute_T(half)
        kick = sp.csr_matrix(([0.05], ([0], [1])), shape=row.ket_row.shape)
        fake = SimpleNamespace(
            basis=row.basis, lower=row.lower, upper=row.upper, ket_row=row.ket_row + kick
        )
        with pytest.raises(ArithmeticError, match="fails the bra row"):
            obs._dilute_trousers(fake, models.build_dilute_T(2 * half).basis)

    def test_vanishing_bra_ground_is_refused(self):
        row = models.build_dilute_T(2)
        fake = SimpleNamespace(
            basis=row.basis, lower=0 * row.lower, upper=row.upper, ket_row=row.ket_row
        )
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
        index = dg.basis_index(dg.enumerate_open(2))
        assert t.vector.shape == (2,)
        assert t.vector[index[dg.from_text("()")]] == 0
        assert abs(t.vector[index[dg.from_text("||")]]) > 0


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
    T00, T02, T22, idx0, idx2 = models.dilute_blocks(row, row.ket_row)
    cell = spectral.block_jordan_cell(T00, T02, T22)
    v = stacked_to_row(row, idx0, idx2, cell.vector)
    w = stacked_to_row(row, idx0, idx2, cell.partner)
    return row, cell, v, w


class TestPolymerB:
    def test_width_two_equals_closed_form(self):
        m = obs.b_polymer(2)
        assert m.value == pytest.approx(fx.b_polymer_l2_exact(), abs=1e-12)

    def test_invariant_under_cell_rescaling(self):
        base = obs.b_polymer(4).value
        assert obs.b_polymer(4, right_scale=3.7).value == pytest.approx(base, abs=1e-10)
        assert obs.b_polymer(4, left_scale=-0.4).value == pytest.approx(base, abs=1e-10)
        assert obs.b_polymer(4, right_scale=2.0, left_scale=5.0).value == pytest.approx(
            base, abs=1e-10
        )

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
        M00, M02, M22, idx0, idx2 = models.dilute_blocks(row, row.bra_row)
        oracle = spectral.block_jordan_cell(M00, M02, M22)
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

    def test_width_must_be_even(self):
        with pytest.raises(ValueError, match="even"):
            obs.b_deformed(5, 2.0)

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
        H, gram, _ = obs._xxz_chain(L, fx.Q_VALUE) if chain == "xxz" else obs._open_chain(L, 2.0)
        e0, v0 = obs._ground(obs._low_spectrum(H, L), gram)
        lam, ref = spectral.ground_state(H, "min", gram=gram)
        assert abs(e0 - lam) < 1e-10
        np.testing.assert_allclose(v0, ref, rtol=0, atol=1e-10)


def count_calls(monkeypatch, module, name):
    """Replace ``module.name`` by a wrapper that records the width of each call."""
    widths = []
    original = getattr(module, name)

    def wrapper(L, *args, **kwargs):
        widths.append(L)
        return original(L, *args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return widths


class TestBuildOnce:
    def test_polymer_builds_each_row_once(self, monkeypatch):
        rows = count_calls(monkeypatch, models, "build_dilute_T")
        obs.b_polymer(6)
        assert sorted(rows) == [3, 6]

    def test_deformed_builds_each_chain_and_gram_once(self, monkeypatch):
        grams = count_calls(monkeypatch, forms, "link_gram")
        chains = count_calls(monkeypatch, models, "build_percolation_H")
        obs.b_deformed(6, 2.0)
        assert sorted(grams) == [3, 6]
        assert sorted(chains) == [3, 6]

    def test_spin_builds_each_chain_once(self, monkeypatch):
        chains = count_calls(monkeypatch, models, "build_xxz")
        obs.b_xxz(8)
        assert sorted(chains) == [4, 8]


class TestPercolationStructure:
    @pytest.mark.parametrize("L", [4, 6, 8])
    def test_undeformed_level_is_diagonalizable(self, L):
        H = models.build_percolation_H(L, 1.0)
        level = spectral.full_spectrum(H)[3].value
        assert spectral.geometric_multiplicity(H, level) == 2
        with pytest.raises(spectral.DiagonalizableLevelError):
            spectral.extract_jordan_cell(H, level)

    @pytest.mark.parametrize("y", [2.0, -1.0, 0.5])
    @pytest.mark.parametrize("L", [4, 6, 8])
    def test_deformed_levels_carry_cells(self, L, y):
        H = models.build_percolation_H(L, y)
        cell = spectral.extract_jordan_cell(H, spectral.full_spectrum(H)[3].value)
        assert cell.residual_w < 1e-8

    def test_width_four_report(self):
        report = obs.percolation_check(4)
        assert report.cluster_size == 2
        assert report.geometric_multiplicity == 2
        assert report.nilpotent_norm < 1e-8
        assert report.diagonalizable
        assert report.deformed_genuine == {2.0: True, -1.0: True, 0.5: True}


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

    def test_repeated_calls_agree_exactly(self):
        first = obs.ising_boundary_entropy(sizes=(8, 10, 12), bc="fixed")
        second = obs.ising_boundary_entropy(sizes=(8, 10, 12), bc="fixed")
        assert first.value == second.value
        assert first.coefficients == second.coefficients


class TestLoopEntropy:
    def test_closed_form_vanishes_at_the_symmetric_point(self):
        assert abs(obs.loop_entropy_exact(1.0, 1.0)) < 1e-12

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

    def test_row_parity_is_checked(self):
        with pytest.raises(ValueError, match="even sizes"):
            obs.loop_boundary_entropy(1.0, 1.0, sizes=(7, 9))

    def test_normalization_matches_the_loop_count_gram(self):
        n, n1, sizes = 0.5, 1.0, (6, 8, 10)
        values = []
        for L in sizes:
            _, v = spectral.perron_pair(models.build_dense_loop_T(L, n))
            v = v / np.sqrt(v @ loop_count_gram(L, n) @ v)
            boundary = dg.from_text("()" * (L // 2))
            loops = np.array([dg.glue(boundary, s).loops for s in dg.enumerate_dense(L)])
            values.append(-np.log(np.power(n1, loops) @ v))
        expect = obs._inverse_power_fit(sizes, values).value
        got = obs.loop_boundary_entropy(n, n1, sizes).fit.value
        assert abs(got - expect) < 1e-10

    def test_nonpositive_weight_ground_state_has_negative_square(self):
        # at n = -0.5 the row's leading state has a negative square under
        # the loop form, so there is no real normalization: the weight is
        # refused up front rather than yield a NaN entropy
        n, L = -0.5, 6
        vals, vecs = np.linalg.eig(models.build_dense_loop_T(L, n).matrix())
        v = vecs[:, int(np.argmax(np.abs(vals)))].real
        oracle = v @ loop_count_gram(L, n) @ v
        image = forms.singlet_factor(L, n) @ v
        assert oracle < 0
        assert abs(complex(image @ image) - oracle) < 1e-10
        with pytest.raises(ValueError, match="loop weight"):
            obs.loop_boundary_entropy(n, 1.0, sizes=(6, 8, 10))

    @pytest.mark.parametrize("n", [0.3, 0.0])
    def test_nonpositive_square_raises(self, n):
        # ()(()) - (()()) has square 2 n^2 (n - 1) <= 0 for these weights
        index = dg.basis_index(dg.enumerate_dense(6))
        vec = np.zeros(len(index))
        vec[index[dg.from_text("()(())")]] = 1.0
        vec[index[dg.from_text("(()())")]] = -1.0
        with pytest.raises(ArithmeticError, match=f"L=6, n={n}"):
            obs._loop_normalized(vec, 6, n)
