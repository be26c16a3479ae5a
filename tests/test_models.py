"""Tests for the concrete chain and strip builders."""

from __future__ import annotations

import numpy as np
import pytest

from loopcells import diagrams as dg
from loopcells import fixtures as fx
from loopcells import forms, models, spectral, tl


class TestXXZ:
    def test_width_four_matches_printed_matrix(self):
        H, masks = models.build_xxz(4)
        assert len(masks) == 6
        np.testing.assert_allclose(H.toarray(), fx.SPIN_L4_HAMILTONIAN, atol=1e-14)

    def test_matches_generator_build(self):
        np.testing.assert_allclose(
            models.xxz_from_generators(4), fx.SPIN_L4_HAMILTONIAN, atol=1e-12
        )

    @pytest.mark.parametrize("L", [4, 6, 8])
    def test_sparse_agrees_with_dense(self, L):
        # the independent generator build is the dense oracle
        sparse, masks = models.build_xxz(L)
        assert masks == tl.spin_sector_basis(L, L // 2)
        np.testing.assert_allclose(
            sparse.toarray(), models.xxz_from_generators(L), atol=1e-12
        )

    def test_spectrum_is_real(self):
        # raw eigenvalues of the non-normal matrix pick up O(sqrt(eps))
        # imaginary parts at near-degenerate levels; cluster means cancel them
        H, _ = models.build_xxz(8)
        levels = spectral.full_spectrum(H.toarray())
        assert max(abs(cluster.value.imag) for cluster in levels) < 1e-10

    def test_self_adjoint_under_identity_form(self):
        H, masks = models.build_xxz(6)
        form = forms.identity_gram(len(masks))
        assert forms.adjointness_matrix_defect(H.toarray(), form) < 1e-12


class TestIsing:
    def test_width_two_matrix(self):
        # ring of two sites: sz sz bond counted twice, plus two spin flips
        H = models.build_ising(2).toarray()
        expect = np.array(
            [
                [-2, -1, -1, 0],
                [-1, 2, 0, -1],
                [-1, 0, 2, -1],
                [0, -1, -1, -2.0],
            ]
        )
        np.testing.assert_allclose(H, expect)

    @pytest.mark.parametrize("L", range(2, 9))
    def test_matches_per_bit_construction(self, L):
        dim = 1 << L
        expect = np.zeros((dim, dim))
        for mask in range(dim):
            for i in range(L):
                si = 1 - 2 * ((mask >> i) & 1)
                sj = 1 - 2 * ((mask >> ((i + 1) % L)) & 1)
                expect[mask, mask] -= si * sj
                expect[mask ^ (1 << i), mask] -= 1.0
        np.testing.assert_array_equal(models.build_ising(L).toarray(), expect)

    def test_symmetric(self):
        H = models.build_ising(6)
        assert abs(H - H.T).max() == 0.0

    def test_ground_energy_closed_form(self):
        # periodic critical chain: E0 = -sum over odd k of 2 sin(pi k / 2L)
        import scipy.sparse.linalg as spla

        L = 10
        H = models.build_ising(L)
        e0 = spla.eigsh(H, k=1, which="SA", return_eigenvectors=False)[0]
        ks = 2 * np.arange(L) + 1
        exact = -2 * np.sum(np.sin(np.pi * ks / (2 * L)))
        assert e0 == pytest.approx(exact, abs=1e-9)

    def test_boundary_vectors(self):
        fixed, free = models.ising_boundary_vectors(3)
        assert fixed[0] == 1.0 and fixed.sum() == 1.0
        np.testing.assert_allclose(free, np.ones(8))


class TestDenseLoopTransfer:
    def test_factored_matches_matrix(self):
        op = models.build_dense_loop_T(6, 1.0)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(op.dim)
        np.testing.assert_allclose(op.apply(v), op.matrix() @ v, atol=1e-12)

    def test_width_two_entries(self):
        # single state (); one lower and one upper generator, each 1 + e
        op = models.build_dense_loop_T(2, 1.7)
        n = 1.7
        np.testing.assert_allclose(op.matrix(), [[(1 + n) ** 2]])

    def test_row_preserves_positivity(self):
        op = models.build_dense_loop_T(8, 1.0)
        m = op.matrix()
        assert np.all(m >= 0)
        assert np.all(m.sum(axis=0) > 0)


class TestDiluteRow:
    def test_width_two_matches_printed_matrix(self):
        row = models.build_dilute_T(2)
        np.testing.assert_allclose(row.ket_row.toarray(), fx.dilute_T2(), atol=1e-15)

    def test_block_triangular_in_string_number(self):
        for L in (2, 3, 4, 5, 6):
            row = models.build_dilute_T(L)
            strings = np.array([s.n_strings for s in row.basis])
            for matrix in (row.ket_row, row.bra_row):
                rows, cols = matrix.nonzero()
                assert np.all(strings[rows] <= strings[cols])

    @pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
    def test_bra_and_ket_rows_share_spectrum(self, L):
        row = models.build_dilute_T(L)
        a = np.sort_complex(np.linalg.eigvals(row.ket_row.toarray()))
        b = np.sort_complex(np.linalg.eigvals(row.bra_row.toarray()))
        assert np.max(np.abs(a - b)) < 1e-9

    def test_left_action_is_not_plain_transpose(self):
        row = models.build_dilute_T(2)
        assert abs(row.bra_row - row.ket_row.T).max() > 0.01

    def test_printed_left_states(self):
        # the width-2 bras printed in the Jordan-basis display are right
        # eigenvectors and a partner of the reversed row
        row = models.build_dilute_T(2)
        ml = row.bra_row.toarray()
        x = fx.X_CRITICAL
        states = fx.dilute_T2_states(x)
        lam1 = x**4
        assert np.max(np.abs((ml - np.eye(3)) @ states["left_ground"])) < 1e-14
        assert np.max(np.abs((ml - lam1 * np.eye(3)) @ states["left_level1"])) < 1e-14
        np.testing.assert_allclose(
            (ml - lam1 * np.eye(3)) @ states["left_partner"],
            states["left_level1"],
            atol=1e-14,
        )

    def test_blocks_partition_the_row(self):
        row = models.build_dilute_T(4)
        T00, T02, T22, idx0, idx2 = models.dilute_blocks(row, row.ket_row)
        assert T00.shape == (len(idx0), len(idx0))
        assert T02.shape == (len(idx0), len(idx2))
        assert T22.shape == (len(idx2), len(idx2))
        assert set(idx0) | set(idx2) <= set(range(len(row.basis)))

    def test_row_conserves_monomer_weight_on_empty(self):
        # acting on the all-empty state returns it with weight one
        row = models.build_dilute_T(4)
        basis = row.basis
        empty = next(k for k, s in enumerate(basis) if not any(s.occupied_mask))
        col = row.ket_row.toarray()[:, empty]
        assert col[empty] == pytest.approx(1.0)


class TestPercolationChain:
    def test_matches_generator_sum(self):
        for y in (1.0, 2.0):
            H = models.build_percolation_H(4, y)
            es = tl.open_generators(4, 1.0, y)
            expect = 1.5 * np.eye(6) - 2 * sum(es)
            np.testing.assert_allclose(H, expect, atol=1e-14)

    def test_spectrum_independent_of_y(self):
        base = np.sort(np.linalg.eigvals(models.build_percolation_H(6, 1.0)).real)
        for y in (2.0, -1.0, 0.5):
            vals = np.sort(np.linalg.eigvals(models.build_percolation_H(6, y)).real)
            np.testing.assert_allclose(vals, base, atol=1e-8)

    @pytest.mark.parametrize("y", [1.0, 2.0, 0.5 + 1j])
    def test_one_site_chain_is_zero(self, y):
        # (L-1)/2 = 0 and there are no generators
        H = models.build_percolation_H(1, y)
        np.testing.assert_array_equal(H, np.zeros((1, 1)))
        assert H.dtype == (np.complex128 if isinstance(y, complex) else np.float64)

    def test_self_adjoint_under_link_form(self):
        for y in (1.0, 2.0):
            H = models.build_percolation_H(4, y)
            assert forms.adjointness_matrix_defect(H, forms.link_gram(4, y)) < 1e-12
