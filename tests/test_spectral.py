"""Tests for eigenvalue clustering, Jordan-cell extraction, and scaling helpers."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import operator_oracles as oracles
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from dilute_row_oracles import formed_blocks, formed_row
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from loopcells import fixtures, forms, models, spectral
from loopcells import observables as obs


def similarity(n: int, seed: int) -> np.ndarray:
    """The near-identity similarity ``S`` of :func:`embedded_jordan`."""
    return np.eye(n) + 0.1 * np.random.default_rng(seed).standard_normal((n, n))


def embedded_jordan(level: float, others: list[float], seed: int = 7) -> np.ndarray:
    """A dense matrix ``S J S^-1`` with one rank-two cell at ``level``, diagonalizable elsewhere."""
    J = np.diag(np.concatenate([[level, level], others]))
    J[0, 1] = 1.0
    S = similarity(len(J), seed)
    return S @ J @ np.linalg.inv(S)


def cell_form(S: np.ndarray) -> np.ndarray:
    """The invariant form ``G = S^-T K S^-1`` of ``S J S^-1`` (``G A = A^T G``).

    ``J`` holds its rank-two cell on the first two coordinates and is
    diagonal elsewhere; ``K`` swaps those two coordinates and is the
    identity elsewhere, so that ``K J = J^T K``.
    """
    K = np.eye(len(S))
    K[:2, :2] = [[0.0, 1.0], [1.0, 0.0]]
    S_inv = np.linalg.inv(S)
    return S_inv.T @ K @ S_inv


def synthetic_cell(seed: int = 7):
    """``(A, vectors, G)``: :func:`embedded_jordan` at 1.5, its cluster's eigenvectors and its form."""
    A = embedded_jordan(1.5, [0.0, 3.0, -2.0, 0.7], seed)
    return A, cluster_vectors(A, 1.5)[1], cell_form(similarity(len(A), seed))


class TestClustering:
    def test_groups_nearby_values(self):
        eigs = np.array([1.0, 1.0 + 1e-9, 2.0, 3.0, 3.0 - 2e-9])
        clusters = spectral.cluster_eigenvalues(eigs)
        assert [c.size for c in clusters] == [2, 1, 2]
        assert clusters[0].value == pytest.approx(1.0 + 5e-10, abs=1e-15)
        assert clusters[2].value == pytest.approx(3.0 - 1e-9, abs=1e-15)

    def test_tight_tolerance_splits(self):
        eigs = np.array([1.0, 1.0 + 1e-9, 2.0])
        clusters = spectral.cluster_eigenvalues(eigs, rel_tol=1e-12)
        assert [c.size for c in clusters] == [1, 1, 1]

    def test_full_spectrum_of_diagonal(self):
        A = np.diag([3.0, 1.0, 1.0 + 1e-8, -2.0])
        clusters = spectral.full_spectrum(A)
        assert [c.size for c in clusters] == [1, 2, 1]
        assert clusters[0].value == pytest.approx(-2.0)
        assert clusters[-1].value == pytest.approx(3.0)

    def test_no_eigenvalues_make_no_clusters(self):
        assert spectral.cluster_eigenvalues(np.array([])) == []
        assert spectral.cluster_eigenvalues(np.zeros(0, dtype=complex), rel_tol=1e-12) == []

    def test_members_are_kept(self):
        clusters = spectral.full_spectrum(np.diag([1.0, 1.0]))
        assert len(clusters[0].members) == 2

    def test_dimension_guard(self, monkeypatch):
        monkeypatch.setattr(spectral, "DENSE_LIMIT", 8)
        with pytest.raises(ValueError, match="limited to dimension"):
            spectral.full_spectrum(np.eye(9))

    def test_level_cluster_bounds(self):
        clusters = spectral.full_spectrum(np.diag([1.0, 2.0]))
        assert spectral.level_cluster(clusters, 1).value == pytest.approx(2.0)
        with pytest.raises(ValueError, match="distinct levels"):
            spectral.level_cluster(clusters, 5)


class TestGroundState:
    def test_symmetric_extremes(self):
        A = np.diag([4.0, -1.0, 2.0])
        lam_min, v_min = spectral.ground_state(A, "min")
        lam_max, v_max = spectral.ground_state(A, "max")
        assert lam_min == pytest.approx(-1.0)
        assert lam_max == pytest.approx(4.0)
        assert abs(v_min[1]) == pytest.approx(1.0)
        assert abs(v_max[0]) == pytest.approx(1.0)

    def test_bilinear_normalization_with_sign(self):
        A = np.array([[2.0, 1.0], [1.0, 2.0]])
        G = np.eye(2)
        _, v = spectral.ground_state(A, "min", gram=G)
        assert complex(v @ (G @ v)) == pytest.approx(1.0)
        assert v[np.argmax(np.abs(v))].real > 0

    def test_normalize_bilinear_rejects_null_state(self):
        G = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="vanishing bilinear square"):
            spectral.normalize_bilinear(np.array([1.0, 0.0]), G)

    def test_sign_fix_flips_negative_leader(self):
        v = np.array([0.1, -0.9, 0.2])
        fixed = spectral.sign_fix(v)
        np.testing.assert_allclose(fixed, -v)
        np.testing.assert_allclose(spectral.sign_fix(fixed), fixed)


class TestMultiplicityProbes:
    def test_geometric_multiplicity_counts_kernel(self):
        assert oracles.geometric_multiplicity(np.diag([2.0, 2.0, 3.0]), 2.0) == 2
        assert oracles.geometric_multiplicity(np.array([[2.0, 1.0], [0.0, 2.0]]), 2.0) == 1
        assert oracles.geometric_multiplicity(np.diag([2.0, 3.0]), 5.0) == 0

    def test_nilpotent_norm_detects_cell(self):
        A = embedded_jordan(1.5, [0.0, 3.0, -2.0])
        assert oracles.nilpotent_norm(A, 1.5, 0.1) > 1e-4

    def test_nilpotent_norm_vanishes_when_diagonalizable(self):
        rng = np.random.default_rng(11)
        S = np.eye(4) + 0.1 * rng.standard_normal((4, 4))
        A = S @ np.diag([1.5, 1.5, 3.0, -2.0]) @ np.linalg.inv(S)
        assert oracles.nilpotent_norm(A, 1.5, 0.1) < 1e-10

    def test_nilpotent_norm_empty_radius(self):
        with pytest.raises(ValueError, match="no eigenvalue within"):
            oracles.nilpotent_norm(np.diag([1.0, 2.0]), 10.0, 0.1)


def flat(*parts) -> np.ndarray:
    return np.concatenate([np.ravel(p) for p in parts])


def jordan_probe(A) -> np.ndarray:
    # the spin chain is complex symmetric: its form is the identity
    level = spectral.full_spectrum(A)[3].value
    vectors = cluster_vectors(spectral._dense(A), level)[1]
    cell = spectral.extract_jordan_cell(A, level, vectors, np.eye(A.shape[0]))
    return flat(cell.value, cell.vector, cell.partner)


SPARSE_PROBES = {
    "full_spectrum": lambda A: flat([c.value for c in spectral.full_spectrum(A)]),
    "ground_state": lambda A: flat(*spectral.ground_state(A, "min", gram=np.eye(A.shape[0]))),
    "extract_jordan_cell": jordan_probe,
    "geometric_multiplicity": lambda A: flat(oracles.geometric_multiplicity(A, 1.5)),
    "nilpotent_norm": lambda A: flat(oracles.nilpotent_norm(A, 1.5, 1e-4)),
}


class TestSparseInput:
    @pytest.mark.parametrize("name", sorted(SPARSE_PROBES))
    def test_sparse_matches_dense(self, name):
        # the width-4 chain has its rank-two cell at the fourth level, 1.5
        H = models.build_xxz(4)[0]
        probe = SPARSE_PROBES[name]
        np.testing.assert_allclose(probe(H), probe(H.toarray()), rtol=0, atol=1e-12)

    def test_oversized_sparse_input_is_refused_before_densifying(self, monkeypatch):
        monkeypatch.setattr(spectral, "DENSE_LIMIT", 4)
        with pytest.raises(ValueError, match="refusing to densify a 6x6"):
            spectral.ground_state(models.build_xxz(4)[0])


class TestJordanExtraction:
    @pytest.mark.parametrize("container", [np.asarray, sp.csr_matrix], ids=["ndarray", "csr"])
    def test_recovers_synthetic_cell(self, container):
        A, vectors, G = synthetic_cell()
        cell = spectral.extract_jordan_cell(container(A), 1.5, vectors, G)
        shifted = A - 1.5 * np.eye(A.shape[0])
        assert np.linalg.norm(shifted @ cell.vector) < 1e-10
        assert np.linalg.norm(shifted @ cell.partner - cell.vector) < 1e-8
        # minimal-norm gauge removes the eigenvector component of the partner
        assert abs(np.vdot(cell.vector, cell.partner)) < 1e-10
        assert cell.residual_v < 1e-10
        assert cell.residual_w < 1e-8

    def test_diagonalizable_level_is_refused(self):
        rng = np.random.default_rng(5)
        S = np.eye(4) + 0.1 * rng.standard_normal((4, 4))
        A = S @ np.diag([1.5, 1.5, 3.0, -2.0]) @ np.linalg.inv(S)
        S_inv = np.linalg.inv(S)
        with pytest.raises(spectral.DiagonalizableLevelError, match="diagonalizable"):
            spectral.extract_jordan_cell(A, 1.5, cluster_vectors(A, 1.5)[1], S_inv.T @ S_inv)

    def test_missing_level_is_refused(self):
        with pytest.raises(spectral.ClusterSizeError, match="no kernel"):
            spectral.extract_jordan_cell(np.diag([1.0, 2.0, 3.0]), 10.0, np.eye(3)[:, :2], np.eye(3))

    def test_exactly_singular_shift_gives_a_certified_cell(self, factor_dtypes):
        # unit-triangular integer similarity: the shift at 1.5 is exactly
        # singular in floating point, and only the bordered system is factored
        J = np.diag([1.5, 1.5, 0.0, 3.0, -2.0, 0.5])
        J[0, 1] = 1.0
        S = np.eye(6) + np.triu(np.arange(36.0).reshape(6, 6) % 3 - 1, 1)
        A = S @ J @ np.linalg.inv(S)
        cell = spectral.extract_jordan_cell(A, 1.5, cluster_vectors(A, 1.5)[1], cell_form(S))
        assert factor_dtypes == [np.float64]
        assert cell.residual_v < 1e-12 and cell.residual_w < 1e-8
        shifted = A - 1.5 * np.eye(6)
        assert np.linalg.norm(shifted @ cell.vector) < 1e-10
        assert np.linalg.norm(shifted @ cell.partner - cell.vector) < 1e-8
        with pytest.raises(RuntimeError, match="exactly singular"):
            spectral._factor(sp.csc_matrix(shifted))

    def test_width_four_spin_cell_has_roundoff_residuals(self):
        # the spin chain is complex symmetric: its form is the identity
        H = models.build_xxz(4)[0]
        level = spectral.full_spectrum(H)[3].value
        vectors = cluster_vectors(H.toarray(), level)[1]
        cell = spectral.extract_jordan_cell(H, level, vectors, np.eye(6))
        assert cell.residual_v < 1e-12 and cell.residual_w < 1e-12

    def test_wrong_partner_is_refused(self, monkeypatch):
        solve = spectral._bordered_partner

        def kicked(shifted, v, ell):
            w = solve(shifted, v, ell)
            kick = np.random.default_rng(3).standard_normal(len(w))
            return w + 1e-6 * np.linalg.norm(w) * kick / np.linalg.norm(kick)

        monkeypatch.setattr(spectral, "_bordered_partner", kicked)
        A, vectors, G = synthetic_cell()
        with pytest.raises(ArithmeticError, match="fails its cell relations"):
            spectral.extract_jordan_cell(A, 1.5, vectors, G)


def symmetric_jordan(level: float, others: list[float], seed: int = 7) -> np.ndarray:
    """A complex-symmetric matrix with one rank-two cell at ``level``, diagonal elsewhere.

    ``[[1, i], [i, -1]]`` is complex symmetric and squares to zero; a real
    orthogonal similarity keeps the whole matrix complex symmetric.
    """
    n = 2 + len(others)
    J = np.diag(np.concatenate([[level, level], others])).astype(complex)
    J[:2, :2] += np.array([[1.0, 1j], [1j, -1.0]])
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    A = Q @ J @ Q.T
    return (A + A.T) / 2


def cluster_vectors(A, level: float):
    """The mean of the two eigenvalues of ``A`` nearest ``level`` and their eigenvectors."""
    vals, vecs = np.linalg.eig(A)
    pair = np.argsort(np.abs(vals - level))[:2]
    return complex(np.mean(vals[pair])), vecs[:, pair]


class TestClusterCell:
    def test_complex_symmetric_cell_is_bordered_by_the_identity_form(self, factor_dtypes):
        A = symmetric_jordan(1.5, [0.0, 3.0, -2.0, 0.7])
        assert np.array_equal(A, A.T)
        level, vectors = cluster_vectors(A, 1.5)
        cell = spectral.extract_jordan_cell(A, level, vectors, np.eye(6))
        # the bordered system is the one factorization
        assert factor_dtypes == [np.complex128]
        assert cell.residual_v < 1e-12 and cell.residual_w < 1e-8
        # the kernel vector is isotropic: v^T v vanishes at a cell
        assert abs(cell.vector @ cell.vector) < 1e-7
        assert_same_cell(cell, oracles.inverse_iteration_cell(A, level))

    def test_open_chain_cell_matches_the_inverse_iteration(self):
        H = models.build_percolation_H(8, 2.0)
        vals, vecs = obs._low_spectrum(H, 8)
        cluster = obs._level((vals, vecs), 3, 1e-5)
        block = vecs[:, np.isin(vals, cluster.members)]
        cell = spectral.extract_jordan_cell(H, cluster.value, block, forms.link_gram(8, 2.0))
        assert cell.vector.dtype == cell.partner.dtype == np.float64
        assert_same_cell(cell, oracles.inverse_iteration_cell(H, cluster.value))

    def test_form_that_does_not_intertwine_is_refused(self):
        A = symmetric_jordan(1.5, [0.0, 3.0, -2.0, 0.7])
        level, vectors = cluster_vectors(A, 1.5)
        with pytest.raises(ArithmeticError, match="left residual"):
            spectral.extract_jordan_cell(A, level, vectors, np.diag([1.0, 2.0, 1.0, 1.0, 1.0, 1.0]))

    def test_diagonalizable_cluster_is_refused(self):
        rng = np.random.default_rng(5)
        S = np.eye(4) + 0.1 * rng.standard_normal((4, 4))
        A = S @ np.diag([1.5, 1.5, 3.0, -2.0]) @ np.linalg.inv(S)
        level, vectors = cluster_vectors(A, 1.5)
        with pytest.raises(spectral.DiagonalizableLevelError, match="kernel dimension 2"):
            spectral.extract_jordan_cell(A, level, vectors, np.eye(4))

    def test_simple_level_is_refused(self):
        # one eigenvector with a kernel direction, as on a genuine cell,
        # and a certified border, but no partner: only the partner residual tells
        A = symmetric_jordan(1.5, [0.0, 3.0, -2.0, 0.7])
        vals, vecs = np.linalg.eig(A)
        k = int(np.argmin(np.abs(vals - 3.0)))
        with pytest.raises(ArithmeticError, match="fails its cell relations"):
            spectral.extract_jordan_cell(A, vals[k], vecs[:, [k]], np.eye(6))

    @pytest.mark.parametrize(
        "L, y, columns, pair",
        [
            (8, 2.0, 1, "real"),
            (8, 1.0, 2, "real"),
            (10, 2.0, 2, "conjugate"),
            (12, 2.0, 2, "real"),
            (10, 1.0, 2, "real"),
            (10, 0.5 + 1j, 2, "complex"),
        ],
    )
    def test_block_is_the_span_above_roundoff(self, monkeypatch, L, y, columns, pair):
        # LAPACK's split pair at L=8 agrees to roundoff (one direction);
        # ARPACK's differs by about 1e-8, as the real and imaginary parts of
        # a conjugate pair (L=10), as two real vectors (L=12) or in complex
        # arithmetic; a diagonalizable pair (y=1) spans two directions
        widths = []
        block_cell = spectral._block_cell

        def spy(A, shifted, level, X, *args):
            widths.append(X.shape[1])
            np.testing.assert_allclose(X.conj().T @ X, np.eye(X.shape[1]), atol=1e-14)
            return block_cell(A, shifted, level, X, *args)

        monkeypatch.setattr(spectral, "_block_cell", spy)
        H = models.build_percolation_H(L, y)
        vals, vecs = obs._low_spectrum(H, L)
        cluster = obs._level((vals, vecs), 3, 1e-5)
        if pair != "complex":
            assert np.any(np.imag(cluster.members) != 0) == (pair == "conjugate")
        block = vecs[:, np.isin(vals, cluster.members)]
        gram = forms.link_gram(L, y)
        if y == 1.0:
            with pytest.raises(spectral.DiagonalizableLevelError):
                spectral.extract_jordan_cell(H, cluster.value, block, gram)
        else:
            spectral.extract_jordan_cell(H, cluster.value, block, gram)
        assert widths == [columns]


def assert_same_csc(a, b):
    """Identical CSC storage: shape, dtype, index pointers, indices and values."""
    assert a.format == b.format == "csc"
    assert a.shape == b.shape and a.dtype == b.dtype
    np.testing.assert_array_equal(a.indptr, b.indptr)
    np.testing.assert_array_equal(a.indices, b.indices)
    np.testing.assert_array_equal(a.data, b.data)


def bmat_bordered(shifted, v, ell):
    """``[[shifted, ell], [v^H, 0]]`` through ``sp.bmat`` (the bordered oracle)."""
    return sp.bmat([[shifted, ell[:, None]], [v.conj()[None, :], None]], format="csc")


class TestBordered:
    def test_random_complex_matrix_matches_bmat(self):
        rng = np.random.default_rng(11)
        n = 40
        shifted = (
            sp.random(n, n, density=0.1, random_state=1)
            + 1j * sp.random(n, n, density=0.1, random_state=2)
        ).tocsc()
        # two empty columns, and zeros in both borders
        shifted = sp.csc_matrix(shifted.multiply(np.arange(n) % 17 != 3))
        shifted.eliminate_zeros()
        assert np.any(np.diff(shifted.indptr) == 0)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ell = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v[::7], ell[::5] = 0, 0
        assert_same_csc(spectral._bordered(shifted, v, ell), bmat_bordered(shifted, v, ell))

    def test_real_shift_with_complex_borders_upcasts(self):
        shifted = sp.csc_matrix(np.diag([1.0, 0.0, 2.0]))
        v, ell = np.array([1j, 0.0, 1.0]), np.array([0.0, 1.0, 0.0])
        assert_same_csc(spectral._bordered(shifted, v, ell), bmat_bordered(shifted, v, ell))

    def test_open_chain_matches_bmat(self):
        H = models.build_percolation_H(8, 2.0)
        level = obs._level(obs._low_spectrum(H, 8), 3, 1e-5).value
        _, shifted = spectral._shift(H, level)
        X, ell = oracles.kernel_pair(shifted, columns=2)
        null_dim, v = spectral._near_kernel(shifted, X, level)
        assert null_dim == 1
        assert_same_csc(spectral._bordered(shifted, v, ell), bmat_bordered(shifted, v, ell))


def shift_systems(H, index: int, L: int) -> dict:
    """The systems factored at a width-L chain: the ARPACK shift, the level and its border.

    The pipelines factor only the first and the last; the level is the
    inverse-iteration oracle's (:func:`operator_oracles.kernel_pair`).
    """
    H = sp.csc_matrix(H)
    sigma = -1.5 * (L - 1) - 1.0
    level = obs._level(obs._low_spectrum(H, L), index, 1e-5).value
    _, shifted = spectral._shift(H, level)
    X, ell = oracles.kernel_pair(shifted, columns=2)
    _, v = spectral._near_kernel(shifted, X, level)
    return {
        "sigma": H - sigma * sp.identity(H.shape[0], dtype=H.dtype, format="csc"),
        "level": shifted,
        "bordered": spectral._bordered(shifted, v, ell),
    }


class TestFactor:
    @pytest.mark.parametrize(
        "level", [1.5, complex(1.5, 0.0), np.complex128(1.5)], ids=["float", "complex", "numpy"]
    )
    def test_real_input_factors_in_float64(self, level, factor_dtypes):
        A, vectors, G = synthetic_cell()
        cell = spectral.extract_jordan_cell(A, level, vectors, G)
        assert factor_dtypes == [np.float64]
        assert cell.vector.dtype == cell.partner.dtype == np.float64
        # the cell keeps the level as it was passed
        assert cell.value is level

    def test_complex_level_or_matrix_factors_in_complex(self):
        A = embedded_jordan(1.5, [0.0, 3.0, -2.0, 0.7])
        for matrix, level in ((A, 1.5 + 1e-15j), (A.astype(complex), 1.5)):
            shifted = spectral._shift(matrix, level)[1]
            assert shifted.dtype == np.complex128

    def test_open_chain_cell_keeps_its_level(self):
        H = models.build_percolation_H(8, 2.0)
        vals, vecs = obs._low_spectrum(H, 8)
        cluster = obs._level((vals, vecs), 3, 1e-5)
        level = cluster.value
        assert isinstance(level, complex) and level.imag == 0
        block = vecs[:, np.isin(vals, cluster.members)]
        cell = spectral.extract_jordan_cell(H, level, block, forms.link_gram(8, 2.0))
        assert cell.value is level

    @pytest.mark.parametrize("chain", ["open", "spin"])
    def test_solves_have_small_residuals(self, chain):
        # relative residual ||M x - b|| / (||M||_F ||x||) of both solve
        # directions on each L=12 system, the nearly singular level included
        if chain == "open":
            systems = shift_systems(models.build_percolation_H(12, 2.0), 3, 12)
        else:
            systems = shift_systems(obs._xxz_chain(12, fixtures.Q_VALUE).H, 2, 12)
        b = np.random.default_rng(1).standard_normal(systems["sigma"].shape[0])
        for name, M in systems.items():
            lu = spectral._factor(M)
            rhs = b if name != "bordered" else np.append(b, 1.0)
            for trans, op in (("N", M), ("H", M.conj().T)):
                x = lu.solve(rhs, trans=trans)
                residual = np.linalg.norm(op @ x - rhs) / (spla.norm(M) * np.linalg.norm(x))
                assert residual <= 1e-12, (name, trans, residual)


class TestCellStructure:
    @pytest.mark.parametrize("y", [1.0, 2.0, -1.0, 0.5, 0.5 + 1j])
    @pytest.mark.parametrize("L", [4, 6, 8, 10])
    def test_matches_the_dense_helpers(self, L, y):
        # the spectrum does not depend on y, so every chain has the y=1 level
        clusters = spectral.full_spectrum(models.build_percolation_H(L, 1.0))
        level = clusters[3].value
        radius = 1e-4 * max(abs(c.value) for c in clusters)
        H = models.build_percolation_H(L, y)
        _, vectors = cluster_vectors(H.toarray(), level)
        kernel_dim, norm = spectral.cell_structure(H, level, vectors, forms.link_gram(L, y))
        dense = oracles.nilpotent_norm(H, level, radius)
        assert kernel_dim == oracles.geometric_multiplicity(H, level)
        if y == 1.0:
            assert kernel_dim == 2 and norm < 1e-12 and dense < 1e-12
        else:
            assert kernel_dim == 1
            assert norm == pytest.approx(dense, rel=1e-10)

    @pytest.mark.parametrize("container", [np.asarray, sp.csr_matrix], ids=["ndarray", "csr"])
    def test_synthetic_cell_and_degeneracy(self, container):
        A, vectors, G = synthetic_cell()
        kernel_dim, norm = spectral.cell_structure(container(A), 1.5, vectors, G)
        assert kernel_dim == 1
        assert norm == pytest.approx(oracles.nilpotent_norm(A, 1.5, 0.1), rel=1e-10)
        rng = np.random.default_rng(11)
        S = np.eye(4) + 0.1 * rng.standard_normal((4, 4))
        B = S @ np.diag([1.5, 1.5, 3.0, -2.0]) @ np.linalg.inv(S)
        S_inv = np.linalg.inv(S)
        kernel_dim, norm = spectral.cell_structure(
            container(B), 1.5, cluster_vectors(B, 1.5)[1], S_inv.T @ S_inv
        )
        assert kernel_dim == 2 and norm < 1e-12

    def test_missing_level_is_refused(self):
        with pytest.raises(spectral.ClusterSizeError, match="no kernel"):
            spectral.cell_structure(np.diag([1.0, 2.0, 3.0]), 10.0, np.eye(3)[:, :2], np.eye(3))

    def test_raw_block_of_a_genuine_cell_is_refused(self):
        # the two-column inverse-iteration block holds the kernel direction,
        # but at L=8, y=2 its second column is far from the cell's subspace
        H = models.build_percolation_H(8, 2.0)
        A, shifted = spectral._shift(H, spectral.full_spectrum(H)[3].value)
        X = oracles.kernel_pair(shifted, columns=2)[0]
        with pytest.raises(ArithmeticError, match="not an invariant subspace"):
            spectral._compression(A, X)

    def test_perturbed_subspace_is_refused(self, monkeypatch):
        block_cell = spectral._block_cell

        def kicked(*args):
            cell = block_cell(*args)
            w = cell.partner
            kick = np.random.default_rng(3).standard_normal(len(w))
            return replace(cell, partner=w + 1e-4 * np.linalg.norm(w) * kick / np.linalg.norm(kick))

        monkeypatch.setattr(spectral, "_block_cell", kicked)
        A, vectors, G = synthetic_cell()
        with pytest.raises(ArithmeticError, match="not an invariant subspace"):
            spectral.cell_structure(A, 1.5, vectors, G)


class TestPerron:
    def test_matches_dense_eigensolve(self):
        rng = np.random.default_rng(9)
        M = rng.random((8, 8))
        lam, v = spectral.perron_pair(sp.csr_matrix(M))
        vals = np.linalg.eigvals(M)
        assert lam == pytest.approx(float(np.max(vals.real)), rel=1e-12)
        assert np.all(v > 0)
        np.testing.assert_allclose(M @ v, lam * v, atol=1e-10)

    def test_small_matrix_path(self):
        M = np.array([[2.0, 1.0], [1.0, 2.0]])
        lam, v = spectral.perron_pair(M)
        assert lam == pytest.approx(3.0)
        np.testing.assert_allclose(v, np.ones(2) / np.sqrt(2))

    def test_unconverged_iteration_raises(self):
        # leading ratio 0.999: the vector error shrinks by that factor per step
        M = np.diag([1.0, 0.999, 0.5]) + 0.01 * np.ones((3, 3))
        with pytest.raises(spectral.ConvergenceError, match="did not converge in 50"):
            spectral.perron_pair(M, max_iter=50)
        lam, v = spectral.perron_pair(M)
        np.testing.assert_allclose(M @ v, lam * v, atol=1e-10)


def lu_block_cell(T00, T02, T22) -> spectral.JordanCell:
    """The sparse-LU block cell on formed blocks (the iterative cell's oracle).

    Inverse iteration on one LU of ``T00 - lambda`` for the kernel pair,
    then a second LU of the bordered system for the partner.
    """
    T00, T02, T22 = (sp.csc_matrix(b) for b in (T00, T02, T22))
    lam1, u2 = spectral.perron_pair(T22)
    n0 = T00.shape[0]
    shifted = (T00 - lam1 * sp.identity(n0, format="csc")).tocsc()
    X, ell0 = oracles.kernel_pair(shifted)
    v0 = X[:, 0]
    c = (ell0 @ v0) / (ell0 @ (T02 @ u2))
    rhs = np.append(v0 - c * (T02 @ u2), 0.0)
    w0 = spectral._factor(spectral._bordered(shifted, v0, ell0)).solve(rhs)[:-1]
    A = sp.bmat([[T00, T02], [None, T22]], format="csr")
    v = np.concatenate([v0, np.zeros(T22.shape[0])])
    w = np.concatenate([w0, c * u2])
    return spectral._jordan_cell(lambda x: A @ x - lam1 * x, 1.0, lam1, v, w)


def assert_same_cell(cell, oracle):
    """Parallel vectors to 1e-12 and equal minimal-norm partners to 1e-10."""
    v, u = cell.vector, oracle.vector
    overlap = np.vdot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))
    assert 1 - abs(overlap) < 1e-12
    # both vectors are unit; align the oracle's phase and scale with the cell's
    phase = np.vdot(u, v) / np.vdot(u, u)
    error = np.linalg.norm(cell.partner - phase * oracle.partner)
    assert error <= 1e-10 * np.linalg.norm(cell.partner)
    assert cell.value == pytest.approx(oracle.value, rel=1e-12)


class TestBlockJordan:
    @staticmethod
    def make_blocks(n0: int = 6, n2: int = 6, seed: int = 13):
        rng = np.random.default_rng(seed)
        T22 = rng.random((n2, n2)) + 0.1
        lam1, _ = spectral.perron_pair(T22)
        # plant the same leading level inside the first block
        Q = np.eye(n0) + 0.1 * rng.standard_normal((n0, n0))
        spectrum = np.concatenate([[lam1], lam1 - 0.5 - rng.random(n0 - 1)])
        T00 = Q @ np.diag(spectrum) @ np.linalg.inv(Q)
        T02 = rng.random((n0, n2))
        return T00, T02, T22, lam1

    @staticmethod
    def assemble(T00, T02, T22):
        n0, n2 = T00.shape[0], T22.shape[0]
        A = np.zeros((n0 + n2, n0 + n2))
        A[:n0, :n0] = T00
        A[:n0, n0:] = T02
        A[n0:, n0:] = T22
        return A

    @pytest.mark.parametrize("seed", [13, 21])
    @pytest.mark.parametrize("n0", [6, 40])
    def test_cell_satisfies_defining_relations(self, seed, n0):
        T00, T02, T22, lam_expect = self.make_blocks(n0=n0, seed=seed)
        cell, _ = spectral.block_jordan_cell(T00, T02, T22)
        lam, v, w = cell.value, cell.vector, cell.partner
        assert lam == pytest.approx(lam_expect, rel=1e-12)
        assert cell.residual_v < 1e-12 and cell.residual_w < 1e-8
        A = self.assemble(T00, T02, T22)
        shifted = A - lam * np.eye(A.shape[0])
        assert np.linalg.norm(shifted @ v) < 1e-8
        assert np.linalg.norm(shifted @ w - v) < 1e-8 * max(np.linalg.norm(v), 1.0)
        assert abs(np.vdot(v, w)) < 1e-10
        # the eigenvector lives purely in the first block
        assert np.linalg.norm(v[T00.shape[0] :]) == 0.0

    def test_unshared_level_is_refused(self):
        for seed in (13, 21):
            T00, T02, T22, lam1 = self.make_blocks(seed=seed)
            lowered = T00 - 1.0 * np.eye(T00.shape[0])
            with pytest.raises(spectral.DiagonalizableLevelError, match="not shared"):
                spectral.block_jordan_cell(lowered, T02, T22)

    def test_decoupled_sectors_are_refused(self):
        T00, T02, T22, _ = self.make_blocks()
        with pytest.raises(spectral.DiagonalizableLevelError, match="decouple"):
            spectral.block_jordan_cell(T00, np.zeros_like(T02), T22)

    @pytest.mark.parametrize("L", [2, 4, 6, 8])
    def test_factored_dilute_cell_matches_the_lu_oracle(self, L):
        # the tile blocks against the LU cell and the iterative cell of the
        # formed half-rows' slices
        row = models.build_dilute_T(L)
        blocks = models.dilute_blocks(row)[:3]
        cell, _ = spectral.block_jordan_cell(*blocks)
        formed = formed_blocks(formed_row(L))[:3]
        assert_same_cell(cell, lu_block_cell(*(b.matrix() for b in formed)))
        assert_same_cell(cell, spectral.block_jordan_cell(*formed)[0])

    @pytest.mark.parametrize("L", [4, 8])
    def test_leading_ritz_pair_is_the_perron_pair_of_T00(self, L):
        T00, T02, T22 = models.dilute_blocks(models.build_dilute_T(L))[:3]
        _, (lam0, u0) = spectral.block_jordan_cell(T00, T02, T22)
        lam, u = spectral.perron_pair(T00)
        assert lam0 == pytest.approx(lam, rel=1e-13)
        assert np.linalg.norm(u0 - u) < 1e-10

    @given(st.integers(2, 30), st.integers(1, 8), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_blocks_match_the_lu_oracle(self, n0, n2, seed):
        T00, T02, T22, lam1 = self.make_blocks(n0=n0, n2=n2, seed=seed)
        # the iterative cell sees the three largest-modulus levels of T00,
        # so at most two may lie above the planted one (beyond roundoff)
        assume(np.sum(np.abs(np.linalg.eigvals(T00)) > (1 + 1e-9) * lam1) < 3)
        cell, _ = spectral.block_jordan_cell(T00, T02, T22)
        assert cell.residual_w < 1e-8
        assert_same_cell(cell, lu_block_cell(T00, T02, T22))

    def test_level_outside_the_ritz_window_is_refused(self):
        # lam1 = 0.499 while T00 has three eigenvalues of larger modulus
        # (all negative), so ARPACK's three Ritz values miss the level
        T00, T02, T22, lam1 = self.make_blocks(n0=5, n2=1, seed=18)
        assert np.sum(np.abs(np.linalg.eigvals(T00)) > lam1) >= 3
        with pytest.raises(spectral.DiagonalizableLevelError, match="three largest"):
            spectral.block_jordan_cell(T00, T02, T22)

    def test_unconverged_gmres_raises(self, monkeypatch):
        T00, T02, T22, _ = self.make_blocks(n0=40)
        monkeypatch.setattr(spectral, "GMRES_STEPS", 3)
        with pytest.raises(spectral.ConvergenceError, match="two cycles of 3 steps"):
            spectral.block_jordan_cell(T00, T02, T22)

    def test_partner_off_the_cell_is_refused(self, monkeypatch):
        # a solver that reports success on a perturbed solution must not
        # yield a cell
        T00, T02, T22, _ = self.make_blocks(n0=40)
        gmres = spectral.spla.gmres

        def sloppy(*args, **kwargs):
            x, info = gmres(*args, **kwargs)
            return x + 1e-6 * np.linalg.norm(x), info

        monkeypatch.setattr(spectral.spla, "gmres", sloppy)
        with pytest.raises(ArithmeticError, match="fails its partner relation"):
            spectral.block_jordan_cell(T00, T02, T22)


class TestScalingEstimates:
    def test_hamiltonian_delta(self):
        assert spectral.hamiltonian_delta(4, 1.0, 0.0, 2.0) == pytest.approx(
            4.0 / (2.0 * np.pi)
        )

    def test_transfer_delta(self):
        L, lam0 = 6, 2.0
        lam = lam0 * np.exp(-np.pi / (L * np.sqrt(3.0) / 2) * 1.25)
        assert spectral.transfer_delta(L, lam, lam0) == pytest.approx(1.25, rel=1e-12)
