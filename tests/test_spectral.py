"""Tests for eigenvalue clustering, Jordan-cell extraction, and scaling helpers."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from loopcells import models, spectral


def embedded_jordan(level: float, others: list[float], seed: int = 7) -> np.ndarray:
    """A dense matrix with one rank-two cell at ``level``, diagonalizable elsewhere."""
    rng = np.random.default_rng(seed)
    blocks = [np.array([[level, 1.0], [0.0, level]])] + [np.array([[x]]) for x in others]
    J = np.zeros((2 + len(others), 2 + len(others)))
    k = 0
    for block in blocks:
        d = block.shape[0]
        J[k : k + d, k : k + d] = block
        k += d
    S = np.eye(J.shape[0]) + 0.1 * rng.standard_normal(J.shape)
    return S @ J @ np.linalg.inv(S)


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
        assert spectral.geometric_multiplicity(np.diag([2.0, 2.0, 3.0]), 2.0) == 2
        assert spectral.geometric_multiplicity(np.array([[2.0, 1.0], [0.0, 2.0]]), 2.0) == 1
        assert spectral.geometric_multiplicity(np.diag([2.0, 3.0]), 5.0) == 0

    def test_nilpotent_norm_detects_cell(self):
        A = embedded_jordan(1.5, [0.0, 3.0, -2.0])
        assert spectral.nilpotent_norm(A, 1.5, 0.1) > 1e-4

    def test_nilpotent_norm_vanishes_when_diagonalizable(self):
        rng = np.random.default_rng(11)
        S = np.eye(4) + 0.1 * rng.standard_normal((4, 4))
        A = S @ np.diag([1.5, 1.5, 3.0, -2.0]) @ np.linalg.inv(S)
        assert spectral.nilpotent_norm(A, 1.5, 0.1) < 1e-10

    def test_nilpotent_norm_empty_radius(self):
        with pytest.raises(ValueError, match="no eigenvalue within"):
            spectral.nilpotent_norm(np.diag([1.0, 2.0]), 10.0, 0.1)


def flat(*parts) -> np.ndarray:
    return np.concatenate([np.ravel(p) for p in parts])


def jordan_probe(A) -> np.ndarray:
    cell = spectral.extract_jordan_cell(A, spectral.full_spectrum(A)[3].value)
    return flat(cell.value, cell.vector, cell.partner)


SPARSE_PROBES = {
    "full_spectrum": lambda A: flat([c.value for c in spectral.full_spectrum(A)]),
    "ground_state": lambda A: flat(*spectral.ground_state(A, "min", gram=np.eye(A.shape[0]))),
    "extract_jordan_cell": jordan_probe,
    "geometric_multiplicity": lambda A: flat(spectral.geometric_multiplicity(A, 1.5)),
    "nilpotent_norm": lambda A: flat(spectral.nilpotent_norm(A, 1.5, 1e-4)),
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
        A = embedded_jordan(1.5, [0.0, 3.0, -2.0, 0.7])
        cell = spectral.extract_jordan_cell(container(A), 1.5)
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
        with pytest.raises(spectral.DiagonalizableLevelError, match="diagonalizable"):
            spectral.extract_jordan_cell(A, 1.5)

    def test_only_rank_two_cells(self):
        with pytest.raises(spectral.ClusterSizeError, match="size-2"):
            spectral.extract_jordan_cell(np.eye(3), 1.0, cluster_size=3)

    def test_missing_level_is_refused(self):
        with pytest.raises(spectral.ClusterSizeError, match="no kernel"):
            spectral.extract_jordan_cell(np.diag([1.0, 2.0, 3.0]), 10.0)

    def test_exactly_singular_shift_is_regularized_and_recorded(self):
        # unit-triangular integer similarity: the shift at 1.5 is exactly
        # singular in floating point, so the LU needs the identity shift
        J = np.diag([1.5, 1.5, 0.0, 3.0, -2.0, 0.5])
        J[0, 1] = 1.0
        S = np.eye(6) + np.triu(np.arange(36.0).reshape(6, 6) % 3 - 1, 1)
        A = S @ J @ np.linalg.inv(S)
        cell = spectral.extract_jordan_cell(A, 1.5)
        assert cell.regularization > 0
        shifted = A - 1.5 * np.eye(6)
        assert np.linalg.norm(shifted @ cell.vector) < 1e-10
        assert np.linalg.norm(shifted @ cell.partner - cell.vector) < 1e-8

    def test_regular_shift_records_no_regularization(self):
        H = models.build_xxz(4)[0]
        cell = spectral.extract_jordan_cell(H, spectral.full_spectrum(H)[3].value)
        assert cell.regularization == 0.0
        assert cell.residual_v < 1e-12 and cell.residual_w < 1e-12


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
        cell = spectral.block_jordan_cell(T00, T02, T22)
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


class TestScalingEstimates:
    def test_hamiltonian_delta(self):
        assert spectral.hamiltonian_delta(4, 1.0, 0.0, 2.0) == pytest.approx(
            4.0 / (2.0 * np.pi)
        )

    def test_transfer_delta(self):
        L, lam0 = 6, 2.0
        lam = lam0 * np.exp(-np.pi / (L * np.sqrt(3.0) / 2) * 1.25)
        assert spectral.transfer_delta(L, lam, lam0) == pytest.approx(1.25, rel=1e-12)
