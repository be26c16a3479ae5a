"""Tests for the concrete chain and strip builders."""

from __future__ import annotations

from functools import reduce

import link_state_oracles as ls
import numpy as np
import operator_oracles as oracles
import pytest
import scipy.sparse as sp
from dilute_row_oracles import FormedRow, formed_blocks, formed_row
from loop_form_oracles import loop_gram

from loopcells import diagrams as dg
from loopcells import fixtures as fx
from loopcells import forms, models, spectral, tl


def xxz_from_generators(L: int, q: complex | None = None) -> np.ndarray:
    """The same chain written as ``(L-1)/2 - 2 sum_i e_i`` in the spin representation."""
    q = fx.Q_VALUE if q is None else q
    masks = tl.spin_sector_basis(L, up_count=L // 2)
    es = oracles.spin_generators(L, q, masks)
    dim = len(masks)
    return (L - 1) / 2 * np.eye(dim) - 2 * sum(es)


def loop_xxz(L: int, q: complex) -> sp.csr_matrix:
    """The zero-magnetization chain assembled one mask at a time (the oracle)."""
    masks = tl.spin_sector_basis(L, up_count=L // 2)
    index = {m: k for k, m in enumerate(masks)}
    nhalf = (q + 1 / q) / 2
    delta = (q - 1 / q) / 2
    rows, cols, vals = [], [], []
    for col, m in enumerate(masks):
        spins = [1 - 2 * ((m >> (L - s)) & 1) for s in range(1, L + 1)]
        diag = sum(nhalf * spins[i] * spins[i + 1] for i in range(L - 1))
        diag += delta * (spins[0] - spins[L - 1])
        rows.append(col)
        cols.append(col)
        vals.append(diag)
        for i in range(L - 1):
            if spins[i] != spins[i + 1]:
                flipped = m ^ ((1 << (L - 1 - i)) | (1 << (L - 2 - i)))
                rows.append(index[flipped])
                cols.append(col)
                vals.append(2.0)
    dim = len(masks)
    return sp.csr_matrix(sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim), dtype=complex))


def loop_lozenge(basis, index, site, x) -> sp.csr_matrix:
    """One lozenge spanning ``site`` and ``site + 1``, one state at a time (the oracle)."""
    dim = len(basis)
    rows, cols, vals = [], [], []

    def add(state, col, w):
        rows.append(index[state])
        cols.append(col)
        vals.append(w)

    i, j = site, site + 1
    for col, s in enumerate(basis):
        occ_i, occ_j = s.roles[i] != ls.EMPTY, s.roles[j] != ls.EMPTY
        if not occ_i and not occ_j:
            add(s, col, 1.0)
            roles, partner = list(s.roles), list(s.partner)
            roles[i] = roles[j] = ls.ARC
            partner[i], partner[j] = j, i
            add(ls.LinkState(tuple(roles), tuple(partner)), col, x**2)
        elif occ_i != occ_j:
            add(s, col, x)
            src, dst = (i, j) if occ_i else (j, i)
            roles, partner = list(s.roles), list(s.partner)
            if roles[src] == ls.ARC:
                p = partner[src]
                partner[p] = dst
                roles[dst], partner[dst] = ls.ARC, p
            else:
                roles[dst], partner[dst] = ls.STRING, -1
            roles[src], partner[src] = ls.EMPTY, -1
            add(ls.LinkState(tuple(roles), tuple(partner)), col, x**2)
        else:
            add(s, col, x**2)
            if s.roles[i] == ls.ARC and s.partner[i] == j:
                continue  # closed loop, weight zero
            roles, partner = list(s.roles), list(s.partner)
            ends = []
            for site_ in (i, j):
                ends.append(partner[site_] if roles[site_] == ls.ARC else None)
                roles[site_], partner[site_] = ls.EMPTY, -1
            p, q = ends
            if p is not None and q is not None:
                partner[p], partner[q] = q, p
            elif p is not None:
                roles[p], partner[p] = ls.STRING, -1
            elif q is not None:
                roles[q], partner[q] = ls.STRING, -1
            add(ls.LinkState(tuple(roles), tuple(partner)), col, x**2)
    return sp.csr_matrix(sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim)))


def loop_triangle(basis, site, x) -> sp.csr_matrix:
    """Half-tile at a strip edge, one state at a time (the oracle)."""
    return sp.diags(np.array([x if s.roles[site] != ls.EMPTY else 1.0 for s in basis])).tocsr()


def row_basis_oracle(L: int) -> tuple[ls.LinkState, ...]:
    """The zero- and two-string states of the even dilute basis, in its order."""
    return tuple(s for s in ls.states(dg._path_sites(L, True, L, 0)) if s.n_strings <= 2)


def string_sector(sites: np.ndarray, strings: int) -> list[int]:
    """The rows of a site array whose states hold ``strings`` strings."""
    return np.flatnonzero(np.count_nonzero(sites == dg._STRING_SITE, axis=1) == strings).tolist()


def loop_dilute_row(L: int, x: float) -> FormedRow:
    """The dilute row from the per-state tiles on the zero- and two-string states (the oracle)."""
    full = ls.states(dg._path_sites(L, True, L, None))
    basis = tuple(s for s in full if s.n_strings in (0, 2))
    index = {s: k for k, s in enumerate(basis)}

    def ops(pairs, triangles):
        mats = [loop_lozenge(basis, index, p, x) for p in pairs]
        mats += [loop_triangle(basis, t, x) for t in triangles]
        return reduce(lambda a, b: a @ b, mats)

    if L % 2 == 0:
        lower, upper = ops(range(0, L - 1, 2), ()), ops(range(1, L - 2, 2), (0, L - 1))
    else:
        lower, upper = ops(range(0, L - 2, 2), (L - 1,)), ops(range(1, L - 1, 2), (0,))
    return FormedRow(basis, lower, upper)


def assert_same_csr(got, expect):
    assert got.format == expect.format == "csr" and got.dtype == expect.dtype
    np.testing.assert_array_equal(got.indptr, expect.indptr)
    np.testing.assert_array_equal(got.indices, expect.indices)
    np.testing.assert_array_equal(got.data, expect.data)


class TestXXZ:
    def test_width_four_matches_printed_matrix(self):
        H, masks = models.build_xxz(4)
        assert len(masks) == 6
        np.testing.assert_allclose(H.toarray(), fx.SPIN_L4_HAMILTONIAN, atol=1e-14)

    def test_matches_generator_build(self):
        np.testing.assert_allclose(
            xxz_from_generators(4), fx.SPIN_L4_HAMILTONIAN, atol=1e-12
        )

    @pytest.mark.parametrize("L", [4, 6, 8])
    def test_sparse_agrees_with_dense(self, L):
        # the independent generator build is the dense oracle
        sparse, masks = models.build_xxz(L)
        assert masks == tl.spin_sector_basis(L, L // 2)
        np.testing.assert_allclose(
            sparse.toarray(), xxz_from_generators(L), atol=1e-12
        )

    @pytest.mark.parametrize("q", [fx.Q_VALUE, np.exp(0.4j), 1.7])
    @pytest.mark.parametrize("L", range(2, 15, 2))
    def test_matches_the_per_mask_oracle(self, L, q):
        H, masks = models.build_xxz(L, q)
        assert masks == tl.spin_sector_basis(L, L // 2)
        assert_same_csr(H, loop_xxz(L, q))

    def test_spectrum_is_real(self):
        # raw eigenvalues of the non-normal matrix pick up O(sqrt(eps))
        # imaginary parts at near-degenerate levels; cluster means cancel them
        H, _ = models.build_xxz(8)
        levels = spectral.full_spectrum(H.toarray())
        assert max(abs(cluster.value.imag) for cluster in levels) < 1e-10

    def test_self_adjoint_under_identity_form(self):
        H, masks = models.build_xxz(6)
        assert oracles.adjointness_matrix_defect(H.toarray(), np.eye(len(masks))) < 1e-12


class TestIsing:
    def test_width_two_matrix(self):
        # ring of two sites: sz sz bond counted twice, plus two spin flips
        H = oracles.build_ising(2).toarray()
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
        np.testing.assert_array_equal(oracles.build_ising(L).toarray(), expect)

    def test_symmetric(self):
        H = oracles.build_ising(6)
        assert abs(H - H.T).max() == 0.0

    def test_ground_energy_closed_form(self):
        # periodic critical chain: E0 = -sum over odd k of 2 sin(pi k / 2L)
        import scipy.sparse.linalg as spla

        L = 10
        H = oracles.build_ising(L)
        e0 = spla.eigsh(H, k=1, which="SA", return_eigenvectors=False)[0]
        ks = 2 * np.arange(L) + 1
        exact = -2 * np.sum(np.sin(np.pi * ks / (2 * L)))
        assert e0 == pytest.approx(exact, abs=1e-9)

    def test_boundary_vectors(self):
        fixed, free = models.ising_boundary_vectors(3)
        assert fixed[0] == 1.0 and fixed.sum() == 1.0
        np.testing.assert_allclose(free, np.ones(8))


def brute_force_orbits(L: int) -> list[frozenset[int]]:
    """Orbits of the ring masks under rotation and global flip, one mask at a time."""
    full = (1 << L) - 1
    seen: set[int] = set()
    orbits = []
    for mask in range(1 << L):
        if mask in seen:
            continue
        orbit = set()
        turned = mask
        for _ in range(L):
            orbit |= {turned, turned ^ full}
            turned = ((turned << 1) | (turned >> (L - 1))) & full
        seen |= orbit
        orbits.append(frozenset(orbit))
    return orbits


def orbit_isometry(label: np.ndarray, size: np.ndarray) -> sp.csr_matrix:
    """``S`` with ``S[m, label[m]] = 1/sqrt(N)``: the sector's columns in the full space."""
    dim = len(label)
    return sp.csr_matrix(
        (1 / np.sqrt(size[label]), (np.arange(dim), label)), shape=(dim, len(size))
    )


class TestIsingSector:
    @pytest.mark.parametrize("L", range(1, 11))
    def test_orbits_match_brute_force(self, L):
        reps, label, size = models.ising_orbits(L)
        assert label.shape == (1 << L,)
        assert set(label.tolist()) == set(range(len(reps)))
        assert size.sum() == 1 << L
        orbits = brute_force_orbits(L)
        assert sorted(min(o) for o in orbits) == reps.tolist()
        for orbit in orbits:
            (k,) = set(label[sorted(orbit)].tolist())
            assert reps[k] == min(orbit) and size[k] == len(orbit)

    @pytest.mark.parametrize("L", range(1, 11))
    def test_sector_is_the_isometric_restriction(self, L):
        H, label, size = models.build_ising_sector(L)
        S = orbit_isometry(label, size)
        np.testing.assert_allclose((S.T @ S).toarray(), np.eye(len(size)), atol=1e-15)
        expect = (S.T @ oracles.build_ising(L) @ S).toarray()
        np.testing.assert_allclose(H.toarray(), expect, atol=1e-13)

    @pytest.mark.parametrize("L", range(1, 11))
    def test_matrix_free_ring_matches_the_matrix(self, L):
        v = np.random.default_rng(L).standard_normal(1 << L)
        np.testing.assert_allclose(
            models.apply_ising(L, v), oracles.build_ising(L) @ v, atol=1e-12
        )


    @pytest.mark.parametrize("L", range(1, 13))
    def test_matrix_free_ring_matches_the_gather_oracle(self, L):
        # the same terms in the same order, so the same bits
        v = np.random.default_rng(L).standard_normal(1 << L)
        np.testing.assert_array_equal(models.apply_ising(L, v), oracles.apply_ising_gather(L, v))
        masks = np.arange(1 << L)
        np.testing.assert_array_equal(
            models._ising_diagonal(masks, L), oracles.ising_diagonal(masks, L)
        )


def reflect_flip_oracle(m: int, L: int) -> int:
    """Site ``s`` to site ``L + 1 - s`` and every spin turned over, one mask at a time."""
    bits = [(m >> (L - s)) & 1 for s in range(1, L + 1)]  # site 1 first
    return sum((1 - b) << (s - 1) for s, b in enumerate(bits, start=1))


def xxz_permutation(L: int) -> sp.csr_matrix:
    """The reflection-flip as a permutation matrix on the zero-magnetization masks."""
    masks = tl.spin_sector_basis(L, L // 2)
    index = {m: k for k, m in enumerate(masks)}
    dim = len(masks)
    images = [index[reflect_flip_oracle(m, L)] for m in masks]
    return sp.csr_matrix((np.ones(dim), (images, np.arange(dim))), shape=(dim, dim))


class TestXXZSector:
    @pytest.mark.parametrize("L", range(2, 15, 2))
    def test_reflect_flip_matches_the_per_mask_oracle(self, L):
        masks = np.array(tl.spin_sector_basis(L, L // 2))
        images = models.reflect_flip(masks, L)
        assert images.tolist() == [reflect_flip_oracle(m, L) for m in masks.tolist()]
        np.testing.assert_array_equal(models.reflect_flip(images, L), masks)

    @pytest.mark.parametrize("q", [fx.Q_VALUE, np.exp(0.4j)])
    @pytest.mark.parametrize("L", range(4, 13, 2))
    def test_reflect_flip_commutes_with_the_chain(self, L, q):
        H, _ = models.build_xxz(L, q)
        P = xxz_permutation(L)
        assert abs(P @ H - H @ P).max() < 1e-14
        # the flip alone turns the boundary term over, so it does not commute
        flip = sp.csr_matrix(np.eye(H.shape[0])[::-1])  # masks ascending: m -> ~m reverses
        assert abs(flip @ H - H @ flip).max() > 0.1

    @pytest.mark.parametrize("L", range(2, 15, 2))
    def test_sector_is_the_isometric_restriction(self, L):
        masks = tl.spin_sector_basis(L, L // 2)
        S = models.reflect_flip_isometry(np.array(masks), L)
        # one entry per mask, in the column of its orbit; orbits ordered by
        # their smaller mask
        assert S.nnz == len(masks)
        reps = [min(m, reflect_flip_oracle(m, L)) for m in masks]
        order = sorted(set(reps))
        assert S.indices.tolist() == [order.index(r) for r in reps]
        assert set(np.unique(S.data).round(15)) <= {1.0, round(1 / np.sqrt(2), 15)}
        np.testing.assert_allclose((S.T @ S).toarray(), np.eye(len(order)), atol=1e-15)
        assert abs(xxz_permutation(L) @ S - S).max() == 0

    @pytest.mark.parametrize("L, dim", [(4, 5), (8, 43), (12, 494), (16, 6563)])
    def test_sector_dimension(self, L, dim):
        # orbits of two masks plus the masks the reflection-flip fixes
        masks = tl.spin_sector_basis(L, L // 2)
        fixed = sum(reflect_flip_oracle(m, L) == m for m in masks)
        assert (len(masks) + fixed) // 2 == dim
        assert models.reflect_flip_isometry(np.array(masks), L).shape == (len(masks), dim)

    @pytest.mark.parametrize("L", [4, 8])
    def test_full_spectrum_is_the_even_and_the_odd_sector(self, L):
        H, masks = models.build_xxz(L)
        S = models.reflect_flip_isometry(np.array(masks), L)
        P = xxz_permutation(L)
        pairs = np.flatnonzero(S.data < 1)  # the masks of two-mask orbits
        odd = (sp.identity(len(masks), format="csr") - P)[:, pairs] / np.sqrt(2)
        odd = odd[:, np.flatnonzero(pairs < P.indices[pairs])]  # one column per orbit
        even = (S.T @ H @ S).toarray()
        np.testing.assert_array_equal(even, even.T)
        both = np.concatenate(
            [np.linalg.eigvals(even), np.linalg.eigvals((odd.T @ H @ odd).toarray())]
        )
        # the spectrum is real; the Jordan pairs split by about sqrt(eps)
        np.testing.assert_allclose(
            np.sort(both.real), np.sort(np.linalg.eigvals(H.toarray()).real), atol=1e-6
        )


def csr_half_rows(L: int, n: complex) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """The lower and upper half-rows as products of ``1 + e_i`` CSR factors (the oracle)."""
    es = tl.dense_generators(L, n)
    eye = sp.identity(len(dg._dense_sites(L)), format="csr")
    lower, upper = eye, eye
    for i in range(0, L, 2):
        lower = (eye + es[i]) @ lower
    for i in range(1, L, 2):
        upper = (eye + es[i]) @ upper
    return lower, upper


class TestDenseLoopTransfer:
    def test_factored_matches_matrix(self):
        op = models.build_dense_loop_T(6, 1.0).ket_row
        rng = np.random.default_rng(0)
        v = rng.standard_normal(op.shape[0])
        np.testing.assert_allclose(op.apply(v), op.matrix() @ v, atol=1e-12)

    def test_width_two_entries(self):
        # single state (); one lower and one upper generator, each 1 + e
        op = models.build_dense_loop_T(2, 1.7).ket_row
        n = 1.7
        np.testing.assert_allclose(op.matrix(), [[(1 + n) ** 2]])

    def test_row_preserves_positivity(self):
        op = models.build_dense_loop_T(8, 1.0).ket_row
        m = op.matrix()
        assert np.all(m >= 0)
        assert np.all(m.sum(axis=0) > 0)

    @pytest.mark.parametrize("n", [0.3, 1.0, 1.7, 0.4 + 0.9j])
    @pytest.mark.parametrize("L", range(2, 15, 2))
    def test_plaquettes_match_the_csr_factors(self, L, n):
        # both orders of the half-rows, on blocks of columns too: perron_pair
        # decomposes dimensions up to two as op @ eye(dim), and a complex
        # weight takes the same kernel
        row = models.build_dense_loop_T(L, n)
        lower, upper = csr_half_rows(L, n)
        dim = lower.shape[0]
        rng = np.random.default_rng(L)
        for x in (rng.standard_normal(dim), rng.standard_normal((dim, 3))):
            pairs = ((row.ket_row, upper @ (lower @ x)), (row.bra_row, lower @ (upper @ x)))
            for op, expect in pairs:
                got = op @ x
                assert got.shape == x.shape
                assert np.linalg.norm(got - expect) <= 1e-14 * np.linalg.norm(expect)

    @pytest.mark.parametrize("n", [0.3, 1.0, 1.7, 0.4 + 0.9j])
    @pytest.mark.parametrize("L", range(2, 11, 2))
    def test_dual_is_the_transposed_reversed_row(self, L, n):
        # (Lo U)^T: the transposed half-rows act in reverse, each plaquette
        # by its transpose
        dual = models.build_dense_loop_T(L, n).bra_row.T
        lower, upper = csr_half_rows(L, n)
        expect = (lower @ upper).T.toarray()
        if not np.iscomplexobj(n):
            np.testing.assert_allclose(dual.matrix(), expect, rtol=1e-14, atol=0)
        rng = np.random.default_rng(L)
        for x in (rng.standard_normal(len(expect)), rng.standard_normal((len(expect), 3))):
            got = dual @ x
            assert got.shape == x.shape
            assert np.linalg.norm(got - expect @ x) <= 1e-14 * np.linalg.norm(expect @ x)

    @pytest.mark.parametrize("n", [0.5, 1.9])
    def test_dual_intertwines_under_the_loop_gram(self, n):
        # G T = (Lo U)^T G, checked with the singlet-factor Gram
        L = 8
        row = models.build_dense_loop_T(L, n)
        gram = loop_gram(L, n)
        np.testing.assert_allclose(
            gram @ row.ket_row.matrix(), row.bra_row.T.matrix() @ gram, rtol=1e-12
        )


def relative_gap(got, expect) -> float:
    return float(np.linalg.norm(got - expect) / np.linalg.norm(expect))


class TestDiluteRow:
    @pytest.mark.parametrize("x", [fx.X_CRITICAL, 0.9])
    @pytest.mark.parametrize("L", range(1, 11))
    def test_half_rows_match_the_per_state_oracle(self, L, x):
        # the formed half-rows, the oracle of the tile operator, equal the
        # per-state tiles on the row basis entry for entry
        row, expect = formed_row(L, x), loop_dilute_row(L, x)
        np.testing.assert_array_equal(models.build_dilute_T(L, x).basis, row.basis)
        np.testing.assert_array_equal(row.basis, ls.site_array(expect.basis))
        assert_same_csr(row.lower, expect.lower)
        assert_same_csr(row.upper, expect.upper)

    @pytest.mark.parametrize("x", [fx.X_CRITICAL, 0.9])
    @pytest.mark.parametrize("L", range(1, 13))
    def test_tiles_match_the_formed_half_rows(self, L, x):
        row, formed = models.build_dilute_T(L, x), formed_row(L, x)
        rng = np.random.default_rng(L)
        pairs = [
            (row.lower, formed.lower), (row.upper, formed.upper),
            (row.ket_row, formed.ket_row), (row.bra_row, formed.bra_row),
        ]
        for tiles, matrix in pairs:
            assert tiles.shape == matrix.shape
            for v in (rng.standard_normal(matrix.shape[0]), rng.standard_normal((matrix.shape[0], 2))):
                assert relative_gap(tiles @ v, matrix @ v) <= 1e-14
                assert relative_gap(tiles.T @ v, matrix.T @ v) <= 1e-14

    @pytest.mark.parametrize("L", range(2, 13))
    def test_sector_blocks_match_the_formed_row(self, L):
        row = models.build_dilute_T(L)
        ket = formed_row(L).ket_row
        T00, T02, T22, idx0, idx2 = models.dilute_blocks(row)
        rng = np.random.default_rng(L)
        for block, rows, cols in ((T00, idx0, idx0), (T02, idx0, idx2), (T22, idx2, idx2)):
            v = rng.standard_normal(len(cols))
            assert relative_gap(block @ v, ket[rows][:, cols] @ v) <= 1e-14
        for block, idx in ((T00, idx0), (T22, idx2)):
            v = rng.standard_normal(len(idx))
            assert relative_gap(block.T @ v, ket[idx][:, idx].T @ v) <= 1e-14

    def test_tile_leaving_the_basis_is_refused(self):
        # the zero- and two-string basis of width 4 minus one state: a lozenge
        # maps some state onto the missing one, and the lookup refuses it
        basis = ls.site_array(row_basis_oracle(4)[:-1])
        with pytest.raises(LookupError, match="not in the basis"):
            for site in range(3):
                models._lozenge_ops(basis, site, fx.X_CRITICAL)

    def test_builds_no_sparse_matrix(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a scipy.sparse matrix was built")

        monkeypatch.setattr(sp._base._spbase, "__init__", refuse)
        with pytest.raises(AssertionError, match="was built"):
            sp.identity(2, format="csr")
        row = models.build_dilute_T(10)
        T00, T02, T22, *_ = models.dilute_blocks(row)
        for block in (T00, T02, T22):
            block @ np.ones(block.shape[1])

    def test_width_two_matches_printed_matrix(self):
        row = models.build_dilute_T(2)
        np.testing.assert_allclose(row.ket_row.matrix(), fx.dilute_T2(), atol=1e-15)

    def test_block_triangular_in_string_number(self):
        for L in (2, 3, 4, 5, 6):
            row = models.build_dilute_T(L)
            strings = np.array([s.n_strings for s in row_basis_oracle(L)])
            for matrix in (row.ket_row.matrix(), row.bra_row.matrix()):
                rows, cols = np.nonzero(matrix)
                assert np.all(strings[rows] <= strings[cols])

    @pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
    def test_bra_and_ket_rows_share_spectrum(self, L):
        row = models.build_dilute_T(L)
        a = np.sort_complex(np.linalg.eigvals(row.ket_row.matrix()))
        b = np.sort_complex(np.linalg.eigvals(row.bra_row.matrix()))
        assert np.max(np.abs(a - b)) < 1e-9

    def test_left_action_is_not_plain_transpose(self):
        row = models.build_dilute_T(2)
        assert np.abs(row.bra_row.matrix() - row.ket_row.matrix().T).max() > 0.01

    def test_printed_left_states(self):
        # the width-2 bras printed in the Jordan-basis display are right
        # eigenvectors and a partner of the reversed row
        row = models.build_dilute_T(2)
        ml = row.bra_row.matrix()
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
        T00, T02, T22, idx0, idx2 = models.dilute_blocks(row)
        assert T00.shape == (len(idx0), len(idx0))
        assert T02.shape == (len(idx0), len(idx2))
        assert T22.shape == (len(idx2), len(idx2))
        assert set(idx0) | set(idx2) <= set(range(len(row.basis)))

    def test_sectors_are_contiguous(self):
        for L in (1, 2, 5, 8):
            row = models.build_dilute_T(L)
            *_, idx0, idx2 = models.dilute_blocks(row)
            assert list(idx0) == string_sector(row.basis, 0)
            assert list(idx2) == string_sector(row.basis, 2)
            assert list(idx0) + list(idx2) == list(range(len(row.basis)))

    def test_unsorted_row_basis_is_refused(self):
        row = models.build_dilute_T(4)
        swapped = models.TransferRow(np.ascontiguousarray(row.basis[::-1]), row.lower, row.upper)
        with pytest.raises(ValueError, match="zero-string states, then"):
            models.dilute_blocks(swapped)

    @pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("side", ["ket", "bra"])
    def test_factored_blocks_equal_the_formed_row(self, L, side):
        # the tile blocks of either row equal the slices of the row formed
        # from the CSR half-rows, and the factored slices of the oracle
        formed = formed_row(L)
        matrix = (formed.ket_row if side == "ket" else formed.bra_row).toarray()
        row = models.build_dilute_T(L)
        if side == "bra":
            row = models.TransferRow(row.basis, row.upper, row.lower)
            formed = FormedRow(formed.basis, formed.upper, formed.lower)
        T00, T02, T22, idx0, idx2 = models.dilute_blocks(row)
        oracle = formed_blocks(formed)[:3]
        for block, expect, rows, cols in zip((T00, T02, T22), oracle, (idx0, idx0, idx2),
                                             (idx0, idx2, idx2)):
            dense = block @ np.eye(len(cols))
            np.testing.assert_allclose(dense, matrix[np.ix_(rows, cols)], atol=1e-15)
            np.testing.assert_allclose(dense, expect.matrix(), atol=1e-15)
        v = np.random.default_rng(L).standard_normal(len(idx0))
        np.testing.assert_allclose(T00.T @ v, matrix[np.ix_(idx0, idx0)].T @ v, atol=1e-14)

    def test_string_creating_half_row_is_refused(self):
        # one move of an upper tile redirected from a zero-string column
        # into the two-string sector
        row = models.build_dilute_T(3)
        idx0 = string_sector(row.basis, 0)
        idx2 = string_sector(row.basis, 2)
        stay, cols, rows, moved = oracles.tile_maps(row.upper)[0]
        assert cols[0] in idx0
        kicked = rows.copy()
        kicked[0] = idx2[0]
        upper = models.TransferOperator([(stay, cols, kicked, moved), *row.upper.tiles[1:]])
        fake = models.TransferRow(row.basis, row.lower, upper)
        with pytest.raises(AssertionError, match="strings were created"):
            models.dilute_blocks(fake)

    def test_row_conserves_monomer_weight_on_empty(self):
        # acting on the all-empty state returns it with weight one
        row = models.build_dilute_T(4)
        basis = row_basis_oracle(4)
        empty = next(k for k, s in enumerate(basis) if not any(s.occupied_mask))
        col = row.ket_row.matrix()[:, empty]
        assert col[empty] == pytest.approx(1.0)


class TestCompiledTiles:
    """Each compiled tile against a public ``scipy.sparse`` array of its map.

    The tiles apply through scipy's private compiled kernels; a change of
    scipy that breaks them fails here rather than moving a number.
    """

    ROWS = [
        ("dilute", 5, None), ("dilute", 8, None),
        ("loop", 6, 1.3), ("loop", 8, 0.4 + 0.9j),
    ]

    @staticmethod
    def build(kind, L, n):
        return models.build_dilute_T(L) if kind == "dilute" else models.build_dense_loop_T(L, n)

    @pytest.mark.parametrize("kind, L, n", ROWS)
    def test_each_tile_matches_the_public_sparse_array(self, kind, L, n):
        row = self.build(kind, L, n)
        rng = np.random.default_rng(L)
        for half in (row.lower, row.upper):
            for tile, tile_map in zip(half.tiles, oracles.tile_maps(half)):
                op, expect = models.TransferOperator([tile]), oracles.tile_matrix(*tile_map)
                dim = op.shape[0]
                for x in (rng.standard_normal(dim), rng.standard_normal((dim, 3)),
                          rng.standard_normal(dim) + 1j * rng.standard_normal(dim),
                          rng.standard_normal((dim, 2)) * (1 - 2j)):
                    for got, want in ((op @ x, expect @ x), (op.T @ x, expect.T @ x)):
                        assert got.shape == x.shape
                        assert got.dtype == np.result_type(x, tile.moved)
                        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("kind, L, n", ROWS)
    def test_rows_share_one_compiled_form(self, kind, L, n):
        row = self.build(kind, L, n)
        ket, bra = row.ket_row, row.bra_row
        if kind == "dilute":
            for tile in ket.tiles:
                assert tile.indptr.dtype == tile.rows.dtype == np.int32
        else:
            # the plaquettes read the cached cup-cap rows and one column pointer
            maps = tl._cup_caps(row.basis)
            sites = [*range(0, L, 2), *range(1, L, 2)]
            for i, tile in zip(sites, row.lower.tiles + row.upper.tiles):
                assert tile.rows is maps[i][0]
                assert tile.indptr is ket.tiles[0].indptr
        # both orders and the transpose read the same compiled arrays
        for op in (bra, ket.T, bra.T):
            assert {id(t) for t in op.tiles} == {id(t) for t in ket.tiles}

    @pytest.mark.parametrize("L", [3, 6, 9])
    def test_zero_string_block_is_views_of_the_row(self, L):
        row = models.build_dilute_T(L)
        T00, _, T22, _, _ = models.dilute_blocks(row)
        for whole, zero, two in zip(row.ket_row.tiles, T00.tiles, T22.tiles):
            for field in ("stay", "indptr", "rows", "moved"):
                assert np.shares_memory(getattr(zero, field), getattr(whole, field))
            for tile in (zero, two):
                assert tile.indptr.dtype == tile.rows.dtype == np.int32

    def test_bad_maps_are_refused(self):
        stay, rows, moved = np.ones(4), np.array([1, 2]), np.ones(2)
        bad = {
            "rows must lie": [(stay, [0, 1], [1, 4], moved), (stay, [0, 1], [-1, 2], moved)],
            "strictly ascending": [
                (stay, [1, 0], rows, moved), (stay, [1, 1], rows, moved),
                (stay, [-1, 0], rows, moved), (stay, [2, 4], rows, moved),
            ],
            "one row and one weight": [
                (stay, [0, 1, 2], rows, moved), (stay, [0, 1], rows, np.ones(3)),
                (None, [0, 1], np.arange(4), np.ones(4)),  # weight one keeps every column
            ],
            "int32": [(np.broadcast_to(1.0, (2**31,)), [], [], [])],
        }
        for match, maps in bad.items():
            for tile in maps:
                with pytest.raises(ValueError, match=match):
                    models.TransferOperator([tile])
        with pytest.raises(ValueError, match="one basis"):
            models.TransferOperator([(stay, [0], [1], [1.0]), (np.ones(3), [0], [1], [1.0])])
        with pytest.raises(ValueError, match="one weight dtype"):
            models.TransferOperator([(stay, [0], [1], [1.0]), (stay, [0], [1], [1j])])

class TestPercolationChain:
    def test_matches_generator_sum(self):
        for L in range(1, 11):
            for y in (1.0, 2.0, 0.5 + 1j):
                H = models.build_percolation_H(L, y)
                es = tl.open_generators(L, 1.0, y)
                assert H.format == "csr" and all(e.dtype == H.dtype for e in es)
                expect = (L - 1) / 2 * np.eye(H.shape[0]) - 2 * sum(e.toarray() for e in es)
                np.testing.assert_allclose(H.toarray(), expect, atol=1e-14)

    def test_spectrum_independent_of_y(self):
        base = np.sort(np.linalg.eigvals(models.build_percolation_H(6, 1.0).toarray()).real)
        for y in (2.0, -1.0, 0.5):
            vals = np.sort(np.linalg.eigvals(models.build_percolation_H(6, y).toarray()).real)
            np.testing.assert_allclose(vals, base, atol=1e-8)

    @pytest.mark.parametrize("y", [1.0, 2.0, 0.5 + 1j])
    def test_one_site_chain_is_zero(self, y):
        # (L-1)/2 = 0 and there are no generators
        H = models.build_percolation_H(1, y)
        np.testing.assert_array_equal(H.toarray(), np.zeros((1, 1)))
        assert H.dtype == (np.complex128 if isinstance(y, complex) else np.float64)

    def test_self_adjoint_under_link_form(self):
        for y in (1.0, 2.0):
            H = models.build_percolation_H(4, y)
            gram = forms.link_form(4, y) @ np.eye(6)
            assert oracles.adjointness_matrix_defect(H, gram) < 1e-12
