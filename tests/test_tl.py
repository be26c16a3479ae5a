"""Tests for the cup-cap generator matrices in every representation."""

from __future__ import annotations

import link_state_oracles as ls
import numpy as np
import operator_oracles as oracles
import pytest
import scipy.sparse as sp

from loopcells import diagrams as dg
from loopcells import fixtures as fx
from loopcells import models, spectral, tl

WEIGHTS = [2.0, 1.0, 0.3, -0.5, fx.Q_VALUE + 1 / fx.Q_VALUE]


def annihilated_states(es, tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of the joint kernel of all generators (columns)."""
    stacked = np.vstack([spectral._dense(e) for e in es])
    _, s, vh = np.linalg.svd(stacked)
    scale = s[0] if s.size and s[0] > 0 else 1.0
    null_dim = int(np.sum(s <= tol * scale))
    if null_dim == 0:
        return np.zeros((es[0].shape[1], 0))
    return vh[-null_dim:].conj().T


def act_adjacent(state: ls.LinkState, i: int, j: int, n: complex, y: complex):
    """One cup-cap generator on sites ``i`` and ``j`` of one link state (the oracle).

    Returns ``(new_state, weight)``.  The generator closes whatever arrived
    at the two sites into a cap and opens a fresh arc ``(i, j)`` above them.
    """
    roles = list(state.roles)
    partner = list(state.partner)
    ri, rj = roles[i], roles[j]
    weight: complex = 1.0
    if ri == ls.ARC and partner[i] == j:
        # the cap closes the arc into a loop
        weight = n
    elif ri == ls.ARC and rj == ls.ARC:
        p, q = partner[i], partner[j]
        partner[p], partner[q] = q, p
    elif ri == ls.ARC and rj == ls.STRING:
        p = partner[i]
        roles[p], partner[p] = ls.STRING, -1
    elif ri == ls.STRING and rj == ls.ARC:
        q = partner[j]
        roles[q], partner[q] = ls.STRING, -1
    elif ri == ls.STRING and rj == ls.STRING:
        labels = state.string_sites()
        weight = oracles.contraction_weight(labels.index(i) + 1, y)
    else:
        raise ValueError("generator applied to an empty site")
    roles[i] = roles[j] = ls.ARC
    partner[i], partner[j] = j, i
    return ls.LinkState(tuple(roles), tuple(partner)), weight


def loop_generators(sites, pairs, n: complex, y: complex = 1.0) -> list[sp.csr_matrix]:
    """The cup-cap generators on site ``pairs`` applied one link state at a time (the oracle)."""
    basis = ls.states(sites)
    index = {s: k for k, s in enumerate(basis)}
    dim = len(basis)
    dtype = np.complex128 if np.iscomplexobj(n) or np.iscomplexobj(y) else np.float64
    cols = np.arange(dim)
    es = []
    for i, j in pairs:
        rows = np.empty(dim, dtype=np.int64)
        weights = np.empty(dim, dtype=dtype)
        for col, s in enumerate(basis):
            new, weights[col] = act_adjacent(s, i, j, n, y)
            rows[col] = index[new]
        es.append(sp.csr_matrix((weights, (rows, cols)), shape=(dim, dim)))
    return es


def loop_open_generators(L: int, n: complex, y: complex = 1.0) -> list[sp.csr_matrix]:
    """The open generators applied one link state at a time (the oracle)."""
    return loop_generators(dg._open_sites(L), [(i, i + 1) for i in range(L - 1)], n, y)


def loop_dense_generators(L: int, n: complex) -> list[sp.csr_matrix]:
    """The periodic generators applied one link state at a time (the oracle)."""
    return loop_generators(dg._dense_sites(L), [(i, (i + 1) % L) for i in range(L)], n)


def join_ends(sites: np.ndarray, i: int, j: int) -> np.ndarray:
    """Join the lines arriving at sites ``i`` and ``j`` of every state of a site array.

    Two arcs become one, an arc and a string become a string, and two
    strings vanish; sites ``i`` and ``j`` themselves are left to the caller.
    """
    new = sites.copy()
    for end, other in ((sites[:, i], sites[:, j]), (sites[:, j], sites[:, i])):
        arc = np.flatnonzero(end >= 0)
        new[arc, end[arc]] = other[arc]
    return new


def moved_by_cup_cap(sites: np.ndarray, i: int, j: int) -> np.ndarray:
    """Every state of a site array moved by the cup-cap on sites ``(i, j)`` (the oracle)."""
    moved = join_ends(sites, i, j)
    moved[:, i], moved[:, j] = j, i
    return moved


def moved_by_lozenge(sites: np.ndarray, i: int, j: int) -> np.ndarray:
    """Every state of a site array moved by the second tile of the lozenge on ``(i, j)`` (the oracle).

    No leg occupied: a fresh arc.  One leg: its line crosses to the other
    leg.  Two legs: both empty, their lines joined.
    """
    occupied = np.count_nonzero(sites[:, [i, j]] != dg._EMPTY_SITE, axis=1)
    moved = join_ends(sites, i, j)
    moved[:, i] = np.where(occupied == 0, j, dg._EMPTY_SITE)
    moved[:, j] = np.where(occupied == 0, i, dg._EMPTY_SITE)
    one = np.flatnonzero(occupied == 1)
    src = np.where(sites[one, i] != dg._EMPTY_SITE, i, j)
    dst = i + j - src
    line = sites[one, src]
    moved[one] = sites[one]
    moved[one, dst], moved[one, src] = line, dg._EMPTY_SITE
    arc = line >= 0
    moved[one[arc], line[arc]] = dst[arc]
    return moved


def cup_cap(basis, i: int, j: int, n: complex, y: complex, dtype):
    """Row and weight of every column of the cup-cap generator on sites ``(i, j)``, built afresh (the oracle).

    Capping the arc ``(i, j)`` closes a loop (weight ``n``), capping two
    strings contracts them (:func:`operator_oracles.contraction_weight` of
    the left label), any other cap weighs one.  The rows are found by keying the
    whole moved site array.
    """
    sites, rows = dg._arrays(basis)
    weights = np.ones(len(sites), dtype=dtype)
    weights[sites[:, i] == j] = n
    if y != 1:  # a contraction weight of one is the default
        string = sites == dg._STRING_SITE
        label = np.count_nonzero(string[:, : i + 1], axis=1)
        weights[string[:, i] & string[:, j] & (label % 2 == 0)] = y
    return rows(moved_by_cup_cap(sites, i, j)), weights


def cup_cap_open_generators(L: int, n: complex, y: complex) -> list[sp.csr_matrix]:
    """The open generators from :func:`cup_cap` maps built afresh (the oracle)."""
    basis = dg._open_sites(L)
    dtype = np.complex128 if np.iscomplexobj(n) or np.iscomplexobj(y) else np.float64
    return [tl._one_per_column(*cup_cap(basis, i, i + 1, n, y, dtype)) for i in range(L - 1)]


def cup_cap_percolation_H(L: int, y: complex) -> sp.csr_matrix:
    """``(L-1)/2 - 2 sum_i e_i`` from :func:`cup_cap` maps built afresh (the oracle)."""
    basis = dg._open_sites(L)
    dim = len(basis)
    dtype = np.complex128 if np.iscomplexobj(y) else np.float64
    cols = np.arange(dim)
    maps = [cup_cap(basis, i, i + 1, 1.0, y, dtype) for i in range(L - 1)]
    rows = np.concatenate([cols, *(r for r, _ in maps)])
    data = np.concatenate([np.full(dim, (L - 1) / 2, dtype), *(-2 * w for _, w in maps)])
    return sp.csr_matrix((data, (rows, np.tile(cols, L))), shape=(dim, dim))


def assert_same_csr(got: sp.csr_matrix, expect: sp.csr_matrix) -> None:
    """Identical CSR storage: format, dtype, row pointers, column indices and values."""
    assert got.format == "csr" and got.dtype == expect.dtype
    np.testing.assert_array_equal(got.indptr, expect.indptr)
    np.testing.assert_array_equal(got.indices, expect.indices)
    np.testing.assert_array_equal(got.data, expect.data)


class TestRelations:
    @pytest.mark.parametrize("L", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("n", WEIGHTS)
    def test_open_chain_relations(self, L, n):
        es = tl.open_generators(L, n)
        assert oracles.check_relations_chain(es, n) < 1e-12

    @pytest.mark.parametrize("L", [4, 6, 8])
    def test_dense_periodic_relations(self, L):
        n = 1.3
        es = tl.dense_generators(L, n)
        assert oracles.check_relations_periodic(es, n) < 1e-12

    def test_two_site_ring_is_degenerate(self):
        # both bonds connect the same two sites, so the generators coincide
        # and the adjacent-pair relations do not apply
        e1, e2 = (e.toarray() for e in tl.dense_generators(2, 1.3))
        np.testing.assert_allclose(e1, e2)
        np.testing.assert_allclose(e1, [[1.3]])

    @pytest.mark.parametrize("L", [4, 6, 8])
    def test_dense_generators_are_sparse_maps(self, L):
        # a cup-cap generator sends each link state to exactly one state
        for e in tl.dense_generators(L, 0.7):
            assert sp.issparse(e) and e.format == "csr"
            np.testing.assert_array_equal(np.diff(e.tocsc().indptr), 1)

    @pytest.mark.parametrize("L", [3, 5])
    def test_relation_checks_accept_sparse_input(self, L):
        es = tl.open_generators(L, 0.3)
        sparse = [sp.csr_matrix(e) for e in es]
        dense = [e.toarray() for e in es]
        check = oracles.check_relations_chain
        assert check(sparse, 0.3) == check(dense, 0.3)

    @pytest.mark.parametrize("L", [2, 4, 6])
    def test_spin_chain_relations(self, L):
        q = fx.Q_VALUE
        es = oracles.spin_generators(L, q)
        assert oracles.check_relations_chain(es, q + 1 / q) < 1e-12

    @pytest.mark.parametrize("y", [2.0, -1.0, 0.5, 1.0 + 0.5j])
    @pytest.mark.parametrize("L", [2, 4, 6])
    def test_deformed_relations_at_weight_one(self, L, y):
        es = tl.open_generators(L, 1.0, y)
        assert oracles.check_relations_chain(es, 1.0) < 1e-12

    def test_generator_count(self):
        assert len(tl.open_generators(5, 1.0)) == 4
        assert len(tl.dense_generators(6, 1.0)) == 6  # periodic: e_L wraps around


class TestMatrixOracles:
    def test_width_two_generator(self):
        # basis {arc, two strings}: e_1 closes the arc (weight n) and
        # contracts the strings into the arc (weight 1)
        for n in (0.7, 2.0):
            (e1,) = tl.open_generators(2, n)
            np.testing.assert_allclose(e1.toarray(), [[n, 1.0], [0.0, 0.0]])

    def test_width_two_deformed_generator(self):
        # the single contraction joins strings 1 and 2 (odd left label)
        (e1,) = tl.open_generators(2, 1.0, y=3.0)
        np.testing.assert_allclose(e1.toarray(), [[1.0, 1.0], [0.0, 0.0]])

    @pytest.mark.parametrize("n", [1.0, 0.3])
    def test_printed_width_four_generators(self, n):
        built = tl.open_generators(4, n)
        printed = fx.open_L4_generators(n)
        for a, b in zip(built, printed):
            np.testing.assert_allclose(a.toarray(), b, atol=1e-14)

    @pytest.mark.parametrize("y", [2.0, -1.0, 0.5])
    def test_printed_width_four_deformed_generators(self, y):
        built = tl.open_generators(4, 1.0, y)
        printed = fx.deformed_L4_generators(y)
        for a, b in zip(built, printed):
            np.testing.assert_allclose(a.toarray(), b, atol=1e-14)

    @pytest.mark.parametrize("y", [1.0, 2.0, 0.5 + 1j])
    @pytest.mark.parametrize("n", [1.0, 0.3, 1 + 0.5j])
    @pytest.mark.parametrize("L", range(1, 11))
    def test_open_generators_match_the_per_state_oracle(self, L, n, y):
        got, expect = tl.open_generators(L, n, y), loop_open_generators(L, n, y)
        assert len(got) == len(expect) == L - 1
        for a, b in zip(got, expect):
            assert_same_csr(a, b)

    def test_generator_leaving_the_basis_is_refused(self, monkeypatch):
        # a dense basis missing one state: the cup-cap map of some state
        # lands on the missing one, and the lookup refuses it
        sites = dg._dense_sites(6)
        monkeypatch.setattr(tl, "_dense_sites", lambda L: sites[1:])
        with pytest.raises(LookupError, match="not in the basis"):
            tl.dense_generators(6, 1.0)

    def test_cup_cap_maps_are_cached_per_basis_object(self):
        # e_L wraps on the periodic basis only
        for basis, count in ((dg._dense_sites(6), 6), (dg._open_sites(6), 5)):
            maps = tl._cup_caps(basis)
            assert tl._cup_caps(basis) is maps and len(maps) == count
            copy = basis.copy()
            assert np.array_equal(copy, basis) and copy is not basis
            assert tl._cup_caps(copy) is not maps
            for rows, closes, even_contraction in maps:
                for array in (rows, closes, even_contraction):
                    assert not array.flags.writeable
                assert closes.dtype == even_contraction.dtype == bool
                assert not np.any(closes & even_contraction)  # loops close on arcs, contractions join strings

    @pytest.mark.parametrize("y", [1.0, 2.0, -1.0, 0.5, 0.3 + 1.5j])
    @pytest.mark.parametrize("n", [1.0, 0.7 - 0.4j])
    @pytest.mark.parametrize("L", range(1, 11))
    def test_open_generators_match_the_afresh_cup_cap_oracle(self, L, n, y):
        got, expect = tl.open_generators(L, n, y), cup_cap_open_generators(L, n, y)
        assert len(got) == len(expect) == L - 1
        for a, b in zip(got, expect):
            assert_same_csr(a, b)
            np.testing.assert_array_equal(a.toarray(), b.toarray())

    @pytest.mark.parametrize("y", [1.0, 2.0, -1.0, 0.5, 0.3 + 1.5j])
    @pytest.mark.parametrize("L", range(1, 11))
    def test_percolation_chain_matches_the_afresh_cup_cap_oracle(self, L, y):
        got, expect = models.build_percolation_H(L, y), cup_cap_percolation_H(L, y)
        assert_same_csr(got, expect)
        np.testing.assert_array_equal(got.toarray(), expect.toarray())

    @pytest.mark.parametrize("n", [1.0, 0.5, 1 + 0.5j, 0.0])
    @pytest.mark.parametrize("L", range(2, 15, 2))
    def test_dense_generators_match_the_per_state_oracle(self, L, n):
        for got, expect in zip(tl.dense_generators(L, n), loop_dense_generators(L, n), strict=True):
            assert_same_csr(got, expect)

    @pytest.mark.parametrize(
        "kind, L",
        [("dense", L) for L in range(2, 15, 2)]
        + [("open", L) for L in range(2, 11)]
        + [("dilute", L) for L in range(2, 13)],
    )
    def test_key_shift_matches_keys_of_the_moved_sites(self, kind, L):
        # a cup-cap or a lozenge shifts the keys of four sites; keying the
        # whole moved site array must find the same rows
        if kind == "dilute":
            basis = dg.dilute_row_sites(L)
            sites, rows = dg._arrays(basis)
            for i in range(L - 1):
                _, keep, got = models._lozenge_ops(basis, i, fx.X_CRITICAL)
                np.testing.assert_array_equal(got, rows(moved_by_lozenge(sites, i, i + 1)[keep]))
        else:
            basis = dg._dense_sites(L) if kind == "dense" else dg._open_sites(L)
            sites, rows = dg._arrays(basis)
            for i in range(L if kind == "dense" else L - 1):
                moved = moved_by_cup_cap(sites, i, (i + 1) % L)
                np.testing.assert_array_equal(tl._cup_caps(basis)[i][0], rows(moved))

    def test_string_sector_is_preserved_or_lowered(self):
        basis = ls.states(dg._open_sites(6))
        es = tl.open_generators(6, 1.0)
        strings = np.array([s.n_strings for s in basis])
        for e in es:
            rows, cols = np.nonzero(e)
            assert np.all(strings[rows] <= strings[cols])


class TestSpinRepresentation:
    def test_sector_basis_is_zero_magnetization(self):
        masks = tl.spin_sector_basis(4, up_count=2)
        assert len(masks) == 6
        assert all(bin(m).count("1") == 2 for m in masks)

    @pytest.mark.parametrize("L", range(0, 11))
    def test_sector_basis_matches_bit_counts(self, L):
        for up in [None, -1, *range(L + 2)]:
            expect = [m for m in range(2**L) if up is None or L - bin(m).count("1") == up]
            got = tl.spin_sector_basis(L, up)
            assert got == expect and all(type(m) is int for m in got)

    def test_generators_refuse_masks_not_closed_under_swaps(self):
        with pytest.raises(LookupError, match="not in the basis"):
            oracles.spin_generators(4, fx.Q_VALUE, [0b0011, 0b0101])

    def test_generators_match_loop_dimension(self):
        es = oracles.spin_generators(4, fx.Q_VALUE, tl.spin_sector_basis(4, 2))
        assert es[0].shape == (6, 6)

    def test_spectrum_of_each_generator(self):
        # e^2 = n e forces eigenvalues {0, n}
        q = fx.Q_VALUE
        n = (q + 1 / q).real
        for e in oracles.spin_generators(6, q):
            vals = np.linalg.eigvals(e)
            dist = np.minimum(np.abs(vals), np.abs(vals - n))
            assert np.max(dist) < 1e-10


class TestStructureProbes:
    def test_conjugate_inverts_basis_change(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 5))
        p = rng.standard_normal((5, 5)) + np.eye(5) * 5
        back = tl.conjugate(tl.conjugate(a, p), np.linalg.inv(p))
        np.testing.assert_allclose(back, a, atol=1e-10)

    @pytest.mark.parametrize("n", [0.3, 2.0])
    def test_block_change_of_basis(self, n):
        p = fx.block_change_of_basis(n)
        for built, blocked in zip(tl.open_generators(4, n), fx.block_forms(n)):
            np.testing.assert_allclose(tl.conjugate(built, p), blocked, atol=1e-10)

    @pytest.mark.parametrize("y", [2.0, -1.0, 0.5])
    def test_deformed_change_of_basis(self, y):
        p = fx.deformed_change_of_basis(y)
        blocked = fx.deformed_block_forms()
        for built, expect in zip(tl.open_generators(4, 1.0, y), blocked):
            np.testing.assert_allclose(tl.conjugate(built, p), expect, atol=1e-10)

    @pytest.mark.parametrize("n,dim", [(1.3, 1), (2.0, 1), (0.5, 1), (1.0, 2)])
    def test_annihilated_states_dimension(self, n, dim):
        # generic weights leave a single killed state; weight one gains a
        # second, the degeneracy that makes the level diagonalizable there
        es = tl.open_generators(4, n)
        kernel = annihilated_states(es)
        assert kernel.shape[1] == dim
        for e in es:
            assert np.max(np.abs(e @ kernel)) < 1e-10

    def test_contraction_weight_parity(self):
        assert oracles.contraction_weight(1, 5.0) == 1.0
        assert oracles.contraction_weight(2, 5.0) == 5.0
        assert oracles.contraction_weight(3, 5.0) == 1.0
