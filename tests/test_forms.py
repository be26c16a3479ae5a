"""Tests for the bilinear pairings and their Gram matrices."""

from __future__ import annotations

from functools import lru_cache

import link_state_oracles as ls
import numpy as np
import operator_oracles as oracles
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from loop_form_oracles import loop_count_matrix, loop_gram, singlet_factor

from loopcells import diagrams as dg
from loopcells import fixtures as fx
from loopcells import forms, models, tl


def row_basis_oracle(L: int) -> tuple[ls.LinkState, ...]:
    """The zero- and two-string states of the even dilute basis, in its order."""
    return tuple(s for s in ls.states(dg._path_sites(L, True, L, 0)) if s.n_strings <= 2)


def dense_state_index(L: int, text: str) -> int:
    return ls.states(dg._dense_sites(L)).index(ls.from_text(text))


def text_index(sites: np.ndarray, text: str) -> int:
    """The row of the state spelled ``text`` in a site array."""
    return ls.states(sites).index(ls.from_text(text))


def dilute_sites(L: int, parity: int | None = None) -> np.ndarray:
    """Every dilute state of width ``L``, or those of one string-count parity."""
    return dg._path_sites(L, True, L, parity)


class TestLoopGram:
    @pytest.mark.parametrize("n", [0.3, 1.0, 2.0])
    def test_published_pairing_example(self, n):
        # gluing ()(()) onto (()()) closes exactly two loops
        gram = loop_gram(6, n)
        i = dense_state_index(6, "()(())")
        j = dense_state_index(6, "(()())")
        assert gram[i, j] == pytest.approx(n**2)

    @pytest.mark.parametrize("n", [0.3, 1.0, 2.0])
    def test_negative_norm_combination(self, n):
        # the difference of those two states has square 2n^2(n-1),
        # negative below n=1: the pairing is not positive definite
        gram = loop_gram(6, n)
        vec = np.zeros(len(gram))
        vec[dense_state_index(6, "()(())")] = 1.0
        vec[dense_state_index(6, "(()())")] = -1.0
        assert vec @ (gram @ vec) == pytest.approx(2 * n**2 * (n - 1))

    def test_self_gluing_gives_maximal_loops(self):
        gram = loop_gram(6, 2.0)
        for k in range(len(gram)):
            assert gram[k, k] == pytest.approx(2.0**3)

    def test_weight_one_is_all_ones(self):
        for L in (2, 4, 6, 8):
            gram = loop_gram(L, 1.0)
            np.testing.assert_allclose(gram, np.ones_like(gram))

    def test_numpy_complex_weight_keeps_imaginary_part(self):
        n = np.complex64(0.5 + 0.5j)
        gram = loop_gram(4, n)
        assert gram.dtype == np.complex128
        assert gram[0, 0] == pytest.approx(complex(n) ** 2, abs=1e-6)
        assert all(e.dtype == np.complex128 for e in tl.dense_generators(4, n))


@lru_cache(maxsize=None)
def oracle_counts(L: int) -> np.ndarray:
    return loop_count_matrix(dg._dense_sites(L))


def singlet_gram_error(L: int, n: float) -> float:
    m = singlet_factor(L, n)
    oracle = np.power(float(n), oracle_counts(L).astype(np.float64))
    return float(np.max(np.abs((m.T @ m).toarray() - oracle)))


class TestSingletFactor:
    @pytest.mark.parametrize("n", [-1.5, -0.7, 0.0, 0.3, 1.0, 1.5, 2.0])
    @pytest.mark.parametrize("L", [2, 4, 6, 8, 10])
    def test_factor_squares_to_loop_gram(self, L, n):
        assert singlet_gram_error(L, n) < 1e-12

    @given(st.floats(-1.99, 1.99), st.sampled_from([2, 4, 6, 8]))
    @settings(max_examples=40, deadline=None)
    def test_factor_squares_to_loop_gram_for_any_weight(self, n, L):
        assert singlet_gram_error(L, n) < 1e-12

    @pytest.mark.parametrize("L", [2, 4, 6, 8])
    def test_shape_and_one_spin_state_per_choice(self, L):
        m = singlet_factor(L, 0.7)
        dim = len(dg._dense_sites(L))
        assert m.shape == (2**L, dim)
        assert m.nnz == dim * 2 ** (L // 2)
        # every spin state in a column has zero magnetization
        rows = m.tocoo().row
        assert all(bin(int(r)).count("1") == L // 2 for r in rows)


class TestBoundaryLoops:
    @pytest.mark.parametrize("shift", [0, 1])
    @pytest.mark.parametrize("L", range(2, 15, 2))
    def test_counts_match_the_glue_oracle(self, L, shift):
        basis = ls.states(dg._dense_sites(L))
        # the rotation pairs (2, 3), ..., (L, 1)
        text = "(" + "()" * (L // 2 - 1) + ")" if shift else "()" * (L // 2)
        b, loops = forms.boundary_loops(L, shift)
        assert basis[b] == ls.from_text(text)
        assert loops.dtype == np.int8 and not loops.flags.writeable
        np.testing.assert_array_equal(loops, [ls.glue(basis[b], s).loops for s in basis])

    @pytest.mark.parametrize("L", [2, 4, 6, 8])
    def test_counts_are_a_row_of_the_loop_gram(self, L):
        for shift in (0, 1):
            b, loops = forms.boundary_loops(L, shift)
            np.testing.assert_array_equal(loops, oracle_counts(L)[b])


@lru_cache(maxsize=None)
def glued_open_pairs(L: int) -> tuple:
    basis = ls.states(dg._open_sites(L))
    return tuple(
        (a, b, ls.glue(basis[a], basis[b]))
        for a in range(len(basis))
        for b in range(a, len(basis))
    )


def glue_link_gram(L: int, y) -> np.ndarray:
    """The link Gram from one :func:`link_state_oracles.glue` per pair (the oracle)."""
    dim = len(dg._open_sites(L))
    gram = np.zeros((dim, dim), dtype=complex if np.iscomplexobj(y) else float)
    for a, b, res in glued_open_pairs(L):
        w = 1.0
        for i, _ in res.bra_contractions:
            w *= oracles.contraction_weight(i, y)
        for i, _ in res.ket_contractions:
            w *= oracles.contraction_weight(i, y)
        gram[a, b] = gram[b, a] = w
    return gram


def unchunked_contractions(basis) -> np.ndarray:
    """String contractions of every glued pair, all pairs ``a <= b`` walked at once (the oracle).

    The walk of :func:`loopcells.forms._link_contractions` over
    ``np.triu_indices``, with no chunking of the bra rows.
    """
    dim = len(basis)
    partner = dg._arrays(basis)[0]
    L = partner.shape[1]
    string = partner == dg._STRING_SITE
    even = string & (np.cumsum(string, axis=1) % 2 == 0)
    width = 2 * L + 1
    fixed = np.broadcast_to(np.arange(L, width), (dim, L + 1))
    absorb = np.hstack([np.where(string, L + np.arange(L), partner), fixed]).ravel()
    through = np.hstack([np.where(string, 2 * L, partner), fixed]).ravel()
    a, b = np.triu_indices(dim)
    count = np.zeros(len(a), dtype=np.intp)
    for own, other in ((a, b), (b, a)):
        pair, start = np.nonzero(even[own])
        ends = forms._line_ends(
            through, other[pair] * width, absorb, own[pair] * width, start, L // 2
        )
        count += np.bincount(pair[(ends > L + start) & (ends < 2 * L)], minlength=len(a))
    counts = np.empty((dim, dim), dtype=np.int8)
    counts[a, b] = counts[b, a] = count
    return counts


def link_gram(L: int, y) -> np.ndarray:
    """The link form of width ``L`` applied to the identity: its Gram array."""
    return forms.link_form(L, y) @ np.eye(len(dg._open_sites(L)))


class TestLinkGram:
    @pytest.mark.parametrize("y", [1.0, 2.0, -1.0, 0.5])
    @pytest.mark.parametrize("L", range(1, 11))
    def test_matches_glue_oracle(self, L, y):
        gram = link_gram(L, y)
        assert type(gram) is np.ndarray and gram.dtype == np.float64
        np.testing.assert_array_equal(gram, glue_link_gram(L, y))

    @pytest.mark.parametrize("y", [0.3, 0.3 + 0.7j])
    @pytest.mark.parametrize("L", range(1, 11))
    def test_matches_glue_oracle_at_inexact_weights(self, L, y):
        gram = link_gram(L, y)
        assert type(gram) is np.ndarray
        assert gram.dtype == (np.complex128 if isinstance(y, complex) else np.float64)
        np.testing.assert_allclose(gram, glue_link_gram(L, y), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("y", [2.0, -1.0, 0.3, 0.5 + 1j])
    @pytest.mark.parametrize("L", [4, 7, 10, 12])
    def test_applies_the_glue_oracle_to_random_blocks(self, L, y):
        # width 12 has 924 states, so its rows are applied in four chunks of 256
        gram = glue_link_gram(L, y)
        rng = np.random.default_rng(L)
        form = forms.link_form(L, y)
        for X in (rng.standard_normal(len(gram)), rng.standard_normal((len(gram), 3))):
            for block in (X, X * (1 - 2j)):
                np.testing.assert_allclose(form @ block, gram @ block, rtol=1e-13, atol=1e-12)

    def test_contractions_are_counted_once_per_basis_object(self):
        basis = dg._open_sites(6)
        counts = forms._link_contractions(basis)
        assert counts.dtype == np.int8 and not counts.flags.writeable
        np.testing.assert_array_equal(counts, counts.T)
        assert forms._link_contractions(basis) is counts
        copy = basis.copy()
        assert forms._link_contractions(copy) is not counts
        np.testing.assert_array_equal(forms._link_contractions(copy), counts)

    def test_chunked_counts_match_the_unchunked_walk(self):
        # width 12 has 924 states: four chunks of 256 bra rows, the last partial
        basis = dg._open_sites(12)
        counts = forms._link_contractions(basis)
        assert counts.dtype == np.int8 and not counts.flags.writeable
        np.testing.assert_array_equal(counts, unchunked_contractions(basis))

    def test_gram_is_a_fresh_array_over_the_cached_counts(self):
        # the form holds the kept read-only counts; applied, it
        # gives a plain ndarray, float for a real weight and complex for a complex one
        counts = forms._link_contractions(dg._open_sites(6))
        for y, dtype in ((2.0, np.float64), (0.5 + 1j, np.complex128)):
            form = forms.link_form(6, y)
            assert form.counts is counts
            gram = form @ np.eye(20)
            assert type(gram) is np.ndarray and gram.dtype == dtype
            gram[:] = 0.0
            np.testing.assert_array_equal(link_gram(6, y), glue_link_gram(6, y))

    def test_glues_no_pair(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("glue called")

        assert not hasattr(dg, "glue")  # the one-pair gluing is the tests' oracle
        monkeypatch.setattr(ls, "glue", refuse)
        monkeypatch.setattr(forms, "glue", refuse, raising=False)
        assert link_gram(6, 2.0).shape == (20, 20)

    @pytest.mark.parametrize("y", [np.complex64(1 + 1j), np.complex128(0.5 - 2j)])
    def test_numpy_complex_weight_keeps_imaginary_part(self, y):
        sites = dg._open_sites(4)
        gram = link_gram(4, y)
        assert gram.dtype == np.complex128
        assert gram[text_index(sites, "(())"), text_index(sites, "||||")] == y
        assert all(e.dtype == np.complex128 for e in tl.open_generators(4, 1.0, y))

    def test_weight_one_width_two(self):
        # basis {arc, strings}: arc/arc closes a loop, arc/strings and
        # strings/strings each give a single line
        np.testing.assert_allclose(link_gram(2, 1.0), [[1, 1], [1, 1]])

    def test_deformed_width_two(self):
        # contracting the single pair of strings keeps weight one (odd label)
        np.testing.assert_allclose(link_gram(2, 3.0), [[1, 1], [1, 1]])

    @pytest.mark.parametrize("y", [2.0, -1.0, 0.5])
    def test_deformed_width_four_contraction(self, y):
        # four strings against the all-arcs state: one contraction of
        # strings 2,3 (even label -> weight y) and one of strings 1,4
        sites = dg._open_sites(4)
        gram = link_gram(4, y)
        a = text_index(sites, "(())")
        b = text_index(sites, "||||")
        assert gram[a, b] == pytest.approx(y)

    @pytest.mark.parametrize("y", [1.0, 2.0, -1.0, 0.5])
    @pytest.mark.parametrize("L", [2, 4, 6])
    def test_generators_self_adjoint(self, L, y):
        gram = link_gram(L, y)
        for e in tl.open_generators(L, 1.0, y):
            assert oracles.adjointness_matrix_defect(e, gram) < 1e-12


class TestSpinForm:
    def test_xxz_hamiltonian_self_adjoint(self):
        H, masks = models.build_xxz(4)
        assert oracles.adjointness_matrix_defect(H.toarray(), np.eye(len(masks))) < 1e-12

    def test_defects_accept_sparse_operators(self):
        H, masks = models.build_xxz(4)
        gram = np.eye(len(masks))
        defect = oracles.adjointness_matrix_defect
        assert defect(H, gram) == pytest.approx(defect(H.toarray(), gram), rel=1e-12, abs=1e-15)

    def test_width_two_singlet_square(self):
        # (q^{-1/2} ud - q^{1/2} du) dotted into itself without conjugation
        q = fx.Q_VALUE
        s = np.array([q**-0.5, -(q**0.5)])
        assert complex(s @ s) == pytest.approx(complex(q + 1 / q))

    @pytest.mark.parametrize("q", [fx.Q_VALUE, np.exp(0.31j)])
    def test_singlet_products_match_loop_pairings(self, q):
        # arc diagram -> product of singlets, with a sign per nested arc
        # pair; plain products would flip the sign of odd-loop pairings
        import itertools

        n = q + 1 / q
        L = 4

        def arcs_of(state):
            return [
                (i, state.partner[i])
                for i in range(state.size)
                if state.roles[i] == ls.ARC and state.partner[i] > i
            ]

        def nestings(arcs):
            count = 0
            for (a, b), (c, d) in itertools.combinations(arcs, 2):
                if (a < c and d < b) or (c < a and b < d):
                    count += 1
            return count

        def singlet_vector(state):
            arcs = arcs_of(state)
            vec: dict = {}
            for ups in itertools.product([0, 1], repeat=len(arcs)):
                conf = [0] * L
                w = (-1.0) ** nestings(arcs)
                for (i, j), u in zip(arcs, ups):
                    conf[i], conf[j] = (1, 0) if u else (0, 1)
                    w *= q**-0.5 if u else -(q**0.5)
                key = tuple(conf)
                vec[key] = vec.get(key, 0) + w
            return vec

        basis = ls.states(dg._dense_sites(L))
        loop = loop_gram(L, n)
        vectors = [singlet_vector(s) for s in basis]
        for a, u in enumerate(vectors):
            for b, v in enumerate(vectors):
                spin = sum(cu * v.get(c, 0) for c, cu in u.items())
                assert spin == pytest.approx(complex(loop[a, b]), abs=1e-12)


def glue_rule_gram(sites: np.ndarray) -> np.ndarray:
    """The dilute Gram of a site array from one :func:`link_state_oracles.glue` per pair.

    Only pairs with matching empty sites are glued.
    """
    basis = ls.states(sites)
    dim = len(basis)
    gram = np.zeros((dim, dim))
    masks = [s.occupied_mask for s in basis]
    for a, sa in enumerate(basis):
        for b, sb in enumerate(basis):
            if masks[a] == masks[b]:
                res = ls.glue(sa, sb)
                gram[a, b] = 1.0 if res.mask_match and res.loops == 0 else 0.0
    return gram


def mask_walk_gram(sites: np.ndarray) -> sp.csr_matrix:
    """The sparse dilute Gram from one line walk per occupation-mask group.

    Every group of states with one occupation mask glues all its pairs at
    once: walkers start at the bra's arc openers and step through the bra
    arc, then the ket arc, with empty and string sites absorbing into the
    sentinel ``L``; a pair is loop-free when every walker is absorbed within
    ``k//2 + 1`` rounds on ``k`` occupied sites.
    """
    dim = len(sites)
    if not dim:
        return sp.csr_matrix((0, 0))
    L, narrow = sites.shape[1], np.min_scalar_type(sites.shape[1])
    here = np.arange(L)
    step = np.hstack([np.where(sites >= 0, sites, L), np.full((dim, 1), L)]).astype(narrow).ravel()
    openers = np.sort(np.where(sites > here, here, L), axis=1)[:, : L // 2].astype(narrow)
    arc_count = np.count_nonzero(sites > here, axis=1)
    occupied = sites != dg._EMPTY_SITE
    masks = occupied @ (1 << here)
    order = np.argsort(masks, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(masks[order])) + 1)
    rows, cols = [], []
    for members in groups:
        i, j = np.triu_indices(len(members))
        a, b = members[i], members[j]
        start = openers[a, : arc_count[members].max()]
        rounds = np.count_nonzero(occupied[members[0]]) // 2 + 1
        ends = forms._line_ends(step, a[:, None] * (L + 1), step, b[:, None] * (L + 1), start, rounds)
        free = np.all(ends == L, axis=1)
        a, b = a[free], b[free]
        off = a != b
        rows += [a, b[off]]
        cols += [b, a[off]]
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    return sp.csr_matrix(sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(dim, dim)))


def applied_dilute_gram(basis, columns=None) -> np.ndarray:
    """``dilute_form(basis)`` applied to unit vectors: its Gram array, or only the ``columns``."""
    columns = np.arange(len(basis)) if columns is None else np.asarray(columns)
    unit = np.zeros((len(basis), len(columns)))
    unit[columns, np.arange(len(columns))] = 1.0
    return forms.dilute_form(basis) @ unit


def assert_applies_like(form, gram, x):
    """``form @ x`` has the shape and dtype of ``gram @ x`` and agrees to 1e-13 of its largest entry."""
    got, expect = form @ x, np.asarray(gram @ x)
    assert got.shape == expect.shape == x.shape
    assert got.dtype == expect.dtype
    np.testing.assert_allclose(got, expect, rtol=0, atol=1e-13 * np.abs(expect).max(initial=1.0))


def random_columns(rng, dim: int, columns: int | None) -> np.ndarray:
    shape = (dim,) if columns is None else (dim, columns)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestDiluteForm:
    def test_zero_sector_block_is_single_entry(self):
        # any glued pair of arcs closes a loop of weight zero, so only the
        # all-empty diagonal entry survives in the string-free block
        row = models.build_dilute_T(4)
        gram = applied_dilute_gram(row.basis)
        zero = np.flatnonzero(np.count_nonzero(row.basis == dg._STRING_SITE, axis=1) == 0).tolist()
        block = gram[np.ix_(zero, zero)]
        assert block.sum() == 1.0
        basis = row_basis_oracle(4)
        empty = [k for k in zero if not any(basis[k].occupied_mask)]
        assert block[zero.index(empty[0]), zero.index(empty[0])] == 1.0

    def test_arc_against_strings_pairing(self):
        # the printed width-2 example: an arc contracts the two strings
        basis = dilute_sites(2, 0)
        gram = applied_dilute_gram(basis)
        arc = text_index(basis, "()")
        strings = text_index(basis, "||")
        assert gram[arc, strings] == 1.0
        assert gram[arc, arc] == 0.0  # closed loop at weight zero
        assert gram[strings, strings] == 1.0

    def test_mask_mismatch_is_zero(self):
        basis = dilute_sites(2)
        empty = text_index(basis, "..")
        arc = text_index(basis, "()")
        assert applied_dilute_gram(basis)[empty, arc] == 0.0

    @pytest.mark.parametrize("L", range(1, 9))
    def test_sector_gram_matches_dilute_rule(self, L):
        # the row basis, read through its oracle, and every parity basis of the width
        row = models.build_dilute_T(L)
        np.testing.assert_array_equal(
            applied_dilute_gram(row.basis), glue_rule_gram(ls.site_array(row_basis_oracle(L)))
        )
        for basis in [dilute_sites(L, p) for p in (None, 0, 1)]:
            np.testing.assert_array_equal(applied_dilute_gram(basis), glue_rule_gram(basis))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_sector_gram_ignores_basis_order(self, data):
        # any shuffled sub-basis gets the glue-rule matrix of that sub-basis
        L = data.draw(st.integers(1, 6), label="L")
        full = dilute_sites(L, data.draw(st.sampled_from([None, 0, 1])))
        picks = data.draw(
            st.lists(st.sampled_from(range(len(full))), min_size=1, max_size=40, unique=True)
        )
        basis = full[picks]
        np.testing.assert_array_equal(applied_dilute_gram(basis), glue_rule_gram(basis))
        x = random_columns(np.random.default_rng(len(picks)), len(basis), 3)
        assert_applies_like(forms.dilute_form(basis), glue_rule_gram(basis), x)
        assert_applies_like(forms.dilute_form(basis), glue_rule_gram(basis), x[:, 0].real)

    @pytest.mark.parametrize("L", [2, 3, 4])
    def test_bra_row_intertwines_with_ket_row(self, L):
        # G ML^T... the reversed row is the adjoint of the forward row:
        # G T = ML^T G, which turns bra-row eigenvectors into left ones
        row = models.build_dilute_T(L)
        gram = applied_dilute_gram(row.basis)
        t = row.ket_row.matrix()
        ml = row.bra_row.matrix()
        np.testing.assert_allclose(gram @ t, ml.T @ gram, atol=1e-12)


class TestDiluteFormOperator:
    """The unformed dilute form against the per-mask line walk it replaces."""

    @pytest.mark.parametrize("L", range(1, 9))
    def test_mask_walk_oracle_matches_dilute_rule(self, L):
        for basis in [dilute_sites(L, p) for p in (None, 0, 1)]:
            np.testing.assert_array_equal(mask_walk_gram(basis).toarray(), glue_rule_gram(basis))

    @pytest.mark.parametrize("L", range(1, 13))
    def test_row_form_matches_the_mask_walk_oracle(self, L):
        basis = models.build_dilute_T(L).basis
        oracle = mask_walk_gram(basis)
        rng = np.random.default_rng(L)
        # every entry up to width 8, the entries of 64 columns above
        columns = None if L <= 8 else rng.choice(len(basis), 64, replace=False)
        expect = oracle.toarray() if columns is None else oracle[:, columns].toarray()
        np.testing.assert_array_equal(applied_dilute_gram(basis, columns), expect)
        form = forms.dilute_form(basis)
        for columns in (None, 1, 3):
            assert_applies_like(form, oracle, random_columns(rng, len(basis), columns))
        assert_applies_like(form, oracle, rng.standard_normal(len(basis)))

    @pytest.mark.parametrize("parity", ["all", "even", "odd"])
    @pytest.mark.parametrize("L", range(1, 9))
    def test_parity_form_matches_the_mask_walk_oracle(self, L, parity):
        basis = dilute_sites(L, {"all": None, "even": 0, "odd": 1}[parity])
        oracle = mask_walk_gram(basis)
        np.testing.assert_array_equal(applied_dilute_gram(basis), oracle.toarray())
        form = forms.dilute_form(basis)
        rng = np.random.default_rng(L)
        for columns in (None, 3):
            assert_applies_like(form, oracle, random_columns(rng, len(basis), columns))
        # string parity is a property of the pattern, so every mask of a
        # parity basis holds every pattern of its count: the grids are full
        assert all(np.all(grid >= 0) for grid, _ in form.blocks)

    @pytest.mark.parametrize("L", range(3, 11))
    def test_sub_basis_with_holes_matches_the_mask_walk_oracle(self, L):
        # half the row states, shuffled: masks miss some of their patterns
        rng = np.random.default_rng(L)
        sites = models.build_dilute_T(L).basis
        basis = sites[rng.permutation(len(sites))[: len(sites) // 2]]
        form = forms.dilute_form(basis)
        assert any(np.any(grid < 0) for grid, _ in form.blocks)
        oracle = mask_walk_gram(basis)
        np.testing.assert_array_equal(applied_dilute_gram(basis), oracle.toarray())
        for columns in (None, 3):
            assert_applies_like(form, oracle, random_columns(rng, len(basis), columns))

    @pytest.mark.parametrize("L", range(1, 13))
    def test_row_basis_fills_every_grid_once(self, L):
        # every mask of k occupied sites holds every zero- and two-string
        # k-site pattern exactly once, so one block per count serves all
        basis = models.build_dilute_T(L).basis
        form = forms.dilute_form(basis)
        rows = np.concatenate([grid.ravel() for grid, _ in form.blocks])
        np.testing.assert_array_equal(np.sort(rows), np.arange(len(basis)))
        counts = [np.count_nonzero(basis[grid] != dg._EMPTY_SITE, axis=-1) for grid, _ in form.blocks]
        assert [int(c.flat[0]) for c in counts] == list(range(0, L + 1, 2))
        assert all(np.all(c == c.flat[0]) for c in counts)

    def test_blocks_are_symmetric_zero_one(self):
        for grid, gram in forms.dilute_form(models.build_dilute_T(10).basis).blocks:
            assert gram.shape == (grid.shape[1], grid.shape[1])
            assert set(np.unique(gram)) <= {0.0, 1.0}
            np.testing.assert_array_equal(gram, gram.T)

    def test_width_one_is_the_empty_pattern(self):
        (grid, gram), = forms.dilute_form(models.build_dilute_T(1).basis).blocks
        np.testing.assert_array_equal(grid, [[0]])
        np.testing.assert_array_equal(gram, [[1.0]])

    def test_empty_basis(self):
        form = forms.dilute_form(np.zeros((0, 4), dtype=np.int8))
        assert form.dim == 0 and form.blocks == ()
        assert applied_dilute_gram(np.zeros((0, 4), dtype=np.int8)).shape == (0, 0)
        for x in (np.zeros(0), np.zeros((0, 3), dtype=complex)):
            assert_applies_like(form, np.zeros((0, 0)), x)


class TestDefectMeasures:
    def test_defect_detects_asymmetry(self):
        sym = np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2.0]])
        skew = sym + np.array([[0, 0.5, 0, 0], [-0.5, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0.0]])
        assert oracles.adjointness_matrix_defect(sym, np.eye(4)) < 1e-15
        assert oracles.adjointness_matrix_defect(skew, np.eye(4)) > 0.1

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            oracles.adjointness_matrix_defect(np.eye(3), np.eye(4))
