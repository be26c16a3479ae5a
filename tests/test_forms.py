"""Tests for the bilinear pairings and their Gram matrices."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from loopcells import diagrams as dg
from loopcells import fixtures as fx
from loopcells import forms, models, tl


def dense_state_index(L: int, text: str) -> int:
    return dg.basis_index(dg.enumerate_dense(L))[dg.from_text(text)]


class TestLoopGram:
    @pytest.mark.parametrize("n", [0.3, 1.0, 2.0])
    def test_published_pairing_example(self, n):
        # gluing ()(()) onto (()()) closes exactly two loops
        form = forms.loop_gram(6, n)
        i = dense_state_index(6, "()(())")
        j = dense_state_index(6, "(()())")
        assert form.gram[i, j] == pytest.approx(n**2)

    @pytest.mark.parametrize("n", [0.3, 1.0, 2.0])
    def test_negative_norm_combination(self, n):
        # the difference of those two states has square 2n^2(n-1),
        # negative below n=1: the pairing is not positive definite
        form = forms.loop_gram(6, n)
        vec = np.zeros(form.dim)
        vec[dense_state_index(6, "()(())")] = 1.0
        vec[dense_state_index(6, "(()())")] = -1.0
        assert forms.pairing(vec, form.gram, vec) == pytest.approx(2 * n**2 * (n - 1))

    def test_self_gluing_gives_maximal_loops(self):
        form = forms.loop_gram(6, 2.0)
        for k in range(form.dim):
            assert form.gram[k, k] == pytest.approx(2.0**3)

    def test_weight_one_is_all_ones(self):
        for L in (2, 4, 6, 8):
            form = forms.loop_gram(L, 1.0)
            np.testing.assert_allclose(form.gram, np.ones((form.dim, form.dim)))

    def test_numpy_complex_weight_keeps_imaginary_part(self):
        n = np.complex64(0.5 + 0.5j)
        gram = forms.loop_gram(4, n).gram
        assert gram.dtype == np.complex128
        assert gram[0, 0] == pytest.approx(complex(n) ** 2, abs=1e-6)
        assert all(e.dtype == np.complex128 for e in tl.dense_generators(4, n))


@lru_cache(maxsize=None)
def oracle_counts(L: int) -> np.ndarray:
    return forms.loop_count_matrix(dg.enumerate_dense(L))


def singlet_gram_error(L: int, n: float) -> float:
    m = forms.singlet_factor(L, n)
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
        m = forms.singlet_factor(L, 0.7)
        dim = len(dg.enumerate_dense(L))
        assert m.shape == (2**L, dim)
        assert m.nnz == dim * 2 ** (L // 2)
        # every spin state in a column has zero magnetization
        rows = m.tocoo().row
        assert all(bin(int(r)).count("1") == L // 2 for r in rows)


@lru_cache(maxsize=None)
def glued_open_pairs(L: int) -> tuple:
    basis = dg.enumerate_open(L)
    return tuple(
        (a, b, dg.glue(basis[a], basis[b]))
        for a in range(len(basis))
        for b in range(a, len(basis))
    )


def glue_link_gram(L: int, y) -> np.ndarray:
    """The link Gram from one :func:`~loopcells.diagrams.glue` per pair (the oracle)."""
    dim = len(dg.enumerate_open(L))
    gram = np.zeros((dim, dim), dtype=complex if np.iscomplexobj(y) else float)
    for a, b, res in glued_open_pairs(L):
        w = 1.0
        for i, _ in res.bra_contractions:
            w *= tl.contraction_weight(i, y)
        for i, _ in res.ket_contractions:
            w *= tl.contraction_weight(i, y)
        gram[a, b] = gram[b, a] = w
    return gram


class TestLinkGram:
    @pytest.mark.parametrize("y", [1.0, 2.0, -1.0, 0.5])
    @pytest.mark.parametrize("L", range(1, 11))
    def test_matches_glue_oracle(self, L, y):
        gram = forms.link_gram(L, y).gram
        assert gram.dtype == np.float64
        np.testing.assert_array_equal(gram, glue_link_gram(L, y))

    @pytest.mark.parametrize("y", [0.3, 0.3 + 0.7j])
    @pytest.mark.parametrize("L", range(1, 11))
    def test_matches_glue_oracle_at_inexact_weights(self, L, y):
        gram = forms.link_gram(L, y).gram
        assert gram.dtype == (np.complex128 if isinstance(y, complex) else np.float64)
        np.testing.assert_allclose(gram, glue_link_gram(L, y), rtol=0, atol=1e-15)

    def test_glues_no_pair(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("glue called")

        monkeypatch.setattr(dg, "glue", refuse)
        monkeypatch.setattr(forms, "glue", refuse)
        assert forms.link_gram(6, 2.0).dim == 20

    @pytest.mark.parametrize("y", [np.complex64(1 + 1j), np.complex128(0.5 - 2j)])
    def test_numpy_complex_weight_keeps_imaginary_part(self, y):
        index = dg.basis_index(dg.enumerate_open(4))
        form = forms.link_gram(4, y)
        assert form.gram.dtype == np.complex128
        assert form.gram[index[dg.from_text("(())")], index[dg.from_text("||||")]] == y
        assert all(e.dtype == np.complex128 for e in tl.open_generators(4, 1.0, y))

    def test_weight_one_width_two(self):
        # basis {arc, strings}: arc/arc closes a loop, arc/strings and
        # strings/strings each give a single line
        form = forms.link_gram(2, 1.0)
        np.testing.assert_allclose(form.gram, [[1, 1], [1, 1]])

    def test_deformed_width_two(self):
        # contracting the single pair of strings keeps weight one (odd label)
        form = forms.link_gram(2, 3.0)
        np.testing.assert_allclose(form.gram, [[1, 1], [1, 1]])

    @pytest.mark.parametrize("y", [2.0, -1.0, 0.5])
    def test_deformed_width_four_contraction(self, y):
        # four strings against the all-arcs state: one contraction of
        # strings 2,3 (even label -> weight y) and one of strings 1,4
        basis = dg.enumerate_open(4)
        index = dg.basis_index(basis)
        form = forms.link_gram(4, y)
        a = index[dg.from_text("(())")]
        b = index[dg.from_text("||||")]
        assert form.gram[a, b] == pytest.approx(y)

    @pytest.mark.parametrize("y", [1.0, 2.0, -1.0, 0.5])
    @pytest.mark.parametrize("L", [2, 4, 6])
    def test_generators_self_adjoint(self, L, y):
        form = forms.link_gram(L, y)
        for e in tl.open_generators(L, 1.0, y):
            assert forms.adjointness_matrix_defect(e, form) < 1e-12


class TestSpinForm:
    def test_identity_gram(self):
        form = forms.identity_gram(6)
        np.testing.assert_allclose(form.gram, np.eye(6))

    def test_xxz_hamiltonian_self_adjoint(self):
        H, masks = models.build_xxz(4)
        H = H.toarray()
        form = forms.identity_gram(len(masks))
        assert forms.adjointness_matrix_defect(H, form) < 1e-12
        assert forms.selfadjointness_defect(H, form) < 1e-10

    def test_defects_accept_sparse_operators(self):
        H, masks = models.build_xxz(4)
        form = forms.identity_gram(len(masks))
        for defect in (forms.adjointness_matrix_defect, forms.selfadjointness_defect):
            assert defect(H, form) == pytest.approx(defect(H.toarray(), form), rel=1e-12, abs=1e-15)

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
                if state.roles[i] == dg.ARC and state.partner[i] > i
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

        basis = dg.enumerate_dense(L)
        loop = forms.loop_gram(L, n).gram
        vectors = [singlet_vector(s) for s in basis]
        for a, u in enumerate(vectors):
            for b, v in enumerate(vectors):
                spin = sum(cu * v.get(c, 0) for c, cu in u.items())
                assert spin == pytest.approx(complex(loop[a, b]), abs=1e-12)


def glue_rule_gram(basis) -> np.ndarray:
    """The dilute Gram from one :func:`glue` per pair with matching empty sites."""
    dim = len(basis)
    gram = np.zeros((dim, dim))
    masks = [s.occupied_mask for s in basis]
    for a, sa in enumerate(basis):
        for b, sb in enumerate(basis):
            if masks[a] == masks[b]:
                res = dg.glue(sa, sb)
                gram[a, b] = 1.0 if res.mask_match and res.loops == 0 else 0.0
    return gram


class TestDiluteForm:
    def test_zero_sector_block_is_single_entry(self):
        # any glued pair of arcs closes a loop of weight zero, so only the
        # all-empty diagonal entry survives in the string-free block
        row = models.build_dilute_T(4)
        gram = forms.dilute_sector_gram(row.basis).toarray()
        zero = dg.sector_indices(row.basis, 0)
        block = gram[np.ix_(zero, zero)]
        assert block.sum() == 1.0
        empty = [k for k in zero if not any(row.basis[k].occupied_mask)]
        assert block[zero.index(empty[0]), zero.index(empty[0])] == 1.0

    def test_arc_against_strings_pairing(self):
        # the printed width-2 example: an arc contracts the two strings
        form = forms.dilute_gram(2)
        basis = forms.dilute_gram(2).basis
        index = dg.basis_index(basis)
        arc = index[dg.from_text("()")]
        strings = index[dg.from_text("||")]
        assert form.gram[arc, strings] == 1.0
        assert form.gram[arc, arc] == 0.0  # closed loop at weight zero
        assert form.gram[strings, strings] == 1.0

    def test_mask_mismatch_is_zero(self):
        form = forms.dilute_gram(2, parity="all")
        basis = form.basis
        index = dg.basis_index(basis)
        empty = index[dg.from_text("..")]
        arc = index[dg.from_text("()")]
        assert form.gram[empty, arc] == 0.0

    @pytest.mark.parametrize("L", range(1, 9))
    def test_sector_gram_matches_dilute_rule(self, L):
        # the row basis and every parity basis of the width
        row = models.build_dilute_T(L)
        for basis in [row.basis] + [dg.enumerate_dilute(L, p) for p in ("all", "even", "odd")]:
            gram = forms.dilute_sector_gram(basis)
            assert sp.issparse(gram)
            np.testing.assert_array_equal(gram.toarray(), glue_rule_gram(basis))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_sector_gram_ignores_basis_order(self, data):
        # any shuffled sub-basis gets the glue-rule matrix of that sub-basis
        L = data.draw(st.integers(1, 6), label="L")
        full = dg.enumerate_dilute(L, data.draw(st.sampled_from(["all", "even", "odd"])))
        picks = data.draw(
            st.lists(st.sampled_from(range(len(full))), min_size=1, max_size=40, unique=True)
        )
        basis = tuple(full[k] for k in picks)
        np.testing.assert_array_equal(
            forms.dilute_sector_gram(basis).toarray(), glue_rule_gram(basis)
        )

    @pytest.mark.parametrize("L", [2, 3, 4])
    def test_bra_row_intertwines_with_ket_row(self, L):
        # G ML^T... the reversed row is the adjoint of the forward row:
        # G T = ML^T G, which turns bra-row eigenvectors into left ones
        row = models.build_dilute_T(L)
        gram = forms.dilute_sector_gram(row.basis).toarray()
        t = row.ket_row.toarray()
        ml = row.bra_row.toarray()
        np.testing.assert_allclose(gram @ t, ml.T @ gram, atol=1e-12)


class TestPairing:
    @pytest.mark.parametrize("L", [2, 4, 6])
    def test_sparse_gram_pairs_like_its_dense_view(self, L):
        form = forms.dilute_gram(L)
        sparse = forms.dilute_sector_gram(form.basis)
        rng = np.random.default_rng(L)
        u, v = rng.standard_normal((2, form.dim))
        expect = forms.pairing(u, form.gram, v)
        assert forms.pairing(u, sparse, v) == pytest.approx(expect, abs=1e-12)
        assert forms.BilinearForm("sparse", sparse).pairing(u, v) == pytest.approx(
            expect, abs=1e-12
        )


class TestDefectMeasures:
    def test_defect_detects_asymmetry(self):
        form = forms.identity_gram(4)
        sym = np.array([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2.0]])
        skew = sym + np.array([[0, 0.5, 0, 0], [-0.5, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0.0]])
        assert forms.adjointness_matrix_defect(sym, form) < 1e-15
        assert forms.adjointness_matrix_defect(skew, form) > 0.1
        assert forms.selfadjointness_defect(skew, form) > 1e-3

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            forms.selfadjointness_defect(np.eye(3), forms.identity_gram(4))
