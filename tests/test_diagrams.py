"""Tests for the link-pattern state spaces."""

from __future__ import annotations

import itertools
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopcells import diagrams as dg

RUN_BEST_EFFORT = bool(os.environ.get("LOOPCELLS_BEST_EFFORT"))


def state(text: str) -> dg.LinkState:
    return dg.from_text(text)


def make_state(roles, partner) -> dg.LinkState:
    """Build a :class:`LinkState` and check all structural invariants."""
    built = dg.LinkState(tuple(roles), tuple(partner))
    dg.validate(built)
    return built


def brute_force_states(L: int, allow_empty: bool, allow_string: bool) -> set[str]:
    """Independent oracle: filter all token strings through the validator."""
    tokens = "()"
    if allow_string:
        tokens += "|"
    if allow_empty:
        tokens += "."
    found = set()
    for combo in itertools.product(tokens, repeat=L):
        text = "".join(combo)
        try:
            dg.from_text(text)
        except ValueError:
            continue
        found.add(text)
    return found


def row_basis_oracle(L: int) -> tuple[dg.LinkState, ...]:
    """The zero- and two-string states of the even dilute basis, in its order."""
    return tuple(s for s in dg.enumerate_dilute(L, "even") if s.n_strings <= 2)


class TestEnumeration:
    @pytest.mark.parametrize("L", [2, 4, 6, 8, 10])
    def test_dense_count_is_catalan(self, L):
        assert len(dg.enumerate_dense(L)) == dg.catalan(L // 2)

    @pytest.mark.parametrize("L", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_open_count_is_central_binomial(self, L):
        from math import comb

        assert len(dg.enumerate_open(L)) == comb(L, L // 2)

    @pytest.mark.parametrize("L", [2, 4, 6, 8])
    def test_open_sector_dimensions(self, L):
        basis = dg.enumerate_open(L)
        for j in range(L // 2 + 1):
            sector = dg.sector_indices(basis, 2 * j)
            assert len(sector) == dg.sector_dimension(L, j)

    @pytest.mark.parametrize("L", [1, 2, 3, 4, 5, 6, 7])
    def test_dilute_zero_string_sector_is_motzkin(self, L):
        basis = dg.enumerate_dilute(L, parity="all")
        zero = dg.sector_indices(basis, 0)
        assert len(zero) == dg.motzkin(L)

    @pytest.mark.parametrize(
        "L,allow_empty,allow_string,enumerator",
        [
            (L, e, s, f)
            for L in (1, 2, 3, 4, 5, 6)
            for (e, s, f) in [
                (False, False, lambda L: dg.enumerate_dense(L) if L % 2 == 0 else ()),
                (False, True, dg.enumerate_open),
                (True, True, lambda L: dg.enumerate_dilute(L, "all")),
            ]
        ],
    )
    def test_against_brute_force(self, L, allow_empty, allow_string, enumerator):
        states = enumerator(L)
        if not states:
            return
        oracle = brute_force_states(L, allow_empty, allow_string)
        assert {s.to_text() for s in states} == oracle

    def test_dilute_examples(self):
        assert [s.to_text() for s in dg.enumerate_dilute(1, "all")] == [".", "|"]
        assert [s.to_text() for s in dg.enumerate_dilute(2, "even")] == ["..", "()", "||"]

    def test_dilute_parity_split(self):
        for L in (2, 3, 4, 5):
            full = set(dg.enumerate_dilute(L, "all"))
            even = set(dg.enumerate_dilute(L, "even"))
            odd = set(dg.enumerate_dilute(L, "odd"))
            assert even | odd == full and not (even & odd)

    def test_canonical_order_L4_open(self):
        texts = [s.to_text() for s in dg.enumerate_open(4)]
        assert texts == ["()()", "(())", "||()", "|()|", "()||", "||||"]

    @pytest.mark.parametrize(
        "L",
        [*range(1, 13)]
        + [
            pytest.param(L, marks=pytest.mark.skipif(
                not RUN_BEST_EFFORT, reason="set LOOPCELLS_BEST_EFFORT=1 to run"))
            for L in (13, 14)
        ],
    )
    def test_row_sites_match_the_linkstate_oracle(self, L):
        sites = dg.dilute_row_sites(L)
        assert sites.dtype == np.int8 and not sites.flags.writeable
        np.testing.assert_array_equal(sites, dg._arrays(row_basis_oracle(L))[0])
        strings = np.count_nonzero(sites == dg._STRING_SITE, axis=1)
        assert np.all(np.diff(strings) >= 0)

    def test_row_sites_need_a_site(self):
        with pytest.raises(ValueError, match="L >= 1"):
            dg.dilute_row_sites(0)

    def test_states_are_sorted_and_unique(self):
        for basis in (dg.enumerate_dense(6), dg.enumerate_open(5), dg.enumerate_dilute(4)):
            keys = [s.sort_key() for s in basis]
            assert keys == sorted(keys)
            assert len(set(basis)) == len(basis)


class TestSerialization:
    @pytest.mark.parametrize("text", ["()()", "(())", "||()", "(.)", "..", "|().|"])
    def test_round_trip(self, text):
        assert dg.from_text(text).to_text() == text

    @pytest.mark.parametrize("bad", ["(", ")", "(|)", ")(", "(()", "x"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            dg.from_text(bad)

    def test_validate_rejects_broken_involution(self):
        with pytest.raises(ValueError):
            make_state((dg.ARC, dg.ARC), (0, 1))

    @given(st.sampled_from(dg.enumerate_dilute(6, "all")))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, s):
        assert dg.from_text(s.to_text()) == s


class TestGlue:
    def test_mask_mismatch(self):
        res = dg.glue(state(".."), state("()"))
        assert not res.mask_match

    def test_scalar_product_example_pair(self):
        # mirror of (12)(36)(45) on top of (16)(23)(45) closes two loops
        res = dg.glue(state("()(())"), state("(()())"))
        assert res.mask_match and res.loops == 2
        assert not (res.bra_contractions or res.ket_contractions or res.through_pairs)

    def test_self_gluing_closes_every_arc(self):
        for s in dg.enumerate_dense(6):
            assert dg.glue(s, s).loops == 3

    def test_arc_against_strings(self):
        res = dg.glue(state("()"), state("||"))
        assert res.loops == 0
        assert res.ket_contractions == ((1, 2),)
        assert not res.bra_contractions and not res.through_pairs

    def test_strings_against_arc(self):
        res = dg.glue(state("||"), state("()"))
        assert res.bra_contractions == ((1, 2),)
        assert not res.ket_contractions and not res.through_pairs

    def test_through_lines(self):
        res = dg.glue(state("||"), state("||"))
        assert res.loops == 0
        assert res.through_pairs == ((1, 1), (2, 2))

    def test_snaking_through_lines(self):
        # Each line enters at the bottom, passes through one arc of each
        # diagram and leaves at the top: two through-lines, no loop.
        res = dg.glue(state("(())||"), state("||(())"))
        assert res.loops == 0
        assert res.through_pairs == ((1, 1), (2, 2))
        assert not res.bra_contractions and not res.ket_contractions

    def test_contraction_through_an_arc(self):
        # The outer bra arc joins ket strings 1 and 2 across the ket's own
        # arc, which closes into a loop with the inner bra arc.
        res = dg.glue(state("(())"), state("|()|"))
        assert res.loops == 1
        assert res.ket_contractions == ((1, 2),)
        assert not res.bra_contractions and not res.through_pairs

    def test_nested_contraction_labels(self):
        # Nested bra arcs over four ket strings: pairs (1,4) and (2,3).
        res = dg.glue(state("(())"), state("||||"))
        assert res.loops == 0
        assert res.ket_contractions == ((1, 4), (2, 3))

    @given(
        st.sampled_from(dg.enumerate_dilute(5, "all")),
        st.sampled_from(dg.enumerate_dilute(5, "all")),
    )
    @settings(max_examples=120, deadline=None)
    def test_glue_is_symmetric_up_to_role_swap(self, a, b):
        ab = dg.glue(a, b)
        ba = dg.glue(b, a)
        assert ab.mask_match == ba.mask_match
        if ab.mask_match:
            assert ab.loops == ba.loops
            assert ab.bra_contractions == ba.ket_contractions
            assert ab.ket_contractions == ba.bra_contractions
            assert ab.through_pairs == tuple(sorted((k, b_) for b_, k in ba.through_pairs))

    @given(st.sampled_from(dg.enumerate_open(6)))
    @settings(max_examples=60, deadline=None)
    def test_string_count_conservation(self, s):
        res = dg.glue(s, s)
        assert 2 * len(res.bra_contractions) + len(res.through_pairs) == s.n_strings
        assert 2 * len(res.ket_contractions) + len(res.through_pairs) == s.n_strings


class TestConcatenate:
    def test_shapes_and_validity(self):
        c = dg.concatenate(state("(.)"), state("||"))
        assert c.to_text() == "(.)||"
        dg.validate(c)


class TestReflect:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("(.)", "(.)"),
            ("()|.", ".|()"),
            ("(())", "(())"),
            ("(()).", ".(())"),
            ("()(.)", "(.)()"),
            ("||", "||"),
        ],
    )
    def test_examples(self, text, expected):
        assert dg.reflect(state(text)).to_text() == expected

    @pytest.mark.parametrize("L", [2, 3, 4, 5])
    def test_involution_and_validity(self, L):
        for s in dg.enumerate_dilute(L):
            r = dg.reflect(s)
            dg.validate(r)
            assert dg.reflect(r) == s

    def test_permutes_basis(self):
        states = list(dg.enumerate_dilute(5))
        reflected = {dg.reflect(s) for s in states}
        assert reflected == set(states)


class TestArrayForm:
    BASES = [
        lambda: dg.enumerate_dense(8),
        lambda: dg.enumerate_open(7),
        lambda: dg.enumerate_dilute(6, "all"),
    ]

    @pytest.mark.parametrize("make", BASES)
    def test_sites_spell_the_states(self, make):
        basis = make()
        sites = dg._arrays(basis)[0]
        assert sites.shape == (len(basis), basis[0].size) and not sites.flags.writeable
        for s, row in zip(basis, sites):
            expect = [
                p if r == dg.ARC else dg._STRING_SITE if r == dg.STRING else dg._EMPTY_SITE
                for r, p in zip(s.roles, s.partner)
            ]
            assert row.tolist() == expect

    @pytest.mark.parametrize("make", BASES)
    def test_lookup_finds_every_row(self, make):
        basis = make()
        sites, rows = dg._arrays(basis)
        assert len(set(dg._keys(sites).tolist())) == len(basis)
        order = np.random.default_rng(0).permutation(len(basis))
        np.testing.assert_array_equal(rows(sites[order]), order)

    def test_site_array_is_its_own_array_form(self):
        sites = dg.dilute_row_sites(6)
        own, rows = dg._arrays(sites)
        assert own is sites and dg._arrays(sites) is dg._arrays(sites)
        order = np.random.default_rng(1).permutation(len(sites))
        np.testing.assert_array_equal(rows(sites[order]), order)
        for got, expect in zip(dg._keyed(sites)[:2], dg._keyed(row_basis_oracle(6))[:2]):
            np.testing.assert_array_equal(got, expect)

    def test_built_once_per_basis(self):
        basis = dg.enumerate_open(6)
        assert dg._arrays(basis) is dg._arrays(basis)
        copy = dg._arrays(basis[:-1] + basis[-1:])  # an equal basis, another object
        assert copy is not dg._arrays(basis)
        np.testing.assert_array_equal(copy[0], dg._arrays(basis)[0])

    def test_lookup_refuses_a_state_outside_the_basis(self):
        # the open basis with one state removed cannot find that state
        full = dg.enumerate_open(6)
        sites, _ = dg._arrays(full)
        _, rows = dg._arrays(full[:3] + full[4:])
        with pytest.raises(LookupError, match="1 mapped states are not in the basis"):
            rows(sites)
        np.testing.assert_array_equal(rows(sites[:3]), [0, 1, 2])

    def test_reflection_and_concatenation_match_the_states(self):
        basis = dg.enumerate_dilute(3, "all")
        sites, rows = dg._arrays(basis)
        _, wide_rows = dg._arrays(dg.enumerate_dilute(6, "all"))
        index = dg.basis_index(dg.enumerate_dilute(6, "all"))
        pairs = [dg.concatenate(a, b) for a in basis for b in basis]
        np.testing.assert_array_equal(
            wide_rows(dg._side_by_side(sites, sites)), [index[s] for s in pairs]
        )
        reflected = [dg.basis_index(basis)[dg.reflect(s)] for s in basis]
        np.testing.assert_array_equal(rows(dg._reflected(sites)), reflected)

    @pytest.mark.parametrize("L", [4, 5, 6])
    def test_sector_indices_count_strings(self, L):
        basis = dg.enumerate_dilute(L, "all")
        for k in range(L + 1):
            assert dg.sector_indices(basis, k) == [
                i for i, s in enumerate(basis) if s.n_strings == k
            ]
