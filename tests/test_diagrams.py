"""Tests for the link-pattern state spaces."""

from __future__ import annotations

import itertools
import os
from functools import lru_cache

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


def bounded_states(L: int, allow_empty: bool, allow_string: bool) -> list[dg.LinkState]:
    """Depth-first generation of all valid diagrams, one :class:`LinkState` at a time."""
    roles = [0] * L
    partner = [-1] * L
    stack: list[int] = []
    out: list[dg.LinkState] = []

    def rec(i: int) -> None:
        if i == L:
            if not stack:
                out.append(dg.LinkState(tuple(roles), tuple(partner)))
            return
        if allow_empty:
            roles[i] = dg.EMPTY
            partner[i] = -1
            rec(i + 1)
        if allow_string and not stack:
            roles[i] = dg.STRING
            partner[i] = -1
            rec(i + 1)
        # open an arc (only if it can still be closed)
        if L - i - 1 > len(stack):
            roles[i] = dg.ARC
            stack.append(i)
            partner[i] = -1
            rec(i + 1)
            stack.pop()
        # close an arc
        if stack:
            j = stack.pop()
            roles[i] = dg.ARC
            partner[i], partner[j] = j, i
            rec(i + 1)
            partner[i] = -1
            partner[j] = -1
            stack.append(j)
        roles[i] = 0
        partner[i] = -1

    rec(0)
    return out


def canonical(states: list[dg.LinkState]) -> tuple[dg.LinkState, ...]:
    return tuple(sorted(states, key=dg.LinkState.sort_key))


@lru_cache(maxsize=1)
def dilute_oracle(L: int) -> tuple[dg.LinkState, ...]:
    return canonical(bounded_states(L, allow_empty=True, allow_string=True))


def recursive_oracle(family: str, L: int) -> tuple[dg.LinkState, ...]:
    """The basis ``family`` of width ``L`` from the recursion, in :meth:`LinkState.sort_key` order.

    ``family`` is ``"dense"``, ``"open"``, a dilute parity ``"all"``,
    ``"even"`` or ``"odd"``, or ``"row"``: the zero- and two-string dilute
    states.
    """
    if family == "dense":
        return canonical(bounded_states(L, allow_empty=False, allow_string=False))
    if family == "open":
        return canonical(bounded_states(L, allow_empty=False, allow_string=True))
    if family == "row":
        return tuple(s for s in dilute_oracle(L) if s.n_strings in (0, 2))
    odd = family == "odd"
    return tuple(s for s in dilute_oracle(L) if family == "all" or s.n_strings % 2 == odd)


def generated(family: str, L: int):
    """``(site array, LinkState tuple or None)`` of a basis family from the package's generator."""
    if family == "row":
        return dg.dilute_row_sites(L), None
    if family == "dense":
        return dg._dense_sites(L), dg.enumerate_dense(L)
    if family == "open":
        return dg._open_sites(L), dg.enumerate_open(L)
    parity = {"all": None, "even": 0, "odd": 1}[family]
    return dg._path_sites(L, True, L, parity), dg.enumerate_dilute(L, family)


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
        "family, L",
        [
            # the dilute row keeps its bare width as the test id
            pytest.param(family, L, id=str(L) if family == "row" else f"{family}-{L}")
            for L in range(1, 13)
            for family in ("row", "dense", "open", "all", "even", "odd")
            if family != "dense" or L % 2 == 0
        ]
        + [
            pytest.param("row", L, id=str(L), marks=pytest.mark.skipif(
                not RUN_BEST_EFFORT, reason="set LOOPCELLS_BEST_EFFORT=1 to run"))
            for L in (13, 14)
        ],
    )
    def test_row_sites_match_the_linkstate_oracle(self, family, L):
        sites, states = generated(family, L)
        assert sites.dtype == np.int8 and not sites.flags.writeable
        oracle = recursive_oracle(family, L)
        np.testing.assert_array_equal(sites, dg._arrays(oracle)[0])
        if states is not None:
            assert states == oracle  # the same roles and partners, so the same text, in order
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
        for got, expect in zip(dg._keyed(sites)[:2], dg._keyed(recursive_oracle("row", 6))[:2]):
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
