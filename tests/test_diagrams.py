"""Tests for the link-pattern state spaces."""

from __future__ import annotations

import itertools
import os
from functools import lru_cache

import link_state_oracles as ls
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopcells import diagrams as dg

RUN_BEST_EFFORT = bool(os.environ.get("LOOPCELLS_BEST_EFFORT"))


def state(text: str) -> ls.LinkState:
    return ls.from_text(text)


def make_state(roles, partner) -> ls.LinkState:
    """Build a :class:`LinkState` and check all structural invariants."""
    built = ls.LinkState(tuple(roles), tuple(partner))
    ls.validate(built)
    return built


def enumerate_open(L: int) -> tuple[ls.LinkState, ...]:
    """The open basis of width ``L``, one link state per row."""
    return ls.states(dg._open_sites(L))


def dilute_states(L: int, parity: int | None = None) -> tuple[ls.LinkState, ...]:
    """Every dilute state of width ``L`` (or those of one string-count parity) as link states."""
    return ls.states(dg._path_sites(L, True, L, parity))


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
            ls.from_text(text)
        except ValueError:
            continue
        found.add(text)
    return found


def bounded_states(L: int, allow_empty: bool, allow_string: bool) -> list[ls.LinkState]:
    """Depth-first generation of all valid diagrams, one :class:`LinkState` at a time."""
    roles = [0] * L
    partner = [-1] * L
    stack: list[int] = []
    out: list[ls.LinkState] = []

    def rec(i: int) -> None:
        if i == L:
            if not stack:
                out.append(ls.LinkState(tuple(roles), tuple(partner)))
            return
        if allow_empty:
            roles[i] = ls.EMPTY
            partner[i] = -1
            rec(i + 1)
        if allow_string and not stack:
            roles[i] = ls.STRING
            partner[i] = -1
            rec(i + 1)
        # open an arc (only if it can still be closed)
        if L - i - 1 > len(stack):
            roles[i] = ls.ARC
            stack.append(i)
            partner[i] = -1
            rec(i + 1)
            stack.pop()
        # close an arc
        if stack:
            j = stack.pop()
            roles[i] = ls.ARC
            partner[i], partner[j] = j, i
            rec(i + 1)
            partner[i] = -1
            partner[j] = -1
            stack.append(j)
        roles[i] = 0
        partner[i] = -1

    rec(0)
    return out


def canonical(states: list[ls.LinkState]) -> tuple[ls.LinkState, ...]:
    return tuple(sorted(states, key=ls.LinkState.sort_key))


@lru_cache(maxsize=1)
def dilute_oracle(L: int) -> tuple[ls.LinkState, ...]:
    return canonical(bounded_states(L, allow_empty=True, allow_string=True))


def recursive_oracle(family: str, L: int) -> tuple[ls.LinkState, ...]:
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


def generated(family: str, L: int) -> np.ndarray:
    """The site array of a basis family from the package's generator."""
    if family == "row":
        return dg.dilute_row_sites(L)
    if family == "dense":
        return dg._dense_sites(L)
    if family == "open":
        return dg._open_sites(L)
    return dg._path_sites(L, True, L, {"all": None, "even": 0, "odd": 1}[family])


def string_counts(sites: np.ndarray) -> np.ndarray:
    """The number of strings of every state of a site array."""
    return np.count_nonzero(sites == dg._STRING_SITE, axis=1)


class TestEnumeration:
    @pytest.mark.parametrize("L", [2, 4, 6, 8, 10])
    def test_dense_count_is_catalan(self, L):
        assert len(dg._dense_sites(L)) == ls.catalan(L // 2)

    @pytest.mark.parametrize("L", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_open_count_is_central_binomial(self, L):
        from math import comb

        assert len(dg._open_sites(L)) == comb(L, L // 2)

    @pytest.mark.parametrize("L", [2, 4, 6, 8])
    def test_open_sector_dimensions(self, L):
        strings = string_counts(dg._open_sites(L))
        for j in range(L // 2 + 1):
            assert np.count_nonzero(strings == 2 * j) == ls.sector_dimension(L, j)

    @pytest.mark.parametrize("L", [1, 2, 3, 4, 5, 6, 7])
    def test_dilute_zero_string_sector_is_motzkin(self, L):
        strings = string_counts(dg._path_sites(L, True, L, None))
        assert np.count_nonzero(strings == 0) == ls.motzkin(L)

    @pytest.mark.parametrize(
        "L,allow_empty,allow_string,enumerator",
        [
            (L, e, s, f)
            for L in (1, 2, 3, 4, 5, 6)
            for (e, s, f) in [
                (False, False, lambda L: ls.states(dg._dense_sites(L)) if L % 2 == 0 else ()),
                (False, True, enumerate_open),
                (True, True, lambda L: dilute_states(L)),
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
        assert [s.to_text() for s in dilute_states(1)] == [".", "|"]
        assert [s.to_text() for s in dilute_states(2, 0)] == ["..", "()", "||"]

    def test_dilute_parity_split(self):
        for L in (2, 3, 4, 5):
            full = set(dilute_states(L))
            even = set(dilute_states(L, 0))
            odd = set(dilute_states(L, 1))
            assert even | odd == full and not (even & odd)

    def test_canonical_order_L4_open(self):
        texts = [s.to_text() for s in enumerate_open(4)]
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
        sites = generated(family, L)
        assert sites.dtype == np.int8 and not sites.flags.writeable
        oracle = recursive_oracle(family, L)
        np.testing.assert_array_equal(sites, ls.site_array(oracle))
        assert ls.states(sites) == oracle  # the same roles and partners, so the same text, in order
        assert np.all(np.diff(string_counts(sites)) >= 0)

    def test_row_sites_need_a_site(self):
        with pytest.raises(ValueError, match="L >= 1"):
            dg.dilute_row_sites(0)

    def test_states_are_sorted_and_unique(self):
        for basis in (ls.states(dg._dense_sites(6)), enumerate_open(5), dilute_states(4)):
            keys = [s.sort_key() for s in basis]
            assert keys == sorted(keys)
            assert len(set(basis)) == len(basis)


class TestSerialization:
    @pytest.mark.parametrize("text", ["()()", "(())", "||()", "(.)", "..", "|().|"])
    def test_round_trip(self, text):
        assert ls.from_text(text).to_text() == text

    @pytest.mark.parametrize("bad", ["(", ")", "(|)", ")(", "(()", "x"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            ls.from_text(bad)

    def test_validate_rejects_broken_involution(self):
        with pytest.raises(ValueError):
            make_state((ls.ARC, ls.ARC), (0, 1))

    @given(st.sampled_from(dilute_states(6)))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, s):
        assert ls.from_text(s.to_text()) == s


class TestGlue:
    def test_mask_mismatch(self):
        res = ls.glue(state(".."), state("()"))
        assert not res.mask_match

    def test_scalar_product_example_pair(self):
        # mirror of (12)(36)(45) on top of (16)(23)(45) closes two loops
        res = ls.glue(state("()(())"), state("(()())"))
        assert res.mask_match and res.loops == 2
        assert not (res.bra_contractions or res.ket_contractions or res.through_pairs)

    def test_self_gluing_closes_every_arc(self):
        for s in ls.states(dg._dense_sites(6)):
            assert ls.glue(s, s).loops == 3

    def test_arc_against_strings(self):
        res = ls.glue(state("()"), state("||"))
        assert res.loops == 0
        assert res.ket_contractions == ((1, 2),)
        assert not res.bra_contractions and not res.through_pairs

    def test_strings_against_arc(self):
        res = ls.glue(state("||"), state("()"))
        assert res.bra_contractions == ((1, 2),)
        assert not res.ket_contractions and not res.through_pairs

    def test_through_lines(self):
        res = ls.glue(state("||"), state("||"))
        assert res.loops == 0
        assert res.through_pairs == ((1, 1), (2, 2))

    def test_snaking_through_lines(self):
        # Each line enters at the bottom, passes through one arc of each
        # diagram and leaves at the top: two through-lines, no loop.
        res = ls.glue(state("(())||"), state("||(())"))
        assert res.loops == 0
        assert res.through_pairs == ((1, 1), (2, 2))
        assert not res.bra_contractions and not res.ket_contractions

    def test_contraction_through_an_arc(self):
        # The outer bra arc joins ket strings 1 and 2 across the ket's own
        # arc, which closes into a loop with the inner bra arc.
        res = ls.glue(state("(())"), state("|()|"))
        assert res.loops == 1
        assert res.ket_contractions == ((1, 2),)
        assert not res.bra_contractions and not res.through_pairs

    def test_nested_contraction_labels(self):
        # Nested bra arcs over four ket strings: pairs (1,4) and (2,3).
        res = ls.glue(state("(())"), state("||||"))
        assert res.loops == 0
        assert res.ket_contractions == ((1, 4), (2, 3))

    @given(
        st.sampled_from(dilute_states(5)),
        st.sampled_from(dilute_states(5)),
    )
    @settings(max_examples=120, deadline=None)
    def test_glue_is_symmetric_up_to_role_swap(self, a, b):
        ab = ls.glue(a, b)
        ba = ls.glue(b, a)
        assert ab.mask_match == ba.mask_match
        if ab.mask_match:
            assert ab.loops == ba.loops
            assert ab.bra_contractions == ba.ket_contractions
            assert ab.ket_contractions == ba.bra_contractions
            assert ab.through_pairs == tuple(sorted((k, b_) for b_, k in ba.through_pairs))

    @given(st.sampled_from(enumerate_open(6)))
    @settings(max_examples=60, deadline=None)
    def test_string_count_conservation(self, s):
        res = ls.glue(s, s)
        assert 2 * len(res.bra_contractions) + len(res.through_pairs) == s.n_strings
        assert 2 * len(res.ket_contractions) + len(res.through_pairs) == s.n_strings


class TestConcatenate:
    def test_shapes_and_validity(self):
        c = ls.concatenate(state("(.)"), state("||"))
        assert c.to_text() == "(.)||"
        ls.validate(c)


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
        assert ls.reflect(state(text)).to_text() == expected

    @pytest.mark.parametrize("L", [2, 3, 4, 5])
    def test_involution_and_validity(self, L):
        for s in dilute_states(L):
            r = ls.reflect(s)
            ls.validate(r)
            assert ls.reflect(r) == s

    def test_permutes_basis(self):
        states = list(dilute_states(5))
        reflected = {ls.reflect(s) for s in states}
        assert reflected == set(states)


class TestArrayForm:
    BASES = [
        lambda: ("dense", 8),
        lambda: ("open", 7),
        lambda: ("all", 6),
    ]

    @pytest.mark.parametrize("make", BASES)
    def test_sites_spell_the_states(self, make):
        family, L = make()
        basis = recursive_oracle(family, L)
        sites = dg._arrays(generated(family, L))[0]
        assert sites.shape == (len(basis), L) and not sites.flags.writeable
        for s, row in zip(basis, sites):
            expect = [
                p if r == ls.ARC else dg._STRING_SITE if r == ls.STRING else dg._EMPTY_SITE
                for r, p in zip(s.roles, s.partner)
            ]
            assert row.tolist() == expect

    @pytest.mark.parametrize("make", BASES)
    def test_lookup_finds_every_row(self, make):
        basis = generated(*make())
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
        oracle = ls.site_array(recursive_oracle("row", 6))
        for got, expect in zip(dg._keyed(sites)[:2], dg._keyed(oracle)[:2]):
            np.testing.assert_array_equal(got, expect)

    def test_refuses_anything_but_a_site_array(self):
        sites = dg._open_sites(4)
        for basis in (ls.states(sites), sites.tolist(), sites.astype(np.int64), sites[0]):
            with pytest.raises(TypeError, match="int8 site array"):
                dg._arrays(basis)

    def test_built_once_per_basis(self):
        basis = dg._open_sites(6)
        assert dg._arrays(basis) is dg._arrays(basis)
        copy = dg._arrays(basis.copy())  # an equal basis, another object
        assert copy is not dg._arrays(basis)
        np.testing.assert_array_equal(copy[0], dg._arrays(basis)[0])

    def test_lookup_refuses_a_state_outside_the_basis(self):
        # the open basis with one state removed cannot find that state
        sites = dg._open_sites(6)
        _, rows = dg._arrays(np.delete(sites, 3, axis=0))
        with pytest.raises(LookupError, match="1 mapped states are not in the basis"):
            rows(sites)
        np.testing.assert_array_equal(rows(sites[:3]), [0, 1, 2])

    def test_reflection_and_concatenation_match_the_states(self):
        sites, rows = dg._arrays(dg._path_sites(3, True, 3, None))
        wide = dg._path_sites(6, True, 6, None)
        basis = ls.states(sites)
        index = {s: i for i, s in enumerate(ls.states(wide))}
        pairs = [ls.concatenate(a, b) for a in basis for b in basis]
        np.testing.assert_array_equal(
            dg._arrays(wide)[1](dg._side_by_side(sites, sites)), [index[s] for s in pairs]
        )
        reflected = [basis.index(ls.reflect(s)) for s in basis]
        np.testing.assert_array_equal(rows(dg._reflected(sites)), reflected)

    @pytest.mark.parametrize("L", [4, 5, 6])
    def test_sector_indices_count_strings(self, L):
        # the strings of a site array's rows pick each sector, as the states' strings do
        sites = dg._path_sites(L, True, L, None)
        for k in range(L + 1):
            assert np.flatnonzero(string_counts(sites) == k).tolist() == [
                i for i, s in enumerate(ls.states(sites)) if s.n_strings == k
            ]
