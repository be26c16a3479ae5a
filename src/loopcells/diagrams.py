"""Link-pattern state spaces for loop models on a strip or a cylinder.

A basis diagram assigns one of three roles to each of the ``L`` sites of a
horizontal cut through the lattice:

* ``EMPTY``  -- no line crosses the cut at this site (dilute models only),
* ``STRING`` -- a line crosses the cut and continues to the far boundary
  (a "defect" or through-line),
* ``ARC``    -- the line entering here turns back, re-crossing the cut at a
  partner site.

Arcs are mutually noncrossing, and a string can never sit below an arc
(otherwise it could not reach the boundary without an intersection).  These
two constraints characterise the usual link bases:

* :func:`enumerate_dense`   -- all-arc states on a periodic cut (cylinder),
  counted by Catalan numbers,
* :func:`enumerate_open`    -- arcs and strings on an open cut (strip),
  counted by central binomial coefficients,
* :func:`enumerate_dilute`  -- arcs, strings and empty sites (dilute strip),
  whose zero-string sector is counted by Motzkin numbers.

:func:`glue` flips one diagram upside down, places it on top of another and
reports the topology of the resulting picture: closed loops, string pairs of
one diagram contracted by arcs of the other, and bottom-to-top through lines.
The bilinear pairings of :mod:`loopcells.forms` are defined by this picture
and tested against it; the loop entropy's boundary row calls it per state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb

EMPTY = 0
STRING = 1
ARC = 2

_ROLE_TOKENS = {EMPTY: ".", STRING: "|"}
_NO_PARTNER = -1


@dataclass(frozen=True)
class LinkState:
    """One basis diagram on ``L`` sites.

    Parameters
    ----------
    roles : tuple of int
        ``EMPTY``, ``STRING`` or ``ARC`` for each site.
    partner : tuple of int
        For an ``ARC`` site, the index of the site it is paired with;
        ``-1`` for the other roles.
    """

    roles: tuple[int, ...]
    partner: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.roles)

    @property
    def n_strings(self) -> int:
        return self.roles.count(STRING)

    @property
    def n_arcs(self) -> int:
        return self.roles.count(ARC) // 2

    @property
    def occupied_mask(self) -> tuple[bool, ...]:
        return tuple(r != EMPTY for r in self.roles)

    def string_sites(self) -> tuple[int, ...]:
        """Sites carrying a string, left to right (label ``k`` = position ``k``)."""
        return tuple(i for i, r in enumerate(self.roles) if r == STRING)

    def sort_key(self) -> tuple:
        """Canonical ordering key: string count, then roles, then pairing."""
        return (self.n_strings, self.roles, self.partner)

    def to_text(self) -> str:
        """Serialize as one character per site: ``(``/``)`` arc ends, ``|`` string, ``.`` empty."""
        out = []
        for i, r in enumerate(self.roles):
            if r == ARC:
                out.append("(" if self.partner[i] > i else ")")
            else:
                out.append(_ROLE_TOKENS[r])
        return "".join(out)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.to_text()


def from_text(text: str) -> LinkState:
    """Parse the :meth:`LinkState.to_text` format and validate the diagram."""
    roles = []
    partner = [_NO_PARTNER] * len(text)
    stack: list[int] = []
    for i, ch in enumerate(text):
        if ch == "(":
            roles.append(ARC)
            stack.append(i)
        elif ch == ")":
            roles.append(ARC)
            if not stack:
                raise ValueError(f"unbalanced ')' at position {i} in {text!r}")
            j = stack.pop()
            partner[i], partner[j] = j, i
        elif ch == "|":
            roles.append(STRING)
            if stack:
                raise ValueError(f"string under an arc at position {i} in {text!r}")
        elif ch == ".":
            roles.append(EMPTY)
        else:
            raise ValueError(f"unknown token {ch!r} in {text!r}")
    if stack:
        raise ValueError(f"unclosed '(' at position {stack[-1]} in {text!r}")
    return LinkState(tuple(roles), tuple(partner))


def make_state(roles, partner) -> LinkState:
    """Build a :class:`LinkState` and check all structural invariants."""
    state = LinkState(tuple(roles), tuple(partner))
    validate(state)
    return state


def validate(state: LinkState) -> None:
    """Raise ``ValueError`` unless ``state`` is a well-formed link diagram."""
    L = state.size
    if len(state.partner) != L:
        raise ValueError("roles and partner must have the same length")
    depth = 0
    for i, r in enumerate(state.roles):
        p = state.partner[i]
        if r == ARC:
            if not (0 <= p < L) or p == i:
                raise ValueError(f"site {i}: bad partner {p}")
            if state.partner[p] != i or state.roles[p] != ARC:
                raise ValueError(f"site {i}: pairing is not an involution")
            depth += 1 if p > i else -1
            if depth < 0:
                raise ValueError(f"site {i}: crossing arcs")
        else:
            if p != _NO_PARTNER:
                raise ValueError(f"site {i}: non-arc site with partner")
            if r == STRING and depth > 0:
                raise ValueError(f"site {i}: string under an arc")
            if r not in (EMPTY, STRING):
                raise ValueError(f"site {i}: unknown role {r}")
    if depth != 0:
        raise ValueError("unbalanced arcs")


def reflect(state: LinkState) -> LinkState:
    """Flip a diagram left to right (site ``i`` to site ``L - 1 - i``)."""
    n = state.size
    roles = state.roles[::-1]
    partner = tuple(
        n - 1 - state.partner[n - 1 - i] if state.partner[n - 1 - i] >= 0 else _NO_PARTNER
        for i in range(n)
    )
    return LinkState(roles, partner)


def _bounded_states(L: int, allow_empty: bool, allow_string: bool):
    """Depth-first generation of all valid diagrams in canonical text order."""
    roles = [0] * L
    partner = [_NO_PARTNER] * L
    stack: list[int] = []
    out: list[LinkState] = []

    def rec(i: int) -> None:
        if i == L:
            if not stack:
                out.append(LinkState(tuple(roles), tuple(partner)))
            return
        if allow_empty:
            roles[i] = EMPTY
            partner[i] = _NO_PARTNER
            rec(i + 1)
        if allow_string and not stack:
            roles[i] = STRING
            partner[i] = _NO_PARTNER
            rec(i + 1)
        # open an arc (only if it can still be closed)
        if L - i - 1 > len(stack):
            roles[i] = ARC
            stack.append(i)
            partner[i] = _NO_PARTNER
            rec(i + 1)
            stack.pop()
        # close an arc
        if stack:
            j = stack.pop()
            roles[i] = ARC
            partner[i], partner[j] = j, i
            rec(i + 1)
            partner[i] = _NO_PARTNER
            partner[j] = _NO_PARTNER
            stack.append(j)
        roles[i] = 0
        partner[i] = _NO_PARTNER

    rec(0)
    return out


def _canonical(states: list[LinkState]) -> tuple[LinkState, ...]:
    return tuple(sorted(states, key=LinkState.sort_key))


@lru_cache(maxsize=None)
def enumerate_dense(L: int) -> tuple[LinkState, ...]:
    """All noncrossing perfect matchings of ``L`` sites (periodic dense basis).

    ``L`` must be even; the basis has ``Catalan(L/2)`` states.  Chords of a
    cylinder cut never cross when drawn on the flattened segment, so the
    states coincide with balanced arc diagrams on a line.
    """
    if L < 2 or L % 2:
        raise ValueError("dense basis needs even L >= 2")
    return _canonical(_bounded_states(L, allow_empty=False, allow_string=False))


@lru_cache(maxsize=None)
def enumerate_open(L: int) -> tuple[LinkState, ...]:
    """Arc/string diagrams on an open cut, all string sectors together.

    The basis has ``C(L, floor(L/2))`` states; the ``2j``-string sector has
    ``C(L, L/2 + j) - C(L, L/2 + j + 1)`` of them.
    """
    if L < 1:
        raise ValueError("open basis needs L >= 1")
    return _canonical(_bounded_states(L, allow_empty=False, allow_string=True))


@lru_cache(maxsize=None)
def enumerate_dilute(L: int, parity: str = "all") -> tuple[LinkState, ...]:
    """Arc/string/empty diagrams on an open cut.

    Parameters
    ----------
    parity : {"all", "even", "odd"}
        Keep every state, or only those whose string count has the given
        parity.  Transfer matrices conserve string-count parity, so the
        ``"even"`` sector (which contains the all-empty state) is the natural
        arena for ground states and two-string excitations.
    """
    if L < 1:
        raise ValueError("dilute basis needs L >= 1")
    states = _bounded_states(L, allow_empty=True, allow_string=True)
    if parity == "even":
        states = [s for s in states if s.n_strings % 2 == 0]
    elif parity == "odd":
        states = [s for s in states if s.n_strings % 2 == 1]
    elif parity != "all":
        raise ValueError(f"unknown parity {parity!r}")
    return _canonical(states)


def basis_index(basis: tuple[LinkState, ...]) -> dict[LinkState, int]:
    """Map each basis state to its position."""
    return {s: i for i, s in enumerate(basis)}


def sector_indices(basis: tuple[LinkState, ...], n_strings: int) -> list[int]:
    """Positions of the states with exactly ``n_strings`` strings."""
    return [i for i, s in enumerate(basis) if s.n_strings == n_strings]


@dataclass(frozen=True)
class GlueResult:
    """Topology of the upside-down image of ``bra`` glued on top of ``ket``.

    Flipping a diagram leaves its stored data unchanged (arcs keep their
    endpoints, strings run to the opposite boundary); :func:`glue` only
    reads the bra's arcs as opening downward.

    ``bra_contractions`` lists pairs of *bra* string labels (1-based, left to
    right) joined to each other through the picture; ``ket_contractions``
    likewise for ket strings; ``through_pairs`` lists (bra label, ket label)
    of lines running from one boundary to the other.  ``mask_match`` is false
    when the two diagrams occupy different sites, in which case nothing else
    is meaningful.
    """

    mask_match: bool
    loops: int
    bra_contractions: tuple[tuple[int, int], ...]
    ket_contractions: tuple[tuple[int, int], ...]
    through_pairs: tuple[tuple[int, int], ...]


_TOP = -2  # sentinel: line leaves through the top boundary (bra string)
_BOTTOM = -3  # sentinel: line leaves through the bottom boundary (ket string)


def glue(bra: LinkState, ket: LinkState) -> GlueResult:
    """Glue the mirror image of ``bra`` on top of ``ket`` and read off the topology."""
    if bra.size != ket.size:
        raise ValueError("states must have the same number of sites")
    if bra.occupied_mask != ket.occupied_mask:
        return GlueResult(False, 0, (), (), ())
    L = bra.size
    bra_label = {s: k + 1 for k, s in enumerate(bra.string_sites())}
    ket_label = {s: k + 1 for k, s in enumerate(ket.string_sites())}

    def step_up(i: int) -> int:
        return bra.partner[i] if bra.roles[i] == ARC else _TOP

    def step_down(i: int) -> int:
        return ket.partner[i] if ket.roles[i] == ARC else _BOTTOM

    seen = [False] * L
    loops = 0
    bra_contr: list[tuple[int, int]] = []
    ket_contr: list[tuple[int, int]] = []
    through: list[tuple[int, int]] = []

    def walk(start: int, first_up: bool) -> tuple[str, int]:
        """Follow the line from an endpoint at ``start`` until it exits; mark sites."""
        i, up = start, first_up
        while True:
            seen[i] = True
            j = step_up(i) if up else step_down(i)
            if j == _TOP:
                return "top", i
            if j == _BOTTOM:
                return "bottom", i
            seen[j] = True
            i, up = j, not up

    # Open lines start at a string endpoint on either boundary.
    for s in bra.string_sites():
        if seen[s]:
            continue
        # line enters the picture from the top at site s, continues downward
        side, end = walk(s, first_up=False)
        if side == "top":
            a, b = sorted((bra_label[s], bra_label[end]))
            bra_contr.append((a, b))
        else:
            through.append((bra_label[s], ket_label[end]))
    for s in ket.string_sites():
        if seen[s]:
            continue
        side, end = walk(s, first_up=True)
        if side == "top":
            through.append((bra_label[end], ket_label[s]))
        else:
            a, b = sorted((ket_label[s], ket_label[end]))
            ket_contr.append((a, b))

    # Everything not reached from a string endpoint closes into loops.
    for i in range(L):
        if seen[i] or bra.roles[i] == EMPTY:
            continue
        loops += 1
        j, up = i, True
        while not seen[j]:
            seen[j] = True
            j = step_up(j) if up else step_down(j)
            up = not up

    return GlueResult(True, loops, tuple(sorted(bra_contr)),
                      tuple(sorted(ket_contr)), tuple(sorted(through)))


def concatenate(left: LinkState, right: LinkState) -> LinkState:
    """Place two diagrams side by side on ``left.size + right.size`` sites."""
    off = left.size
    roles = left.roles + right.roles
    partner = left.partner + tuple(p + off if p >= 0 else p for p in right.partner)
    return LinkState(roles, partner)


# ---------------------------------------------------------------------------
# counting helpers (used as enumeration oracles)


def catalan(m: int) -> int:
    return comb(2 * m, m) // (m + 1)


def motzkin(m: int) -> int:
    total = 0
    for k in range(m // 2 + 1):
        total += comb(m, 2 * k) * catalan(k)
    return total


def sector_dimension(L: int, j: int) -> int:
    """Number of open-cut states with ``2j`` strings."""
    return comb(L, L // 2 + j) - comb(L, L // 2 + j + 1)


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
            from_text(text)
        except ValueError:
            continue
        found.add(text)
    return found
