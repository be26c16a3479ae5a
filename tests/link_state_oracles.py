"""Link states one diagram at a time: the text form and oracles of the site arrays.

The package keeps every basis as an ``int8`` site array
(:mod:`loopcells.diagrams`).  The tests read and check those arrays through
one diagram per state, a :class:`LinkState`, which assigns one of three roles
to each of the ``L`` sites of a horizontal cut:

* ``EMPTY``  -- no line crosses the cut at this site (dilute models only),
* ``STRING`` -- a line crosses the cut and continues to the far boundary
  (a "defect" or through-line),
* ``ARC``    -- the line entering here turns back, re-crossing the cut at a
  partner site.

:func:`states` and :func:`site_array` convert between the two forms, row for
row.  :func:`from_text` and :meth:`LinkState.to_text` spell a state with one
character per site, :func:`validate` checks one, :func:`reflect` and
:func:`concatenate` are the one-state twins of the package's
``_reflected`` and ``_side_by_side``, and :func:`glue` reads the topology of
one bra flipped on top of one ket, which defines every bilinear form of
:mod:`loopcells.forms`.  :func:`catalan`, :func:`motzkin` and
:func:`sector_dimension` count the bases.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from loopcells import diagrams as dg

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


def concatenate(left: LinkState, right: LinkState) -> LinkState:
    """Place two diagrams side by side on ``left.size + right.size`` sites."""
    off = left.size
    roles = left.roles + right.roles
    partner = left.partner + tuple(p + off if p >= 0 else p for p in right.partner)
    return LinkState(roles, partner)


def states(sites: np.ndarray) -> tuple[LinkState, ...]:
    """The :class:`LinkState` of every row of a site array."""
    roles = np.where(sites >= 0, ARC, sites - dg._EMPTY_SITE).tolist()
    partner = np.maximum(sites, _NO_PARTNER).tolist()
    return tuple(LinkState(tuple(r), tuple(p)) for r, p in zip(roles, partner))


def site_array(basis) -> np.ndarray:
    """The read-only ``int8`` site array of a sequence of states, row for row.

    Site ``i`` of a row holds its arc partner, ``_STRING_SITE`` or
    ``_EMPTY_SITE``.
    """
    shape = (len(basis), basis[0].size if basis else 0)
    sites = np.array([s.partner for s in basis], dtype=np.int8).reshape(shape)
    sites[np.array([s.roles for s in basis]).reshape(shape) == EMPTY] = dg._EMPTY_SITE
    sites.flags.writeable = False
    return sites


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
