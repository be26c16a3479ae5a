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
  whose zero-string sector is counted by Motzkin numbers;
  :func:`dilute_row_sites` holds its zero- and two-string states, the basis
  of the dilute transfer row.

One generator builds every basis as a site array (:func:`_path_sites`): it
grows all paths one site at a time with vectorized steps and sorts them into
:meth:`LinkState.sort_key` order.  Builders and forms read those arrays,
kept once per width for the periodic, open and dilute row bases
(:func:`_dense_sites`, :func:`_open_sites`, :func:`dilute_row_sites`),
through their array form (:func:`_arrays`): the arc partner of every site,
or a string or empty sentinel, and a checked lookup of the row of a mapped
state by a sorted integer key.  A cup-cap or a lozenge changes at most four
sites, so it finds its rows from the basis keys shifted at those sites
(:func:`_key_shift`).  :class:`LinkState` stays the text and
test-oracle form; the ``enumerate_*`` tuples are built from the same arrays
and no pipeline reads them.

:func:`glue` flips one diagram upside down, places it on top of another and
reports the topology of the resulting picture: closed loops, string pairs of
one diagram contracted by arcs of the other, and bottom-to-top through lines.
The bilinear pairings of :mod:`loopcells.forms` are defined by this picture
and tested against it; no production path calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

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


@lru_cache(maxsize=None)
def enumerate_dense(L: int) -> tuple[LinkState, ...]:
    """All noncrossing perfect matchings of ``L`` sites (periodic dense basis).

    ``L`` must be even; the basis has ``Catalan(L/2)`` states.  Chords of a
    cylinder cut never cross when drawn on the flattened segment, so the
    states coincide with balanced arc diagrams on a line.  The states of the
    site array :func:`_dense_sites`, row for row.
    """
    return _states(_dense_sites(L))


@lru_cache(maxsize=None)
def enumerate_open(L: int) -> tuple[LinkState, ...]:
    """Arc/string diagrams on an open cut, all string sectors together.

    The basis has ``C(L, floor(L/2))`` states; the ``2j``-string sector has
    ``C(L, L/2 + j) - C(L, L/2 + j + 1)`` of them.  The states of the site
    array :func:`_open_sites`, row for row.
    """
    return _states(_open_sites(L))


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
    if parity not in ("all", "even", "odd"):
        raise ValueError(f"unknown parity {parity!r}")
    return _states(_path_sites(L, True, L, {"all": None, "even": 0, "odd": 1}[parity]))


@lru_cache(maxsize=None)
def dilute_row_sites(L: int) -> np.ndarray:
    """The zero- and two-string dilute states as one read-only site array per width.

    Row for row the array form (:func:`_arrays`) of the head of
    ``enumerate_dilute(L, "even")`` up to two strings (:func:`_path_sites`).
    """
    if L < 1:
        raise ValueError("dilute basis needs L >= 1")
    return _path_sites(L, True, 2, 0)


@lru_cache(maxsize=None)
def _dense_sites(L: int) -> np.ndarray:
    """The periodic all-arc basis (Dyck paths) as one read-only site array per width."""
    if L < 2 or L % 2:
        raise ValueError("dense basis needs even L >= 2")
    return _path_sites(L, False, 0, None)


@lru_cache(maxsize=None)
def _open_sites(L: int) -> np.ndarray:
    """The open arc/string basis as one read-only site array per width."""
    if L < 1:
        raise ValueError("open basis needs L >= 1")
    return _path_sites(L, False, L, None)


def _path_sites(L: int, empty: bool, strings: int, parity: int | None) -> np.ndarray:
    """Every link state of a family on ``L`` sites as a read-only site array.

    Paths grow one site at a time, all at once: each step appends an empty
    site (if ``empty``), a string (at depth zero, at most ``strings`` of
    them), an arc opener, or the closer of the innermost open arc, and keeps
    the paths that can still close every arc and, unless ``parity`` is
    ``None``, bring the string count to that parity in the sites left.  So
    the dense basis is the Dyck paths (no empty site, no string), the open
    basis the arcs and strings, and the dilute bases the Motzkin paths with
    strings.  One ``np.lexsort`` puts the states in :meth:`LinkState.sort_key`
    order: string count, then roles, then partners.
    """
    step = np.array([0, 0, 1, -1], dtype=np.int8)  # depth change of each move
    added = np.array([0, 1, 0, 0], dtype=np.int8)  # string change of each move
    sites = np.empty((1, 0), dtype=np.int8)
    stack = np.zeros((1, L // 2 + 1), dtype=np.int8)  # open arc openers, outermost first
    depth = np.zeros(1, dtype=np.int8)
    count = np.zeros(1, dtype=np.int8)
    for i in range(L):
        # one column per move: empty site, string, arc opener, closer
        new_depth = depth[:, None] + step
        new_count = count[:, None] + added
        unpaired = 0 if parity is None else (new_count + parity) % 2
        allowed = new_depth + unpaired < L - i
        allowed[:, 0] &= empty
        allowed[:, 1] &= (depth == 0) & (count < strings)
        allowed[:, 3] &= depth > 0
        grown = np.flatnonzero(allowed)
        row, move = grown // 4, grown % 4
        depth, count = new_depth.ravel()[grown], new_count.ravel()[grown]
        value = np.array([_EMPTY_SITE, _STRING_SITE, i, 0], dtype=np.int8)[move]
        closed = np.flatnonzero(move == 3)
        value[closed] = stack[row[closed], depth[closed]]  # a closer's partner, the innermost opener
        sites = np.hstack([sites[row], value[:, None]])
        sites[closed, value[closed]] = i
        stack = stack[row]
        opened = np.flatnonzero(move == 2)
        stack[opened, depth[opened] - 1] = i
    roles = np.where(sites >= 0, ARC, sites - _EMPTY_SITE)
    sites = sites[np.lexsort((*sites.T[::-1], *roles.T[::-1], count))]
    sites.flags.writeable = False
    return sites


def _states(sites: np.ndarray) -> tuple[LinkState, ...]:
    """The :class:`LinkState` of every row of a site array, for text and tests."""
    roles = np.where(sites >= 0, ARC, sites - _EMPTY_SITE).tolist()
    partner = np.maximum(sites, _NO_PARTNER).tolist()
    return tuple(LinkState(tuple(r), tuple(p)) for r, p in zip(roles, partner))


def basis_index(basis: tuple[LinkState, ...]) -> dict[LinkState, int]:
    """Map each basis state to its position."""
    return {s: i for i, s in enumerate(basis)}


def sector_indices(basis, n_strings: int) -> list[int]:
    """Positions of the states (or site-array rows) with exactly ``n_strings`` strings."""
    strings = np.count_nonzero(_arrays(basis)[0] == _STRING_SITE, axis=1)
    return np.flatnonzero(strings == n_strings).tolist()


# ---------------------------------------------------------------------------
# Array form of a basis

_STRING_SITE = -1  # site value of a string end in a site array
_EMPTY_SITE = -2  # site value of an empty site
_ARRAYS: dict[int, tuple] = {}  # id of a basis -> (basis, (array form, keyed form)), oldest first


def _lookup(keys: np.ndarray):
    """``find(query)``: positions of query keys in the distinct ``keys``, or ``LookupError``.

    Ascending keys, such as spin masks, are their own sorted table.
    """
    order = np.argsort(keys, kind="stable")
    table = np.asarray(keys)[order]

    def find(query: np.ndarray) -> np.ndarray:
        at = np.minimum(np.searchsorted(table, query), len(table) - 1)
        missing = np.count_nonzero(table[at] != query)
        if missing:
            raise LookupError(f"{missing} mapped states are not in the basis")
        return order[at]

    return find


def _place(L: int) -> np.ndarray:
    """Weight of each site's base-4 digit in a lookup key, site 1 first."""
    return 4 ** np.arange(L - 1, -1, -1, dtype=np.int64)


def _digits(values: np.ndarray, positions) -> np.ndarray:
    """Base-4 key digit of site values at their positions.

    Empty 0, string 1, arc opener 2, arc closer 3, which spells
    :meth:`LinkState.to_text`.
    """
    return np.where(values >= 0, 2 + (values < positions), values - _EMPTY_SITE)


def _keys(sites: np.ndarray) -> np.ndarray:
    """Lookup key of every state of a site array, distinct up to 31 sites."""
    L = sites.shape[1]
    return _digits(sites, np.arange(L)) @ _place(L)


def _per_basis(store: dict, basis, build):
    """``build(basis)``, built once per basis object and kept in ``store`` for the last 16 bases.

    ``store`` maps the id of a basis to the basis and its value, oldest
    first; it holds each basis, so the id stays unique.
    """
    if id(basis) not in store:
        value = build(basis)
        if len(store) >= 16:
            del store[next(iter(store))]
        store[id(basis)] = (basis, value)
    return store[id(basis)][1]


def _cached(basis):
    """``((sites, rows), (digits, keys, find))`` of a basis, built once per basis object.

    A basis is a tuple of :class:`LinkState`, or an ``int8`` site array,
    which is used as it is and made read-only.
    """
    return _per_basis(_ARRAYS, basis, _array_forms)


def _array_forms(basis):
    """The value of :func:`_cached`, built afresh."""
    if isinstance(basis, np.ndarray):
        sites = basis
    else:
        shape = (len(basis), basis[0].size if basis else 0)
        sites = np.array([s.partner for s in basis], dtype=np.int8).reshape(shape)
        sites[np.array([s.roles for s in basis]).reshape(shape) == EMPTY] = _EMPTY_SITE
    L = sites.shape[1]
    digits = _digits(sites, np.arange(L)).astype(np.int8)
    keys = digits @ _place(L)
    for frozen in (sites, digits, keys):
        frozen.flags.writeable = False
    find = _lookup(keys)
    return (sites, lambda new: find(_keys(new))), (digits, keys, find)


def _arrays(basis):
    """The array form ``(sites, rows)`` of a basis, built once per basis object.

    ``sites[k, i]`` is the arc partner of site ``i`` in state ``k``, or
    ``_STRING_SITE``/``_EMPTY_SITE`` (read-only ``int8``); ``rows(new)`` finds
    the row of every state of a site array (:func:`_lookup`).
    """
    return _cached(basis)[0]


def _keyed(basis):
    """``(digits, keys, find)``: the key digit of every site, the key of every
    state (both read-only) and the row lookup by key.

    A local move finds its rows as ``find(keys + shift)``, with the key
    change ``shift`` of :func:`_key_shift`, and keys no moved site array.
    """
    return _cached(basis)[1]


def _key_shift(basis, i: int, j: int, near, far) -> np.ndarray:
    """Change of every state's lookup key under a move at the sites ``(i, j)``.

    ``near`` holds the new site values at ``i`` and ``j``, ``far`` the new
    partners of the far ends of the lines that arrived there (scalars or one
    value per state).  Only those four sites change, so only their key
    digits are replaced.  A string end or an empty site has no far end, and
    its term weighs nothing; a far end at ``i`` or ``j`` (the arc ``(i,
    j)``) must be given the value it gets in ``near``.
    """
    (sites, _), (digits, _, _) = _cached(basis)
    at = np.array([[i], [j]])
    ends = sites[:, [i, j]].T
    # index -1 (a string end) and -2 (an empty site) weigh nothing
    place = np.append(_place(sites.shape[1]), [0, 0])
    near = _digits(np.reshape(near, (2, -1)), at) - digits[:, [i, j]].T.astype(np.int64)
    far = _digits(np.reshape(far, (2, -1)), ends) - (2 + (ends > at))
    return (near * place[at] + far * place[ends]).sum(axis=0)


def _reflected(sites: np.ndarray) -> np.ndarray:
    """:func:`reflect` on every state of a site array."""
    flipped = sites[:, ::-1]
    return np.where(flipped >= 0, sites.shape[1] - 1 - flipped, flipped).astype(sites.dtype)


def _side_by_side(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """:func:`concatenate` on every pair of two site arrays, left state major."""
    shifted = np.where(right >= 0, right + left.shape[1], right).astype(left.dtype)
    return np.hstack([np.repeat(left, len(right), axis=0), np.tile(shifted, (len(left), 1))])


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

