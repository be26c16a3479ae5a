"""Link-pattern bases of loop models on a strip or a cylinder, as site arrays.

A basis diagram assigns one of three roles to each of the ``L`` sites of a
horizontal cut through the lattice: no line crosses the cut there (an empty
site, dilute models only), a line crosses it and continues to the far
boundary (a string, or through-line), or the line turns back and re-crosses
the cut at a partner site (an arc end).  Arcs are mutually noncrossing, and a
string can never sit below an arc (otherwise it could not reach the boundary
without an intersection).  These two constraints characterise the usual link
bases:

* :func:`_dense_sites`     -- all-arc states on a periodic cut (cylinder),
  counted by Catalan numbers,
* :func:`_open_sites`      -- arcs and strings on an open cut (strip),
  counted by central binomial coefficients,
* :func:`dilute_row_sites` -- the arc/string/empty states on an open cut
  with zero or two strings, the basis of the dilute transfer row; the
  zero-string states are counted by Motzkin numbers.

Every basis is a read-only ``int8`` site array with one row per state: site
``i`` holds its arc partner, or ``_STRING_SITE`` or ``_EMPTY_SITE``.  One
generator builds them all (:func:`_path_sites`): it grows all paths one site
at a time with vectorized steps and sorts them by string count, then roles,
then partners; each basis is kept once per width.  Builders and forms read a
basis through its array form (:func:`_arrays`): the site array and a checked
lookup of the row of a mapped state by a sorted integer key, kept once per
basis object.  A cup-cap or a
lozenge changes at most four sites, so it finds its rows from the basis keys
shifted at those sites (:func:`_key_shift`).

Every per-process store of the package, here and in :mod:`loopcells.tl`,
:mod:`loopcells.forms` and :mod:`loopcells.observables`, is a function
wrapped by :func:`_kept`: built once per key of all its arguments and kept
for the last 16 keys.
"""

from __future__ import annotations

import functools

import numpy as np

_STRING_SITE = -1  # site value of a string end in a site array
_EMPTY_SITE = -2  # site value of an empty site

_STORES: list = []  # every function made by :func:`_kept`; its ``store`` attribute is its memo


def _kept(build):
    """``build``, built once per key of its arguments and kept for the last 16 keys.

    The key is all of the arguments, which are positional; a keyword raises
    ``TypeError``.  An unhashable one (a site array, a list) counts by its
    identity and is held with the value, so the identity stays unique; any
    other counts by its value and by whether it is complex, so ``2`` and
    ``2.0`` share a key while ``2+0j`` is kept apart.  A build that raises
    keeps nothing.  The store (``.store``, oldest key first) drops
    its oldest key to make room; every store is listed in :data:`_STORES`.
    """
    store: dict = {}

    @functools.wraps(build)
    def kept(*args):
        key = tuple(
            (id(a), None) if a.__hash__ is None else (a, bool(np.iscomplexobj(a))) for a in args
        )
        if key not in store:
            value = build(*args)
            if len(store) >= 16:
                del store[next(iter(store))]
            store[key] = args, value
        return store[key][1]

    kept.store = store
    _STORES.append(kept)
    return kept


@_kept
def dilute_row_sites(L: int) -> np.ndarray:
    """The zero- and two-string dilute states as one read-only site array per width."""
    if L < 1:
        raise ValueError("dilute basis needs L >= 1")
    return _path_sites(L, True, 2, 0)


@_kept
def _dense_sites(L: int) -> np.ndarray:
    """The periodic all-arc basis (Dyck paths) as one read-only site array per width."""
    if L < 2 or L % 2:
        raise ValueError("dense basis needs even L >= 2")
    return _path_sites(L, False, 0, None)


@_kept
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
    strings.  One ``np.lexsort`` sorts the states by string count, then by
    the role of each site from the left (empty, string, arc), then by the
    partner of each site from the left.
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
    roles = np.where(sites >= 0, 2, sites - _EMPTY_SITE)  # empty 0, string 1, arc 2
    sites = sites[np.lexsort((*sites.T[::-1], *roles.T[::-1], count))]
    sites.flags.writeable = False
    return sites


# ---------------------------------------------------------------------------
# Array form of a basis


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

    Empty 0, string 1, arc opener 2, arc closer 3: the text form ``.``,
    ``|``, ``(`` and ``)`` of a state.
    """
    return np.where(values >= 0, 2 + (values < positions), values - _EMPTY_SITE)


def _keys(sites: np.ndarray) -> np.ndarray:
    """Lookup key of every state of a site array, distinct up to 31 sites."""
    L = sites.shape[1]
    return _digits(sites, np.arange(L)) @ _place(L)


@_kept
def _array_forms(sites):
    """``((sites, rows), (digits, keys, find))`` of a basis, built once per basis object.

    A basis is an ``int8`` site array with one row per state, which is used
    as it is and made read-only; anything else raises ``TypeError``.
    """
    if not (isinstance(sites, np.ndarray) and sites.dtype == np.int8 and sites.ndim == 2):
        raise TypeError("a basis is an int8 site array with one row per state")
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
    return _array_forms(basis)[0]


def _keyed(basis):
    """``(digits, keys, find)``: the key digit of every site, the key of every
    state (both read-only) and the row lookup by key.

    A local move finds its rows as ``find(keys + shift)``, with the key
    change ``shift`` of :func:`_key_shift`, and keys no moved site array.
    """
    return _array_forms(basis)[1]


def _key_shift(basis, i: int, j: int, near, far) -> np.ndarray:
    """Change of every state's lookup key under a move at the sites ``(i, j)``.

    ``near`` holds the new site values at ``i`` and ``j``, ``far`` the new
    partners of the far ends of the lines that arrived there (scalars or one
    value per state).  Only those four sites change, so only their key
    digits are replaced.  A string end or an empty site has no far end, and
    its term weighs nothing; a far end at ``i`` or ``j`` (the arc ``(i,
    j)``) must be given the value it gets in ``near``.
    """
    (sites, _), (digits, _, _) = _array_forms(basis)
    at = np.array([[i], [j]])
    ends = sites[:, [i, j]].T
    # index -1 (a string end) and -2 (an empty site) weigh nothing
    place = np.append(_place(sites.shape[1]), [0, 0])
    near = _digits(np.reshape(near, (2, -1)), at) - digits[:, [i, j]].T.astype(np.int64)
    far = _digits(np.reshape(far, (2, -1)), ends) - (2 + (ends > at))
    return (near * place[at] + far * place[ends]).sum(axis=0)


def _reflected(sites: np.ndarray) -> np.ndarray:
    """Every state of a site array flipped left to right (site ``i`` to ``L - 1 - i``)."""
    flipped = sites[:, ::-1]
    return np.where(flipped >= 0, sites.shape[1] - 1 - flipped, flipped).astype(sites.dtype)


def _side_by_side(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Every pair of states of two site arrays side by side, left state major.

    A row holds the left state on its first sites and the right state, its
    partners shifted past them, on the rest.
    """
    shifted = np.where(right >= 0, right + left.shape[1], right).astype(left.dtype)
    return np.hstack([np.repeat(left, len(right), axis=0), np.tile(shifted, (len(left), 1))])
