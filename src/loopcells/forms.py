"""Bilinear pairings under which the lattice operators are self-adjoint.

All pairings here are bilinear, never sesquilinear: ``u @ (G @ v)`` with no
complex conjugation, so "norms" may vanish or be negative.  The Gram
matrices ``G`` are symmetric.  An entry is read off the picture of the
mirror image of one basis diagram glued on top of another; every form
follows the lines of that picture on the site arrays of
:func:`loopcells.diagrams._arrays`, many pairs at once:

* :func:`boundary_loops` -- periodic all-arc basis, weight ``n`` per closed
  loop: the loop counts of one row of the Gram, the all-adjacent-arcs
  boundary (or its one-site rotation) glued onto every state; the loop
  pairing is never tabulated (see
  :func:`loopcells.observables.loop_boundary_entropy`);
* :func:`dilute_form` -- dilute basis (any sub-basis): one for a loop-free
  gluing with matching empty sites, zero otherwise.  The form is block
  diagonal over occupation masks, and a mask's block is the form of the
  link patterns on its occupied sites, so the line walk runs once per
  occupancy count and every mask reuses its count's block; the form is
  applied to vectors without being formed;
* :func:`link_gram` -- the Gram array of the open arc/string basis
  (:func:`loopcells.diagrams._open_sites`) at loop weight one, where
  contracting a string pair whose left label is even costs ``y``; the
  contraction counts do not depend on ``y`` and are kept once per basis.

The spin chain pairs with the identity.  The dilute and link forms follow
the lines of all pairs at once (:func:`_line_ends`): the dilute form those
of the link patterns of one occupancy count, the link form those of the
states, and the boundary row those of one pair per state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .diagrams import _EMPTY_SITE, _STRING_SITE, _arrays, _dense_sites, _keys
from .diagrams import _open_sites, _per_basis


@lru_cache(maxsize=None)
def boundary_loops(L: int, shift: int = 0) -> tuple[int, np.ndarray]:
    """The all-adjacent-arcs boundary of width ``L`` rotated by ``shift`` sites, glued to each state.

    The boundary pairs the sites ``(1, 2), (3, 4), ...``, or ``(2, 3), ...,
    (L, 1)`` at ``shift = 1``.  Returns its row in the periodic basis
    :func:`loopcells.diagrams._dense_sites` and the number of closed loops
    it makes with every state of that basis, row for row, so that row of the
    weight-``n`` loop Gram is ``n ** loops``.  The counts do not depend on
    the weight and are built once per width (read-only).

    A walker steps across a boundary arc, then across the state's arc.  Arcs
    join sites of opposite parity, so the walk keeps to one parity and meets
    every loop in one orbit of the even sites, of at most ``L/2`` of them; a
    loop is counted at its lowest even site.
    """
    sites, rows = _arrays(_dense_sites(L))
    partner = ((((np.arange(L) - shift) % L) ^ 1) + shift) % L
    step = sites[:, partner].astype(np.intp)
    start = np.arange(0, L, 2)
    walker = np.broadcast_to(start, (len(sites), len(start)))
    lowest = walker.copy()
    for _ in range(L // 2 - 1):
        walker = np.take_along_axis(step, walker, axis=1)
        np.minimum(lowest, walker, out=lowest)
    loops = np.count_nonzero(lowest == start, axis=1).astype(np.int8)
    loops.flags.writeable = False
    return int(rows(partner[None, :].astype(np.int8))[0]), loops


def _line_ends(first, first_at, then, then_at, site, rounds: int):
    """Where lines through glued pairs stand after ``rounds`` two-step rounds.

    ``first`` and ``then`` are flattened per-state site maps, one row per
    state, with room past the ``L`` sites for sentinels that every map
    fixes.  A walker at ``site`` steps through the ``first`` row starting at
    ``first_at``, then through the ``then`` row starting at ``then_at``; a
    line that reaches a sentinel stays there.  The arguments broadcast.
    """
    for _ in range(rounds):
        site = then[then_at + first[first_at + site]]
    return site


@dataclass(frozen=True)
class DiluteForm:
    """The dilute form of a sub-basis, kept as one 0/1 block per occupancy count.

    The form is block diagonal over occupation masks, and each block is the
    form of the link patterns on the occupied sites, so it depends only on
    their number ``k``.  ``blocks`` holds ``(grid, gram)`` for every ``k``
    in the basis: ``grid[m, p]`` is the row of the state with the ``m``-th
    mask of ``k`` occupied sites and the ``p``-th ``k``-site pattern, or
    ``-1`` where the sub-basis has no such state, and ``gram`` is the dense
    form of those patterns (:func:`_pattern_gram`).  ``form @ x`` applies
    the form to a vector or to a block of columns without forming it.
    """

    dim: int
    blocks: tuple

    def __matmul__(self, x):
        x = np.asarray(x)
        columns = x.reshape(self.dim, int(np.prod(x.shape[1:]))).T
        # one zero entry past the last state, which the holes of a grid read
        padded = np.hstack([columns, np.zeros((len(columns), 1))])
        out = np.zeros(columns.shape, dtype=padded.dtype)
        for grid, gram in self.blocks:
            # one product for all columns and masks of the count
            glued = (padded[:, grid].reshape(-1, len(gram)) @ gram).reshape(-1, *grid.shape)
            filled = grid >= 0
            out[:, grid[filled]] = glued[:, filled]
        return out.T.reshape(x.shape)


def dilute_form(basis) -> DiluteForm:
    """The dilute form of an arbitrary sub-basis (a site array), unformed.

    An entry is one for each loop-free gluing with matching empty sites and
    zero otherwise.  The states of each occupancy count ``k`` are laid out
    by occupation mask and by the ``k``-site link pattern on their occupied
    sites (arc partners renumbered among those sites), and the patterns of
    that count are glued once (:func:`_pattern_gram`); every mask reuses the
    block of its count.
    """
    sites = _arrays(basis)[0]
    L = sites.shape[1]
    occupied = sites != _EMPTY_SITE
    count = np.count_nonzero(occupied, axis=1)
    masks = occupied @ (1 << np.arange(L))
    # position of every site among the occupied sites of its state
    rank = np.cumsum(occupied, axis=1, dtype=np.int8) - 1
    blocks = []
    for k in np.unique(count):
        members = np.flatnonzero(count == k)
        mask_values, mask_of = np.unique(masks[members], return_inverse=True)
        at = np.nonzero(occupied[members])[1].reshape(len(members), k)
        values = np.take_along_axis(sites[members], at, axis=1)
        renumbered = np.take_along_axis(rank[members], np.maximum(values, 0), axis=1)
        patterns = np.where(values >= 0, renumbered, values).astype(np.int8)
        _, first, pattern_of = np.unique(_keys(patterns), return_index=True, return_inverse=True)
        grid = np.full((len(mask_values), len(first)), -1, dtype=np.intp)
        grid[mask_of, pattern_of] = members
        blocks.append((grid, _pattern_gram(patterns[first])))
    return DiluteForm(len(sites), tuple(blocks))


def _upper_pairs(size: int, chunk: int):
    """The pairs ``a <= b < size`` as two index arrays, ``chunk`` bra rows ``a`` at a time."""
    for lo in range(0, size, chunk):
        a, b = np.nonzero(np.arange(lo, min(lo + chunk, size))[:, None] <= np.arange(size))
        yield a + lo, b


def _pattern_gram(patterns: np.ndarray) -> np.ndarray:
    """Dense 0/1 form of distinct link patterns on ``k`` sites, all occupied.

    Each pair ``a <= b`` is glued once (:func:`_line_ends`): walkers start
    at the bra's arc openers (every closed loop runs through one) and step
    through the bra arc, then the ket arc, with string sites absorbing.  An
    open line is absorbed within ``k//2 + 1`` rounds and a closed loop never
    is, so a pair is loop-free when every walker is.  The bra patterns are
    walked 128 at a time (:func:`_upper_pairs`), so the walkers' temporaries
    grow with the pattern count, not with its square.
    """
    size, k = patterns.shape
    here = np.arange(k)
    # arc partner of every site; string sites go to the sentinel k
    step = np.hstack([np.where(patterns >= 0, patterns, k), np.full((size, 1), k)])
    step = step.astype(np.min_scalar_type(k)).ravel()
    # arc openers of every pattern, first, then padded with the sentinel
    arcs = np.count_nonzero(patterns > here, axis=1)
    openers = np.sort(np.where(patterns > here, here, k), axis=1)[:, : arcs.max(initial=0)]
    gram = np.zeros((size, size))
    for a, b in _upper_pairs(size, 128):
        start = openers[a].astype(step.dtype)
        ends = _line_ends(step, a[:, None] * (k + 1), step, b[:, None] * (k + 1), start, k // 2 + 1)
        free = np.all(ends == k, axis=1)
        gram[a[free], b[free]] = gram[b[free], a[free]] = 1.0
    return gram


def link_gram(L: int, y: complex = 1.0) -> np.ndarray:
    """Gram array of the open arc/string basis at loop weight one.

    Rows and columns follow the site array
    :func:`loopcells.diagrams._open_sites` ``(L)``; the array is complex for
    a complex ``y`` and float otherwise.

    Every closed loop counts one.  Contracting a pair of same-side strings
    picks up ``y`` when the left label of the pair is even (the contraction
    straddles two label pairs) and one otherwise; through lines count one.
    At ``y = 1`` this is the plain loop-type pairing of the open basis.
    An entry is ``y`` to the number of such contractions, which does not
    depend on ``y`` and is counted once per basis (:func:`_link_contractions`).
    """
    basis = _open_sites(L)
    count = _per_basis(_LINK_CONTRACTIONS, basis, _link_contractions)
    dtype = complex if np.iscomplexobj(y) else float
    # y ** k as k repeated products: each entry is exactly the product of its weights
    powers = [1.0]
    for _ in range(int(count.max())):
        powers.append(powers[-1] * y)
    return np.asarray(powers, dtype=dtype)[count]


_LINK_CONTRACTIONS: dict[int, tuple] = {}  # id of a basis -> (basis, its counts), oldest first


def _link_contractions(basis) -> np.ndarray:
    """String contractions of every glued pair of an open basis, as a read-only ``int8`` matrix.

    The pairs ``a <= b`` are glued 256 bra rows ``a`` at a time
    (:func:`_line_ends`), so the walkers' temporaries grow with the state
    count, not with its square.  On the bra side a
    string at site ``j`` absorbs a line into the sentinel ``L + j``; on the
    ket side every string lets it through to ``2L``.  A line leaving an
    even-labelled bra string downward (ket step, then bra step) reaches its
    end within ``L // 2`` rounds, and it is a contraction when that end is a
    bra string to its right; the same walk with the sides swapped finds the
    ket contractions.
    """
    dim = len(basis)
    partner = _arrays(basis)[0]
    L = partner.shape[1]
    string = partner == _STRING_SITE
    even = string & (np.cumsum(string, axis=1) % 2 == 0)
    width = 2 * L + 1
    fixed = np.broadcast_to(np.arange(L, width), (dim, L + 1))
    site_type = np.min_scalar_type(2 * L)
    absorb = np.hstack([np.where(string, L + np.arange(L), partner), fixed]).astype(site_type)
    through = np.hstack([np.where(string, 2 * L, partner), fixed]).astype(site_type)
    absorb, through = absorb.ravel(), through.ravel()
    counts = np.empty((dim, dim), dtype=np.int8)
    for a, b in _upper_pairs(dim, 256):
        count = np.zeros(len(a), dtype=np.intp)
        for own, other in ((a, b), (b, a)):
            pair, start = np.nonzero(even[own])
            ends = _line_ends(through, other[pair] * width, absorb, own[pair] * width, start, L // 2)
            count += np.bincount(pair[(ends > L + start) & (ends < 2 * L)], minlength=len(a))
        counts[a, b] = counts[b, a] = count
    counts.flags.writeable = False
    return counts
