"""Temperley-Lieb generators on the link-pattern bases, and the spin chain's basis.

The abstract algebra on ``L`` strands has generators ``e_1 .. e_{L-1}``
(plus ``e_L`` wrapping around on a cylinder) subject to

* ``e_i^2 = n e_i``,
* ``e_i e_{i±1} e_i = e_i``,
* ``e_i e_j = e_j e_i`` for ``|i - j| >= 2``,

with loop weight ``n``.  This module realises the generators as matrices on

* the open arc/string basis (:func:`open_generators`), with an optional
  deformation ``y`` that reweights the contraction of a string pair by the
  parity of its labels,
* the periodic all-arc basis (:func:`dense_generators`).

The spin-1/2 chain at anisotropy ``q`` (``n = q + 1/q``) enters only through
its basis of spin masks (:func:`spin_sector_basis`), from which
:mod:`loopcells.models` assembles the Hamiltonian directly.

A cup-cap sends each link state to exactly one state, so both link-pattern
families are CSR matrices with one entry per column (:func:`_one_per_column`)
from one array map on the basis's site array, which the generator of
:mod:`loopcells.diagrams` keeps once per width.  The maps do not depend on
the loop weight or the deformation and are kept once per basis object,
open or periodic, by the memo of :mod:`loopcells.diagrams`
(:func:`_cup_caps`); each chain or row only weighs them
(:func:`_cup_cap_weights`), and the cylinder transfer row applies them
directly, without forming a CSR matrix.  Moved states find their rows from
the basis keys shifted at the sites a cup-cap changes, through the checked
lookup of :mod:`loopcells.diagrams`.

:func:`conjugate` supports explicit basis-change verifications against known
block decompositions.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .diagrams import _STRING_SITE, _arrays, _dense_sites, _key_shift, _keyed, _kept, _open_sites


@_kept
def _cup_caps(basis) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """``(rows, closes, even_contraction)`` of every cup-cap generator, built once per basis.

    The generators are ``e_1 .. e_{L-1}`` on the sites ``(i, i + 1)``, and
    on a basis without strings (the periodic all-arc basis; every open
    basis holds the all-strings state) also ``e_L`` on ``(L, 1)``.  The
    generator joins the far ends of whatever arrived at its two sites (two
    arcs become one, an arc and a string a string, two strings vanish) and
    opens a fresh arc there.  ``rows[c]`` is the row of state ``c`` moved by
    it, found from the basis keys shifted at the four sites it changes
    (:func:`loopcells.diagrams._key_shift`); ``closes`` marks the states whose arc
    on the two sites it closes into a loop, and ``even_contraction`` those
    where it contracts two strings whose left label is even.  None of them
    depends on the loop weight or the deformation, which
    :func:`_cup_cap_weights` applies.  The maps are read-only and kept per
    basis object (:func:`loopcells.diagrams._kept`), as
    :func:`loopcells.diagrams._arrays` is, so a basis that is not closed
    under a generator raises ``LookupError`` on every call.
    """
    sites = _arrays(basis)[0]
    _, keys, find = _keyed(basis)
    L = sites.shape[1]
    string = sites == _STRING_SITE
    # 1-based label of the string at each site: the strings up to it
    even_label = string & (np.cumsum(string, axis=1) % 2 == 0)
    maps = []
    for i in range(L - 1 if string.any() else L):
        j = (i + 1) % L
        # a fresh arc on (i, j); the far ends of what arrived there are joined
        rows = find(keys + _key_shift(basis, i, j, (j, i), (sites[:, j], sites[:, i])))
        closes = sites[:, i] == j
        even_contraction = even_label[:, i] & string[:, j]
        for frozen in (rows, closes, even_contraction):
            frozen.flags.writeable = False
        maps.append((rows, closes, even_contraction))
    return tuple(maps)


def _cup_cap_weights(cup_cap, n: complex, y: complex, dtype) -> np.ndarray:
    """Weight of every column of one map of :func:`_cup_caps`.

    Closing a loop weighs ``n``, contracting two strings whose left label
    is even weighs ``y`` (the contraction straddles two label pairs), any
    other cap one.
    """
    _, closes, even_contraction = cup_cap
    weights = np.ones(len(closes), dtype=dtype)
    weights[closes] = n
    if y != 1:  # a contraction weight of one is the default
        weights[even_contraction] = y
    return weights


def _one_per_column(rows: np.ndarray, weights: np.ndarray) -> sp.csr_matrix:
    """The CSR matrix with one entry per column: ``weights[c]`` at ``(rows[c], c)``.

    Sorting the columns by row gives the CSR indices directly; no ``dim x
    dim`` array and no COO conversion is formed.
    """
    dim = len(rows)
    order = np.argsort(rows, kind="stable").astype(np.int32)
    indptr = np.zeros(dim + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=dim), out=indptr[1:])
    return sp.csr_matrix((weights[order], order, indptr), shape=(dim, dim))


def open_generators(L: int, n: complex, y: complex = 1.0) -> list[sp.csr_matrix]:
    """Sparse matrices of ``e_1 .. e_{L-1}`` on the open arc/string basis.

    Each generator sends a basis state to a single state, so every column
    of its CSR matrix holds one entry.  ``y`` deforms the weight of
    string-pair contractions by label parity; ``y = 1`` is the geometric
    (undeformed) representation.
    """
    dtype = np.complex128 if np.iscomplexobj(n) or np.iscomplexobj(y) else np.float64
    return [
        _one_per_column(cup_cap[0], _cup_cap_weights(cup_cap, n, y, dtype))
        for cup_cap in _cup_caps(_open_sites(L))
    ]


def dense_generators(L: int, n: complex) -> list[sp.csr_matrix]:
    """Sparse matrices of ``e_1 .. e_L`` on the periodic all-arc basis (``e_L`` wraps).

    Each generator sends a basis state to a single state, so every column
    holds one entry.  On the two-site ring both generators act on the same
    pair, so ``e_1`` and ``e_2`` coincide as operators and the adjacent-pair
    relations only become meaningful from ``L = 4`` on; the individual
    matrices are still the correct contraction operators (the width-2
    transfer row applies both).  The generators read the cached cup-cap maps of
    :func:`_cup_caps`, with ``e_L`` on the sites ``(L, 1)``.
    """
    dtype = np.complex128 if np.iscomplexobj(n) else np.float64
    return [
        _one_per_column(cup_cap[0], _cup_cap_weights(cup_cap, n, 1.0, dtype))
        for cup_cap in _cup_caps(_dense_sites(L))
    ]


def spin_sector_basis(L: int, up_count: int | None = None) -> list[int]:
    """Bit masks of the spin basis, ascending; bit ``k`` set means site ``k+1`` is down.

    Masks are read most-significant-site-first: site 1 is the highest bit.
    With ``up_count`` given, restrict to states with that many up spins.
    """
    if up_count is None:
        return list(range(2**L))
    masks = np.arange(2**L)
    downs = sum(((masks >> k) & 1 for k in range(L)), np.zeros_like(masks))
    return masks[downs == L - up_count].tolist()


def _spins(masks: np.ndarray, L: int) -> np.ndarray:
    """``spins[k, s]``: +1 for up (bit clear), -1 for down (bit set) at site ``s + 1``."""
    return 1 - 2 * ((masks[:, None] >> np.arange(L - 1, -1, -1)) & 1)


def conjugate(matrix: np.ndarray, basis_change: np.ndarray) -> np.ndarray:
    """Return ``P^{-1} A P`` for an explicit basis change ``P``."""
    return np.linalg.solve(basis_change, matrix @ basis_change)
