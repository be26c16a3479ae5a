"""Temperley-Lieb generators in link-pattern and spin representations.

The abstract algebra on ``L`` strands has generators ``e_1 .. e_{L-1}``
(plus ``e_L`` wrapping around on a cylinder) subject to

* ``e_i^2 = n e_i``,
* ``e_i e_{i±1} e_i = e_i``,
* ``e_i e_j = e_j e_i`` for ``|i - j| >= 2``,

with loop weight ``n``.  This module realises the generators as matrices on

* the open arc/string basis (:func:`open_generators`), with an optional
  deformation ``y`` that reweights the contraction of a string pair by the
  parity of its labels,
* the periodic all-arc basis (:func:`dense_generators`, sparse CSR: each
  generator maps a basis state to exactly one state),
* the spin-1/2 chain at anisotropy ``q`` (:func:`spin_generators`), where
  ``n = q + 1/q``.

:func:`check_relations_chain` and :func:`check_relations_periodic` measure how
well a family of matrices (dense or sparse) satisfies the defining
relations, and
:func:`conjugate` supports explicit basis-change verifications against known
block decompositions.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .diagrams import (
    ARC,
    STRING,
    LinkState,
    basis_index,
    enumerate_dense,
    enumerate_open,
)
from .spectral import _dense


def contraction_weight(label: int, y: complex) -> complex:
    """Weight for contracting adjacent strings ``(label, label+1)``, 1-based.

    Joining an even-labelled string to its right neighbour crosses a pair
    boundary and picks up ``y``; joining an odd-labelled one stays inside a
    pair and keeps weight one.
    """
    return y if label % 2 == 0 else 1.0


def _act_adjacent(state: LinkState, i: int, j: int, n: complex, y: complex):
    """Apply one cup-cap generator on sites ``i`` and ``j`` of a link state.

    Returns ``(new_state, weight)``.  The generator closes whatever arrived
    at the two sites into a cap and opens a fresh arc ``(i, j)`` above them.
    """
    roles = list(state.roles)
    partner = list(state.partner)
    ri, rj = roles[i], roles[j]
    weight: complex = 1.0
    if ri == ARC and partner[i] == j:
        # the cap closes the arc into a loop
        weight = n
    elif ri == ARC and rj == ARC:
        p, q = partner[i], partner[j]
        partner[p], partner[q] = q, p
    elif ri == ARC and rj == STRING:
        p = partner[i]
        roles[p], partner[p] = STRING, -1
    elif ri == STRING and rj == ARC:
        q = partner[j]
        roles[q], partner[q] = STRING, -1
    elif ri == STRING and rj == STRING:
        labels = state.string_sites()
        weight = contraction_weight(labels.index(i) + 1, y)
    else:
        raise ValueError("generator applied to an empty site")
    roles[i] = roles[j] = ARC
    partner[i], partner[j] = j, i
    return LinkState(tuple(roles), tuple(partner)), weight


def open_generators(L: int, n: complex, y: complex = 1.0) -> list[np.ndarray]:
    """Matrices of ``e_1 .. e_{L-1}`` on the open arc/string basis.

    ``y`` deforms the weight of string-pair contractions by label parity;
    ``y = 1`` is the geometric (undeformed) representation.
    """
    basis = enumerate_open(L)
    index = basis_index(basis)
    dtype = np.complex128 if np.iscomplexobj(n) or np.iscomplexobj(y) else np.float64
    es = []
    for i in range(L - 1):
        e = np.zeros((len(basis), len(basis)), dtype=dtype)
        for col, s in enumerate(basis):
            new, w = _act_adjacent(s, i, i + 1, n, y)
            e[index[new], col] += w
        es.append(e)
    return es


def dense_generators(L: int, n: complex) -> list[sp.csr_matrix]:
    """Sparse matrices of ``e_1 .. e_L`` on the periodic all-arc basis (``e_L`` wraps).

    Each generator sends a basis state to a single state, so every column
    holds one entry.  On the two-site ring both generators act on the same
    pair, so ``e_1`` and ``e_2`` coincide as operators and the adjacent-pair
    relations only become meaningful from ``L = 4`` on; the individual
    matrices are still the correct contraction operators (used by the
    width-2 transfer row).
    """
    basis = enumerate_dense(L)
    index = basis_index(basis)
    dim = len(basis)
    dtype = np.complex128 if np.iscomplexobj(n) else np.float64
    cols = np.arange(dim)
    es = []
    for i in range(L):
        j = (i + 1) % L
        rows = np.empty(dim, dtype=np.int64)
        weights = np.empty(dim, dtype=dtype)
        for col, s in enumerate(basis):
            new, weights[col] = _act_adjacent(s, i, j, n, 1.0)
            rows[col] = index[new]
        es.append(sp.csr_matrix((weights, (rows, cols)), shape=(dim, dim)))
    return es


def spin_sector_basis(L: int, up_count: int | None = None) -> list[int]:
    """Bit masks of the spin basis, ascending; bit ``k`` set means site ``k+1`` is down.

    Masks are read most-significant-site-first: site 1 is the highest bit.
    With ``up_count`` given, restrict to states with that many up spins.
    """
    if up_count is None:
        return list(range(2**L))
    return [m for m in range(2**L) if L - bin(m).count("1") == up_count]


def _bit(mask: int, site: int, L: int) -> int:
    """Spin at 1-based ``site``: +1 for up (bit clear), -1 for down (bit set)."""
    return -1 if (mask >> (L - site)) & 1 else 1


def spin_generators(L: int, q: complex, masks: Sequence[int] | None = None) -> list[np.ndarray]:
    """Matrices of ``e_1 .. e_{L-1}`` on the spin chain, optionally in one sector.

    On neighbouring spins the generator reads

    ``e_i = -(1/2) [ sx sx + sy sy + ((q+1/q)/2)(sz sz - 1)
                     + ((q-1/q)/2)(sz_i - sz_{i+1}) ]``

    so that ``e_i^2 = (q + 1/q) e_i`` and the open-chain Hamiltonian is a sum
    of the generators.
    """
    if masks is None:
        masks = spin_sector_basis(L)
    index = {m: k for k, m in enumerate(masks)}
    dim = len(masks)
    nval = q + 1 / q
    delta = (q - 1 / q) / 2
    es = []
    for i in range(1, L):
        e = np.zeros((dim, dim), dtype=np.complex128)
        for col, m in enumerate(masks):
            si, sj = _bit(m, i, L), _bit(m, i + 1, L)
            # diagonal part: ((q+1/q)/2)(sz sz - 1) + delta (sz_i - sz_j)
            e[col, col] += -0.5 * ((nval / 2) * (si * sj - 1) + delta * (si - sj))
            if si != sj:
                flipped = m ^ ((1 << (L - i)) | (1 << (L - i - 1)))
                row = index.get(flipped)
                if row is not None:
                    # sx sx + sy sy act as twice the swap on antiparallel spins
                    e[row, col] += -0.5 * 2.0
        es.append(e)
    return es


def check_relations_chain(es: Sequence[np.ndarray], n: complex) -> float:
    """Relation residual for an open chain ``e_1 .. e_{L-1}``."""
    es = [_dense(e) for e in es]
    worst = 0.0
    m = len(es)
    for i in range(m):
        e = es[i]
        worst = max(worst, float(np.max(np.abs(e @ e - n * e))))
        for j in range(i + 1, m):
            f = es[j]
            if j - i == 1:
                worst = max(worst, float(np.max(np.abs(e @ f @ e - e))))
                worst = max(worst, float(np.max(np.abs(f @ e @ f - f))))
            else:
                worst = max(worst, float(np.max(np.abs(e @ f - f @ e))))
    return worst


def check_relations_periodic(es: Sequence[np.ndarray], n: complex) -> float:
    """Relation residual for a cylinder family ``e_1 .. e_L`` (indices mod L)."""
    es = [_dense(e) for e in es]
    worst = 0.0
    m = len(es)
    for i in range(m):
        e = es[i]
        worst = max(worst, float(np.max(np.abs(e @ e - n * e))))
        for j in range(i + 1, m):
            f = es[j]
            dist = min(j - i, m - (j - i))
            if dist == 1:
                worst = max(worst, float(np.max(np.abs(e @ f @ e - e))))
                worst = max(worst, float(np.max(np.abs(f @ e @ f - f))))
            else:
                worst = max(worst, float(np.max(np.abs(e @ f - f @ e))))
    return worst


def conjugate(matrix: np.ndarray, basis_change: np.ndarray) -> np.ndarray:
    """Return ``P^{-1} A P`` for an explicit basis change ``P``."""
    return np.linalg.solve(basis_change, matrix @ basis_change)


def annihilated_states(es: Sequence[np.ndarray], tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of the joint kernel of all generators (columns)."""
    stacked = np.vstack([np.asarray(e) for e in es])
    _, s, vh = np.linalg.svd(stacked)
    scale = s[0] if s.size and s[0] > 0 else 1.0
    null_dim = int(np.sum(s <= tol * scale))
    if null_dim == 0:
        return np.zeros((es[0].shape[1], 0))
    return vh[-null_dim:].conj().T
