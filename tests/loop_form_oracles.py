"""Oracles for the weight-``n`` loop form of the periodic dense basis.

The package never tabulates this form: the loop-model boundary entropy reads
one row of it (:func:`loopcells.forms.boundary_loops`) and normalizes through
the Perron vector of the row's dual.  The tests check that against two
independent references kept here:

* :func:`loop_count_matrix` -- the closed loops of every mirror-gluing, one
  :func:`link_state_oracles.glue` per pair;
* :func:`singlet_factor` -- the sparse ``M`` with ``M^T M`` the loop Gram
  (Pasquier-Saleur), and the dense Gram :func:`loop_gram`, the pairing
  :func:`loop_pairing` and the normalization :func:`loop_normalized`
  through it.
"""

from __future__ import annotations

from functools import lru_cache

import link_state_oracles as ls
import numpy as np
import scipy.sparse as sp

from loopcells import diagrams as dg


def loop_count_matrix(sites: np.ndarray) -> np.ndarray:
    """Closed-loop counts of every mirror-gluing of two states of a site array: ``O(dim^2)`` gluings."""
    basis = ls.states(sites)
    dim = len(basis)
    counts = np.zeros((dim, dim), dtype=np.int8)
    for a in range(dim):
        for b in range(a, dim):
            c = ls.glue(basis[a], basis[b]).loops
            counts[a, b] = counts[b, a] = c
    return counts


def singlet_factor(L: int, n: complex) -> sp.csr_matrix:
    """Sparse ``M`` with ``M^T M`` the weight-``n`` loop Gram (Pasquier-Saleur).

    Column ``k`` is the state in row ``k`` of ``_dense_sites(L)`` written in the spin
    basis: each arc ``(i, j)``, ``i < j``, becomes the singlet
    ``q^{-1/2}|up_i down_j> - q^{1/2}|down_i up_j>`` with ``q + 1/q = n``,
    and the product carries the sign ``(-1)^(number of nested arc pairs)``.
    Two singlets glued along a loop contract to ``q + 1/q = n`` without
    conjugation, so ``(M^T M)_ab = n ** loops(a, b)``.  Row ``r`` is the spin
    mask ``r`` (bit set = down spin, site 1 = most significant bit); every
    column holds ``2^(L/2)`` nonzeros; only their weights depend on ``n``.
    """
    indptr, indices, sign, choice = _singlet_pattern(L)
    arcs = L // 2
    n = complex(n)
    q = (n + np.sqrt(n * n - 4)) / 2
    root = np.sqrt(q)
    # choice bit k set: arc k reads down-up (weight -q^{1/2}), else up-down
    flips = ((np.arange(1 << arcs)[:, None] >> np.arange(arcs)) & 1).sum(axis=1)
    weights = (1 / root) ** (arcs - flips) * (-root) ** flips
    shape = (1 << L, len(dg._dense_sites(L)))
    return sp.csr_matrix((sign * weights[choice], indices.copy(), indptr.copy()), shape=shape)


@lru_cache(maxsize=None)
def _singlet_pattern(L: int):
    """The ``n``-independent part of :func:`singlet_factor`, built once per width.

    Returns its CSR ``indptr`` and ``indices``, and each entry's nesting sign
    and arc choice (bit ``k`` set: arc ``k`` reads down-up).
    """
    partner = dg._dense_sites(L).astype(np.int64)
    dim, arcs = len(partner), L // 2
    opener = partner > np.arange(L)
    # nested pairs: every arc counts the arcs still open where it opens
    step = np.where(opener, 1, -1)
    depth = np.cumsum(step, axis=1) - step
    sign = (1 - 2 * (np.sum(depth * opener, axis=1) % 2)).astype(np.int8)
    left = np.nonzero(opener)[1].reshape(dim, arcs)
    right = np.take_along_axis(partner, left, axis=1)
    bit_left = 1 << (L - 1 - left)
    bit_right = 1 << (L - 1 - right)
    choices = (np.arange(1 << arcs)[:, None] >> np.arange(arcs)) & 1
    masks = bit_right.sum(axis=1)[:, None] + (bit_left - bit_right) @ choices.T
    # number the entries column by column, then read the numbers in CSR order
    entry = sp.csc_matrix(
        (np.arange(masks.size), masks.ravel(), np.arange(dim + 1) * (1 << arcs)),
        shape=(1 << L, dim),
    ).tocsr()
    choice = (entry.data & ((1 << arcs) - 1)).astype(np.min_scalar_type((1 << arcs) - 1))
    return entry.indptr, entry.indices, sign[entry.data >> arcs], choice


def loop_gram(L: int, weight: complex) -> np.ndarray:
    """Gram array of the periodic dense basis, ``weight`` per closed loop: ``M^T M``.

    Rows and columns follow the site array ``_dense_sites(L)``.
    """
    m = singlet_factor(L, weight)
    gram = (m.T @ m).toarray()
    if not np.iscomplexobj(weight):
        gram = gram.real
    return gram


def loop_pairing(u: np.ndarray, v: np.ndarray, L: int, n: float) -> float:
    """The weight-``n`` loop pairing ``(Mu)^T (Mv)``; one that is not real raises ``ArithmeticError``."""
    m = singlet_factor(L, n)
    value = complex((m @ u) @ (m @ v))
    if abs(value.imag) > 1e-10 * abs(value.real):
        raise ArithmeticError(f"loop pairing at L={L}, n={n} is {value}; it is not real")
    return value.real


def loop_normalized(v: np.ndarray, L: int, n: float) -> np.ndarray:
    """``v`` scaled to bilinear square one; a square that is not positive raises ``ArithmeticError``."""
    square = loop_pairing(v, v, L, n)
    if not square > 0:
        raise ArithmeticError(f"loop state's bilinear square at L={L}, n={n} is {square}")
    return v / np.sqrt(square)
