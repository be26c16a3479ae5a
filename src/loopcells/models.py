"""Lattice Hamiltonians and transfer matrices.

All builders share the bases of :mod:`loopcells.diagrams`:

* :func:`build_xxz` -- the open anisotropic spin chain at ``q = exp(i pi/3)``
  with its boundary field, in the zero-magnetization sector (sparse; dense
  callers take ``.toarray()``);
* :func:`build_ising` -- the critical transverse-field chain on a ring
  (CSR assembled directly: one vectorized XOR per bond for the diagonal,
  one sorted row of single flips per state);
* :func:`build_dense_loop_T` -- one row of the dense loop model on a
  cylinder: two staggered half-rows of plaquettes, each plaquette the sum of
  an identity tile and a cup-cap tile, kept as sparse factors built from the
  sparse :func:`loopcells.tl.dense_generators`;
* :func:`build_dilute_T` -- one row of the dilute loop model on a strip,
  assembled from lozenge tiles and boundary half-tiles, together with the
  reversed-order row that evolves bra states;
* :func:`build_percolation_H` -- the open-chain sum of cup-cap generators at
  loop weight one, optionally with parity-deformed string contractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
import scipy.sparse as sp

from . import fixtures
from .diagrams import (
    ARC,
    EMPTY,
    STRING,
    LinkState,
    basis_index,
    enumerate_dense,
    enumerate_dilute,
    enumerate_open,
    sector_indices,
)
from .tl import dense_generators, open_generators, spin_generators, spin_sector_basis

# ---------------------------------------------------------------------------
# Spin chains


def build_xxz(L: int, q: complex | None = None) -> tuple[sp.csr_matrix, list[int]]:
    """Sparse zero-magnetization Hamiltonian of the open anisotropic chain.

    ``H = sum_i [sx sx + sy sy + ((q+1/q)/2) sz sz] + ((q-1/q)/2)(sz_1 - sz_L)``

    Returns the matrix and the list of basis bit masks (bit set = down spin,
    site 1 = most significant bit, masks ascending).
    """
    if L % 2:
        raise ValueError("zero-magnetization sector needs even L")
    q = fixtures.Q_VALUE if q is None else q
    masks = spin_sector_basis(L, up_count=L // 2)
    index = {m: k for k, m in enumerate(masks)}
    nhalf = (q + 1 / q) / 2
    delta = (q - 1 / q) / 2
    rows, cols, vals = [], [], []
    for col, m in enumerate(masks):
        spins = [1 - 2 * ((m >> (L - s)) & 1) for s in range(1, L + 1)]
        diag = sum(nhalf * spins[i] * spins[i + 1] for i in range(L - 1))
        diag += delta * (spins[0] - spins[L - 1])
        rows.append(col)
        cols.append(col)
        vals.append(diag)
        for i in range(L - 1):
            if spins[i] != spins[i + 1]:
                flipped = m ^ ((1 << (L - 1 - i)) | (1 << (L - 2 - i)))
                rows.append(index[flipped])
                cols.append(col)
                vals.append(2.0)
    dim = len(masks)
    return sp.csr_matrix(sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim), dtype=complex)), masks


def xxz_from_generators(L: int, q: complex | None = None) -> np.ndarray:
    """The same chain written as ``(L-1)/2 - 2 sum_i e_i`` in the spin representation."""
    q = fixtures.Q_VALUE if q is None else q
    masks = spin_sector_basis(L, up_count=L // 2)
    es = spin_generators(L, q, masks)
    dim = len(masks)
    return (L - 1) / 2 * np.eye(dim) - 2 * sum(es)


def build_ising(L: int) -> sp.csr_matrix:
    """Critical transverse-field chain on a ring of ``L`` spins.

    ``H = - sum_i sz_i sz_{i+1} - sum_i sx_i`` on the full ``2^L`` spin basis
    (bit set = down), which is real symmetric with nonpositive off-diagonal
    entries, so its ground state has strictly positive amplitudes.
    """
    dim = 1 << L
    masks = np.arange(dim)
    # each bond adds sz sz = +1 on aligned spins and -1 on anti-aligned ones
    broken = np.zeros(dim, dtype=np.int64)
    for i in range(L):
        broken += ((masks >> i) ^ (masks >> ((i + 1) % L))) & 1
    diag = (2 * broken - L).astype(float)
    # row r holds r itself and its L single flips, sorted into CSR order
    cols = masks[:, None] ^ np.concatenate([[0], 1 << np.arange(L)])
    cols.sort(axis=1)
    data = np.where(cols == masks[:, None], diag[:, None], -1.0)
    H = sp.csr_matrix(
        (data.ravel(), cols.ravel(), np.arange(dim + 1) * (L + 1)), shape=(dim, dim)
    )
    H.eliminate_zeros()  # states with half their bonds broken have no diagonal
    return H


def ising_boundary_vectors(L: int) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate vectors of the fixed (all up) and free boundary states."""
    dim = 1 << L
    fixed = np.zeros(dim)
    fixed[0] = 1.0
    free = np.ones(dim)
    return fixed, free


# ---------------------------------------------------------------------------
# Dense loop model on a cylinder


@dataclass
class TransferOperator:
    """A transfer row kept in factored form for cheap application."""

    basis: tuple[LinkState, ...]
    factors: list[sp.csr_matrix]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.dim, self.dim)

    def apply(self, v: np.ndarray) -> np.ndarray:
        for f in self.factors:
            v = f @ v
        return v

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        return self.apply(v)

    def matrix(self) -> np.ndarray:
        out = reduce(lambda acc, f: f @ acc, self.factors, sp.identity(self.dim, format="csr"))
        return np.asarray(out.todense())


def build_dense_loop_T(L: int, n: float) -> TransferOperator:
    """One row of the dense loop model on a cylinder of ``L`` strands.

    The row is a lower half-row of plaquettes on the site pairs
    ``(1,2), (3,4), ...`` followed by an upper half-row on ``(2,3), (4,5),
    ..., (L,1)``; each plaquette contributes ``1 + e_i``.
    """
    if L % 2:
        raise ValueError("the cylinder row needs even L")
    basis = enumerate_dense(L)
    es = dense_generators(L, n)
    eye = sp.identity(len(basis), format="csr")
    lower = [eye + es[i] for i in range(0, L, 2)]
    upper = [eye + es[i] for i in range(1, L, 2)]
    return TransferOperator(basis, lower + upper)


# ---------------------------------------------------------------------------
# Dilute loop model on a strip


def _lozenge_ops(basis, index, site, x):
    """Sparse action of one lozenge spanning ``site`` and ``site+1``.

    Each incoming occupancy pattern allows exactly two tiles:

    * both legs empty: empty tile (weight 1) or a new arc opening
      upward (weight ``x^2``);
    * one leg occupied: the line continues straight up (weight ``x``) or
      crosses to the other leg (weight ``x^2``);
    * both legs occupied: both lines continue up (weight ``x^2``) or are
      joined (weight ``x^2``) -- joining the two ends of a single arc would
      close a loop, which carries weight zero and is dropped.
    """
    dim = len(basis)
    rows, cols, vals = [], [], []

    def add(state: LinkState, col: int, w: float) -> None:
        rows.append(index[state])
        cols.append(col)
        vals.append(w)

    i, j = site, site + 1
    for col, s in enumerate(basis):
        occ_i, occ_j = s.roles[i] != EMPTY, s.roles[j] != EMPTY
        if not occ_i and not occ_j:
            add(s, col, 1.0)
            roles, partner = list(s.roles), list(s.partner)
            roles[i] = roles[j] = ARC
            partner[i], partner[j] = j, i
            add(LinkState(tuple(roles), tuple(partner)), col, x**2)
        elif occ_i != occ_j:
            add(s, col, x)
            src, dst = (i, j) if occ_i else (j, i)
            roles, partner = list(s.roles), list(s.partner)
            if roles[src] == ARC:
                p = partner[src]
                partner[p] = dst
                roles[dst], partner[dst] = ARC, p
            else:
                roles[dst], partner[dst] = STRING, -1
            roles[src], partner[src] = EMPTY, -1
            add(LinkState(tuple(roles), tuple(partner)), col, x**2)
        else:
            add(s, col, x**2)
            if s.roles[i] == ARC and s.partner[i] == j:
                continue  # closed loop, weight zero
            roles, partner = list(s.roles), list(s.partner)
            ends = []
            for site_ in (i, j):
                if roles[site_] == ARC:
                    ends.append(partner[site_])
                else:
                    ends.append(None)
                roles[site_], partner[site_] = EMPTY, -1
            p, q = ends
            if p is not None and q is not None:
                partner[p], partner[q] = q, p
            elif p is not None:
                roles[p], partner[p] = STRING, -1
            elif q is not None:
                roles[q], partner[q] = STRING, -1
            add(LinkState(tuple(roles), tuple(partner)), col, x**2)
    return sp.csr_matrix(sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim)))


def _boundary_triangle(basis, site, x):
    """Half-tile at a strip edge: an occupied leg passes through with weight ``x``."""
    weights = np.array([x if s.roles[site] != EMPTY else 1.0 for s in basis])
    return sp.diags(weights).tocsr()


@dataclass
class DiluteRow:
    """Both orientations of a dilute transfer row on a fixed basis.

    The two rows are products of the same half-rows in opposite orders,
    ``ket_row = upper @ lower`` and ``bra_row = lower @ upper``, so the lower
    half-row intertwines them: ``bra_row @ lower = lower @ ket_row``.  It
    maps every ket-row eigenvector and Jordan cell to a bra-row one at the
    same eigenvalue (unless it annihilates the eigenvector).
    """

    basis: tuple[LinkState, ...]
    lower: sp.csr_matrix
    upper: sp.csr_matrix

    @property
    def ket_row(self) -> sp.csr_matrix:
        """Row acting on ket states from below: upper half after lower half."""
        return self.upper @ self.lower

    @property
    def bra_row(self) -> sp.csr_matrix:
        """Row acting on bra states from above: the sublayers in reversed order."""
        return self.lower @ self.upper


def build_dilute_T(L: int, x: float | None = None) -> DiluteRow:
    """One row of the dilute loop model on a strip of width ``L``.

    The lower half-row tiles site pairs ``(1,2), (3,4), ...``; the upper
    half-row is shifted by one site and completed by boundary half-tiles.
    For odd ``L`` the lower half-row ends in the right half-tile instead.
    The basis keeps the zero- and two-string sectors only.  That restriction
    is legitimate because lozenge tiles never create strings: they
    annihilate them in pairs, so any downward-closed set of string counts
    spans an invariant subspace.
    """
    x = fixtures.X_CRITICAL if x is None else x
    full = enumerate_dilute(L, "all")
    keep = sorted(k for ns in (0, 2) for k in sector_indices(full, ns))
    basis = tuple(full[k] for k in keep)
    index = basis_index(basis)

    def ops(pairs, triangles):
        mats = [_lozenge_ops(basis, index, p, x) for p in pairs]
        mats += [_boundary_triangle(basis, t, x) for t in triangles]
        return reduce(lambda a, b: a @ b, mats)

    if L % 2 == 0:
        lower = ops(range(0, L - 1, 2), ())
        upper = ops(range(1, L - 2, 2), (0, L - 1))
    else:
        lower = ops(range(0, L - 2, 2), (L - 1,))
        upper = ops(range(1, L - 1, 2), (0,))
    return DiluteRow(basis, lower, upper)


def dilute_blocks(row: DiluteRow, matrix: sp.csr_matrix):
    """Split a row matrix into string-sector blocks (0 and 2 strings).

    Returns ``(T00, T02, T22, idx0, idx2)`` with the convention that the
    two-string sector can only feed the zero-string one.
    """
    idx0 = sector_indices(row.basis, 0)
    idx2 = sector_indices(row.basis, 2)
    m = matrix.tocsr()
    T00 = m[idx0, :][:, idx0]
    T02 = m[idx0, :][:, idx2]
    T22 = m[idx2, :][:, idx2]
    T20 = m[idx2, :][:, idx0]
    if T20.count_nonzero():
        raise AssertionError("strings were created by a dilute row")
    return T00, T02, T22, idx0, idx2


# ---------------------------------------------------------------------------
# Percolation-type open chains


def build_percolation_H(L: int, y: complex = 1.0) -> np.ndarray:
    """Open-chain Hamiltonian ``(L-1)/2 - 2 sum_i e_i`` at loop weight one.

    ``y`` deforms the string-pair contraction weights; ``y = 1`` is the
    geometric chain, which is diagonalizable, while ``y != 1`` develops
    rank-two Jordan cells at the same spectrum.
    """
    dim = len(enumerate_open(L))
    # the dtype of open_generators(L, 1.0, y); L = 1 has no generators
    out = (L - 1) / 2 * np.eye(dim, dtype=np.complex128 if np.iscomplexobj(y) else np.float64)
    for e in open_generators(L, 1.0, y):
        out -= 2 * e
    return out
