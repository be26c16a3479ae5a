"""Lattice Hamiltonians and transfer matrices.

All builders are array maps on the bases of :mod:`loopcells.diagrams`: spin
masks, their own lookup keys, or the link-pattern site arrays of its one
generator, kept once per width, whose moved states find their rows from the
basis keys shifted at the few sites a move changes.

* :func:`build_xxz` -- the open anisotropic spin chain at ``q = exp(i pi/3)``
  with its boundary field, in the zero-magnetization sector (sparse);
  :func:`reflect_flip_isometry` maps the sector even under
  :func:`reflect_flip`, where its ground state and Jordan cell lie, into
  that basis;
* :func:`build_ising_sector` -- the critical transverse-field chain on a
  ring, restricted to the sector invariant under rotation and global spin
  flip, where its Perron ground state lies (:func:`ising_orbits`);
  :func:`apply_ising` applies the full ring matrix-free to certify a lifted
  vector;
* :func:`build_dense_loop_T` and :func:`build_dilute_T` -- one row of the
  dense loop model on a cylinder and of the dilute loop model on a strip,
  each a :class:`TransferRow` of two staggered half-rows.  A half-row is a
  :class:`TransferOperator`: the array maps of its tiles (a plaquette ``1 +
  e_i`` per site pair, or lozenges with the boundary half-tiles folded in),
  each compiled once into compressed-column arrays (``int32`` indices for
  the lozenges, the cached cup-cap rows for the plaquettes) and applied one
  tile at a time by scipy's compiled sparse kernel, forward or transposed,
  never formed.  The row keeps both orders of its halves, which share those
  arrays: the ket row, and the bra row that evolves bra states (on the
  cylinder, the loop form maps the ket row's eigenvectors to those of the
  transposed bra row);
  :func:`dilute_blocks` restricts the dilute tiles to their string-sector
  blocks, forming no product;
* :func:`build_percolation_H` -- the open-chain sum of cup-cap generators at
  loop weight one, optionally with parity-deformed string contractions
  (sparse).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse import _sparsetools

from . import fixtures
from .diagrams import (
    _EMPTY_SITE,
    _STRING_SITE,
    _arrays,
    _dense_sites,
    _key_shift,
    _keyed,
    _lookup,
    _open_sites,
    dilute_row_sites,
)
from .tl import _cup_cap_weights, _cup_caps, _spins, spin_sector_basis

# ---------------------------------------------------------------------------
# Spin chains


def build_xxz(L: int, q: complex | None = None) -> tuple[sp.csr_matrix, list[int]]:
    """Sparse zero-magnetization Hamiltonian of the open anisotropic chain.

    ``H = sum_i [sx sx + sy sy + ((q+1/q)/2) sz sz] + ((q-1/q)/2)(sz_1 - sz_L)``

    Returns the matrix and the list of basis bit masks (bit set = down spin,
    site 1 = most significant bit, masks ascending).  A width below two or
    an odd one has no zero-magnetization chain and raises ``ValueError``.
    """
    if L < 2 or L % 2:
        raise ValueError(f"zero-magnetization sector needs even L >= 2, got {L}")
    q = fixtures.Q_VALUE if q is None else q
    masks = np.array(spin_sector_basis(L, up_count=L // 2))
    spins = _spins(masks, L)
    nhalf = (q + 1 / q) / 2
    delta = (q - 1 / q) / 2
    diag = sum(nhalf * spins[:, i] * spins[:, i + 1] for i in range(L - 1))
    diag = diag + delta * (spins[:, 0] - spins[:, L - 1])
    rows, cols = [masks], [np.arange(len(masks))]
    for i in range(L - 1):
        # sx sx + sy sy swap antiparallel neighbours with weight 2
        swap = np.flatnonzero(spins[:, i] != spins[:, i + 1])
        rows.append(masks[swap] ^ (3 << (L - 2 - i)))
        cols.append(swap)
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    vals = np.concatenate([diag, np.full(len(rows) - len(masks), 2.0)])
    dim = len(masks)
    # ascending masks are their own lookup keys
    coo = sp.coo_matrix((vals, (_lookup(masks)(rows), cols)), shape=(dim, dim), dtype=complex)
    return sp.csr_matrix(coo), masks.tolist()


def reflect_flip(masks: np.ndarray, L: int) -> np.ndarray:
    """The image of each spin mask under site reflection times global spin flip.

    Site ``i`` goes to site ``L + 1 - i`` and every spin turns over.  The
    open chain's bulk terms are even under each of the two, and its boundary
    term ``sz_1 - sz_L`` is odd under each, so the product commutes with
    :func:`build_xxz`'s ``H``.  It is an involution and keeps magnetization
    zero.
    """
    masks = np.asarray(masks)
    mirrored = np.zeros_like(masks)
    for k in range(L):
        mirrored |= ((masks >> k) & 1) << (L - 1 - k)
    return mirrored ^ ((1 << L) - 1)


def reflect_flip_isometry(masks: np.ndarray, L: int) -> sp.csr_matrix:
    """The isometry ``S`` onto the sector even under :func:`reflect_flip`.

    An orbit of the reflection-flip ``P`` is a mask ``m`` and ``P m``: two
    masks, or one when ``m`` is its own image.  Column ``o`` of ``S`` is
    ``1/sqrt(N_o)`` on each of the ``N_o`` masks of orbit ``o`` (entries 1
    and ``1/sqrt(2)``); the orbits are ordered by their smaller mask.  With
    :func:`build_xxz`'s ``H`` and ``masks``, the sector operator is
    ``S^T H S``, a sector vector ``u`` lifts to ``S u`` and a full vector
    projects to ``S^T v``.  ``S`` is real, so the bilinear pairing of two
    sector vectors equals that of their lifts.
    """
    masks = np.asarray(masks)
    reps = np.minimum(masks, reflect_flip(masks, L))
    _, label, size = np.unique(reps, return_inverse=True, return_counts=True)
    dim = len(masks)
    return sp.csr_matrix(
        (1 / np.sqrt(size[label]), (np.arange(dim), label)), shape=(dim, len(size))
    )


def _ising_diagonal(masks: np.ndarray, L: int) -> np.ndarray:
    """``- sum_i sz_i sz_{i+1}`` of each ring configuration.

    Each bond adds ``sz sz = +1`` on aligned spins and ``-1`` on anti-aligned
    ("broken") ones, and the broken bonds are the set bits of a mask xor its
    one-site rotation.
    """
    full = (1 << L) - 1
    rotated = ((masks >> 1) | (masks << (L - 1))) & full
    return 2.0 * np.bitwise_count(masks ^ rotated) - L


def ising_orbits(L: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orbits of the ``2^L`` ring configurations under rotation and global flip.

    Returns ``(reps, label, size)``: the smallest mask of each orbit
    (ascending), the orbit index of every mask, and the number of masks in
    each orbit.  A mask's orbit is named by the minimum of its ``L``
    rotations and their complements, so one pass of ``L - 1`` vectorized
    rotations, made in place in two mask-sized buffers, labels the whole
    space.
    """
    dim = 1 << L
    full = dim - 1
    turned = np.arange(dim, dtype=np.min_scalar_type(full))  # bits past L are masked off
    canon = np.minimum(turned, turned ^ full)
    spill = np.empty_like(turned)
    for _ in range(L - 1):
        np.right_shift(turned, L - 1, out=spill)
        np.left_shift(turned, 1, out=turned)
        np.bitwise_or(turned, spill, out=turned)
        np.bitwise_and(turned, full, out=turned)
        np.minimum(canon, turned, out=canon)
        np.bitwise_xor(turned, full, out=spill)
        np.minimum(canon, spill, out=canon)
    counts = np.bincount(canon, minlength=dim)
    reps = np.flatnonzero(counts)
    rank = np.cumsum(counts > 0) - 1
    return reps, rank[canon], counts[reps]


def build_ising_sector(L: int) -> tuple[sp.csr_matrix, np.ndarray, np.ndarray]:
    """The Ising ring restricted to its rotation- and flip-invariant sector.

    With ``S`` the isometry whose column ``o`` is ``1/sqrt(N_o)`` on each
    mask of orbit ``o`` (``N_o`` its size), the reduced operator is
    ``S^T H S`` on the orbits.  Both symmetries commute with ``H``, so it is
    read off the orbit representatives ``r``: the diagonal is ``r``'s
    diagonal, and each single flip of ``r`` that lands in orbit ``s`` adds
    ``-sqrt(N_r / N_s)`` at ``[s, r]``.  The Perron ground state of the ring
    is invariant under both symmetries, so it lies in this sector.

    Returns ``(H_sector, label, size)`` as in :func:`ising_orbits`; a sector
    vector ``u`` lifts to ``u[label] / sqrt(size[label])``.
    """
    reps, label, size = ising_orbits(L)
    dim = len(reps)
    landing = label[reps[:, None] ^ (1 << np.arange(L))].ravel()
    source = np.repeat(np.arange(dim), L)
    rows = np.concatenate([np.arange(dim), landing])
    cols = np.concatenate([np.arange(dim), source])
    vals = np.concatenate([_ising_diagonal(reps, L), -np.sqrt(size[source] / size[landing])])
    H = sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim))
    return H, label, size


def apply_ising(L: int, v: np.ndarray) -> np.ndarray:
    """``H v`` for the full critical transverse-field ring, without forming ``H``.

    ``H = - sum_i sz_i sz_{i+1} - sum_i sx_i`` on the ``2^L`` spin masks
    (bit set = down).  Seen as an array of ``L`` axes of length two, ``v``
    takes the flip of bit ``i`` as the reversal of axis ``L - 1 - i``, so
    each single-flip term is one strided pass with no index array.
    """
    masks = np.arange(1 << L, dtype=np.min_scalar_type((1 << L) - 1))
    out = _ising_diagonal(masks, L) * v
    spins, flipped = v.reshape((2,) * L), out.reshape((2,) * L)
    for i in range(L):
        flipped -= np.flip(spins, axis=L - 1 - i)
    return out


def ising_boundary_vectors(L: int) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate vectors of the fixed (all up) and free boundary states."""
    dim = 1 << L
    fixed = np.zeros(dim)
    fixed[0] = 1.0
    free = np.ones(dim)
    return fixed, free


# ---------------------------------------------------------------------------
# Transfer rows kept per tile


class _Tile(NamedTuple):
    """One tile compiled in compressed-column form, ``stay`` its diagonal.

    The kept columns ``c`` send weight ``moved[k]`` to row ``rows[k]`` for
    ``indptr[c] <= k < indptr[c + 1]``; ``indptr`` and ``rows`` share one
    integer dtype, ``int32`` when compiled from a map.  ``stay = None`` is
    the diagonal of ones.
    """

    stay: np.ndarray | None
    indptr: np.ndarray
    rows: np.ndarray
    moved: np.ndarray


def _compile(stay, cols, rows, moved) -> _Tile:
    """The :class:`_Tile` of one tile map ``(stay, cols, rows, moved)``.

    A map without ``stay`` (weight one) keeps every column: ``dim`` is its
    number of rows.  The compiled kernel checks no bounds, so a map with a
    row outside ``[0, dim)``, kept columns out of it or not strictly
    ascending, arrays of unequal lengths, or ``dim >= 2**31`` raises
    ``ValueError``.
    """
    cols, rows, moved = np.asarray(cols), np.asarray(rows), np.ascontiguousarray(moved)
    dim = len(rows) if stay is None else len(stay)
    if dim >= 2**31:
        raise ValueError(f"a tile of dimension {dim} does not fit int32 indices")
    if len(cols) and (cols[0] < 0 or cols[-1] >= dim or np.any(cols[1:] <= cols[:-1])):
        raise ValueError(f"the kept columns must be strictly ascending in [0, {dim})")
    indptr = np.zeros(dim + 1, dtype=np.int32)
    indptr[1:][cols] = 1
    np.cumsum(indptr, out=indptr)
    if not len(rows) == len(moved) == indptr[-1]:
        raise ValueError("a tile needs one row and one weight per kept column")
    if len(rows) and (rows.min() < 0 or rows.max() >= dim):
        raise ValueError(f"a tile's rows must lie in [0, {dim})")
    return _Tile(stay, indptr, rows.astype(np.int32), moved)


@dataclass
class TransferOperator:
    """A product of tiles kept unformed and applied one tile at a time.

    A tile sends every state ``c`` to itself with weight ``stay[c]`` and its
    kept columns to their rows with their ``moved`` weights.  It is built
    from a map ``(stay, cols, rows, moved)``: the kept columns ``cols``
    (ascending) go to ``rows``; a tile that keeps every column with weight
    one, such as a cylinder plaquette ``1 + e_i``, has ``stay = None``.  Each
    map is compiled once into a :class:`_Tile` (:func:`_compile`, which
    refuses an out-of-range map); already compiled tiles, such as the
    plaquettes :func:`build_dense_loop_T` compiles from its cup-cap maps,
    are shared, not copied.  A tile applies as ``stay * x`` plus its moves,
    added by scipy's compiled sparse kernel on the compressed-column arrays,
    and its transpose the same way with the same arrays read as compressed
    rows.  The tiles act in list order, so the operator is ``tiles[-1] @
    ... @ tiles[0]``; :attr:`T` applies the transposed tiles in reverse.
    ``x`` may be a vector or a block of columns, and is cast once to the
    result type of ``x`` and the moves, which all tiles share.
    """

    tiles: list
    transposed: bool = False

    def __post_init__(self):
        self.tiles = [t if isinstance(t, _Tile) else _compile(*t) for t in self.tiles]
        if len({len(t.indptr) for t in self.tiles}) > 1:
            raise ValueError("the tiles of one operator act on one basis")
        if len({t.moved.dtype for t in self.tiles}) > 1:
            raise ValueError("the tiles of one operator share one weight dtype")

    @property
    def shape(self) -> tuple[int, int]:
        dim = len(self.tiles[0].indptr) - 1
        return (dim, dim)

    @property
    def T(self) -> TransferOperator:
        return TransferOperator(self.tiles, not self.transposed)

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.ascontiguousarray(x, dtype=np.result_type(x, self.tiles[0].moved))
        dim = self.shape[0]
        if x.ndim == 1:
            kernel = _sparsetools.csr_matvec if self.transposed else _sparsetools.csc_matvec
            sizes, diagonal = (dim, dim), np.s_[:]
        else:
            kernel = _sparsetools.csr_matvecs if self.transposed else _sparsetools.csc_matvecs
            sizes, diagonal = (dim, dim, x.shape[1]), np.s_[:, None]
        for stay, indptr, rows, moved in reversed(self.tiles) if self.transposed else self.tiles:
            y = x.copy() if stay is None else stay[diagonal] * x
            kernel(*sizes, indptr, rows, moved, x, y)  # y += moves @ x, in place
            x = y
        return x

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.apply(x)

    def matrix(self) -> np.ndarray:
        return self.apply(np.eye(self.shape[1]))


@dataclass
class TransferRow:
    """Both orientations of a transfer row on a fixed basis.

    ``basis`` is the row's site array, or any basis that
    :func:`~loopcells.diagrams._arrays` reads.  Each half-row is a
    :class:`TransferOperator` of its tiles and is never formed.  The two
    rows are products of the same half-rows in opposite orders, ``ket_row =
    upper @ lower`` and ``bra_row = lower @ upper``, so the lower half-row
    intertwines them: ``bra_row @ lower = lower @ ket_row``.  It maps every
    ket-row eigenvector and Jordan cell to a bra-row one at the same
    eigenvalue (unless it annihilates the eigenvector).
    """

    basis: np.ndarray
    lower: TransferOperator
    upper: TransferOperator

    @property
    def ket_row(self) -> TransferOperator:
        """Row acting on ket states from below: upper half after lower half."""
        return TransferOperator(self.lower.tiles + self.upper.tiles)

    @property
    def bra_row(self) -> TransferOperator:
        """Row acting on bra states from above: the half-rows in reversed order."""
        return TransferOperator(self.upper.tiles + self.lower.tiles)


# ---------------------------------------------------------------------------
# Dense loop model on a cylinder


def build_dense_loop_T(L: int, n: float) -> TransferRow:
    """One row of the dense loop model on a cylinder of ``L`` strands.

    The lower half-row holds a plaquette on each site pair ``(1,2), (3,4),
    ...``, the upper half-row on ``(2,3), (4,5), ..., (L,1)``; each
    plaquette is a tile ``1 + e_i`` that keeps every column, its moves the
    cached cup-cap map of the basis (:func:`loopcells.tl._cup_caps`)
    weighted by ``n`` where it closes a loop.  The plaquettes are compiled
    here, on those cached rows and one column pointer that they all share,
    so they copy no index array.  Every plaquette is
    self-adjoint under the loop form ``G``, and those of a half-row
    commute, so ``G ket_row = bra_row^T G``: ``G`` maps the ket row's
    eigenvectors to those of the transposed bra row at the same eigenvalue.
    """
    if L % 2:
        raise ValueError("the cylinder row needs even L")
    basis = _dense_sites(L)
    maps = _cup_caps(basis)
    dtype = np.complex128 if np.iscomplexobj(n) else np.float64
    every = np.arange(len(basis) + 1, dtype=maps[0][0].dtype)  # one move per column

    def half_row(sites):
        return TransferOperator([
            _Tile(None, every, maps[i][0], _cup_cap_weights(maps[i], n, 1.0, dtype)) for i in sites
        ])

    return TransferRow(basis, half_row(range(0, L, 2)), half_row(range(1, L, 2)))


# ---------------------------------------------------------------------------
# Dilute loop model on a strip


def _lozenge_ops(basis, site, x):
    """The tile map ``(stay, cols, rows)`` of one lozenge spanning ``site`` and ``site+1``.

    Each incoming occupancy pattern allows exactly two tiles:

    * both legs empty: empty tile (weight 1) or a new arc opening
      upward (weight ``x^2``);
    * one leg occupied: the line continues straight up (weight ``x``) or
      crosses to the other leg (weight ``x^2``);
    * both legs occupied: both lines continue up (weight ``x^2``) or are
      joined (weight ``x^2``) -- joining the two ends of a single arc would
      close a loop, which carries weight zero and is dropped.

    The first tile keeps every state, with weight ``stay``; the second maps
    the states ``cols`` (ascending) of the basis's site array to new states,
    each with weight ``x^2``.  Their ``rows`` are found from the basis keys
    shifted at the sites the tile changes
    (:func:`loopcells.diagrams._key_shift`): a fresh arc on empty legs, the
    two legs' values swapped under a crossing line, whose far end keeps its
    key digit (no arc partner lies between adjacent sites), and two empty
    legs whose far ends are joined.
    """
    sites = _arrays(basis)[0]
    _, keys, find = _keyed(basis)
    i, j = site, site + 1
    legs = sites[:, [i, j]].T
    occupied = np.count_nonzero(legs != _EMPTY_SITE, axis=0)
    stay = np.array([1.0, x, x**2])[occupied]
    arc = np.array([[j], [i]], dtype=np.int8)
    near = np.where(occupied == 0, arc, np.where(occupied == 1, legs[::-1], _EMPTY_SITE))
    far = np.where(occupied == 2, legs[::-1], arc)
    shift = _key_shift(basis, i, j, near, far)
    keep = np.flatnonzero(sites[:, i] != j)  # the closed loop has weight zero
    return stay, keep, find(keys[keep] + shift[keep])


def build_dilute_T(L: int, x: float | None = None) -> TransferRow:
    """One row of the dilute loop model on a strip of width ``L``, kept per tile.

    The lower half-row tiles site pairs ``(1,2), (3,4), ...``; the upper
    half-row is shifted by one site and completed by boundary half-tiles.
    For odd ``L`` the lower half-row ends in the right half-tile instead.
    A half-tile passes an occupied leg with weight ``x``; it touches no site
    of a lozenge of its half-row, so it commutes with them and its diagonal
    is folded into the weights of the half-row's first tile (an identity
    tile where the half-row has no lozenge).  The basis
    (:func:`~loopcells.diagrams.dilute_row_sites`) keeps the zero- and
    two-string sectors only, in that order.  That restriction is legitimate
    because lozenge tiles never create strings: they annihilate them in
    pairs, so any downward-closed set of string counts spans an invariant
    subspace.
    """
    x = fixtures.X_CRITICAL if x is None else x
    basis = dilute_row_sites(L)
    sites = _arrays(basis)[0]
    none = np.zeros(0, dtype=np.intp)

    def tile(stay, cols, rows, edges=()):
        moved = np.broadcast_to(x**2, cols.shape)
        for t in edges:
            edge = np.where(sites[:, t] != _EMPTY_SITE, x, 1.0)
            stay, moved = stay * edge, moved * edge[cols]
        return _compile(stay, cols, rows, moved)

    def half_row(pairs, edges):
        # each map is compiled as it is made, so no int64 index array outlives its tile
        maps = (_lozenge_ops(basis, p, x) for p in pairs)
        first = tile(*(next(maps, None) or (np.ones(len(sites)), none, none)), edges)
        return TransferOperator([first, *(tile(*m) for m in maps)])

    if L % 2 == 0:
        lower = half_row(range(0, L - 1, 2), ())
        upper = half_row(range(1, L - 2, 2), (0, L - 1))
    else:
        lower = half_row(range(0, L - 2, 2), (L - 1,))
        upper = half_row(range(1, L - 1, 2), (0,))
    return TransferRow(basis, lower, upper)


def dilute_blocks(row: TransferRow):
    """String-sector blocks (0 and 2 strings) of the ket row, unformed.

    Returns ``(T00, T02, T22, idx0, idx2)``: the three blocks and the rows
    of the two sectors.  The basis lists its ``n0`` zero-string states first (else
    ``ValueError``), so ``idx0`` is ``0 .. n0-1`` and ``idx2`` the rest.  No
    tile may send a zero-string state into the two-string sector (lozenge
    tiles never create strings); a move from a column below ``n0`` to a row
    at or above it raises ``AssertionError``.  Every tile is then block
    upper triangular, so the diagonal blocks of the row are the products of
    the tiles' diagonal blocks: ``T00`` and ``T22`` are
    :class:`TransferOperator` s of the tiles restricted to a sector (``T00``'s
    as views of the row's compiled arrays, the columns being ascending;
    ``T22`` copies the moves that stay in the two-string sector, its
    indices ``int32``).  ``T02 = P0 T P2^T`` is a
    ``LinearOperator`` that applies the whole row to a vector padded with
    zeros on the zero-string sector.  The bra row's blocks are those of the
    row with its two halves swapped.
    """
    strings = np.count_nonzero(_arrays(row.basis)[0] == _STRING_SITE, axis=1)
    dim = len(strings)
    n0 = int(np.count_nonzero(strings == 0))  # a Python int keeps the indices int32
    if np.any(strings != np.where(np.arange(dim) < n0, 0, 2)):
        raise ValueError("a dilute row basis lists its zero-string states, then its two-string ones")
    ket_row = row.ket_row
    zero, two = [], []
    for stay, indptr, rows, moved in ket_row.tiles:
        m0 = indptr[n0]  # the moves of the zero-string columns come first
        if np.any(rows[:m0] >= n0):
            raise AssertionError("strings were created by a dilute half-row")
        zero.append(_Tile(stay[:n0], indptr[:n0 + 1], rows[:m0], moved[:m0]))
        kept = rows[m0:] >= n0
        before = np.zeros(len(kept) + 1, dtype=np.int32)  # kept moves before each move
        np.cumsum(kept, out=before[1:])
        indptr2 = before[indptr[n0:] - m0]
        two.append(_Tile(stay[n0:], indptr2, rows[m0:][kept] - n0, moved[m0:][kept]))

    def feed(x2):
        padded = np.zeros((dim, *x2.shape[1:]), dtype=x2.dtype)
        padded[n0:] = x2
        return (ket_row @ padded)[:n0]

    T02 = spla.LinearOperator((n0, dim - n0), matvec=feed, matmat=feed, dtype=float)
    return TransferOperator(zero), T02, TransferOperator(two), np.arange(n0), np.arange(n0, dim)


# ---------------------------------------------------------------------------
# Percolation-type open chains


def build_percolation_H(L: int, y: complex = 1.0) -> sp.csr_matrix:
    """Sparse open-chain Hamiltonian ``(L-1)/2 - 2 sum_i e_i`` at loop weight one.

    The CSR sum of the :func:`~loopcells.tl.open_generators`, assembled in
    one step from their cup-cap maps (one entry per column each), which are
    kept once per basis (:func:`loopcells.tl._cup_caps`) and only weighed
    here; no ``dim x dim`` array is formed.  ``y`` deforms the string-pair
    contraction weights; ``y = 1`` is the geometric chain, which is
    diagonalizable, while ``y != 1`` develops rank-two Jordan cells at the
    same spectrum.
    """
    basis = _open_sites(L)
    dim = len(basis)
    # the dtype of open_generators(L, 1.0, y)
    dtype = np.complex128 if np.iscomplexobj(y) else np.float64
    cols = np.arange(dim)
    maps = _cup_caps(basis)
    weights = [_cup_cap_weights(cup_cap, 1.0, y, dtype) for cup_cap in maps]
    rows = np.concatenate([cols, *(cup_cap[0] for cup_cap in maps)])
    data = np.concatenate([np.full(dim, (L - 1) / 2, dtype), *(-2 * w for w in weights)])
    # duplicate entries (the diagonal and every generator's) are summed
    return sp.csr_matrix((data, (rows, np.tile(cols, L))), shape=(dim, dim))
