"""Dense and full-space twins of the package's operators and cell probes (test oracles).

* :func:`spin_generators` -- the Temperley-Lieb generators on the spin
  chain as dense matrices, whose sum the open spin Hamiltonian is;
* :func:`check_relations_chain` and :func:`check_relations_periodic` -- how
  well a family of matrices (dense or sparse) satisfies the defining
  relations of the algebra;
* :func:`contraction_weight` -- the deformation weight of one string
  contraction, by label parity;
* :func:`build_ising` -- the critical Ising ring on all ``2^L``
  configurations, the operator that :func:`loopcells.models.apply_ising`
  applies and :func:`loopcells.models.build_ising_sector` restricts, with
  its diagonal summed bond by bond (:func:`ising_diagonal`);
* :func:`apply_ising_gather` -- that ring applied matrix-free with one
  index gather per single-flip term, the twin of
  :func:`loopcells.models.apply_ising`;
* :func:`adjointness_matrix_defect` -- how far an operator is from
  self-adjoint under a Gram array, entry by entry;
* :func:`geometric_multiplicity` and :func:`nilpotent_norm` -- the kernel
  dimension and the nilpotent part of a dense operator at a level, the dense
  twins of :func:`loopcells.spectral.cell_structure`;
* :func:`kernel_pair` and :func:`inverse_iteration_cell` -- the Jordan cell
  at a level from inverse iteration on one sparse LU of the singular shift,
  bordered by an uncertified left direction, with no spectrum and no form:
  the twin of :func:`loopcells.spectral.extract_jordan_cell`;
* :func:`tile_maps` and :func:`tile_matrix` -- the ``(stay, cols, rows,
  moved)`` map of each compiled tile of a
  :class:`loopcells.models.TransferOperator`, and the tile as a public
  ``scipy.sparse`` array built from that map.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from loopcells import diagrams as dg
from loopcells import models, spectral, tl


def spin_generators(L: int, q: complex, masks: Sequence[int] | None = None) -> list[np.ndarray]:
    """Matrices of ``e_1 .. e_{L-1}`` on the spin chain, optionally in one sector.

    On neighbouring spins the generator reads

    ``e_i = -(1/2) [ sx sx + sy sy + ((q+1/q)/2)(sz sz - 1)
                     + ((q-1/q)/2)(sz_i - sz_{i+1}) ]``

    so that ``e_i^2 = (q + 1/q) e_i`` and the open-chain Hamiltonian is a sum
    of the generators.  ``masks`` must be closed under swapping neighbouring
    spins (whole magnetization sectors); a swap that leaves them raises
    ``LookupError``.
    """
    masks = np.asarray(tl.spin_sector_basis(L) if masks is None else masks, dtype=np.int64)
    find = dg._lookup(masks)
    spins = tl._spins(masks, L)
    nval = q + 1 / q
    delta = (q - 1 / q) / 2
    es = []
    for i in range(L - 1):
        si, sj = spins[:, i], spins[:, i + 1]
        # diagonal part: ((q+1/q)/2)(sz sz - 1) + delta (sz_i - sz_j)
        e = np.diag(-0.5 * ((nval / 2) * (si * sj - 1) + delta * (si - sj))).astype(complex)
        # sx sx + sy sy act as twice the swap on antiparallel spins
        swap = np.flatnonzero(si != sj)
        e[find(masks[swap] ^ (3 << (L - 2 - i))), swap] = -0.5 * 2.0
        es.append(e)
    return es


def _relation_residual(es: Sequence[np.ndarray], n: complex, distance) -> float:
    """Largest entry of every defining relation, ``distance(i, j)`` apart for ``i < j``."""
    es = [spectral._dense(e) for e in es]
    worst = 0.0
    m = len(es)
    for i in range(m):
        e = es[i]
        worst = max(worst, float(np.max(np.abs(e @ e - n * e))))
        for j in range(i + 1, m):
            f = es[j]
            if distance(i, j) == 1:
                worst = max(worst, float(np.max(np.abs(e @ f @ e - e))))
                worst = max(worst, float(np.max(np.abs(f @ e @ f - f))))
            else:
                worst = max(worst, float(np.max(np.abs(e @ f - f @ e))))
    return worst


def check_relations_chain(es: Sequence[np.ndarray], n: complex) -> float:
    """Relation residual for an open chain ``e_1 .. e_{L-1}``."""
    return _relation_residual(es, n, lambda i, j: j - i)


def check_relations_periodic(es: Sequence[np.ndarray], n: complex) -> float:
    """Relation residual for a cylinder family ``e_1 .. e_L`` (indices mod L)."""
    m = len(es)
    return _relation_residual(es, n, lambda i, j: min(j - i, m - (j - i)))


def contraction_weight(label: int, y: complex) -> complex:
    """Weight for contracting adjacent strings ``(label, label+1)``, 1-based.

    Joining an even-labelled string to its right neighbour crosses a pair
    boundary and picks up ``y``; joining an odd-labelled one stays inside a
    pair and keeps weight one.
    """
    return y if label % 2 == 0 else 1.0


def ising_diagonal(masks: np.ndarray, L: int) -> np.ndarray:
    """``- sum_i sz_i sz_{i+1}`` of each ring configuration, one bond at a time.

    Each bond adds ``sz sz = +1`` on aligned spins and ``-1`` on anti-aligned
    ("broken") ones.
    """
    broken = np.zeros(masks.shape, dtype=np.int64)
    for i in range(L):
        broken += ((masks >> i) ^ (masks >> ((i + 1) % L))) & 1
    return (2 * broken - L).astype(float)


def apply_ising_gather(L: int, v: np.ndarray) -> np.ndarray:
    """``H v`` for the full critical transverse-field ring, each single-flip term one gather."""
    masks = np.arange(1 << L, dtype=np.min_scalar_type((1 << L) - 1))
    out = ising_diagonal(masks, L) * v
    for i in range(L):
        out -= v[masks ^ (1 << i)]
    return out


def build_ising(L: int) -> sp.csr_matrix:
    """Critical transverse-field chain on a ring of ``L`` spins.

    ``H = - sum_i sz_i sz_{i+1} - sum_i sx_i`` on the full ``2^L`` spin basis
    (bit set = down), which is real symmetric with nonpositive off-diagonal
    entries, so its ground state has strictly positive amplitudes.
    """
    dim = 1 << L
    masks = np.arange(dim)
    diag = ising_diagonal(masks, L)
    # row r holds r itself and its L single flips, sorted into CSR order
    cols = masks[:, None] ^ np.concatenate([[0], 1 << np.arange(L)])
    cols.sort(axis=1)
    data = np.where(cols == masks[:, None], diag[:, None], -1.0)
    H = sp.csr_matrix(
        (data.ravel(), cols.ravel(), np.arange(dim + 1) * (L + 1)), shape=(dim, dim)
    )
    H.eliminate_zeros()  # states with half their bonds broken have no diagonal
    return H


def geometric_multiplicity(A: np.ndarray, level: complex, rank_cut: float = 1e-8) -> int:
    """Kernel dimension of ``A - level`` from the singular-value profile."""
    A = spectral._dense(A)
    s = np.linalg.svd(A - level * np.eye(A.shape[0], dtype=complex), compute_uv=False)
    scale = s[0] if s[0] > 0 else 1.0
    return int(np.sum(s <= rank_cut * scale))


def nilpotent_norm(A: np.ndarray, level: complex, radius: float) -> float:
    """Norm of the nilpotent part of ``A`` restricted to a spectral cluster.

    A complex Schur form sorted to bring the eigenvalues within ``radius``
    of ``level`` to the leading block yields that block upper triangular;
    the largest off-diagonal magnitude measures its nilpotent part (zero,
    up to roundoff, exactly when the cluster is diagonalizable).
    """
    A = spectral._dense(A).astype(complex)
    t, _, sdim = sla.schur(A, output="complex", sort=lambda z: abs(z - level) <= radius)
    if sdim == 0:
        raise ValueError(f"no eigenvalue within {radius} of {level}")
    block = t[:sdim, :sdim]
    nil = block - np.diag(np.diag(block))
    return float(np.max(np.abs(nil))) if sdim > 1 else 0.0


def kernel_pair(shifted, columns: int = 1):
    """Right kernel block and a left border direction of a nearly singular sparse shift.

    One sparse LU of ``shifted`` (:func:`loopcells.spectral._factor`) serves
    four steps of inverse iteration from a fixed pseudo-random start:
    ``columns`` orthonormal right directions (kept orthonormal by QR) and
    one left direction ``ell`` from conjugate-transposed solves; it is real
    when ``shifted`` is.  ``ell`` is not certified to be a left null vector:
    it only has to keep the bordered system regular.  At a Jordan cell it
    need not converge: on the open chain at L = 14, y = 2, ``||ell^H
    shifted|| / ||shifted||_F`` swings between about 1e-17 after odd steps
    and 1e-4 after even ones.  When SuperLU finds the shift exactly singular
    it is refactored once at ``shifted + delta I`` with ``delta = 1e-13
    ||shifted||_F``; the identity shift moves no eigenvector.  Returns
    ``(X, ell)``.
    """
    n = shifted.shape[0]
    try:
        lu = spectral._factor(shifted)
    except RuntimeError:
        delta = 1e-13 * spla.norm(shifted)
        lu = spectral._factor((shifted + delta * sp.identity(n, format="csc")).tocsc())
    start = np.random.default_rng(0).standard_normal((n, columns + 1))
    X, ell = start[:, :columns], start[:, columns:]
    for _ in range(4):
        X, _ = np.linalg.qr(lu.solve(X))
        ell, _ = np.linalg.qr(lu.solve(ell, trans="H"))
    return X, ell[:, 0]


def inverse_iteration_cell(A, level: complex) -> spectral.JordanCell:
    """The Jordan cell of ``A`` (dense or sparse) at ``level`` from inverse iteration alone.

    Two columns of :func:`kernel_pair` span the near-kernel, and the kernel
    decision on them refuses a diagonalizable level
    (:class:`~loopcells.spectral.DiagonalizableLevelError`) or one that is
    no eigenvalue (:class:`~loopcells.spectral.ClusterSizeError`).  The
    partner solves the system bordered by the inverse iteration's left
    direction, and a kernel or partner residual above ``1e-8`` raises
    ``ArithmeticError``.
    """
    A, shifted = spectral._shift(A, level)
    X, ell = kernel_pair(shifted, columns=2)
    null_dim, v = spectral._near_kernel(shifted, X, level)
    if null_dim >= 2:
        raise spectral.DiagonalizableLevelError(
            f"level {level} is diagonalizable (kernel dimension {null_dim})"
        )
    w = spectral._bordered_partner(shifted, v, ell)
    cell = spectral._jordan_cell(shifted.dot, spla.norm(A), level, v, w)
    if max(cell.residual_v, cell.residual_w) > 1e-8:
        raise ArithmeticError(
            f"Jordan cell at {level} fails its cell relations: residuals "
            f"{cell.residual_v:.2e}, {cell.residual_w:.2e}"
        )
    return cell


def tile_maps(op: models.TransferOperator) -> list[tuple]:
    """The ``(stay, cols, rows, moved)`` map of every compiled tile of ``op``.

    A kept column holds exactly one move, so ``cols`` are the columns whose
    compressed-column range is not empty.
    """
    return [(t.stay, np.flatnonzero(np.diff(t.indptr)), t.rows, t.moved) for t in op.tiles]


def tile_matrix(stay, cols, rows, moved) -> sp.csc_array:
    """One tile map as a ``scipy.sparse.csc_array``: its diagonal plus its moves.

    A tile without ``stay`` keeps every column with weight one.
    """
    dim = len(rows) if stay is None else len(stay)
    diagonal = np.ones(dim) if stay is None else stay
    moves = sp.csc_array((moved, (rows, cols)), shape=(dim, dim))
    return sp.csc_array(sp.diags_array(diagonal)) + moves


def adjointness_matrix_defect(op, gram: np.ndarray) -> float:
    """Exact test of ``G A = A^T G``: ``max |G A - A^T G|`` over entries, normalized.

    ``op`` is dense or sparse and ``gram`` the Gram array ``G``.
    """
    op = spectral._dense(op)
    lhs = gram @ op
    rhs = op.T @ gram
    scale = max(float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))), 1e-300)
    return float(np.max(np.abs(lhs - rhs))) / scale
