"""Spectra, ground states and rank-two Jordan cells of non-normal operators.

A defective eigenvalue of a finite-precision matrix splits into a tight
cluster whose diameter scales like the square root of machine precision, so
:func:`full_spectrum` groups eigenvalues by a relative gap (default ``1e-5``)
and reports cluster means.

Two solvers extract the Jordan cells, one per kind of level.  At interior
Hamiltonian levels there is one kind of cell, :func:`extract_jordan_cell`
(dense or sparse ``A``).  Its caller already holds the eigenvectors of the
level's cluster from a low spectrum
(:func:`loopcells.observables._low_spectrum`), and their (real) span is the
near-kernel block of ``A - lambda``.  The two singular values of the shift
on the block decide the structure: one vanishing means a genuine cell, two
a diagonalizable degeneracy (:func:`_near_kernel`).  The partner ``w`` of
``(A - lambda) w = v`` solves a system bordered by ``conj(G v)``, where
``G`` is the operator's invariant form (``G A = A^T G``); that border is a
left kernel vector, its left residual is certified, and so are the cell
residuals (:func:`_block_cell`).  The singular shift is never factored:
the bordered system is the one LU.

:func:`cell_structure` gives the kernel dimension and nilpotent norm of a
two-fold cluster without a dense spectrum and without decomposing the whole
operator.  It decides the kernel on the same span, compresses ``A`` onto
that span when the level is diagonalizable, so it factors nothing there,
and onto the certified cell of :func:`_block_cell` when it is genuine.

Every sparse LU here, and the one ARPACK's shift-invert uses in
:func:`loopcells.observables._low_spectrum`, comes from :func:`_factor`: a
minimum-degree ordering of the symmetric pattern with threshold pivoting,
in float64 when ``A`` and the level are real (:func:`_shift`).
:func:`block_jordan_cell` works on the zero-string block of a block
upper-triangular transfer row (string sectors that only feed downward),
whose shared level is among the largest in modulus.  It factors nothing and
needs only products with the blocks, so the blocks may stay unformed, as
the dilute rows' tile operators do: ARPACK gives the kernel vector, and one
GMRES run on the system bordered by it gives the partner and the coupling
of the sectors together.  Every solver
returns a :class:`JordanCell` with its residuals and certifies them.

The ``w`` returned by the solvers is defined up to adding multiples of
``v``; the minimal-Euclidean-norm gauge fixes that freedom, and downstream
couplings are insensitive to it (their residual sensitivity is reported as
the overlap of the probe state with ``v``).

The leading (Perron) eigenpairs of the transfer rows and the entropy fits
come from the power iteration :func:`perron_pair`, which raises
:class:`ConvergenceError` rather than return an unconverged iterate; the
one exception is the polymer row's ``lambda_0``, which is the leading Ritz
value that :func:`block_jordan_cell` already found for the zero-string
block, certified by its caller
(:func:`loopcells.observables.b_polymer`).

The dense routines accept scipy sparse operators too; they densify them
only up to :data:`DENSE_LIMIT` and refuse larger ones before allocating.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

DENSE_LIMIT = 4096

#: Krylov steps per GMRES cycle of :func:`block_jordan_cell` (the dilute
#: partners converge in one cycle, in 17 steps at width 14 and 18 at 16).
GMRES_STEPS = 100


def _dense(A) -> np.ndarray:
    """``A`` as a dense array; sparse input above :data:`DENSE_LIMIT` is refused."""
    if not sp.issparse(A):
        return np.asarray(A)
    if max(A.shape) > DENSE_LIMIT:
        raise ValueError(
            f"refusing to densify a {A.shape[0]}x{A.shape[1]} sparse matrix: "
            f"dense paths are limited to dimension {DENSE_LIMIT}"
        )
    return A.toarray()


@dataclass(frozen=True)
class Cluster:
    """A group of numerically coincident eigenvalues."""

    value: complex
    size: int
    members: tuple[complex, ...]


def _cluster_reach(eigs: np.ndarray, rel_tol: float) -> float:
    """The spacing within which :func:`cluster_eigenvalues` joins two of ``eigs``.

    It is ``rel_tol`` times the largest eigenvalue magnitude, floored at
    ``1e-300`` so that a zero spectrum still has a scale.
    """
    return rel_tol * max(float(np.max(np.abs(eigs))), 1e-300)


def cluster_eigenvalues(eigs: np.ndarray, rel_tol: float = 1e-5) -> list[Cluster]:
    """Group eigenvalues whose spacing is below ``rel_tol`` times the spread.

    Sorting is by real part, then imaginary part; the scale is the largest
    eigenvalue magnitude (:func:`_cluster_reach`).  No eigenvalues make no
    clusters.
    """
    order = np.lexsort((np.imag(eigs), np.real(eigs)))
    vals = np.asarray(eigs)[order]
    if not vals.size:
        return []
    # a cluster starts at each value whose step from the one before is not within reach
    starts = np.flatnonzero(~(np.abs(np.diff(vals)) <= _cluster_reach(vals, rel_tol))) + 1
    return [Cluster(complex(np.mean(c)), len(c), tuple(c)) for c in np.split(vals, starts)]


def full_spectrum(A: np.ndarray, rel_tol: float = 1e-5) -> list[Cluster]:
    """All eigenvalue clusters of an operator, ascending by real part."""
    A = _dense(A)
    if A.shape[0] > DENSE_LIMIT:
        raise ValueError(f"dense spectra are limited to dimension {DENSE_LIMIT}")
    return cluster_eigenvalues(sla.eigvals(A), rel_tol)


def ground_state(
    A: np.ndarray, which: str = "min", gram: np.ndarray | None = None
) -> tuple[complex, np.ndarray]:
    """Extremal eigenpair of an operator, decomposed densely.

    ``which`` selects the smallest or largest real part.  With ``gram`` the
    eigenvector is normalized to bilinear square one under it (principal
    branch of the square root, then the deterministic sign of
    :func:`sign_fix`).
    """
    A = _dense(A)
    eigvals, eigvecs = sla.eig(A)
    k = int(np.argmin(np.real(eigvals)) if which == "min" else np.argmax(np.real(eigvals)))
    lam, v = eigvals[k], eigvecs[:, k]
    if gram is not None:
        v = sign_fix(normalize_bilinear(v, gram))
    if np.max(np.abs(v.imag)) < 1e-12 * np.max(np.abs(v.real)):
        v = v.real.astype(A.dtype) if np.iscomplexobj(A) else v.real
    return lam, v


def normalize_bilinear(v: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Scale ``v`` so that ``v^T G v = 1`` using the principal square root."""
    sq = complex(v @ (gram @ v))
    if sq == 0:
        raise ValueError("state has vanishing bilinear square; cannot normalize")
    return v / np.sqrt(sq)


def sign_fix(v: np.ndarray) -> np.ndarray:
    """Resolve the residual sign freedom left by bilinear normalization.

    ``v^T G v = 1`` determines ``v`` only up to an overall minus sign; this
    picks the representative whose largest-magnitude component has positive
    real part (positive imaginary part on the boundary).
    """
    return -v if _flips_sign(v) else v


def _flips_sign(v: np.ndarray) -> bool:
    """Whether :func:`sign_fix` negates ``v``."""
    z = complex(v[int(np.argmax(np.abs(v)))])
    return z.real < 0 or (z.real == 0 and z.imag < 0)


@dataclass(frozen=True)
class JordanCell:
    """A rank-two cell: ``(A - value) v = 0`` and ``(A - value) w = v``.

    ``residual_v`` is the kernel residual relative to the operator's norm
    and ``residual_w`` the partner residual relative to ``||v||``; no
    solver factors the singular shift ``A - value``.
    """

    value: complex
    vector: np.ndarray
    partner: np.ndarray
    residual_v: float
    residual_w: float


class DiagonalizableLevelError(ValueError):
    """Raised when the requested cluster carries no Jordan cell."""


class ClusterSizeError(ValueError):
    """Raised when the requested cluster is not a size-two degeneracy."""


class ConvergenceError(ArithmeticError):
    """Raised when an iterative solve reaches its iteration limit unconverged."""


def _factor(M):
    """Sparse LU of the CSC matrix ``M``, the one factorization every shift here uses.

    SuperLU orders the columns by minimum degree on the pattern of ``M^T +
    M`` and, in symmetric mode, pivots on the diagonal unless an entry below
    it is more than ten times larger (threshold 0.1): partial pivoting with
    bounded growth, not the no-pivoting factorization that loses accuracy
    on the non-symmetric open chain.  The shifts of the open chain and the
    spin sector have a symmetric pattern (the sector's values are symmetric
    too), so that ordering fills less than the default COLAMD one: at L =
    14, y = 2 the open-chain shift holds 1.51 M L+U entries against 2.82 M,
    and the L = 16 spin sector 3.14 M against 5.15 M.  Full partial pivoting
    on the same ordering would swap rows off the diagonal and lose the gain.
    """
    return spla.splu(
        M, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.1, options={"SymmetricMode": True}
    )


def _bordered_partner(shifted, v, ell):
    """Solution ``w`` of ``shifted w = v`` with ``v^H w = 0``.

    The kernel vector ``v`` must lie in the range of the singular
    ``shifted``, as it does at a Jordan cell; the bordered system
    ``[[shifted, ell], [v^H, 0]]`` is regular as long as the border column
    has a component off that range, along the left kernel (any vector
    inside the range, such as ``v`` itself, would make it singular), and
    its border row pins the minimal-norm gauge.  Nothing here checks that
    ``v`` lies in the range: on a simple eigenvalue it does not, and only
    the partner residual of the cell (:func:`_block_cell`) tells.  It needs
    its own factorization (:func:`_factor`, real when all three inputs
    are), of the CSC matrix :func:`_bordered` builds.  Its dense border row
    and column fill whatever ordering is used, and this is the larger of
    the two factorizations of a b pipeline's width: at the L = 16 spin
    sector it takes 1.3 s against 0.64 s for ARPACK's shift (one BLAS
    thread).
    """
    return _factor(_bordered(shifted, v, ell)).solve(np.append(v, 0.0))[:-1]


def _bordered(shifted, v, ell):
    """The CSC matrix ``[[shifted, ell], [v^H, 0]]``, entry for entry as ``sp.bmat`` gives it.

    ``shifted`` is CSC with sorted indices.  The border row's nonzeros go
    last in their columns (its row index is the largest), and the nonzeros
    of ``ell`` make the last column; zeros of the borders are not stored.
    """
    n = shifted.shape[0]
    row = v.conj()
    data = shifted.data.astype(np.result_type(shifted.dtype, row, ell), copy=False)
    in_row = row != 0
    at = shifted.indptr[1:][in_row]
    column = np.flatnonzero(ell)
    indptr = shifted.indptr + np.concatenate([[0], np.cumsum(in_row)])
    return sp.csc_matrix(
        (
            np.concatenate([np.insert(data, at, row[in_row]), ell[column]]),
            np.concatenate([np.insert(shifted.indices, at, n), column]),
            np.append(indptr, indptr[-1] + len(column)),
        ),
        shape=(n + 1, n + 1),
    )


def _jordan_cell(shift, norm: float, value, v, w) -> JordanCell:
    """A :class:`JordanCell` with the minimal-norm gauge and its residuals.

    ``shift(x)`` applies the full operator minus ``value`` and ``norm`` is
    the Frobenius norm of the operator, which scales the kernel residual.
    """
    w = w - (np.vdot(v, w) / np.vdot(v, v)) * v
    res_v = float(np.linalg.norm(shift(v)) / max(norm, 1e-300))
    res_w = float(np.linalg.norm(shift(w) - v) / max(np.linalg.norm(v), 1e-300))
    return JordanCell(value, v, w, res_v, res_w)


def _shift(A, level: complex):
    """``(A, A - level)``, both CSC in the arithmetic every solve at ``level`` uses.

    ``A`` is dense or sparse.  The arithmetic is float64 when ``A`` is real
    and ``level`` has an imaginary part of exactly zero, complex otherwise.
    Every level of a real chain qualifies: LAPACK and ARPACK return its
    eigenvalues real or in exact conjugate pairs, so the mean of a cluster
    (:func:`cluster_eigenvalues`) is real.
    """
    real = not np.iscomplexobj(A) and np.imag(level) == 0
    dtype, shift = (np.float64, np.real(level)) if real else (np.complex128, level)
    A = sp.csc_matrix(A, dtype=dtype)
    return A, (A - shift * sp.identity(A.shape[0], dtype=dtype, format="csc")).tocsc()


def _near_kernel(shifted, X, level: complex):
    """The kernel decision on the orthonormal block ``X``: ``(dim, v)``.

    The singular values of ``shifted @ X`` below ``1e-8`` times the
    Frobenius norm of the shift count the kernel directions: one means a
    genuine cell, two a diagonalizable degeneracy; none raises
    :class:`ClusterSizeError`.  A simple eigenvalue also has one kernel
    direction, so the decision alone does not certify a cell; only the
    partner residual does.  ``v`` is the direction of ``X`` that the shift
    sends nearest zero.
    """
    _, s, vh = np.linalg.svd(shifted @ X, full_matrices=False)
    null_dim = int(np.sum(s <= 1e-8 * spla.norm(shifted)))
    if null_dim == 0:
        raise ClusterSizeError(f"level {level} has no kernel at cutoff 1e-8")
    return null_dim, X @ vh[-1].conj()


def _block_cell(A, shifted, level: complex, X, gram) -> JordanCell:
    """The certified Jordan cell whose kernel direction lies in the orthonormal block ``X``.

    ``A`` and ``shifted`` come from :func:`_shift`.  The kernel decision of
    :func:`_near_kernel` on ``X`` refuses a diagonalizable level
    (:class:`DiagonalizableLevelError`) or a level that is no eigenvalue
    (:class:`ClusterSizeError`).  ``gram`` is the invariant form ``G`` of
    ``A`` (``G A = A^T G``, dense or sparse), and the border column of
    :func:`_bordered_partner` is ``ell = conj(G v)``, a left kernel vector:
    ``ell^H (A - level) = ((A - level) v)^T G = 0``.  It is certified: a
    ``G v`` that vanishes (``||G v|| <= 1e-12 ||v||``) or a relative left
    residual ``||ell^H shifted|| / (||shifted||_F ||ell||)`` above ``1e-8``
    raises ``ArithmeticError``.

    The partner solves the bordered system, and a kernel or partner residual
    above ``1e-8`` raises ``ArithmeticError``; that is how a simple
    eigenvalue, whose kernel is one-dimensional too, is refused.
    """
    null_dim, v = _near_kernel(shifted, X, level)
    if null_dim >= 2:
        raise DiagonalizableLevelError(
            f"level {level} is diagonalizable (kernel dimension {null_dim}); no coupling exists"
        )
    form_v = gram @ v
    size = float(np.linalg.norm(form_v))
    if size <= 1e-12 * np.linalg.norm(v):
        raise ArithmeticError(f"the form annihilates the kernel vector at {level}")
    left = float(np.linalg.norm(shifted.T @ form_v) / (spla.norm(shifted) * size))
    if left > 1e-8:
        raise ArithmeticError(
            f"conj(G v) is no left kernel vector at {level}: left residual {left:.2e}"
        )
    w = _bordered_partner(shifted, v, form_v.conj())
    cell = _jordan_cell(shifted.dot, spla.norm(A), level, v, w)
    if max(cell.residual_v, cell.residual_w) > 1e-8:
        raise ArithmeticError(
            f"Jordan cell at {level} fails its cell relations: residuals "
            f"{cell.residual_v:.2e}, {cell.residual_w:.2e}"
        )
    return cell


def _cluster_span(shifted, vectors) -> np.ndarray:
    """Orthonormal basis of the span of a cluster's eigenvectors ``vectors``.

    ``vectors`` come from any eigensolver.  In real arithmetic (``shifted``
    real, :func:`_shift`) the span is the real one, of their real and
    imaginary parts.  A rank-revealing SVD keeps the directions whose
    singular value is above ``1e-12`` of the largest: the two eigenvectors
    of a split Jordan pair differ by about ``1e-8`` (ARPACK) or agree to
    roundoff, about ``1e-15`` (LAPACK), and a diagonalizable pair differs
    by ``O(1e-2)``.
    """
    if not np.iscomplexobj(shifted):
        vectors = np.hstack([vectors.real, vectors.imag])
    u, s, _ = np.linalg.svd(vectors, full_matrices=False)
    return u[:, s > 1e-12 * s[0]]


def extract_jordan_cell(A, level: complex, vectors, gram) -> JordanCell:
    """The certified cell at ``level`` from its cluster's eigenvectors; no LU of ``A - level``.

    ``A`` is dense or sparse; ``vectors`` are the eigenvectors of the
    cluster at ``level`` from any eigensolver, and ``gram`` is the invariant
    form of ``A``.  The span of the vectors (:func:`_cluster_span`) is the
    block of :func:`_block_cell`, which refuses a diagonalizable level
    (:class:`DiagonalizableLevelError`), a level that is no eigenvalue
    (:class:`ClusterSizeError`) and, by the partner residual, a simple one
    (``ArithmeticError``), and borders the partner system with ``conj(G
    v)``.  Nothing is factored but the bordered system, in float64 when
    ``A`` is real and ``level`` has an imaginary part of exactly zero
    (:func:`_shift`); the cell's ``value`` is ``level`` as passed either way.
    """
    A, shifted = _shift(A, level)
    return _block_cell(A, shifted, level, _cluster_span(shifted, vectors), gram)


def _compression(A, Q: np.ndarray) -> np.ndarray:
    """``Q^H A Q`` for an orthonormal ``Q`` certified to span an invariant subspace of ``A``.

    The invariance defect ``||AQ - Q(Q^H A Q)|| / ||A||_F`` above ``1e-8``
    raises ``ArithmeticError``.
    """
    AQ = A @ Q
    M = Q.conj().T @ AQ
    defect = float(np.linalg.norm(AQ - Q @ M) / max(spla.norm(A), 1e-300))
    if defect > 1e-8:
        raise ArithmeticError(f"the block is not an invariant subspace: defect {defect:.2e}")
    return M


def cell_structure(A, level: complex, vectors, gram) -> tuple[int, float]:
    """Kernel dimension of ``A - level`` and the nilpotent norm of ``A`` on its cluster.

    For a cluster of two whose eigenvectors ``vectors`` an eigensolver
    already gave; it forms no dense spectrum and works on sparse ``A``.
    The kernel dimension is the decision of :func:`_near_kernel` on their
    span ``Q`` (:func:`_cluster_span`).  The nilpotent norm is ``|t_12|`` of
    the complex Schur form of ``A`` compressed onto an orthonormal basis of
    the cluster's invariant subspace: ``Q`` itself when the kernel is
    two-dimensional, so nothing is factored and ``gram`` is not read, and
    the orthonormalized cell ``[v, w]`` that :func:`_block_cell` builds on
    ``Q``, bordered by the invariant form ``gram``, when it is
    one-dimensional.  ``|t_12|`` is the same for every orthonormal basis of
    the subspace, since the Frobenius norm and the eigenvalues of the 2x2
    compression are.  The cell and the basis are certified
    (:func:`_compression`); a failed check raises ``ArithmeticError``, and a
    level that is no eigenvalue raises :class:`ClusterSizeError`.
    """
    A, shifted = _shift(A, level)
    Q = _cluster_span(shifted, vectors)
    null_dim, _ = _near_kernel(shifted, Q, level)
    if null_dim == 1:
        cell = _block_cell(A, shifted, level, Q, gram)
        Q, _ = np.linalg.qr(np.column_stack([cell.vector, cell.partner]))
    t, _ = sla.schur(_compression(A, Q), output="complex")
    return null_dim, float(abs(t[0, 1]))


def level_cluster(clusters: list[Cluster], index: int) -> Cluster:
    """The ``index``-th distinct level (0 = ground) with bounds checking."""
    if index >= len(clusters):
        raise ValueError(f"only {len(clusters)} distinct levels, wanted index {index}")
    return clusters[index]


# ---------------------------------------------------------------------------
# Structured paths


def perron_pair(M, max_iter: int = 100000):
    """Leading eigenvalue and positive eigenvector of a nonnegative operator.

    ``M`` is a dense or sparse matrix, or any operator with ``shape`` and
    ``@`` such as a transfer row kept per tile
    (:class:`loopcells.models.TransferOperator`).  Deterministic power
    iteration from the all-ones vector stops once the eigenvalue moves by at
    most ``1e-14`` relative and the normalized vector by at most ``1e-13``; an
    unconverged run raises :class:`ConvergenceError` after ``max_iter``
    steps.  Operators of dimension two or less are decomposed densely.
    """
    dim = M.shape[0]
    if dim <= 2:
        vals, vecs = np.linalg.eig(M @ np.eye(dim))
        k = int(np.argmax(vals.real))
        v = vecs[:, k].real
        v = v * np.sign(v[np.argmax(np.abs(v))])
        return float(vals[k].real), v / np.linalg.norm(v)
    v = np.ones(dim) / np.sqrt(dim)
    lam = 0.0
    for _ in range(max_iter):
        nv = M @ v
        nlam = float(np.linalg.norm(nv))
        nv = nv / nlam
        if abs(nlam - lam) <= 1e-14 * nlam and float(np.linalg.norm(nv - v)) <= 1e-13:
            return nlam, nv
        v, lam = nv, nlam
    raise ConvergenceError(f"power iteration did not converge in {max_iter} steps")


def _ritz(op):
    """The three largest-modulus Ritz pairs ``(values, vectors)`` of ``op``.

    ``op`` is anything with ``shape`` and ``@``.  ARPACK runs from the
    all-ones start; an operator of dimension four or less is decomposed
    densely instead.
    """
    n = op.shape[0]
    if n > 4:
        linear = spla.LinearOperator(op.shape, matvec=lambda x: op @ x, dtype=float)
        return spla.eigs(linear, k=3, which="LM", v0=np.ones(n))
    return np.linalg.eig(op @ np.eye(n))


def _ritz_near(vals, vecs, target: complex) -> np.ndarray:
    """The unit Ritz vector whose value is nearest ``target``, made real.

    It is scaled so that its largest component is positive real, then its
    real part is kept (the levels it is asked for are real).
    """
    j = int(np.argmin(np.abs(vals - target)))
    x = vecs[:, j] / vecs[np.argmax(np.abs(vecs[:, j])), j]
    return x.real / np.linalg.norm(x.real)


def block_jordan_cell(T00, T02, T22) -> tuple[JordanCell, tuple[complex, np.ndarray]]:
    """Jordan cell of ``[[T00, T02], [0, T22]]`` at the leading level of ``T22``.

    The blocks are dense or sparse matrices or any operators with ``shape``
    and ``@`` (such as :class:`loopcells.models.TransferOperator`); nothing
    is factored or formed.  The leading two-string eigenpair ``(lambda,
    u2)`` comes from :func:`perron_pair`; the shared zero-string eigenvector
    ``v0`` is the Ritz vector nearest ``lambda`` from ARPACK on ``T00``
    (:func:`_ritz`, :func:`_ritz_near`), so that level must be among the
    three eigenvalues of ``T00`` largest in modulus (in the dilute rows it
    is the second, below the Perron value).  It must leave a residual below
    ``1e-9`` times ``max |mu - lambda|`` over the Ritz values ``mu`` (a
    lower bound on the norm of the shift), otherwise the level is not
    shared; a feed ``T02 u2`` of zero means the sectors decouple.  GMRES
    solves ``[[T00 - lambda, v0], [v0^T, 0]] [y; t] = [T02 u2; 0]``, regular
    because ``lambda`` is a simple eigenvalue of ``T00``, however weakly the
    sectors couple; ``t`` is the feed's component off the range of the
    shift, and the partner is ``[-y, u2] / t``.  A ``t`` of zero raises
    ``ArithmeticError``.  GMRES runs to a relative residual of ``1e-13`` in
    at most two cycles of :data:`GMRES_STEPS` Krylov steps (the second
    refines from the true residual) and raises :class:`ConvergenceError`
    when it stops unconverged; a partner residual above ``1e-8`` raises
    ``ArithmeticError``, which refuses a ``t`` at roundoff too.  The cell is
    in stacked coordinates, with the minimal-norm gauge applied to the
    partner.

    Returns ``(cell, (mu, u))``: the cell, and the Ritz value ``mu`` of
    ``T00`` largest in modulus with its real unit Ritz vector ``u`` (the
    Perron pair of a nonnegative ``T00``), uncertified, so that a caller
    that needs it runs no eigensolve of its own.
    """
    lam1, u2 = perron_pair(T22)
    n0, n2 = T00.shape[0], T22.shape[0]
    right, right_vecs = _ritz(T00)
    v0 = _ritz_near(right, right_vecs, lam1)
    if np.linalg.norm(T00 @ v0 - lam1 * v0) > 1e-9 * float(np.max(np.abs(right - lam1))):
        raise DiagonalizableLevelError(
            f"leading two-string level {lam1} is not shared by the zero-string sector "
            "(or is not among its three largest eigenvalues in modulus)"
        )
    feed = T02 @ u2
    if np.linalg.norm(feed) < 1e-300:
        raise DiagonalizableLevelError("the sectors decouple at this level; no cell")

    def bordered(x):
        x0 = x[:n0]
        return np.concatenate([T00 @ x0 - lam1 * x0 + x[n0] * v0, [v0 @ x0]])

    solution, info = spla.gmres(
        spla.LinearOperator((n0 + 1, n0 + 1), matvec=bordered, dtype=float),
        np.append(feed, 0.0), rtol=1e-13, atol=0.0, restart=GMRES_STEPS, maxiter=2,
    )
    if info != 0:
        raise ConvergenceError(
            f"GMRES did not converge in two cycles of {GMRES_STEPS} steps at level {lam1}"
        )
    y, t = solution[:n0], solution[n0]
    if t == 0:
        raise ArithmeticError(f"the feed has no component off the range at {lam1}; no cell")
    v = np.concatenate([v0, np.zeros(n2)])
    w = np.concatenate([-y, u2]) / t

    def shift(x):
        x0, x2 = x[:n0], x[n0:]
        return np.concatenate([T00 @ x0 - lam1 * x0 + T02 @ x2, T22 @ x2 - lam1 * x2])

    # the largest eigenvalue modulus bounds the operator norm from below
    norm = max(float(np.max(np.abs(right))), lam1)
    cell = _jordan_cell(shift, norm, lam1, v, w)
    if cell.residual_w > 1e-8:
        raise ArithmeticError(
            f"block Jordan cell at {lam1} fails its partner relation: residual {cell.residual_w:.2e}"
        )
    lead = right[np.argmax(np.abs(right))]
    return cell, (lead, _ritz_near(right, right_vecs, lead))


# ---------------------------------------------------------------------------
# Scaling estimates


def hamiltonian_delta(L: int, e_level: float, e_ground: float, velocity: float) -> float:
    """Finite-size scaling dimension from an energy gap: ``L (E - E0) / (pi v)``."""
    return L * (e_level - e_ground) / (np.pi * velocity)


def transfer_delta(L: int, lam_level: float, lam_ground: float) -> float:
    """Finite-size scaling dimension from a transfer gap on a strip."""
    return float(-np.sqrt(3.0) / 2 * (L / np.pi) * np.log(lam_level / lam_ground))
