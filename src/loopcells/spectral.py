"""Spectra, ground states and rank-two Jordan cells of non-normal operators.

A defective eigenvalue of a finite-precision matrix splits into a tight
cluster whose diameter scales like the square root of machine precision, so
:func:`full_spectrum` groups eigenvalues by a relative gap (default ``1e-5``)
and reports cluster means.

One LU-based solver extracts every Jordan cell.  Its private core takes one
sparse LU of the singular shift ``A - lambda`` and runs inverse iteration on
it for the right kernel directions and the left kernel vector; when SuperLU
finds the shift exactly singular, it refactors once at a tiny identity shift
and records that shift as :attr:`JordanCell.regularization`.  The partner
``w`` of ``(A - lambda) w = v`` solves a bordered system with its own LU.
:func:`extract_jordan_cell` (dense or sparse ``A``) decides the structure
from the two singular values of ``A - lambda`` on a two-column inverse
iteration: one vanishing means a genuine cell, two mean a diagonalizable
degeneracy.  :func:`block_jordan_cell` runs the same core on the zero-string
block of a block upper-triangular transfer row (string sectors that only
feed downward).  Both return a :class:`JordanCell` with its residuals.

The ``w`` returned by the solvers is defined up to adding multiples of
``v``; the minimal-Euclidean-norm gauge fixes that freedom, and downstream
couplings are insensitive to it (their residual sensitivity is reported as
the overlap of the probe state with ``v``).

The leading (Perron) eigenpairs that both the transfer rows and the entropy
fits need come from the single power iteration :func:`perron_pair`, which
raises :class:`ConvergenceError` rather than return an unconverged iterate.

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


def cluster_eigenvalues(eigs: np.ndarray, rel_tol: float = 1e-5) -> list[Cluster]:
    """Group eigenvalues whose spacing is below ``rel_tol`` times the spread.

    Sorting is by real part, then imaginary part; the scale is the largest
    eigenvalue magnitude (or one, for a zero matrix).
    """
    order = np.lexsort((np.imag(eigs), np.real(eigs)))
    vals = np.asarray(eigs)[order]
    scale = max(float(np.max(np.abs(vals))) if vals.size else 0.0, 1e-300)
    clusters: list[list[complex]] = [[vals[0]]]
    for lam in vals[1:]:
        if abs(lam - clusters[-1][-1]) <= rel_tol * scale:
            clusters[-1].append(lam)
        else:
            clusters.append([lam])
    return [Cluster(complex(np.mean(c)), len(c), tuple(c)) for c in clusters]


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
    k = int(np.argmax(np.abs(v)))
    z = complex(v[k])
    if z.real < 0 or (z.real == 0 and z.imag < 0):
        return -v
    return v


def geometric_multiplicity(A: np.ndarray, level: complex, rank_cut: float = 1e-8) -> int:
    """Kernel dimension of ``A - level`` from the singular-value profile."""
    A = _dense(A)
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
    A = _dense(A).astype(complex)
    t, _, sdim = sla.schur(A, output="complex", sort=lambda z: abs(z - level) <= radius)
    if sdim == 0:
        raise ValueError(f"no eigenvalue within {radius} of {level}")
    block = t[:sdim, :sdim]
    nil = block - np.diag(np.diag(block))
    return float(np.max(np.abs(nil))) if sdim > 1 else 0.0


@dataclass(frozen=True)
class JordanCell:
    """A rank-two cell: ``(A - value) v = 0`` and ``(A - value) w = v``.

    ``regularization`` is the identity shift the LU of ``A - value`` needed
    because the shift was exactly singular (0.0 when none was applied).
    """

    value: complex
    vector: np.ndarray
    partner: np.ndarray
    cluster_size: int
    residual_v: float
    residual_w: float
    regularization: float


class DiagonalizableLevelError(ValueError):
    """Raised when the requested cluster carries no Jordan cell."""


class ClusterSizeError(ValueError):
    """Raised when the requested cluster is not a size-two degeneracy."""


class ConvergenceError(ArithmeticError):
    """Raised when an iterative solve reaches its iteration limit unconverged."""


def _kernel_pair(shifted, columns: int = 1):
    """Right kernel block and left kernel vector of a nearly singular sparse shift.

    One sparse LU of ``shifted`` serves four steps of inverse iteration from
    a fixed pseudo-random start: ``columns`` orthonormal right directions
    (kept orthonormal by QR) and one left direction from conjugate-transposed
    solves, so that ``ell^H shifted`` vanishes.  When SuperLU finds the shift
    exactly singular it is refactored once at ``shifted + delta I`` with
    ``delta = 1e-13 ||shifted||_F``; the identity shift moves no eigenvector.
    Returns ``(X, ell, delta)``, with ``delta = 0.0`` when no shift was needed.
    """
    n = shifted.shape[0]
    try:
        lu, delta = spla.splu(shifted), 0.0
    except RuntimeError:
        delta = 1e-13 * spla.norm(shifted)
        lu = spla.splu((shifted + delta * sp.identity(n, format="csc")).tocsc())
    start = np.random.default_rng(0).standard_normal((n, columns + 1))
    X, ell = start[:, :columns], start[:, columns:]
    for _ in range(4):
        X, _ = np.linalg.qr(lu.solve(X))
        ell, _ = np.linalg.qr(lu.solve(ell, trans="H"))
    return X, ell[:, 0], delta


def _bordered_partner(shifted, v, ell, rhs):
    """Solution ``w`` of ``shifted w = rhs`` with ``v^H w = 0``.

    ``rhs`` must lie in the range of the singular ``shifted``; the bordered
    system ``[[shifted, ell], [v^H, 0]]`` is regular because the border
    column is the left kernel direction (any vector inside the range, such
    as ``v`` itself, would make it singular), and its border row pins the
    minimal-norm gauge.  It needs its own factorization.
    """
    bordered = sp.bmat([[shifted, ell[:, None]], [v.conj()[None, :], None]], format="csc")
    return spla.splu(bordered).solve(np.concatenate([rhs, [0.0]]))[:-1]


def _jordan_cell(shift, norm: float, value, v, w, regularization: float) -> JordanCell:
    """A :class:`JordanCell` with the minimal-norm gauge and its residuals.

    ``shift(x)`` applies the full operator minus ``value`` and ``norm`` is
    the Frobenius norm of the operator, which scales the kernel residual.
    """
    w = w - (np.vdot(v, w) / np.vdot(v, v)) * v
    res_v = float(np.linalg.norm(shift(v)) / max(norm, 1e-300))
    res_w = float(np.linalg.norm(shift(w) - v) / max(np.linalg.norm(v), 1e-300))
    return JordanCell(value, v, w, 2, res_v, res_w, regularization)


def extract_jordan_cell(
    A,
    level: complex,
    cluster_size: int = 2,
    rank_cut: float = 1e-8,
) -> JordanCell:
    """Eigenvector and minimal-norm Jordan partner at a degenerate level.

    ``A`` is dense or sparse; ``level`` should be the cluster mean (from
    :func:`full_spectrum` or any eigensolver).  Two-column inverse iteration
    on one sparse LU of ``A - level`` spans the near-kernel, and the two
    singular values of ``A - level`` on that span decide the structure: a
    genuine cell has exactly one below ``rank_cut`` times the Frobenius norm
    of the shift; two of them mean the level is diagonalizable and no
    coupling exists.  The partner solves the bordered system of
    :func:`_bordered_partner`.
    """
    if cluster_size != 2:
        raise ClusterSizeError(f"rank-two extraction needs a size-2 cluster, got {cluster_size}")
    A = sp.csc_matrix(A, dtype=complex)
    shifted = (A - level * sp.identity(A.shape[0], dtype=complex, format="csc")).tocsc()
    X, ell, regularization = _kernel_pair(shifted, columns=2)
    _, s, vh = np.linalg.svd(shifted @ X, full_matrices=False)
    null_dim = int(np.sum(s <= rank_cut * spla.norm(shifted)))
    if null_dim >= 2:
        raise DiagonalizableLevelError(
            f"level {level} is diagonalizable (kernel dimension {null_dim}); no coupling exists"
        )
    if null_dim == 0:
        raise ClusterSizeError(f"level {level} has no kernel at cutoff {rank_cut}")
    v = X @ vh[-1].conj()
    w = _bordered_partner(shifted, v, ell, v)
    return _jordan_cell(shifted.dot, spla.norm(A), level, v, w, regularization)


def level_cluster(clusters: list[Cluster], index: int) -> Cluster:
    """The ``index``-th distinct level (0 = ground) with bounds checking."""
    if index >= len(clusters):
        raise ValueError(f"only {len(clusters)} distinct levels, wanted index {index}")
    return clusters[index]


# ---------------------------------------------------------------------------
# Structured paths


def perron_pair(M, tol: float = 1e-14, max_iter: int = 100000):
    """Leading eigenvalue and positive eigenvector of a nonnegative operator.

    ``M`` is a dense or sparse matrix, or any operator with ``shape`` and
    ``@`` such as a factored transfer row.  Deterministic power iteration
    from the all-ones vector stops once the eigenvalue moves by at most
    ``tol`` relative and the normalized vector by at most ``1e-13``; an
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
        if abs(nlam - lam) <= tol * nlam and float(np.linalg.norm(nv - v)) <= 1e-13:
            return nlam, nv
        v, lam = nv, nlam
    raise ConvergenceError(f"power iteration did not converge in {max_iter} steps")


def block_jordan_cell(T00, T02, T22, rank_cut: float = 1e-9) -> JordanCell:
    """Jordan cell of ``[[T00, T02], [0, T22]]`` at the leading level of ``T22``.

    The eigenvector at that level lives purely in the first (zero-string)
    block.  The leading two-string eigenvalue comes from power iteration;
    the shared zero-string eigenvector and its left companion come from
    :func:`_kernel_pair` on the singular shift of ``T00``, and both must
    leave a residual below ``rank_cut`` times the norm of the shift,
    otherwise the level is not shared.  The partner's second-block component
    is fixed by the solvability condition against the left null vector, and
    its first-block component comes from :func:`_bordered_partner`.  The
    cell is in stacked coordinates, with the minimal-norm gauge applied to
    the partner.
    """
    T00 = sp.csc_matrix(T00)
    T02 = sp.csr_matrix(T02)
    T22 = sp.csr_matrix(T22)
    lam1, u2 = perron_pair(T22)
    n0, n2 = T00.shape[0], T22.shape[0]
    shifted = (T00 - lam1 * sp.identity(n0, format="csc")).tocsc()
    X, ell0, regularization = _kernel_pair(shifted)
    v0 = X[:, 0]
    cut = rank_cut * spla.norm(shifted)
    if np.linalg.norm(shifted @ v0) > cut or np.linalg.norm(shifted.T @ ell0) > cut:
        raise DiagonalizableLevelError(
            f"leading two-string level {lam1} is not shared by the zero-string sector"
        )
    denom = ell0 @ (T02 @ u2)
    if abs(denom) < 1e-300:
        raise DiagonalizableLevelError("the sectors decouple at this level; no cell")
    c = (ell0 @ v0) / denom
    w0 = _bordered_partner(shifted, v0, ell0, v0 - c * (T02 @ u2))
    v = np.concatenate([v0, np.zeros(n2)])
    w = np.concatenate([w0, c * u2])

    def shift(x):
        x0, x2 = x[:n0], x[n0:]
        return np.concatenate([shifted @ x0 + T02 @ x2, T22 @ x2 - lam1 * x2])

    norm = np.sqrt(sum(spla.norm(block) ** 2 for block in (T00, T02, T22)))
    return _jordan_cell(shift, norm, lam1, v, w, regularization)


# ---------------------------------------------------------------------------
# Scaling estimates


def hamiltonian_delta(L: int, e_level: float, e_ground: float, velocity: float) -> float:
    """Finite-size scaling dimension from an energy gap: ``L (E - E0) / (pi v)``."""
    return L * (e_level - e_ground) / (np.pi * velocity)


def transfer_delta(L: int, lam_level: float, lam_ground: float) -> float:
    """Finite-size scaling dimension from a transfer gap on a strip."""
    return float(-np.sqrt(3.0) / 2 * (L / np.pi) * np.log(lam_level / lam_ground))
