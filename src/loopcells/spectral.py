"""Spectra, ground states and rank-two Jordan cells of non-normal operators.

A defective eigenvalue of a finite-precision matrix splits into a tight
cluster whose diameter scales like the square root of machine precision, so
:func:`full_spectrum` groups eigenvalues by a relative gap (default ``1e-5``)
and reports cluster means.  :func:`extract_jordan_cell` then decides, via the
singular values of ``A - lambda``, whether a size-two cluster is a genuine
Jordan cell (one vanishing singular value) or a diagonalizable degeneracy
(two), and returns the eigenvector ``v`` together with the minimal-norm
solution ``w`` of ``(A - lambda) w = v``.

The ``w`` returned by the solvers is defined up to adding multiples of
``v``; the minimal-Euclidean-norm gauge fixes that freedom, and downstream
couplings are insensitive to it (their residual sensitivity is reported as
the overlap of the probe state with ``v``).

For block upper-triangular transfer rows (string sectors that only feed
downward) :func:`block_jordan_cell` exploits the structure directly with
inverse iteration on one sparse LU factorization of the zero-string block,
and :func:`sparse_jordan_cell` uses shift-inverted iterations for operators
too large to decompose densely.  The leading (Perron) eigenpairs that both
the transfer rows and the entropy fits need come from the single power
iteration :func:`perron_pair`, which raises :class:`ConvergenceError`
rather than return an unconverged iterate.

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
    A: np.ndarray,
    which: str = "min",
    gram: np.ndarray | None = None,
    normalize_component: int | None = None,
    side: str = "right",
) -> tuple[complex, np.ndarray]:
    """Extremal eigenpair of an operator, decomposed densely.

    ``which`` selects the smallest or largest real part; ``side="left"``
    returns a row eigenvector (computed from the transpose, no conjugation).
    The eigenvector is normalized to bilinear square one under ``gram``
    (principal branch of the square root, then the deterministic sign of
    :func:`sign_fix`) unless ``normalize_component`` asks instead for that
    coordinate to equal one.
    """
    A = _dense(A)
    if side == "left":
        A = A.T
    eigvals, eigvecs = sla.eig(A)
    k = int(np.argmin(np.real(eigvals)) if which == "min" else np.argmax(np.real(eigvals)))
    lam, v = eigvals[k], eigvecs[:, k]
    if normalize_component is not None:
        v = v / v[normalize_component]
    elif gram is not None:
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
    """A rank-two cell: ``(A - value) v = 0`` and ``(A - value) w = v``."""

    value: complex
    vector: np.ndarray
    partner: np.ndarray
    cluster_size: int
    residual_v: float
    residual_w: float


class DiagonalizableLevelError(ValueError):
    """Raised when the requested cluster carries no Jordan cell."""


class ClusterSizeError(ValueError):
    """Raised when the requested cluster is not a size-two degeneracy."""


class ConvergenceError(ArithmeticError):
    """Raised when an iterative solve reaches its iteration limit unconverged."""


def extract_jordan_cell(
    A: np.ndarray,
    level: complex,
    cluster_size: int = 2,
    rank_cut: float = 1e-8,
) -> JordanCell:
    """Eigenvector and minimal-norm Jordan partner at a degenerate level.

    ``level`` should be the cluster mean from :func:`full_spectrum`.  The
    singular spectrum of ``A - level`` decides the structure: a genuine cell
    has exactly one singular value below ``rank_cut`` times the matrix norm;
    two of them mean the level is diagonalizable and no coupling exists.
    """
    A = _dense(A)
    if cluster_size != 2:
        raise ClusterSizeError(f"rank-two extraction needs a size-2 cluster, got {cluster_size}")
    shifted = A - level * np.eye(A.shape[0], dtype=complex)
    u, s, vh = np.linalg.svd(shifted)
    scale = s[0] if s[0] > 0 else 1.0
    null_dim = int(np.sum(s <= rank_cut * scale))
    if null_dim >= 2:
        raise DiagonalizableLevelError(
            f"level {level} is diagonalizable (kernel dimension {null_dim}); no coupling exists"
        )
    if null_dim == 0:
        raise ClusterSizeError(f"level {level} has no kernel at cutoff {rank_cut}")
    v = vh[-1].conj()
    w, *_ = np.linalg.lstsq(shifted, v, rcond=rank_cut)
    # minimal-norm gauge: remove any eigenvector component
    w = w - (np.vdot(v, w) / np.vdot(v, v)) * v
    res_v = float(np.linalg.norm(shifted @ v) / max(np.linalg.norm(A), 1e-300))
    res_w = float(np.linalg.norm(shifted @ w - v) / max(np.linalg.norm(v), 1e-300))
    return JordanCell(level, v, w, 2, res_v, res_w)


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


def _eig_near(M, sigma: complex, k: int = 1, v0=None):
    """Eigenpairs of a sparse matrix near ``sigma`` by shift-inverted iteration."""
    dim = M.shape[0]
    if dim <= 400:
        dense = M.toarray() if sp.issparse(M) else np.asarray(M)
        vals, vecs = np.linalg.eig(dense)
        order = np.argsort(np.abs(vals - sigma))[:k]
        return vals[order], vecs[:, order]
    if v0 is None:
        v0 = np.ones(dim)
    vals, vecs = spla.eigs(M.tocsc().astype(complex), k=k, sigma=sigma, v0=v0)
    return vals, vecs


def block_jordan_cell(T00, T02, T22, rank_cut: float = 1e-9):
    """Jordan data of ``[[T00, T02], [0, T22]]`` at the leading level of ``T22``.

    The eigenvector at that level lives purely in the first (zero-string)
    block.  The leading two-string eigenvalue comes from power iteration;
    the shared zero-string eigenvector and its left companion come from
    inverse iteration on the LU factors of the singular shift (transposed
    solves for the left side), and both must leave a residual below
    ``rank_cut`` times the norm of the shift, otherwise the level is not
    shared.  The partner's second-block component is fixed by the
    solvability condition against the left null vector, and its first-block
    component solves a bordered system that pins the kernel component to
    zero.  Returns ``(lambda1, v, w)`` in stacked coordinates, with the
    minimal-norm gauge applied to ``w``.
    """
    T00 = sp.csc_matrix(T00)
    T02 = sp.csr_matrix(T02)
    T22 = sp.csr_matrix(T22)
    lam1, u2 = perron_pair(T22)
    n0 = T00.shape[0]
    shifted = (T00 - lam1 * sp.identity(n0, format="csc")).tocsc()
    try:
        lu = spla.splu(shifted)
    except RuntimeError:
        lu = spla.splu(shifted + 1e-10 * abs(lam1) * sp.identity(n0, format="csc"))
    v0 = np.ones(n0)
    for _ in range(4):
        v0 = lu.solve(v0)
        v0 = v0 / np.linalg.norm(v0)
    ell0 = np.ones(n0)
    for _ in range(4):
        ell0 = lu.solve(ell0, trans="T")
        ell0 = ell0 / np.linalg.norm(ell0)
    cut = rank_cut * spla.norm(shifted)
    if np.linalg.norm(shifted @ v0) > cut or np.linalg.norm(shifted.T @ ell0) > cut:
        raise DiagonalizableLevelError(
            f"leading two-string level {lam1} is not shared by the zero-string sector"
        )
    denom = ell0 @ (T02 @ u2)
    if abs(denom) < 1e-300:
        raise DiagonalizableLevelError("the sectors decouple at this level; no cell")
    c = (ell0 @ v0) / denom
    rhs = v0 - c * (T02 @ u2)
    bordered = sp.bmat(
        [[shifted, ell0[:, None]], [v0[None, :], None]], format="csc"
    )
    sol = spla.splu(bordered).solve(np.concatenate([rhs, [0.0]]))
    w0 = sol[:-1]
    v = np.concatenate([v0, np.zeros_like(u2)])
    w = np.concatenate([w0, c * u2])
    w = w - (np.vdot(v, w) / np.vdot(v, v)) * v
    return lam1, v, w


def sparse_jordan_cell(A: sp.spmatrix, level_guess: complex, rank_cut: float = 1e-8):
    """Eigenvector and minimal-norm partner of a large sparse operator.

    Finds the two eigenvalues nearest ``level_guess``, takes their mean, and
    refines the kernel vector and its left companion by inverse iteration on
    the LU factors of the shift.  The partner solves the bordered system
    ``[[A - mean, ell], [v^H, 0]]``: the border column must be the left
    kernel direction (any vector inside the range, such as ``v`` itself,
    would make the system singular), and the border row pins the
    minimal-norm gauge.
    """
    vals, vecs = _eig_near(A, level_guess, k=4)
    order = np.argsort(np.abs(vals - level_guess))
    pair = vals[order[:2]]
    mean = complex(np.mean(pair))
    dim = A.shape[0]
    shifted = (A - mean * sp.identity(dim, dtype=complex, format="csr")).tocsc()
    # inverse iteration at the cluster mean for the true kernel directions
    lu = spla.splu(shifted + 1e-13 * sp.identity(dim, dtype=complex, format="csc"))
    v = vecs[:, order[0]]
    for _ in range(3):
        v = lu.solve(v)
        v = v / np.linalg.norm(v)
    ell = np.ones(dim, dtype=complex)
    for _ in range(3):
        ell = lu.solve(ell, trans="H")
        ell = ell / np.linalg.norm(ell)
    del lu  # keep a single factorization alive: the bordered solve needs the headroom
    bordered = sp.bmat([[shifted, ell[:, None]], [v.conj()[None, :], None]], format="csc")
    blu = spla.splu(bordered)
    sol = blu.solve(np.concatenate([v, [0.0]]))
    w = sol[:-1]
    w = w - (np.vdot(v, w) / np.vdot(v, v)) * v
    return mean, v, w, tuple(pair)


# ---------------------------------------------------------------------------
# Scaling estimates


def hamiltonian_delta(L: int, e_level: float, e_ground: float, velocity: float) -> float:
    """Finite-size scaling dimension from an energy gap: ``L (E - E0) / (pi v)``."""
    return L * (e_level - e_ground) / (np.pi * velocity)


def transfer_delta(L: int, lam_level: float, lam_ground: float) -> float:
    """Finite-size scaling dimension from a transfer gap on a strip."""
    return float(-np.sqrt(3.0) / 2 * (L / np.pi) * np.log(lam_level / lam_ground))
