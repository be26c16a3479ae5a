"""Physics endpoints: trousers states, the coupling b(L), boundary entropies.

The indecomposability parameter ``b`` of a rank-two Jordan cell is measured
by pairing the cell with a *trousers state*: the tensor product of two
half-width ground states, the lattice version of the state obtained by
slitting the cylinder in two.  All pairings are bilinear, taken under the
form that makes the evolution operator self-adjoint, and every measurement
carries its gauge sensitivity ``|<Trousers|v>|`` (the one piece of Jordan
gauge freedom the normalization cannot remove).

Conventions, fixed once here and asserted in the tests:

* Hamiltonian cells are normalized so that ``(L/(pi v_F))(H - E0)`` acts as
  ``[[Delta_L, 1], [0, Delta_L]]`` on ``(v, w)``, i.e. ``w`` is scaled by
  ``pi v_F / L``.
* Transfer cells are normalized so that ``T`` acts as ``lambda_0 *
  exp[-(2/sqrt(3))(pi/L) [[Delta_L, 1], [0, Delta_L]]]``, i.e. ``w`` is
  scaled by ``-(2/sqrt(3)) (pi/L) lambda_1``.
* Ground states: spin chains use bilinear square one; dilute states use
  all-empty component one; trousers states use overlap one with the
  width-L ground state (dilute again all-empty component one).

The Affleck-Ludwig boundary entropies at the end of the module validate the
same scalar products on a unitary chain (Ising) and a non-unitary one (the
dense loop model) through one shared fitting path.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.optimize import OptimizeWarning, brentq, curve_fit

from . import fixtures, forms, models, spectral
from .diagrams import (
    LinkState,
    basis_index,
    concatenate,
    enumerate_dense,
    glue,
    reflect,
)

# ---------------------------------------------------------------------------
# Result records


@dataclass(frozen=True)
class TrousersState:
    """Two half-width ground states placed side by side."""

    model: str
    L: int
    side: str
    vector: np.ndarray
    normalization: str


@dataclass(frozen=True)
class BMeasurement:
    """One finite-size measurement of the coupling b.

    ``cell_residual`` is the largest partner residual
    :attr:`~loopcells.spectral.JordanCell.residual_w` of the Jordan cells
    the measurement used (for polymers, the ket cell and its bra image).
    """

    model: str
    L: int
    value: float
    gauge_sensitivity: float
    delta: float
    level: complex
    convention: str
    cell_residual: float
    imag_defect: float = 0.0


@dataclass(frozen=True)
class FitResult:
    """A 1/L fit: central value, coefficients, and cross-ansatz spread."""

    value: float
    ansatz: str
    coefficients: tuple[float, ...]
    residual: float
    uncertainty: float | None
    candidates: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class PercolationReport:
    """Structure of the would-be Jordan level of the geometric chain."""

    L: int
    level: complex
    cluster_size: int
    geometric_multiplicity: int
    nilpotent_norm: float
    diagonalizable: bool
    deformed_genuine: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class LoopEntropyReport:
    """Lattice boundary entropy of the dense loop model vs the closed form."""

    n: float
    n1: float
    fit: FitResult
    exact: float
    difference: float


# ---------------------------------------------------------------------------
# Shared pieces: trousers placement, chain spectra, the b pairing


def _place(half, join, index, left, right) -> np.ndarray:
    """Trousers coefficients ``left[a] * right[b]`` at ``index[join(half[a], half[b])]``.

    ``half`` lists the half-width states both factors are written on,
    ``join`` puts two of them side by side on the width-L strip (spin masks
    as ``(a << L/2) | b``, link states by :func:`concatenate`) and ``index``
    maps width-L states to their positions; every other coefficient is zero.
    """
    keys = [index[join(sa, sb)] for sa in half for sb in half]
    vec = np.zeros(len(index), dtype=np.result_type(left, right))
    vec[keys] = np.outer(left, right).ravel()
    return vec


def _low_spectrum(H, L: int):
    """Low eigenpairs ``(vals, vecs)`` of a width-L chain at loop weight one.

    ARPACK returns the 16 eigenvalues nearest a point below the ground
    energy (``(L-1)/2 - 2 sum e_i`` with each ``e_i`` spectrum in ``[0, 1]``
    at loop weight one); LAPACK returns all of them when the chain is too
    small for ARPACK to return 16.
    """
    k = 16
    if H.shape[0] > k + 1:
        return spla.eigs(
            sp.csc_matrix(H), k=k, sigma=-1.5 * (L - 1) - 1.0, v0=np.ones(H.shape[0])
        )
    return np.linalg.eig(H.toarray() if sp.issparse(H) else H)


def _ground(spectrum, gram):
    """Lowest pair of a :func:`_low_spectrum` result, bilinear square one under ``gram``."""
    vals, vecs = spectrum
    k0 = int(np.argmin(vals.real))
    return vals[k0], spectral.sign_fix(spectral.normalize_bilinear(vecs[:, k0], gram))


def _pair_b(v_r, w_r, v_l, w_l, bra, ket, gram):
    """The coupling ``4 <bra|G w_r> <w_l|G ket> / <v_l|G w_r>`` and its gauge sensitivity.

    ``(v_r, w_r)`` is the right cell and ``(v_l, w_l)`` the left one, with
    the partners already scaled to the model's convention; ``bra``/``ket``
    are the trousers states and ``gram`` the invariant form.  The gauge
    sensitivity is the larger normalized overlap of a trousers state with a
    cell eigenvector, which is what the partner's gauge freedom can move.
    """
    g_w = gram @ w_r
    g_ket = gram @ ket
    b = 4 * (bra @ g_w) * (w_l @ g_ket) / (v_l @ g_w)
    gauge = max(
        abs(bra @ (gram @ v_r) / np.linalg.norm(v_r)),
        abs(v_l @ g_ket / np.linalg.norm(v_l)),
    )
    return b, float(gauge)


def _chain_b(model: str, L: int, chain, cell_scale: complex, cluster_tol: float) -> BMeasurement:
    """The coupling b from the rank-two cell at the fourth distinct level of a chain.

    ``chain`` is ``(H, gram, product)`` from :func:`_xxz_chain` or
    :func:`_open_chain`.  One :func:`_low_spectrum` call locates the level
    and gives the ground state; the partner is rescaled into Hamiltonian
    convention units and paired with the trousers ``product`` at overlap
    one with the ground.  ``model`` only labels the result.
    """
    H, gram, product = chain
    v_f = fixtures.FERMI_VELOCITY
    spectrum = _low_spectrum(H, L)
    c3 = spectral.level_cluster(spectral.cluster_eigenvalues(spectrum[0], cluster_tol), 3)
    if c3.size != 2:
        raise spectral.ClusterSizeError(
            f"fourth level of the L={L} chain is not a double cluster: {c3}"
        )
    cell = spectral.extract_jordan_cell(H, c3.value)
    e0, v0 = _ground(spectrum, gram)
    v3 = cell_scale * cell.vector
    w_tilde = (np.pi * v_f / L) * (cell_scale * cell.partner)
    trousers = product / (product @ (gram @ v0))
    b, gauge = _pair_b(v3, w_tilde, v3, w_tilde, trousers, trousers, gram)
    delta = spectral.hamiltonian_delta(L, cell.value.real, complex(e0).real, v_f)
    return BMeasurement(
        model, L, float(b.real), gauge, float(delta), complex(cell.value),
        "hamiltonian", cell.residual_w, float(abs(b.imag)),
    )


# ---------------------------------------------------------------------------
# Spin chain: trousers and b


def _xxz_chain(L: int, q: complex):
    """``(H, identity form, unnormalized trousers)`` of the width-L spin chain."""
    H, masks = models.build_xxz(L, q)
    half_H, half_masks = models.build_xxz(L // 2, q)
    _, g = _ground(_low_spectrum(half_H, L // 2), np.eye(len(half_masks)))
    index = {m: k for k, m in enumerate(masks)}
    product = _place(half_masks, lambda a, b: (a << L // 2) | b, index, g, g)
    return H, sp.identity(len(masks), format="csr"), product


def trousers_xxz(L: int, q: complex | None = None) -> TrousersState:
    """Spin-chain trousers state, overlap one with the width-L ground state.

    Needs ``L`` divisible by four so each half chain has a zero-magnetization
    sector.  The pairing is bilinear, so one vector (labelled ``"right"``)
    serves both sides.
    """
    if L % 4:
        raise ValueError("spin trousers need L/2 even, i.e. L a multiple of 4")
    H, gram, product = _xxz_chain(L, fixtures.Q_VALUE if q is None else q)
    _, v0 = _ground(_low_spectrum(H, L), gram)
    vec = product / (product @ (gram @ v0))
    return TrousersState("xxz", L, "right", vec, "overlap with ground = 1")


def b_xxz(
    L: int,
    q: complex | None = None,
    cell_scale: complex = 1.0,
    cluster_tol: float = 1e-5,
) -> BMeasurement:
    """The coupling b of the spin chain from the twice-degenerate fourth level.

    Pipeline (:func:`_chain_b`): build the zero-magnetization Hamiltonian,
    extract the rank-two cell at the fourth distinct level, rescale its
    partner into Hamiltonian convention units, and pair with the trousers
    state.  ``cell_scale`` multiplies the whole cell and must not change the
    answer (tested).
    """
    if L % 4:
        raise ValueError("b for the spin chain needs L a multiple of 4")
    q = fixtures.Q_VALUE if q is None else q
    return _chain_b("xxz", L, _xxz_chain(L, q), cell_scale, cluster_tol)


# ---------------------------------------------------------------------------
# Dilute strip: trousers and b


def _dilute_trousers(half_row: models.DiluteRow, basis: tuple[LinkState, ...]):
    """Bra and ket trousers on ``basis`` from the half-width row, all-empty component one.

    The ket (future-leg) trousers pairs two Perron grounds of the half row's
    zero-string ket block; the bra (past-leg) trousers pairs two bra-row
    grounds, each the image of the ket ground under the lower half-row,
    which intertwines the two rows.  An image that vanishes (``<= 1e-12``
    relative) or misses the bra row by a relative residual above ``1e-10``
    raises ``ArithmeticError``.  Cutting the strip reflects the second half
    (its boundary triangles sit on the opposite edge), so the second factor
    reads the ground coefficient of the reflected diagram; for symmetric
    (even) half widths this is invisible.  Returns ``(bra, ket)``.
    """
    T00, _, _, idx0, _ = models.dilute_blocks(half_row, half_row.ket_row)
    lam, ket = spectral.perron_pair(T00)
    lower = half_row.lower.tocsr()[idx0, :][:, idx0]
    upper = half_row.upper.tocsr()[idx0, :][:, idx0]
    bra = lower @ ket
    if np.linalg.norm(bra) <= 1e-12 * np.linalg.norm(ket):
        raise ArithmeticError("the lower half-row annihilates the half-width ground")
    residual = np.linalg.norm(lower @ (upper @ bra) - lam * bra) / (lam * np.linalg.norm(bra))
    if residual > 1e-10:
        raise ArithmeticError(f"mapped half-width ground fails the bra row: {residual:.2e}")
    states = [half_row.basis[k] for k in idx0]
    empty = next(i for i, s in enumerate(states) if not any(s.occupied_mask))
    position = {s: k for k, s in enumerate(states)}
    mirror = [position[reflect(s)] for s in states]
    index = basis_index(basis)
    return tuple(
        _place(states, concatenate, index, g / g[empty], g[mirror] / g[empty]) for g in (bra, ket)
    )


def trousers_dilute(L: int, x: float | None = None, side: str = "right") -> TrousersState:
    """Dilute trousers on the width-L row basis, all-empty component one (any even width).

    ``side`` is ``"right"`` (ket trousers) or ``"left"`` (bra trousers).
    """
    if L % 2:
        raise ValueError("dilute trousers need even L")
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    x = fixtures.X_CRITICAL if x is None else x
    basis = models.build_dilute_T(L, x).basis
    bra, ket = _dilute_trousers(models.build_dilute_T(L // 2, x), basis)
    vec = ket if side == "right" else bra
    return TrousersState("dilute", L, side, vec, "all-empty component = 1")


def _bra_cell(row: models.DiluteRow, value: float, v, w, intertwiner) -> spectral.JordanCell:
    """The bra-row cell carried over from the ket-row cell ``(v, w)`` at ``value``.

    ``bra_row @ lower = lower @ ket_row``, so ``(lower v, lower w)`` is a
    bra-row cell at the same level; ``intertwiner`` is the matrix the ket
    cell is mapped through (``row.lower``).  The image is scaled to a unit
    eigenvector, put in the minimal-norm gauge and certified against the
    bra row, applied as ``lower @ (upper @ z)`` without forming it.  It has
    no LU of its own, so its ``regularization`` is 0.0.  An image that
    vanishes (``||lower v|| <= 1e-12 ||v||``) or a residual above ``1e-8``
    raises ``ArithmeticError``.
    """
    image = intertwiner @ v
    scale = float(np.linalg.norm(image))
    if scale <= 1e-12 * np.linalg.norm(v):
        raise ArithmeticError(f"the intertwiner annihilates the ket cell at {value}")
    lower, upper = row.lower, row.upper

    def shift(z):
        return lower @ (upper @ z) - value * z

    norm = spla.norm(lower) * spla.norm(upper)
    cell = spectral._jordan_cell(shift, norm, value, image / scale, (intertwiner @ w) / scale, 0.0)
    if max(cell.residual_v, cell.residual_w) > 1e-8:
        raise ArithmeticError(
            f"mapped bra cell at {value} fails the bra row: residuals "
            f"{cell.residual_v:.2e}, {cell.residual_w:.2e}"
        )
    return cell


def b_polymer(
    L: int,
    x: float | None = None,
    right_scale: float = 1.0,
    left_scale: float = 1.0,
) -> BMeasurement:
    """The coupling b of dilute polymers from the width-L transfer row.

    The ket row is block triangular over string sectors, so its cell at the
    leading two-string eigenvalue is extracted blockwise; the lower half-row
    intertwines the ket and bra rows, so it carries that cell over to the
    bra row (:func:`_bra_cell`), and the Gram matrix turns the bra-row
    vectors into genuine left eigenvectors.  One cell solve serves both
    sides.  The two cell scales ``right_scale``/``left_scale`` must cancel
    (tested).
    """
    if L % 2:
        raise ValueError("b for the dilute strip needs even L")
    x = fixtures.X_CRITICAL if x is None else x
    row = models.build_dilute_T(L, x)
    T00, T02, T22, idx0, idx2 = models.dilute_blocks(row, row.ket_row)
    dim0 = len(idx0)
    right = spectral.block_jordan_cell(T00, T02, T22)
    lam1 = right.value
    lam0, _ = spectral.perron_pair(T00)

    def scatter(stacked: np.ndarray) -> np.ndarray:
        out = np.zeros(len(row.basis))
        out[idx0] = stacked[:dim0]
        out[idx2] = stacked[dim0:]
        return out

    v_r, w_r = scatter(right.vector), scatter(right.partner)
    left = _bra_cell(row, lam1, v_r, w_r, row.lower)
    bra, ket = _dilute_trousers(models.build_dilute_T(L // 2, x), row.basis)
    factor = -(2 / np.sqrt(3.0)) * (np.pi / L) * lam1
    b, gauge = _pair_b(
        right_scale * v_r,
        factor * (right_scale * w_r),
        left_scale * left.vector,
        factor * (left_scale * left.partner),
        bra,
        ket,
        forms.dilute_sector_gram(row.basis),
    )
    delta = spectral.transfer_delta(L, lam1, lam0)
    return BMeasurement(
        "polymer", L, float(b), gauge, float(delta), complex(lam1), "transfer",
        max(right.residual_w, left.residual_w),
    )


# ---------------------------------------------------------------------------
# Deformed percolation chain: trousers and b


def _open_chain(L: int, y: complex):
    """``(H, y-form, unnormalized trousers)`` of the width-L open chain at loop weight one."""
    form, half_form = forms.link_gram(L, y), forms.link_gram(L // 2, y)
    _, g = _ground(_low_spectrum(models.build_percolation_H(L // 2, y), L // 2), half_form.gram)
    product = _place(half_form.basis, concatenate, basis_index(form.basis), g, g)
    return models.build_percolation_H(L, y), form.gram, product


def trousers_open(L: int, y: complex = 1.0) -> TrousersState:
    """Open-chain trousers state, overlap one with the ground state under the y-form.

    As for the spin chain, one vector (labelled ``"right"``) serves both sides.
    """
    if L % 2:
        raise ValueError("open trousers need even L")
    H, gram, product = _open_chain(L, y)
    _, v0 = _ground(_low_spectrum(H, L), gram)
    vec = product / (product @ (gram @ v0))
    return TrousersState(f"open:y={y}", L, "right", vec, "overlap with ground = 1")


def b_deformed(
    L: int,
    y: complex,
    cell_scale: complex = 1.0,
    cluster_tol: float = 1e-5,
) -> BMeasurement:
    """The coupling b of the y-deformed geometric chain at loop weight one.

    The spin chain's pipeline (:func:`_chain_b`), with the parity-deformed
    loop pairing supplying the left states.  At ``y = 1`` the fourth level
    is diagonalizable and extraction raises ``DiagonalizableLevelError`` --
    there is no cell, hence no b, at the undeformed point.
    """
    if L % 2:
        raise ValueError("b for the open chain needs even L")
    return _chain_b(f"deformed:y={y}", L, _open_chain(L, y), cell_scale, cluster_tol)


def percolation_check(
    L: int, y_values: tuple = (2.0, -1.0, 0.5), cluster_tol: float = 1e-5
) -> PercolationReport:
    """Diagnose the would-be Jordan level of the geometric (y=1) chain.

    Reports the cluster at the fourth distinct level: its size, geometric
    multiplicity, and the norm of its nilpotent part (which vanishes exactly
    when the level is diagonalizable).  Each deformed chain in ``y_values``
    is probed for a genuine cell at the same level.
    """
    H1 = models.build_percolation_H(L, 1.0)
    clusters = spectral.full_spectrum(H1, cluster_tol)
    c3 = spectral.level_cluster(clusters, 3)
    gm = spectral.geometric_multiplicity(H1, c3.value)
    scale = max(abs(c.value) for c in clusters)
    nil = spectral.nilpotent_norm(H1, c3.value, 1e-4 * scale)
    genuine: dict = {}
    for y in y_values:
        Hy = models.build_percolation_H(L, y)
        cy = spectral.level_cluster(spectral.full_spectrum(Hy, cluster_tol), 3)
        try:
            spectral.extract_jordan_cell(Hy, cy.value)
            genuine[y] = True
        except spectral.DiagonalizableLevelError:
            genuine[y] = False
    return PercolationReport(
        L, complex(c3.value), c3.size, gm, nil, gm >= c3.size, genuine
    )


# ---------------------------------------------------------------------------
# Extrapolation


def extrapolate_b(sizes, values) -> FitResult:
    """Infinite-size estimate of b from finite-size values.

    Central value: least squares over ``b + a1/L + a2/L^2`` (exact
    interpolation when three sizes are given).  The uncertainty is the
    spread across the ansatz family {1/L, 1/L + 1/L^2, 1/L^p}, keeping the
    power-law fit only when it converges away from its exponent bounds with
    a finite covariance.
    """
    if len(sizes) < 3:
        raise ValueError("extrapolation needs at least three sizes")
    order = np.argsort(sizes)
    ell = np.asarray(sizes, dtype=float)[order]
    val = np.asarray(values, dtype=float)[order]
    a2 = np.column_stack([np.ones_like(ell), 1 / ell])
    a3 = np.column_stack([np.ones_like(ell), 1 / ell, 1 / ell**2])
    c2, *_ = np.linalg.lstsq(a2, val, rcond=None)
    c3, *_ = np.linalg.lstsq(a3, val, rcond=None)
    candidates = {"b + a1/L": float(c2[0]), "b + a1/L + a2/L^2": float(c3[0])}

    def power_law(length, b_inf, amp, p):
        return b_inf + amp / np.power(length, p)

    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OptimizeWarning)
            popt, pcov = curve_fit(
                power_law, ell, val,
                p0=[c3[0], (val[0] - c3[0]) * ell[0], 1.0],
                bounds=([-np.inf, -np.inf, 0.2], [np.inf, np.inf, 5.0]),
                maxfev=20000,
            )
        at_bound = min(abs(popt[2] - 0.2), abs(popt[2] - 5.0)) < 1e-6
        if np.all(np.isfinite(pcov)) and not at_bound:
            candidates["b + a1/L^p"] = float(popt[0])
    except (RuntimeError, ValueError):
        pass
    residual = float(np.sqrt(np.mean((a3 @ c3 - val) ** 2)))
    uncertainty = max(abs(v - c3[0]) for v in candidates.values())
    return FitResult(
        float(c3[0]), "b + a1/L + a2/L^2", tuple(float(c) for c in c3),
        residual, float(uncertainty), candidates,
    )


def _inverse_power_fit(sizes, values) -> FitResult:
    """Exact interpolation by sum_k c_k / L^k, k = -1 .. #sizes - 2.

    The constant coefficient c_0 is the universal (size-independent) term.
    The uncertainty is the change of c_0 when the smallest size is dropped
    and the ansatz shortened accordingly.
    """
    def solve(ls, vs):
        powers = list(range(-1, len(ls) - 1))
        a = np.array([[length ** (-k) for k in powers] for length in ls])
        c = np.linalg.solve(a, vs)
        return powers, c, float(np.max(np.abs(a @ c - vs)))

    order = np.argsort(sizes)
    ell = np.asarray(sizes, dtype=float)[order]
    val = np.asarray(values, dtype=float)[order]
    powers, coeff, residual = solve(ell, val)
    value = float(coeff[powers.index(0)])
    candidates = {}
    uncertainty = None
    if len(ell) > 3:
        sub_powers, sub_coeff, _ = solve(ell[1:], val[1:])
        dropped = float(sub_coeff[sub_powers.index(0)])
        uncertainty = abs(value - dropped)
        candidates["drop-smallest"] = dropped
    return FitResult(
        value,
        f"sum_k c_k/L^k, k=-1..{len(ell) - 2} (exact interpolation)",
        tuple(float(c) for c in coeff),
        residual,
        uncertainty,
        candidates,
    )


# ---------------------------------------------------------------------------
# Boundary entropies


def ising_boundary_entropy(sizes=(12, 14, 16, 18), bc: str = "fixed") -> FitResult:
    """Universal boundary term of the critical transverse-field ring.

    For each size the Perron ground state is paired with the all-up product
    state (``bc="fixed"``) or the uniform sum over configurations
    (``bc="free"``); the constant term of the exact 1/L interpolation of
    ``-log <B|0>`` is the boundary entropy.
    """
    if bc not in ("fixed", "free"):
        raise ValueError(f"unknown boundary condition {bc!r}")
    f_values = []
    for L in sorted(sizes):
        H = models.build_ising(L)
        # the ground state is a positive Perron vector, so the all-ones start
        # overlaps it and makes the solve deterministic
        _, vecs = spla.eigsh(H, k=1, which="SA", v0=np.ones(H.shape[0]))
        v = vecs[:, 0]
        v = v * np.sign(v[int(np.argmax(np.abs(v)))])
        fixed_vec, free_vec = models.ising_boundary_vectors(L)
        overlap = float(v @ (fixed_vec if bc == "fixed" else free_vec))
        f_values.append(-np.log(overlap))
    return _inverse_power_fit(sorted(sizes), f_values)


@lru_cache(maxsize=8)
def _boundary_loop_row(L: int) -> np.ndarray:
    """Loop counts of the all-adjacent-arcs state glued onto each basis state."""
    basis = enumerate_dense(L)
    roles = (2,) * L
    partner = tuple(i + 1 if i % 2 == 0 else i - 1 for i in range(L))
    boundary = LinkState(roles, partner)
    return np.array([glue(boundary, s).loops for s in basis], dtype=np.int64)


def _loop_normalized(v: np.ndarray, L: int, n: float) -> np.ndarray:
    """``v`` scaled to bilinear square one under the weight-``n`` loop form.

    The square is ``(Mv)^T (Mv)`` with ``M`` the singlet factor of the loop
    Gram; a square that is not real and positive leaves no real
    normalization and raises ``ArithmeticError``.
    """
    image = forms.singlet_factor(L, n) @ v
    square = complex(image @ image)
    if not (square.real > 0 and abs(square.imag) <= 1e-10 * square.real):
        raise ArithmeticError(
            f"loop state at L={L}, n={n} has bilinear square {square}; "
            "it has no real normalization"
        )
    return v / np.sqrt(square.real)


def loop_boundary_entropy(n: float, n1: float, sizes=(12, 14, 16, 18)) -> LoopEntropyReport:
    """Boundary entropy of the dense loop model against its closed form.

    The boundary state is the all-adjacent-arcs diagram; every loop closed
    by the final gluing touches the boundary and is weighted ``n1`` instead
    of ``n``.  The Perron ground state is normalized to bilinear square one
    under the weight-``n`` loop form, through its sparse singlet factor
    (:func:`loopcells.forms.singlet_factor`); a ground state whose square is
    not positive raises ``ArithmeticError``.  Weights ``n <= 0`` are refused:
    the row then has no positive leading state, and the one of largest
    modulus has a negative or vanishing loop-form square at every width
    tried.
    """
    if not (0 < n < 2):
        raise ValueError("the loop weight must satisfy 0 < n < 2")
    if n1 <= 0:
        raise ValueError("the boundary loop weight must be positive")
    f_values = []
    for L in sorted(sizes):
        if L % 2:
            raise ValueError("the cylinder row needs even sizes")
        op = models.build_dense_loop_T(L, n)
        _, v = spectral.perron_pair(op)
        v = _loop_normalized(v, L, n)
        overlap = float(np.power(float(n1), _boundary_loop_row(L)) @ v)
        f_values.append(-np.log(overlap))
    fit = _inverse_power_fit(sorted(sizes), f_values)
    exact = loop_entropy_exact(n, n1)
    return LoopEntropyReport(n, n1, fit, exact, abs(fit.value - exact))


def loop_entropy_exact(n: float, n1: float) -> float:
    """Closed-form boundary entropy of the loop model.

    With ``n = 2 cos(gamma)`` and ``g = 1 - gamma/pi``, the boundary weight
    determines ``r`` through ``n1 = sin((r+1) gamma)/sin(r gamma)`` and the
    entropy is ``-log[(2g)^(-1/4) (sin(r gamma/g)/sin(r gamma))
    (sin(gamma)/sin(gamma/g))^(1/2)]``.  It is real only for ``0 < n < 2``
    (for ``n <= 0``, ``gamma/g >= pi``), so other weights are refused.
    """
    if not (0 < n < 2):
        raise ValueError("the loop weight must satisfy 0 < n < 2")
    gamma = float(np.arccos(n / 2))
    g = 1 - gamma / np.pi
    if abs(n1 - n) < 1e-12:
        r = 1.0
    else:
        eps = 1e-9

        def mismatch(r_):
            return np.sin((r_ + 1) * gamma) / np.sin(r_ * gamma) - n1

        r = float(brentq(mismatch, eps, np.pi / gamma - 1 - eps))
    value = (
        (2 * g) ** -0.25
        * (np.sin(r * gamma / g) / np.sin(r * gamma))
        * np.sqrt(np.sin(gamma) / np.sin(gamma / g))
    )
    return float(-np.log(value))
