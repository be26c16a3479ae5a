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

The spin chain is solved in a symmetry sector.  Its Hamiltonian commutes
with ``P``, the site reflection times the global spin flip (the boundary
term ``sz_1 - sz_L`` is odd under each, so even under the product), and the
ground state, the trousers and the Jordan cell are all even under ``P``.
The low spectrum and the cell therefore come from ``S^T H S`` on the orbits
of ``P`` (about half the states; ``S`` a real isometry with entries 1 and
``1/sqrt(2)``), where the cell is the third distinct level instead of the
fourth.  Because ``S`` is real, the bilinear pairings are the full chain's.
The cell and the ground state are lifted back and certified against the
full sparse Hamiltonian (eigen- and partner residuals, odd part); a check
above ``1e-8`` raises ``ArithmeticError``.

The Affleck-Ludwig boundary entropies at the end of the module validate the
same scalar products on a unitary chain (Ising) and a non-unitary one (the
dense loop model) through one shared fitting path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import diagrams, fixtures, forms, models, spectral

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


def _place(rows, left, right, dim: int) -> np.ndarray:
    """Trousers coefficients ``left[a] * right[b]`` at row ``rows[a * len(right) + b]``.

    ``rows`` holds the width-L row of every pair of half-width states side
    by side, left state major; every other coefficient is zero.
    """
    vec = np.zeros(dim, dtype=np.result_type(left, right))
    vec[rows] = np.outer(left, right).ravel()
    return vec


#: Chains up to this many states are decomposed densely by
#: :func:`_low_spectrum`; above it ARPACK is faster.
_DENSE_SPECTRUM_STATES = 128


def _low_spectrum(H, L: int):
    """Low eigenpairs ``(vals, vecs)`` of a width-L chain at loop weight one.

    Up to :data:`_DENSE_SPECTRUM_STATES` states LAPACK returns all of them;
    above, ARPACK returns the 6 eigenvalues (8 at odd ``L``) nearest a point
    below the ground energy (``(L-1)/2 - 2 sum e_i`` with each ``e_i``
    spectrum in ``[0, 1]`` at loop weight one).  A cell needs at most 5 of
    them at even ``L``: the open chain's fourth distinct level is its 4th and
    5th eigenvalue, and the sixth closes that level off, so :func:`_level`
    does not refuse it as cut short.  On an odd open chain the ground is
    simple and the next levels are double, so the fourth level is the 6th
    and 7th eigenvalue and the 8th closes it off.  Six pairs take about 45
    shift-invert solves against 77 (spin sector, L = 12 and 16) and 93
    (open chain, L = 10) for eight.  ARPACK's shift-invert operator is the
    LU of ``H`` minus that point from :func:`loopcells.spectral._factor`, in
    the arithmetic of ``H``, so scipy factors nothing of its own.  The
    crossover is measured (open chains at y = 2, L = 8 and 10, in float64;
    the spin sector at L = 12; best of 7 calls, one BLAS thread on a 2-vCPU
    Xeon):

    ======  ==========  ===========  ===========
    states  dense eig   ARPACK k=8   ARPACK k=6
    ======  ==========  ===========  ===========
    70      0.7 ms      2.5 ms       1.5 ms
    252     16.7 ms     4.9 ms       2.9 ms
    494     350 ms      10.2 ms      6.4 ms
    ======  ==========  ===========  ===========
    """
    if H.shape[0] <= _DENSE_SPECTRUM_STATES:
        return np.linalg.eig(H.toarray() if sp.issparse(H) else H)
    H = sp.csc_matrix(H)
    sigma = -1.5 * (L - 1) - 1.0
    shifted = H - sigma * sp.identity(H.shape[0], dtype=H.dtype, format="csc")
    lu = spectral._factor(shifted)
    inverse = spla.LinearOperator(H.shape, matvec=lu.solve, dtype=H.dtype)
    k = 8 if L % 2 else 6
    return spla.eigs(H, k=k, sigma=sigma, OPinv=inverse, v0=np.ones(H.shape[0]))


def _level(spectrum, index: int, cluster_tol: float) -> spectral.Cluster:
    """The ``index``-th distinct level of a :func:`_low_spectrum` result.

    When ARPACK supplied the spectrum (fewer eigenvalues than states), its
    last cluster may be cut short, so asking for it raises
    :class:`~loopcells.spectral.ClusterSizeError`.
    """
    vals, vecs = spectrum
    clusters = spectral.cluster_eigenvalues(vals, cluster_tol)
    cluster = spectral.level_cluster(clusters, index)
    if len(vals) < vecs.shape[0] and index == len(clusters) - 1:
        raise spectral.ClusterSizeError(
            f"distinct level {index} is the last of the {len(vals)} eigenvalues ARPACK "
            f"returned and may be cut short: {cluster}"
        )
    return cluster


def _level_cell(L: int, H, spectrum, index: int, gram, cluster_tol: float):
    """``(cluster, cell)`` at the ``index``-th distinct level of a width-L chain's spectrum.

    The level (:func:`_level`) must be a double cluster, otherwise
    :class:`~loopcells.spectral.ClusterSizeError` is raised.  Its
    eigenvectors in ``spectrum`` are the near-kernel block of
    :func:`loopcells.spectral.extract_jordan_cell`, which certifies the
    cell and borders its partner system with ``conj(G v)`` under ``gram``.
    """
    cluster = _level(spectrum, index, cluster_tol)
    if cluster.size != 2:
        raise spectral.ClusterSizeError(
            f"distinct level {index} of the L={L} chain is not a double cluster: {cluster}"
        )
    vals, vecs = spectrum
    block = vecs[:, np.isin(vals, cluster.members)]
    return cluster, spectral.extract_jordan_cell(H, cluster.value, block, gram)


_SOLVES: dict[tuple, object] = {}  # chain key -> solved chain, oldest first
_CELLS: dict[tuple, tuple] = {}  # chain key + (cluster_tol,) -> (cluster, cell), oldest first


def _chain_key(kind: str, L: int, parameter) -> tuple:
    """The store key of the width-L chain of ``kind`` at ``parameter`` (its ``y`` or ``q``).

    ``2`` and ``2.0`` build the same real chain and share a key, while
    ``2+0j`` builds a complex chain and is kept apart.
    """
    return kind, L, parameter, bool(np.iscomplexobj(parameter))


def _kept_cell(key: tuple, cluster_tol: float, build):
    """``build()``'s ``(cluster, cell)`` for the chain of ``key``, built once per ``cluster_tol``.

    ``build`` certifies the cell.  Its two vectors are made read-only, and
    the last 16 cells of any chain are kept in :data:`_CELLS`, keyed by the
    chain's :func:`_chain_key` and the tolerance.  A level that ``build``
    refuses raises again at every call and is not kept.
    """
    def certified():
        cluster, cell = build()
        for array in (cell.vector, cell.partner):
            array.flags.writeable = False
        return cluster, cell

    return diagrams._kept(_CELLS, (*key, cluster_tol), certified)


def _refuse_tolerance(cluster_tol: float) -> None:
    """``ValueError`` unless the cluster tolerance is positive and finite."""
    if not (0 < cluster_tol < np.inf):
        raise ValueError(f"the cluster tolerance must be positive and finite, got {cluster_tol}")


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


class _Chain(NamedTuple):
    """A width-L chain as :func:`_chain_b` solves and pairs it.

    ``H`` is the operator whose Jordan cell is solved, ``spectrum`` its
    :func:`_low_spectrum` result, ``gram`` its invariant form as a matrix
    (the link Gram array of :func:`_open_chain`, the sparse identity of
    :func:`_xxz_chain`) and ``product`` the unnormalized trousers, all on
    one basis.  ``cell(gram, cluster_tol)`` returns the ``(cluster, cell)``
    at the chain's cell level from the store of certified cells
    (:func:`_kept_cell`), bordered by ``gram`` when it is built there; the
    open chain's store is shared with :func:`percolation_check`.  A chain
    reduced to a symmetry sector also carries ``lift``, which maps a sector
    vector to the full chain, and ``certify(value, u, partner=None)``,
    which checks a lifted eigenvector (and partner) against the full chain
    and raises ``ArithmeticError``.
    """

    H: object
    gram: object
    product: np.ndarray
    spectrum: tuple
    cell: Callable
    lift: Callable | None = None
    certify: Callable | None = None


def _chain_b(
    model: str, L: int, chain: _Chain, cell_scale: complex, cluster_tol: float
) -> BMeasurement:
    """The coupling b from the rank-two cell of a chain.

    ``chain`` comes from :func:`_xxz_chain` or :func:`_open_chain`, and its
    ``cell`` hook gives the certified cell.  The eigenvectors of the level's
    cluster in the chain's spectrum are the cell's near-kernel block
    (:func:`_level_cell`); :func:`loopcells.spectral.extract_jordan_cell`
    decides the kernel on that block and borders the partner system with
    ``conj(G v)`` under the chain's form ``G``, a certified left kernel
    vector.  Each chain keeps its cell per ``cluster_tol``
    (:func:`_kept_cell`), so a cell that an earlier call, or on the open
    chain :func:`percolation_check`, already certified is read, not built
    again.  The singular shift is never factored: ARPACK's shift (above
    :data:`_DENSE_SPECTRUM_STATES` states) and the bordered system are the
    only LUs, each made once per chain.  The spectrum also gives the ground
    state, which a sector chain certifies on the full chain at every call.
    The partner is rescaled into Hamiltonian convention units and paired
    with the trousers ``product`` at overlap one with the ground.  ``model``
    only labels the result.
    """
    gram, product, spectrum = chain.gram, chain.product, chain.spectrum
    v_f = fixtures.FERMI_VELOCITY
    _, cell = chain.cell(gram, cluster_tol)
    e0, v0 = _ground(spectrum, gram)
    if chain.certify is not None:
        chain.certify(e0, v0)
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


def _lift_certificate(H, lift, mirror, what: str) -> Callable:
    """``certify(value, u, partner=None)`` for vectors of a sector of ``H``.

    The sector vector ``u`` is lifted (``lift``) and checked against the
    full ``H``: the eigen-residual ``||Hv - value v|| / (||H||_F ||v||)``,
    the odd part ``||v[mirror] - v|| / ||v||`` under the permutation
    ``mirror`` of the symmetry and, with a ``partner``, the partner residual
    ``||(H - value) w - v|| / ||v||``.  A check above ``1e-8`` raises
    ``ArithmeticError`` naming ``what``.
    """
    norm = spla.norm(H)

    def certify(value, u, partner=None) -> None:
        v = lift(u)
        size = np.linalg.norm(v)
        checks = {
            "residual": np.linalg.norm(H @ v - value * v) / (norm * size),
            "odd part": np.linalg.norm(v[mirror] - v) / size,
        }
        if partner is not None:
            w = lift(partner)
            checks["partner residual"] = np.linalg.norm(H @ w - value * w - v) / size
        worst = max(checks, key=checks.get)
        if checks[worst] > 1e-8:
            raise ArithmeticError(
                f"lifted {what} state at {complex(value):.12g} fails the full chain: "
                f"{worst} {checks[worst]:.2e}"
            )

    return certify


def _xxz_chain(L: int, q: complex) -> _Chain:
    """The width-L spin chain, solved in its reflection-flip even sector once per process.

    The ground state, the trousers product and the Jordan cell are even
    under the reflection-flip ``P`` (:func:`loopcells.models.reflect_flip`),
    so the chain is solved on ``S^T H S``, with ``S`` the isometry onto
    that sector (:func:`loopcells.models.reflect_flip_isometry`) and ``H``
    the full sparse chain, assembled once.  That spectrum keeps only the
    even levels, so the cell is at its third distinct level (index 2), not
    the fourth.  The trousers is projected by ``S^T`` and sector vectors
    lift by ``S``; ``S`` is real and the form is the identity, so every
    pairing equals the full chain's.  The chain certifies its lifted
    vectors against the same ``H``, with ``P`` as the symmetry whose odd
    part must vanish.

    The solved chain is kept with the open chains in :data:`_SOLVES` (the
    last 16 chains, keyed by :func:`_chain_key`), its spectrum and trousers
    read-only.  Its ``cell`` hook keeps the cell per ``cluster_tol``
    (:func:`_kept_cell`), certified on the full chain when it is built, so
    a repeated :func:`b_xxz` or a :func:`trousers_xxz` of the same width
    solves and factors nothing.
    """
    return diagrams._kept(_SOLVES, _chain_key("xxz", L, q), lambda: _solve_xxz(L, q))


def _solve_xxz(L: int, q: complex) -> _Chain:
    """The chain of :func:`_xxz_chain`, solved afresh."""
    H, masks = models.build_xxz(L, q)
    half_H, half_masks = models.build_xxz(L // 2, q)
    _, g = _ground(_low_spectrum(half_H, L // 2), np.eye(len(half_masks)))
    half, masks = np.array(half_masks), np.array(masks)
    find = diagrams._lookup(masks)
    rows = find(((half[:, None] << L // 2) | half).ravel())
    S = models.reflect_flip_isometry(masks, L)
    H_s = (S.T @ H @ S).tocsr()
    product = S.T @ _place(rows, g, g, len(masks))
    spectrum = _low_spectrum(H_s, L)
    for array in (product, *spectrum):
        array.flags.writeable = False
    mirror = find(models.reflect_flip(masks, L))
    certify = _lift_certificate(H, S.__matmul__, mirror, f"L={L} spin chain")

    def kept_cell(gram, cluster_tol):
        def build():
            cluster, cell = _level_cell(L, H_s, spectrum, 2, gram, cluster_tol)
            certify(cell.value, cell.vector, cell.partner)
            return cluster, cell

        return _kept_cell(_chain_key("xxz", L, q), cluster_tol, build)

    identity = sp.identity(S.shape[1], format="csr")
    return _Chain(H_s, identity, product, spectrum, kept_cell, S.__matmul__, certify)


def trousers_xxz(L: int, q: complex | None = None) -> TrousersState:
    """Spin-chain trousers state, overlap one with the width-L ground state.

    Needs ``L`` divisible by four so each half chain has a zero-magnetization
    sector.  The ground state is read off the chain that :func:`_xxz_chain`
    solved in the reflection-flip sector, so after a :func:`b_xxz` of the
    same width nothing is solved again, and it is certified on the full
    chain.  The pairing is bilinear, so one vector (labelled ``"right"``)
    serves both sides.
    """
    if L % 4:
        raise ValueError("spin trousers need L/2 even, i.e. L a multiple of 4")
    chain = _xxz_chain(L, fixtures.Q_VALUE if q is None else q)
    e0, u0 = _ground(chain.spectrum, chain.gram)
    chain.certify(e0, u0)
    v0 = spectral.sign_fix(chain.lift(u0))
    product = chain.lift(chain.product)
    vec = product / (product @ v0)
    return TrousersState("xxz", L, "right", vec, "overlap with ground = 1")


def b_xxz(
    L: int,
    q: complex | None = None,
    cell_scale: complex = 1.0,
    cluster_tol: float = 1e-5,
) -> BMeasurement:
    """The coupling b of the spin chain from the twice-degenerate fourth level.

    Pipeline (:func:`_chain_b`): build the zero-magnetization Hamiltonian
    and its sector even under reflection times spin flip
    (:func:`_xxz_chain`), extract the rank-two cell at the sector's third
    distinct level (the full chain's fourth), certify the cell and the
    ground state lifted to the full chain, rescale the partner into
    Hamiltonian convention units, and pair with the trousers state.  The
    sector has about half the states (494 of 924 at L=12, 6,563 of 12,870
    at L=16), so each sparse LU is several times cheaper.  A process keeps
    the solved chain and its certified cell (:func:`_xxz_chain`), so a
    repeated call of the same width and tolerance solves, factors and
    certifies nothing but the ground state.  ``cell_scale``
    multiplies the whole cell and must not change the answer (tested).  A
    ``cluster_tol`` that is not positive and finite raises ``ValueError``
    before the chain is built.
    """
    if L % 4:
        raise ValueError("b for the spin chain needs L a multiple of 4")
    _refuse_tolerance(cluster_tol)
    q = fixtures.Q_VALUE if q is None else q
    return _chain_b("xxz", L, _xxz_chain(L, q), cell_scale, cluster_tol)


# ---------------------------------------------------------------------------
# Dilute strip: trousers and b


def _dilute_trousers(half_row: models.TransferRow, basis):
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
    T00, _, _, idx0, _ = models.dilute_blocks(half_row)
    lam, ket = spectral.perron_pair(T00)
    # the ground on the whole half-row basis, zero on the two-string sector,
    # which the lower half-row does not reach from the zero-string one
    bra = np.zeros(len(half_row.basis))
    bra[idx0] = ket
    bra = half_row.lower @ bra
    if np.linalg.norm(bra) <= 1e-12 * np.linalg.norm(ket):
        raise ArithmeticError("the lower half-row annihilates the half-width ground")
    residual = np.linalg.norm(half_row.bra_row @ bra - lam * bra) / (lam * np.linalg.norm(bra))
    if residual > 1e-10:
        raise ArithmeticError(f"mapped half-width ground fails the bra row: {residual:.2e}")
    bra = bra[idx0]
    half = diagrams._arrays(half_row.basis)[0][idx0]
    empty = np.flatnonzero(np.all(half == diagrams._EMPTY_SITE, axis=1))[0]
    mirror = diagrams._lookup(diagrams._keys(half))(diagrams._keys(diagrams._reflected(half)))
    rows = diagrams._arrays(basis)[1](diagrams._side_by_side(half, half))
    return tuple(
        _place(rows, g / g[empty], g[mirror] / g[empty], len(basis)) for g in (bra, ket)
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
    basis = diagrams.dilute_row_sites(L)
    bra, ket = _dilute_trousers(models.build_dilute_T(L // 2, x), basis)
    vec = ket if side == "right" else bra
    return TrousersState("dilute", L, side, vec, "all-empty component = 1")


def _bra_cell(row: models.TransferRow, value: float, v, w, intertwiner) -> spectral.JordanCell:
    """The bra-row cell carried over from the ket-row cell ``(v, w)`` at ``value``.

    ``bra_row @ lower = lower @ ket_row``, so ``(lower v, lower w)`` is a
    bra-row cell at the same level; ``intertwiner`` is the operator the ket
    cell is mapped through (``row.lower``).  The image is scaled to a unit
    eigenvector, put in the minimal-norm gauge and certified against the
    bra row, applied tile by tile without forming it.  The eigenvector's
    residual is scaled by ``|value|``, a lower bound on the bra row's norm.
    It solves nothing of its own.  An image
    that vanishes (``||lower v|| <= 1e-12 ||v||``) or a residual above
    ``1e-8`` raises ``ArithmeticError``.
    """
    image = intertwiner @ v
    scale = float(np.linalg.norm(image))
    if scale <= 1e-12 * np.linalg.norm(v):
        raise ArithmeticError(f"the intertwiner annihilates the ket cell at {value}")
    bra_row = row.bra_row

    def shift(z):
        return bra_row @ z - value * z

    cell = spectral._jordan_cell(shift, abs(value), value, image / scale, (intertwiner @ w) / scale)
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
    bra row (:func:`_bra_cell`), and the dilute form turns the bra-row
    vectors into genuine left eigenvectors; it is applied to three vectors
    and never formed (:func:`loopcells.forms.dilute_form`).  One cell solve
    serves both sides.  The two cell scales ``right_scale``/``left_scale``
    must cancel (tested).  The Perron value of the zero-string block, which
    sets ``delta``, is the leading Ritz value that the cell solve already
    found; its Ritz vector must leave a residual of at most ``1e-9``
    relative, and the value must lie above the cell's level, otherwise
    ``ArithmeticError`` is raised.
    """
    if L % 2:
        raise ValueError("b for the dilute strip needs even L")
    x = fixtures.X_CRITICAL if x is None else x
    row = models.build_dilute_T(L, x)
    T00, T02, T22, _, _ = models.dilute_blocks(row)
    right, (lam0, u0) = spectral.block_jordan_cell(T00, T02, T22)
    lam1 = right.value
    # the cell's leading zero-string Ritz pair is the Perron pair of T00
    residual = np.linalg.norm(T00 @ u0 - lam0 * u0) / abs(lam0)
    if not (residual <= 1e-9 and lam0.real > lam1):
        raise ArithmeticError(
            f"leading zero-string Ritz value {lam0} at L={L} is not a Perron value above "
            f"the cell's level {lam1}: residual {residual:.2e}"
        )
    # the row basis lists the zero-string sector first, so the stacked
    # coordinates of the cell are the row's own
    v_r, w_r = right.vector, right.partner
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
        forms.dilute_form(row.basis),
    )
    delta = spectral.transfer_delta(L, lam1, lam0.real)
    return BMeasurement(
        "polymer", L, float(b), gauge, float(delta), complex(lam1), "transfer",
        max(right.residual_w, left.residual_w),
    )


# ---------------------------------------------------------------------------
# Deformed percolation chain: trousers and b


def _open_solve(L: int, y: complex):
    """``(H, spectrum)`` of the width-L open chain at ``y``, solved once per process.

    ``H`` is :func:`loopcells.models.build_percolation_H` as built and
    ``spectrum`` its :func:`_low_spectrum`, whose arrays are made read-only.
    It is kept with the spin chains in :data:`_SOLVES` (the last 16 chains,
    keyed by :func:`_chain_key`), so ``y = 2`` and ``y = 2.0`` share a real
    chain while ``y = 2+0j`` keeps a complex one.
    """
    def solve():
        H = models.build_percolation_H(L, y)
        spectrum = _low_spectrum(H, L)
        for array in spectrum:
            array.flags.writeable = False
        return H, spectrum

    return diagrams._kept(_SOLVES, _chain_key("open", L, y), solve)


def _open_cell(L: int, y: complex, cluster_tol: float, gram=None):
    """``(cluster, cell)`` at the fourth distinct level of the width-L open chain, built once per process.

    The cell is built by :func:`_level_cell` on the chain of
    :func:`_open_solve`, bordered by ``gram`` (the chain's link Gram,
    :func:`loopcells.forms.link_gram`, when none is passed), and certified
    then: kernel, left and partner residuals.  Whichever caller comes first
    builds it, :func:`b_deformed` or :func:`percolation_check`; later calls
    with the same ``(L, y, cluster_tol)`` read it from :func:`_kept_cell`'s
    store and build no Gram.  It keeps a cluster and two read-only vectors,
    and a level that is refused (diagonalizable, not a double cluster, or
    failing its certificate) raises again at every call and is not kept.
    """
    def build():
        H, spectrum = _open_solve(L, y)
        form = forms.link_gram(L, y) if gram is None else gram
        return _level_cell(L, H, spectrum, 3, form, cluster_tol)

    return _kept_cell(_chain_key("open", L, y), cluster_tol, build)


def _open_chain(L: int, y: complex) -> _Chain:
    """``(H, y-form, unnormalized trousers, spectrum)`` of the width-L open chain at loop weight one.

    The whole chain is solved on the open basis
    (:func:`loopcells.diagrams._open_sites`), and ``gram`` is the Gram array
    of :func:`loopcells.forms.link_gram` on it; the cell is at the fourth
    distinct level.  The chain and its half chain come from
    :func:`_open_solve`, so a process solves each ``(L, y)`` chain once:
    the half chain of width 8 is the full chain of width 4, and a chain
    that :func:`percolation_check` probed is not solved again.  The chain's
    ``cell`` hook reads :func:`_open_cell`, bordered by the chain's own
    ``gram`` when the cell is built there.
    """
    gram, half_gram = forms.link_gram(L, y), forms.link_gram(L // 2, y)
    _, g = _ground(_open_solve(L // 2, y)[1], half_gram)
    half = diagrams._open_sites(L // 2)
    rows = diagrams._arrays(diagrams._open_sites(L))[1](diagrams._side_by_side(half, half))
    product = _place(rows, g, g, len(gram))
    H, spectrum = _open_solve(L, y)
    return _Chain(H, gram, product, spectrum, lambda form, tol: _open_cell(L, y, tol, form))


def trousers_open(L: int, y: complex = 1.0) -> TrousersState:
    """Open-chain trousers state, overlap one with the ground state under the y-form.

    As for the spin chain, one vector (labelled ``"right"``) serves both
    sides.  The ground state is read off the chain's spectrum, which
    :func:`_open_chain` takes from :func:`_open_solve`.
    """
    if L % 2:
        raise ValueError("open trousers need even L")
    chain = _open_chain(L, y)
    _, v0 = _ground(chain.spectrum, chain.gram)
    vec = chain.product / (chain.product @ (chain.gram @ v0))
    return TrousersState(f"open:y={y}", L, "right", vec, "overlap with ground = 1")


def b_deformed(
    L: int,
    y: complex,
    cell_scale: complex = 1.0,
    cluster_tol: float = 1e-5,
) -> BMeasurement:
    """The coupling b of the y-deformed geometric chain at loop weight one.

    The spin chain's pipeline (:func:`_chain_b`), with the parity-deformed
    loop pairing supplying the left states.  The cell is the chain's
    stored one (:func:`_open_cell`): a :func:`percolation_check` of the
    same ``(L, y, cluster_tol)`` has already certified it, and otherwise
    this call does.  At ``y = 1`` the fourth level is diagonalizable and
    extraction raises ``DiagonalizableLevelError`` -- there is no cell,
    hence no b, at the undeformed point.  A ``cluster_tol`` that is not
    positive and finite raises ``ValueError`` before any chain is built.
    """
    if L % 2:
        raise ValueError("b for the open chain needs even L")
    _refuse_tolerance(cluster_tol)
    return _chain_b(f"deformed:y={y}", L, _open_chain(L, y), cell_scale, cluster_tol)


def _nearest_cell(L: int, y: complex, level: complex, cluster_tol: float) -> bool:
    """Whether the width-L chain at ``y`` has a cell on its cluster nearest ``level``, built afresh.

    The fallback of :func:`percolation_check` where the stored fourth level
    (:func:`_open_cell`) is not ``level``: the eigenvectors of the chain's
    own cluster nearest ``level`` are the block of
    :func:`loopcells.spectral.extract_jordan_cell`, bordered by the chain's
    link Gram.  A diagonalizable cluster reads ``False``; a simple one
    raises ``ArithmeticError`` and one without a kernel at ``level``
    :class:`~loopcells.spectral.ClusterSizeError`.
    """
    H, (vals, vecs) = _open_solve(L, y)
    near = min(spectral.cluster_eigenvalues(vals, cluster_tol), key=lambda c: abs(c.value - level))
    block = vecs[:, np.isin(vals, near.members)]
    try:
        spectral.extract_jordan_cell(H, level, block, forms.link_gram(L, y))
    except spectral.DiagonalizableLevelError:
        return False
    return True


def percolation_check(
    L: int, y_values: tuple = (2.0, -1.0, 0.5), cluster_tol: float = 1e-5
) -> PercolationReport:
    """Diagnose the would-be Jordan level of the geometric (y=1) chain.

    Every chain comes from :func:`_open_solve` and every deformed cell from
    :func:`_open_cell`, so a chain this check probes is solved, and its
    cell built and certified, once per process, and :func:`b_deformed` of
    the same ``(L, y, cluster_tol)`` reads both.  One low spectrum of the
    sparse y=1 chain (:func:`_low_spectrum`) locates the cluster at the
    fourth distinct level and holds its eigenvectors.  Their span gives the
    level's geometric multiplicity and the norm of its nilpotent part,
    which vanishes exactly when the level is diagonalizable
    (:func:`loopcells.spectral.cell_structure`, with the y=1 link Gram);
    the y=1 shift is not factored and no dense spectrum is formed.  The
    spectrum does not depend on ``y``, so each deformed chain in
    ``y_values`` is probed for a genuine cell at that same level.  Its
    stored cell, at its own fourth level, is read when that level lies
    within the y=1 spectrum's clustering reach of the y=1 level:
    ``cluster_tol`` times the largest eigenvalue magnitude of that spectrum,
    the spacing within which :func:`loopcells.spectral.cluster_eigenvalues`
    joins two eigenvalues.  A chain whose fourth level is diagonalizable
    reads ``False``, as ``y = 1`` does.  Where the stored level lies
    elsewhere, or is not a double cluster, the cell on the chain's cluster
    nearest the y=1 level is built afresh (:func:`_nearest_cell`).  Cells
    are certified by their residuals, not by the kernel dimension alone,
    so a deformed chain on which the level is simple raises
    ``ArithmeticError`` and one without the level
    :class:`~loopcells.spectral.ClusterSizeError`.  A ``cluster_tol`` that
    is not positive and finite raises ``ValueError`` before any chain is
    built.
    """
    _refuse_tolerance(cluster_tol)
    H1, spectrum = _open_solve(L, 1.0)
    c3 = _level(spectrum, 3, cluster_tol)
    vals, vecs = spectrum
    block = vecs[:, np.isin(vals, c3.members)]
    gm, nil = spectral.cell_structure(H1, c3.value, block, forms.link_gram(L, 1.0))
    reach = spectral._cluster_reach(vals, cluster_tol)
    genuine: dict = {}
    for y in y_values:
        try:
            stored = _open_cell(L, y, cluster_tol)[0].value
        except spectral.DiagonalizableLevelError:
            genuine[y] = False
            continue
        except spectral.ClusterSizeError:
            stored = np.inf  # no double cluster there: the level lies elsewhere
        genuine[y] = abs(stored - c3.value) <= reach or _nearest_cell(L, y, c3.value, cluster_tol)
    return PercolationReport(
        L, complex(c3.value), c3.size, gm, nil, gm >= c3.size, genuine
    )


# ---------------------------------------------------------------------------
# Extrapolation


def extrapolate_b(sizes, values) -> FitResult:
    """Infinite-size estimate of b from finite-size values.

    Central value: least squares over ``b + a1/L + a2/L^2`` (exact
    interpolation when three sizes are given).  The uncertainty is the
    spread across the ansatz family {1/L, 1/L + 1/L^2, 1/L^p}.  The
    power-law candidate comes from :func:`_power_law_fit` and is kept only
    with more than three sizes (three are interpolated exactly by the three
    parameters, which leaves no residual to estimate them from), when its
    exponent lands farther than ``1e-6`` from the bounds ``[0.2, 5]`` and
    when the fit is finite.  Fewer than three distinct sizes leave the
    three parameters undetermined and raise ``ValueError`` before any fit.
    """
    if len(set(sizes)) < 3:
        raise ValueError(
            f"extrapolation needs at least three sizes, all distinct, got {list(sizes)}"
        )
    order = np.argsort(sizes)
    ell = np.asarray(sizes, dtype=float)[order]
    val = np.asarray(values, dtype=float)[order]
    a2 = np.column_stack([np.ones_like(ell), 1 / ell])
    a3 = np.column_stack([np.ones_like(ell), 1 / ell, 1 / ell**2])
    c2, *_ = np.linalg.lstsq(a2, val, rcond=None)
    c3, *_ = np.linalg.lstsq(a3, val, rcond=None)
    candidates = {"b + a1/L": float(c2[0]), "b + a1/L + a2/L^2": float(c3[0])}
    if len(ell) > 3:
        b_inf, p = _power_law_fit(ell, val)
        at_bound = min(abs(p - 0.2), abs(p - 5.0)) < 1e-6
        if np.isfinite(b_inf) and not at_bound:
            candidates["b + a1/L^p"] = b_inf
    residual = float(np.sqrt(np.mean((a3 @ c3 - val) ** 2)))
    uncertainty = max(abs(v - c3[0]) for v in candidates.values())
    return FitResult(
        float(c3[0]), "b + a1/L + a2/L^2", tuple(float(c) for c in c3),
        residual, float(uncertainty), candidates,
    )


def _power_law_fit(ell: np.ndarray, val: np.ndarray) -> tuple[float, float]:
    """Least-squares ``(b, p)`` of ``b + a1/L^p`` over ``p`` in ``[0.2, 5]``.

    Variable projection: for a fixed exponent the fit is linear, a 2x2
    least-squares solve for ``(b, a1)`` (written in centred form, so that it
    runs over an array of exponents at once), which leaves the squared
    residual as a function of ``p`` alone.  A grid of step 0.01 locates its
    smallest value, and golden-section search refines the bracket of two
    grid steps around it to ``1e-12`` in ``p``.  A minimum on a bound stays
    there.
    """
    y_mean = val.mean()
    yc = val - y_mean

    def projected(p: np.ndarray):
        x = ell[:, None] ** -p
        x_mean = x.sum(axis=0) / len(ell)
        xc = x - x_mean
        amp = (yc @ xc) / (xc * xc).sum(axis=0)
        r = yc[:, None] - amp * xc
        return y_mean - amp * x_mean, (r * r).sum(axis=0)

    def rss(p: float) -> float:
        return projected(np.array([p]))[1][0]

    grid = np.linspace(0.2, 5.0, 481)
    k = int(np.argmin(projected(grid)[1]))
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
    shrink = (np.sqrt(5.0) - 1) / 2
    c, d = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
    fc, fd = rss(c), rss(d)
    while hi - lo > 1e-12:
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - shrink * (hi - lo)
            fc = rss(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + shrink * (hi - lo)
            fd = rss(d)
    p = (lo + hi) / 2
    return float(projected(np.array([p]))[0][0]), float(p)


def _fit_sizes(sizes) -> list:
    """``sizes`` ascending, refused unless there are two or more, all distinct and positive.

    The exact 1/L interpolation of :func:`_inverse_power_fit` is singular
    otherwise, and a width below one has no sites, so ``ValueError`` is
    raised before any width is solved.
    """
    sizes = sorted(sizes)
    if len(sizes) < 2 or len(set(sizes)) < len(sizes) or sizes[0] < 1:
        raise ValueError(
            f"the 1/L fit needs at least two sizes, all distinct and positive, got {sizes}"
        )
    return sizes


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


def _ising_ground_state(L: int) -> tuple[float, np.ndarray]:
    """Certified ground state ``(E0, v)`` of the Ising ring, unit norm, positive.

    The solve runs in the rotation- and flip-invariant sector
    (:func:`loopcells.models.build_ising_sector`): ARPACK from ``sqrt(N)``,
    the sector image of the all-ones start (dense ``eigh`` on a sector of at
    most four orbits).  The sector vector is lifted to the ``2^L`` masks and
    certified against the full ring applied matrix-free: the residual
    ``||Hv - E0 v||`` must stay below ``1e-8 max(1, |E0|)`` and every
    amplitude must be positive.  The off-diagonal part of ``H`` is
    nonpositive and irreducible, so a positive eigenvector can only be the
    ground state; a failed check raises ``ArithmeticError``.
    """
    H, label, size = models.build_ising_sector(L)
    if H.shape[0] <= 4:
        energies, vecs = np.linalg.eigh(H.toarray())
    else:
        energies, vecs = spla.eigsh(H, k=1, which="SA", v0=np.sqrt(size))
    energy, u = float(energies[0]), vecs[:, 0]
    u = u * np.sign(u[int(np.argmax(np.abs(u)))])
    v = u[label] / np.sqrt(size[label])
    residual = float(np.linalg.norm(models.apply_ising(L, v) - energy * v))
    if residual > 1e-8 * max(1.0, abs(energy)):
        raise ArithmeticError(
            f"Ising ground state at L={L} has residual {residual:.2e} on the full ring"
        )
    if not np.all(v > 0):
        raise ArithmeticError(f"Ising ground state at L={L} is not positive on the full ring")
    return energy, v


_ISING_OVERLAPS: dict[int, tuple] = {}  # L -> (-log <fixed|0>, -log <free|0>), oldest first


def _ising_log_overlaps(L: int) -> tuple[float, float]:
    """``(-log <fixed|0>, -log <free|0>)`` of the width-L ring, solved once per process.

    The ground state is :func:`_ising_ground_state`, certified on the full
    ring at every solve; only the two log-overlaps are kept, for the last 16
    widths, so a ``fixed``/``free`` pair solves each width once.
    """
    def solve():
        _, v = _ising_ground_state(L)
        return tuple(float(-np.log(float(v @ vec))) for vec in models.ising_boundary_vectors(L))

    return diagrams._kept(_ISING_OVERLAPS, L, solve)


def ising_boundary_entropy(sizes=(12, 14, 16, 18), bc: str = "fixed") -> FitResult:
    """Universal boundary term of the critical transverse-field ring.

    For each size the Perron ground state is paired with the all-up product
    state (``bc="fixed"``) or the uniform sum over configurations
    (``bc="free"``); the constant term of the exact 1/L interpolation of
    ``-log <B|0>`` is the boundary entropy.

    The ground state is never solved on the full ``2^L`` ring.  Being a
    Perron vector, it is invariant under rotation and global spin flip, so
    it is found in that sector (about ``2^L / 2L`` orbits), lifted back to
    every configuration, and certified there against the full ring; see
    :func:`_ising_ground_state`.  A process keeps both conditions'
    log-overlaps of the last 16 widths it solved and none of the state
    (:func:`_ising_log_overlaps`), so the other condition, or a repeated
    call, solves no width again.  Fewer than two sizes, or a repeated or
    non-positive one, raise ``ValueError`` before any width is solved.
    """
    if bc not in ("fixed", "free"):
        raise ValueError(f"unknown boundary condition {bc!r}")
    return ising_boundary_entropies(sizes)[bc]


def ising_boundary_entropies(sizes=(12, 14, 16, 18)) -> dict[str, FitResult]:
    """:func:`ising_boundary_entropy` for ``"fixed"`` and ``"free"``, keyed by condition.

    Each width's ground state is solved and certified once per process and
    paired with both boundary vectors; the two log-overlaps are what is kept
    (:func:`_ising_log_overlaps`).
    """
    sizes = _fit_sizes(sizes)
    fixed, free = zip(*(_ising_log_overlaps(L) for L in sizes))
    return {"fixed": _inverse_power_fit(sizes, fixed), "free": _inverse_power_fit(sizes, free)}


def _loop_square(
    row: models.TransferRow, v: np.ndarray, lam: float, L: int, n: float
) -> float:
    """The bilinear square ``v^T G v`` of the row's Perron vector under the weight-``n`` loop form.

    ``G`` is never formed.  The ket row ``T = U Lo`` intertwines with the
    transposed bra row ``(Lo U)^T`` as ``G T = (Lo U)^T G``, so ``G v`` is
    the Perron vector ``u`` of ``(Lo U)^T`` times ``c``, and
    ``v^T G v = c (v . u)``.  ``c`` is read off one row of ``G``, the
    boundary's loop counts (:func:`loopcells.forms.boundary_loops`):
    ``c = (G v)_b / u_b``.  The result is certified: the two Perron values
    must agree to ``1e-12`` relative, ``c`` read off the boundary's
    one-site rotation must agree to ``1e-10`` relative, and the square must
    be positive; otherwise ``ArithmeticError`` is raised.
    """
    lam_bra, u = spectral.perron_pair(row.bra_row.T)
    if abs(lam_bra - lam) > 1e-12 * abs(lam):
        raise ArithmeticError(
            f"the loop row and its transposed bra row have Perron values {lam} and {lam_bra} "
            f"at L={L}, n={n}"
        )
    ratios = [
        _boundary_overlap(v, L, n, shift) / u[forms.boundary_loops(L, shift)[0]] for shift in (0, 1)
    ]
    if abs(ratios[1] - ratios[0]) > 1e-10 * abs(ratios[0]):
        raise ArithmeticError(
            f"the loop form of the state at L={L}, n={n} is not along the Perron vector "
            f"of the transposed bra row: the boundary rows give {ratios[0]} and {ratios[1]}"
        )
    square = ratios[0] * float(v @ u)
    if not square > 0:
        raise ArithmeticError(
            f"loop state's bilinear square at L={L}, n={n} is {square}; it is not positive"
        )
    return square


def _boundary_overlap(v: np.ndarray, L: int, n1: float, shift: int = 0) -> float:
    """``sum_s n1 ** loops(boundary, s) v_s`` for the all-adjacent-arcs boundary.

    It pairs the boundary, rotated by ``shift`` sites, with ``v`` under the
    weight-``n1`` loop form: one row of the Gram, from the boundary's loop
    counts (:func:`loopcells.forms.boundary_loops`).
    """
    return float(np.power(float(n1), forms.boundary_loops(L, shift)[1]) @ v)


_LOOP_MOMENTS: dict[tuple, np.ndarray] = {}  # (L, n) -> loop-count moments, oldest first


def _loop_moments(L: int, n: float) -> np.ndarray:
    """Moments ``m_k = sum_{loops(s) = k} v_s`` of the width-L ground state, solved once per process.

    ``v`` is the Perron vector of the weight-``n`` cylinder row normalized to
    bilinear square one (:func:`_loop_square`, certified at every solve),
    and ``loops`` the boundary's loop counts
    (:func:`loopcells.forms.boundary_loops`), so the overlap with the
    boundary at weight ``n1`` is ``sum_k n1**k m_k``.  Only the ``L//2 + 1``
    moments are kept, read-only, for the last 16 ``(L, float(n))``.
    """
    n = float(n)

    def solve():
        row = models.build_dense_loop_T(L, n)
        lam, v = spectral.perron_pair(row.ket_row)
        v = v / np.sqrt(_loop_square(row, v, lam, L, n))
        moments = np.bincount(forms.boundary_loops(L)[1], weights=v, minlength=L // 2 + 1)
        moments.flags.writeable = False
        return moments

    return diagrams._kept(_LOOP_MOMENTS, (L, n), solve)


def _refuse_weights(n: float, n1: float) -> None:
    """``ValueError`` unless ``0 < n < 2`` and ``n1`` is positive and finite."""
    if not (0 < n < 2):
        raise ValueError("the loop weight must satisfy 0 < n < 2")
    if not (0 < n1 < np.inf):
        raise ValueError(f"the boundary loop weight must be positive and finite, got {n1}")


def loop_boundary_entropy(n: float, n1: float, sizes=(12, 14, 16, 18)) -> LoopEntropyReport:
    """Boundary entropy of the dense loop model against its closed form.

    The boundary state is the all-adjacent-arcs diagram; every loop closed
    by the final gluing touches the boundary and is weighted ``n1`` instead
    of ``n``, so the overlap with a state is one row of the weight-``n1``
    loop form, ``sum_s n1 ** loops(s) v_s``.
    The Perron ground state of the ket row is normalized to bilinear square
    one under the weight-``n`` loop form through the Perron vector of the
    transposed bra row (:func:`_loop_square`); neither the loop Gram nor a
    factor of it is formed, and an uncertified square raises
    ``ArithmeticError``.  The state depends on ``(L, n)`` only, and ``n1``
    only through its loop-count moments: a process keeps those ``L//2 + 1``
    numbers for the last 16 ``(L, n)`` it solved (:func:`_loop_moments`),
    so another ``n1`` solves no width again.  Weights ``n <= 0`` are
    refused: the row then has no positive leading state, and the one of
    largest modulus has a negative or vanishing loop-form square at every
    width tried.  A non-positive or non-finite ``n1``, or fewer than two
    sizes, or a repeated, odd or non-positive one, raise ``ValueError``
    before any width is solved.
    """
    _refuse_weights(n, n1)
    sizes = _fit_sizes(sizes)
    if any(L % 2 for L in sizes):
        raise ValueError("the cylinder row needs even sizes")
    f_values = []
    for L in sizes:
        moments = _loop_moments(L, n)
        f_values.append(-np.log(float(np.power(float(n1), np.arange(len(moments))) @ moments)))
    fit = _inverse_power_fit(sizes, f_values)
    exact = loop_entropy_exact(n, n1)
    return LoopEntropyReport(n, n1, fit, exact, abs(fit.value - exact))


def loop_entropy_exact(n: float, n1: float) -> float:
    """Closed-form boundary entropy of the loop model.

    With ``n = 2 cos(gamma)`` and ``g = 1 - gamma/pi``, the boundary weight
    determines ``r`` through ``n1 = sin((r+1) gamma)/sin(r gamma)``, solved
    in closed form as ``r = atan2(sin gamma, n1 - cos gamma)/gamma``, and the
    entropy is ``-log[(2g)^(-1/4) (sin(r gamma/g)/sin(r gamma))
    (sin(gamma)/sin(gamma/g))^(1/2)]``.  It is real only for ``0 < n < 2``
    (for ``n <= 0``, ``gamma/g >= pi``), so other weights are refused, and
    ``r`` lies in ``(0, pi/gamma - 1)`` only for finite ``n1 > 0``.
    """
    _refuse_weights(n, n1)
    gamma = float(np.arccos(n / 2))
    g = 1 - gamma / np.pi
    if abs(n1 - n) < 1e-12:
        r = 1.0
    else:
        # n1 = cos(gamma) + sin(gamma) cot(r gamma), with 0 < r gamma < pi - gamma
        r = float(np.arctan2(np.sin(gamma), n1 - np.cos(gamma))) / gamma
    value = (
        (2 * g) ** -0.25
        * (np.sin(r * gamma / g) / np.sin(r * gamma))
        * np.sqrt(np.sin(gamma) / np.sin(gamma / g))
    )
    return float(-np.log(value))
