"""Bilinear pairings under which the lattice operators are self-adjoint.

All pairings here are bilinear, never sesquilinear: ``pairing(u, v) =
sum_ij u_i G_ij v_j`` with no complex conjugation, so "norms" may vanish or
be negative.  The Gram matrices ``G`` are symmetric.  An entry is read off
the picture of the mirror image of one basis diagram glued on top of
another (:func:`loopcells.diagrams.glue`), but no form calls ``glue`` per
pair: the loop form factors through spin states, and the dilute and link
forms follow the lines of all pairs at once with numpy (:func:`_line_ends`):

* :func:`loop_gram` -- periodic all-arc basis, weight ``n`` per closed loop,
  the dense view of ``M^T M`` for the sparse singlet factor ``M`` of
  :func:`singlet_factor` (each arc a q-singlet, ``q + 1/q = n``), so a
  square ``v^T G v`` is the bilinear ``(Mv)^T (Mv)`` and no ``dim x dim``
  table is needed; :func:`loop_count_matrix` is the diagrammatic oracle;
* :func:`dilute_sector_gram` -- dilute basis (sparse, any sub-basis): zero
  unless the empty sites agree and no closed loop forms (loops carry weight
  zero), weight one otherwise; it finds the loops of all same-mask pairs at
  once with numpy, by iterating the bra-then-ket arc map, and calls
  :func:`~loopcells.diagrams.glue` for none of them; :func:`dilute_gram` is
  its dense view on a whole parity basis;
* :func:`link_gram` -- open arc/string basis at loop weight one, where
  contracting a string pair whose left label is even costs ``y``; it walks
  the lines that leave the even-labelled strings of every pair at once;
* :func:`identity_gram` -- the spin-chain pairing (Euclidean components,
  bilinear because nothing is conjugated).

:func:`selfadjointness_defect` measures ``max |pairing(Au, v) -
pairing(u, Av)|`` over random vectors, normalized by the operator and vector
scales; it and :func:`adjointness_matrix_defect` accept dense or sparse
operators; :func:`pairing` accepts a dense or sparse Gram matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .diagrams import ARC, STRING, LinkState, enumerate_dense, enumerate_dilute, enumerate_open, glue
from .spectral import _dense


@dataclass(frozen=True)
class BilinearForm:
    """A symmetric Gram matrix together with the basis it refers to."""

    basis_tag: str
    gram: np.ndarray
    basis: tuple[LinkState, ...] | None = field(default=None, compare=False)

    def pairing(self, u: np.ndarray, v: np.ndarray) -> complex:
        return pairing(u, self.gram, v)

    @property
    def dim(self) -> int:
        return self.gram.shape[0]


def pairing(u: np.ndarray, gram, v: np.ndarray) -> complex:
    """``u^T G v`` with no conjugation; ``gram`` may be dense or sparse."""
    return complex(np.asarray(u) @ (gram @ np.asarray(v)))


def loop_gram(L: int, weight: complex) -> BilinearForm:
    """Gram matrix of the periodic dense basis: ``weight`` per closed loop.

    The dense view of ``M^T M`` for the :func:`singlet_factor` ``M``.
    """
    m = singlet_factor(L, weight)
    gram = (m.T @ m).toarray()
    if not np.iscomplexobj(weight):
        gram = gram.real
    return BilinearForm(f"dense:{L}", gram, enumerate_dense(L))


def singlet_factor(L: int, n: complex) -> sp.csr_matrix:
    """Sparse ``M`` with ``M^T M`` the weight-``n`` loop Gram (Pasquier-Saleur).

    Column ``k`` is the state ``enumerate_dense(L)[k]`` written in the spin
    basis: each arc ``(i, j)``, ``i < j``, becomes the singlet
    ``q^{-1/2}|up_i down_j> - q^{1/2}|down_i up_j>`` with ``q + 1/q = n``,
    and the product carries the sign ``(-1)^(number of nested arc pairs)``.
    Two singlets glued along a loop contract to ``q + 1/q = n`` without
    conjugation, so ``(M^T M)_ab = n ** loops(a, b)``.  Row ``r`` is the spin
    mask ``r`` (bit set = down spin, site 1 = most significant bit); every
    column holds ``2^(L/2)`` nonzeros.
    """
    basis = enumerate_dense(L)
    dim, arcs = len(basis), L // 2
    n = complex(n)
    q = (n + np.sqrt(n * n - 4)) / 2
    root = np.sqrt(q)
    partner = np.array([s.partner for s in basis], dtype=np.int64)
    opener = partner > np.arange(L)
    # nested pairs: every arc counts the arcs still open where it opens
    step = np.where(opener, 1, -1)
    depth = np.cumsum(step, axis=1) - step
    sign = 1 - 2 * (np.sum(depth * opener, axis=1) % 2)
    left = np.nonzero(opener)[1].reshape(dim, arcs)
    right = np.take_along_axis(partner, left, axis=1)
    bit_left = 1 << (L - 1 - left)
    bit_right = 1 << (L - 1 - right)
    # choice bit k set: arc k reads down-up (weight -q^{1/2}), else up-down
    choices = (np.arange(1 << arcs)[:, None] >> np.arange(arcs)) & 1
    masks = bit_right.sum(axis=1)[:, None] + (bit_left - bit_right) @ choices.T
    flips = choices.sum(axis=1)
    weights = (1 / root) ** (arcs - flips) * (-root) ** flips
    data = sign[:, None] * weights[None, :]
    m = sp.csc_matrix(
        (data.ravel(), masks.ravel(), np.arange(dim + 1) * (1 << arcs)),
        shape=(1 << L, dim),
    )
    return m.tocsr()


def loop_count_matrix(basis: tuple[LinkState, ...]) -> np.ndarray:
    """Closed-loop counts of every mirror-gluing of two basis states.

    The diagrammatic oracle for :func:`singlet_factor`: ``O(dim^2)`` gluings.
    """
    dim = len(basis)
    counts = np.zeros((dim, dim), dtype=np.int8)
    for a in range(dim):
        for b in range(a, dim):
            c = glue(basis[a], basis[b]).loops
            counts[a, b] = counts[b, a] = c
    return counts


def _line_ends(first, first_at, then, then_at, site, rounds: int):
    """Where lines through glued pairs stand after ``rounds`` two-step rounds.

    ``first`` and ``then`` are flattened per-state site maps, one row per
    state, with room past the ``L`` sites for sentinels that every map
    fixes.  A walker at ``site`` steps through the ``first`` row starting at
    ``first_at``, then through the ``then`` row starting at ``then_at``; a
    line that reaches a sentinel stays there.  The arguments broadcast.
    """
    for _ in range(rounds):
        site = then[then_at + first[first_at + site]]
    return site


def dilute_sector_gram(basis: tuple[LinkState, ...]):
    """Sparse dilute Gram matrix on an arbitrary sub-basis.

    An entry is one for each loop-free gluing with matching empty sites and
    zero otherwise.  States are grouped by their occupation mask, and each
    group glues all its pairs at once (:func:`_line_ends`): every site is
    sent through the bra arc, then the ket arc, with empty and string sites
    sent to an absorbing sentinel.  A site on an open line reaches the
    sentinel within ``L//2 + 1`` such steps, while a site on a closed loop
    never does, so a pair is loop-free exactly when every site has reached
    it.  Returned as a CSR matrix because large sector bases make the dense
    form wasteful.
    """
    dim = len(basis)
    if not dim:
        return sp.csr_matrix((0, 0))
    L = basis[0].size
    # arc partner of every site; empty and string sites go to the sentinel L
    step = np.full((dim, L + 1), L, dtype=np.min_scalar_type(L))
    groups: dict[tuple[bool, ...], list[int]] = {}
    for k, s in enumerate(basis):
        arcs = [i for i, r in enumerate(s.roles) if r == ARC]
        step[k, arcs] = [s.partner[i] for i in arcs]
        groups.setdefault(s.occupied_mask, []).append(k)
    step = step.ravel()
    rows, cols = [], []
    for members in groups.values():
        members = np.asarray(members)
        i, j = np.triu_indices(len(members))
        a, b = members[i], members[j]
        ends = _line_ends(
            step, a[:, None] * (L + 1), step, b[:, None] * (L + 1), np.arange(L), L // 2 + 1
        )
        free = np.all(ends == L, axis=1)
        a, b = a[free], b[free]
        off = a != b
        rows += [a, b[off]]
        cols += [b, a[off]]
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    data = np.ones(len(rows))
    return sp.csr_matrix(sp.coo_matrix((data, (rows, cols)), shape=(dim, dim)))


def identity_gram(dim: int, tag: str = "spin") -> BilinearForm:
    """The spin-basis pairing: identity Gram, bilinear (no conjugation)."""
    return BilinearForm(tag, np.eye(dim), None)


def dilute_gram(L: int, parity: str = "even") -> BilinearForm:
    """Dense Gram matrix of the dilute basis (see :func:`dilute_sector_gram`).

    An entry vanishes when the empty sites differ or when the gluing closes
    any loop; every surviving gluing (string contractions and through lines
    included) has weight one.
    """
    basis = enumerate_dilute(L, parity)
    gram = dilute_sector_gram(basis).toarray()
    return BilinearForm(f"dilute:{L}:{parity}", gram, basis)


def link_gram(L: int, y: complex = 1.0) -> BilinearForm:
    """Gram matrix of the open arc/string basis at loop weight one.

    Every closed loop counts one.  Contracting a pair of same-side strings
    picks up ``y`` when the left label of the pair is even (the contraction
    straddles two label pairs) and one otherwise; through lines count one.
    At ``y = 1`` this is the plain loop-type pairing of the open basis.

    All pairs are glued at once (:func:`_line_ends`), as in
    :func:`dilute_sector_gram`.  On the bra side a string at site ``j``
    absorbs a line into the sentinel ``L + j``; on the ket side every string
    lets it through to ``2L``.  A line leaving an even-labelled bra string
    downward (ket step, then bra step) reaches its end within ``L // 2``
    rounds, and it is a contraction when that end is a bra string to its
    right; the same walk with the sides swapped finds the ket contractions.
    An entry is ``y`` to the number of such contractions.
    """
    basis = enumerate_open(L)
    dim = len(basis)
    dtype = complex if np.iscomplexobj(y) else float
    partner = np.array([s.partner for s in basis])
    string = np.array([s.roles for s in basis]) == STRING
    even = string & (np.cumsum(string, axis=1) % 2 == 0)
    width = 2 * L + 1
    fixed = np.broadcast_to(np.arange(L, width), (dim, L + 1))
    site_type = np.min_scalar_type(2 * L)
    absorb = np.hstack([np.where(string, L + np.arange(L), partner), fixed]).astype(site_type)
    through = np.hstack([np.where(string, 2 * L, partner), fixed]).astype(site_type)
    absorb, through = absorb.ravel(), through.ravel()
    a, b = np.triu_indices(dim)
    count = np.zeros(len(a), dtype=np.intp)
    for own, other in ((a, b), (b, a)):
        pair, start = np.nonzero(even[own])
        ends = _line_ends(through, other[pair] * width, absorb, own[pair] * width, start, L // 2)
        count += np.bincount(pair[(ends > L + start) & (ends < 2 * L)], minlength=len(a))
    # y ** k as k repeated products: each entry is exactly the product of its weights
    powers = [1.0]
    for _ in range(int(count.max())):
        powers.append(powers[-1] * y)
    gram = np.empty((dim, dim), dtype=dtype)
    gram[a, b] = gram[b, a] = np.asarray(powers, dtype=dtype)[count]
    return BilinearForm(f"open:{L}:y={y}", gram, basis)


def selfadjointness_defect(
    op: np.ndarray,
    form: BilinearForm,
    trials: int = 20,
    seed: int = 7,
) -> float:
    """Largest normalized asymmetry ``|pairing(Au, v) - pairing(u, Av)|``.

    Sampling random complex vectors; the exact criterion is
    ``G A = A^T G``, which the sampled defect bounds from below.
    """
    op = _dense(op)
    if op.shape[0] != form.dim:
        raise ValueError(f"operator dimension {op.shape[0]} != form dimension {form.dim}")
    rng = np.random.default_rng(seed)
    scale = np.linalg.norm(op, ord="fro") * np.linalg.norm(form.gram, ord="fro")
    worst = 0.0
    for _ in range(trials):
        u = rng.standard_normal(form.dim) + 1j * rng.standard_normal(form.dim)
        v = rng.standard_normal(form.dim) + 1j * rng.standard_normal(form.dim)
        lhs = pairing(op @ u, form.gram, v)
        rhs = pairing(u, form.gram, op @ v)
        worst = max(worst, abs(lhs - rhs) / (scale * np.linalg.norm(u) * np.linalg.norm(v) / form.dim))
    return worst


def adjointness_matrix_defect(op: np.ndarray, form: BilinearForm) -> float:
    """Direct matrix criterion: ``max |G A - A^T G|`` over entries, normalized."""
    op = _dense(op)
    lhs = form.gram @ op
    rhs = op.T @ form.gram
    scale = max(float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))), 1e-300)
    return float(np.max(np.abs(lhs - rhs))) / scale
