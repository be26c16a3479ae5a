"""Bilinear pairings under which the lattice operators are self-adjoint.

All pairings here are bilinear, never sesquilinear: ``pairing(u, v) =
sum_ij u_i G_ij v_j`` with no complex conjugation, so "norms" may vanish or
be negative.  The Gram matrices ``G`` are symmetric.  An entry is read off
the picture of the mirror image of one basis diagram glued on top of
another (:func:`loopcells.diagrams.glue`, the test oracle), but every form
reads the shared site arrays of :func:`loopcells.diagrams._arrays` instead:

* :func:`boundary_loops` -- periodic all-arc basis, weight ``n`` per closed
  loop: the loop counts of one row of the Gram, the all-adjacent-arcs
  boundary (or its one-site rotation) glued onto every state; the loop
  pairing is never tabulated (see
  :func:`loopcells.observables.loop_boundary_entropy`);
* :func:`dilute_sector_gram` -- dilute basis (sparse, any sub-basis): one
  for a loop-free gluing with matching empty sites, zero otherwise;
  :func:`dilute_gram` is its dense view on a whole parity basis;
* :func:`link_gram` -- open arc/string basis at loop weight one, where
  contracting a string pair whose left label is even costs ``y``; the
  contraction counts do not depend on ``y`` and are kept once per basis;
* :func:`identity_gram` -- the spin-chain pairing.

The dilute and link forms follow the lines of all pairs at once
(:func:`_line_ends`), the boundary row those of one pair per state.
:func:`selfadjointness_defect` and :func:`adjointness_matrix_defect` accept
dense or sparse operators, and :func:`pairing` a dense or sparse Gram
matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from .diagrams import _EMPTY_SITE, _STRING_SITE, LinkState, _arrays, enumerate_dense
from .diagrams import _per_basis, enumerate_dilute, enumerate_open
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


@lru_cache(maxsize=None)
def boundary_loops(L: int, shift: int = 0) -> tuple[int, np.ndarray]:
    """The all-adjacent-arcs boundary of width ``L`` rotated by ``shift`` sites, glued to each state.

    The boundary pairs the sites ``(1, 2), (3, 4), ...``, or ``(2, 3), ...,
    (L, 1)`` at ``shift = 1``.  Returns its row in ``enumerate_dense(L)``
    and the number of closed loops it makes with every state, so that row
    of the weight-``n`` loop Gram is ``n ** loops``.  The counts do not
    depend on the weight and are built once per width (read-only).

    A walker steps across a boundary arc, then across the state's arc.  Arcs
    join sites of opposite parity, so the walk keeps to one parity and meets
    every loop in one orbit of the even sites, of at most ``L/2`` of them; a
    loop is counted at its lowest even site.
    """
    basis = enumerate_dense(L)
    sites, rows = _arrays(basis)
    partner = ((((np.arange(L) - shift) % L) ^ 1) + shift) % L
    step = sites[:, partner].astype(np.intp)
    start = np.arange(0, L, 2)
    walker = np.broadcast_to(start, (len(basis), len(start)))
    lowest = walker.copy()
    for _ in range(L // 2 - 1):
        walker = np.take_along_axis(step, walker, axis=1)
        np.minimum(lowest, walker, out=lowest)
    loops = np.count_nonzero(lowest == start, axis=1).astype(np.int8)
    loops.flags.writeable = False
    return int(rows(partner[None, :].astype(np.int8))[0]), loops


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


def dilute_sector_gram(basis):
    """Sparse dilute Gram matrix on an arbitrary sub-basis (states or a site array).

    An entry is one for each loop-free gluing with matching empty sites and
    zero otherwise.  Each group of states with one occupation mask glues all
    its pairs at once (:func:`_line_ends`): walkers start at the bra's arc
    openers (every closed loop runs through one) and step through the bra
    arc, then the ket arc, with empty and string sites absorbing.  On ``k``
    occupied sites an open line is absorbed within ``k//2 + 1`` rounds and
    a closed loop never is, so a pair is loop-free when every walker is.
    """
    dim = len(basis)
    if not dim:
        return sp.csr_matrix((0, 0))
    sites = _arrays(basis)[0]
    L, narrow = sites.shape[1], np.min_scalar_type(sites.shape[1])
    here = np.arange(L)
    # arc partner of every site; empty and string sites go to the sentinel L
    step = np.hstack([np.where(sites >= 0, sites, L), np.full((dim, 1), L)]).astype(narrow).ravel()
    # arc openers of every state, first, then padded with the sentinel
    openers = np.sort(np.where(sites > here, here, L), axis=1)[:, : L // 2].astype(narrow)
    arc_count = np.count_nonzero(sites > here, axis=1)
    occupied = sites != _EMPTY_SITE
    # states grouped by occupation mask, ascending within each group
    masks = occupied @ (1 << here)
    order = np.argsort(masks, kind="stable")
    groups = np.split(order, np.flatnonzero(np.diff(masks[order])) + 1)
    rows, cols, pairs = [], [], {}
    for members in groups:
        size = len(members)
        if size not in pairs:
            pairs[size] = np.triu_indices(size)
        i, j = pairs[size]
        a, b = members[i], members[j]
        start = openers[a, : arc_count[members].max()]
        rounds = np.count_nonzero(occupied[members[0]]) // 2 + 1
        ends = _line_ends(step, a[:, None] * (L + 1), step, b[:, None] * (L + 1), start, rounds)
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
    An entry is ``y`` to the number of such contractions, which does not
    depend on ``y`` and is counted once per basis (:func:`_link_contractions`).
    """
    basis = enumerate_open(L)
    count = _per_basis(_LINK_CONTRACTIONS, basis, _link_contractions)
    dtype = complex if np.iscomplexobj(y) else float
    # y ** k as k repeated products: each entry is exactly the product of its weights
    powers = [1.0]
    for _ in range(int(count.max())):
        powers.append(powers[-1] * y)
    return BilinearForm(f"open:{L}:y={y}", np.asarray(powers, dtype=dtype)[count], basis)


_LINK_CONTRACTIONS: dict[int, tuple] = {}  # id of a basis -> (basis, its counts), oldest first


def _link_contractions(basis) -> np.ndarray:
    """String contractions of every glued pair of an open basis, as a read-only ``int8`` matrix.

    All pairs are glued at once (:func:`_line_ends`), as in
    :func:`dilute_sector_gram`.  On the bra side a string at site ``j``
    absorbs a line into the sentinel ``L + j``; on the ket side every string
    lets it through to ``2L``.  A line leaving an even-labelled bra string
    downward (ket step, then bra step) reaches its end within ``L // 2``
    rounds, and it is a contraction when that end is a bra string to its
    right; the same walk with the sides swapped finds the ket contractions.
    """
    dim = len(basis)
    partner = _arrays(basis)[0]
    L = partner.shape[1]
    string = partner == _STRING_SITE
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
    counts = np.empty((dim, dim), dtype=np.int8)
    counts[a, b] = counts[b, a] = count
    counts.flags.writeable = False
    return counts


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
