"""The dilute row formed as CSR half-rows: the oracle of the tile operator.

Every tile map of :func:`loopcells.models._lozenge_ops` becomes one CSR
factor, the boundary half-tiles become diagonal factors of their own, and
each half-row is the sparse product of its factors.  The string-sector
blocks are slices of the formed half-rows, kept as unformed products
(:class:`FactoredOperator`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
import scipy.sparse as sp

from loopcells import diagrams as dg
from loopcells import fixtures as fx
from loopcells import models


@dataclass
class FactoredOperator:
    """A product of sparse factors kept unformed for cheap application.

    ``factors`` act in list order, so the operator is ``factors[-1] @ ...
    @ factors[0]``; its transpose is the reversed list of transposed factors.
    """

    factors: list[sp.csr_matrix]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.factors[-1].shape[0], self.factors[0].shape[1])

    def apply(self, v: np.ndarray) -> np.ndarray:
        for f in self.factors:
            v = f @ v
        return v

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        return self.apply(v)

    @property
    def T(self) -> FactoredOperator:
        return FactoredOperator([f.T for f in reversed(self.factors)])

    def matrix(self) -> np.ndarray:
        out = reduce(lambda acc, f: f @ acc, self.factors, sp.identity(self.shape[1], format="csr"))
        return np.asarray(out.todense())


@dataclass
class FormedRow:
    """The dilute row with both half-rows formed as CSR matrices."""

    basis: np.ndarray
    lower: sp.csr_matrix
    upper: sp.csr_matrix

    @property
    def ket_row(self) -> sp.csr_matrix:
        return self.upper @ self.lower

    @property
    def bra_row(self) -> sp.csr_matrix:
        return self.lower @ self.upper


def csr_lozenge(basis, site: int, x: float) -> sp.csr_matrix:
    """One lozenge as a CSR matrix: its staying entries plus its moves of weight ``x^2``."""
    stay, cols, rows = models._lozenge_ops(basis, site, x)
    dim = len(stay)
    rows = np.concatenate([np.arange(dim), rows])
    cols = np.concatenate([np.arange(dim), cols])
    vals = np.concatenate([stay, np.full(len(cols) - dim, x**2)])
    return sp.csr_matrix(sp.coo_matrix((vals, (rows, cols)), shape=(dim, dim)))


def formed_row(L: int, x: float | None = None, basis=None) -> FormedRow:
    """The width-``L`` row on ``basis`` (the row basis by default), each half-row formed."""
    x = fx.X_CRITICAL if x is None else x
    basis = dg.dilute_row_sites(L) if basis is None else basis
    sites = dg._arrays(basis)[0]

    def ops(pairs, triangles):
        mats = [csr_lozenge(basis, p, x) for p in pairs]
        # boundary half-tiles: an occupied leg passes through with weight x
        mats += [sp.diags(np.where(sites[:, t] != dg._EMPTY_SITE, x, 1.0)).tocsr() for t in triangles]
        return reduce(lambda a, b: a @ b, mats)

    if L % 2 == 0:
        lower, upper = ops(range(0, L - 1, 2), ()), ops(range(1, L - 2, 2), (0, L - 1))
    else:
        lower, upper = ops(range(0, L - 2, 2), (L - 1,)), ops(range(1, L - 1, 2), (0,))
    return FormedRow(basis, lower, upper)


def formed_blocks(row: FormedRow):
    """``(T00, T02, T22, n0)`` of the ket row from slices of the formed half-rows.

    With the ket row ``upper @ lower`` written in blocks ``l``/``u`` and no
    string created, ``T00 = u00 l00``, ``T22 = u22 l22`` and ``T02 = u00 l02
    + u02 l22``, the last as the product of the column and row slices.
    """
    n0 = int(np.count_nonzero(~np.any(row.basis == dg._STRING_SITE, axis=1)))
    lower, upper = row.lower.tocsr(), row.upper.tocsr()
    T00 = FactoredOperator([lower[:n0, :n0], upper[:n0, :n0]])
    T02 = FactoredOperator([lower[:, n0:], upper[:n0, :]])
    T22 = FactoredOperator([lower[n0:, n0:], upper[n0:, n0:]])
    return T00, T02, T22, n0
