"""Boundary-row normalization by invertible recombination.

Rows are recombined (left-multiplied by an invertible matrix) so that the
total order kappa = sum of the row orders is minimal.  At each derivative
order, the leading pairs (a_j, b_j) live in C^2 and therefore admit at most
two linearly independent representatives; every further row of that order
can have its leading pair eliminated, which strictly lowers its order.
After normalization the rows are sorted by descending order, so that
k_j > k_{j+2} for all j.
"""

from dataclasses import dataclass

import numpy as np

from .model import BoundaryRow, OperatorSpec, RankError

__all__ = ["NormalizedBC", "reduce_total_order", "leading_forms"]

# Coefficients below DUST_TOL times the largest (or 1) count as zero.
DUST_TOL = 1e-12


@dataclass(frozen=True)
class NormalizedBC:
    """Result of :func:`reduce_total_order`.

    ``rows`` are the recombined boundary rows sorted by descending order;
    ``orders`` are their derivative orders ``k_j``; ``kappa`` is the total
    order.
    """

    order: int
    rows: tuple
    orders: tuple
    kappa: int

    @property
    def n(self):
        return self.order


def _row_order(vec, n, tol):
    for s in range(n - 1, -1, -1):
        if max(abs(vec[s]), abs(vec[n + s])) > tol:
            return s
    return -1


def reduce_total_order(spec_or_rows) -> NormalizedBC:
    """Normalize boundary rows to minimal total order.

    Accepts an :class:`OperatorSpec` or a sequence of :class:`BoundaryRow`.
    Raises :class:`RankError` when the rows are linearly dependent (a row
    vanishes during elimination).
    """
    if isinstance(spec_or_rows, OperatorSpec):
        rows = spec_or_rows.rows
    else:
        rows = tuple(spec_or_rows)
    if not rows:
        raise RankError("no boundary rows to normalize")
    n = rows[0].n
    mat = np.array([row.as_vector() for row in rows])
    count = len(rows)
    tol = DUST_TOL * max(np.abs(mat).max(), 1.0)

    ords = [_row_order(mat[j], n, tol) for j in range(count)]
    kappa_in = sum(ords)
    # Eliminating a leading pair of order k touches only that row and
    # lowers its order, so one sweep from the top order down meets every
    # group once, after the groups above it are done.
    for k in range(n - 1, -1, -1):
        members = [j for j in range(count) if ords[j] == k]
        if len(members) < 2:
            continue
        pairs = np.array([[mat[j][k], mat[j][n + k]] for j in members])
        norms = np.abs(pairs).max(axis=1)
        first = members[int(np.argmax(norms))]
        p1 = np.array([mat[first][k], mat[first][n + k]])
        # second pivot: largest residual after projecting out the first
        best_second, best_res = None, tol
        for j in members:
            if j == first:
                continue
            pj = np.array([mat[j][k], mat[j][n + k]])
            res = pj - (np.vdot(p1, pj) / np.vdot(p1, p1)) * p1
            if np.abs(res).max() > best_res:
                best_res = np.abs(res).max()
                best_second = j
        pivots = [first] if best_second is None else [first, best_second]
        basis = np.array([[mat[j][k], mat[j][n + k]] for j in pivots]).T
        for j in members:
            if j in pivots:
                continue
            target = np.array([mat[j][k], mat[j][n + k]])
            coeff, *_ = np.linalg.lstsq(basis, target, rcond=None)
            for c, piv in zip(coeff, pivots):
                mat[j] -= c * mat[piv]
            # the leading pair is now zero by construction; clear dust
            mat[j][k] = 0.0
            mat[j][n + k] = 0.0
            mat[j][np.abs(mat[j]) <= tol] = 0.0
            ords[j] = _row_order(mat[j], n, tol)

    if min(ords) < 0:
        raise RankError("boundary rows are linearly dependent")
    # kappa must never increase while eliminating
    assert sum(ords) <= kappa_in, "total order increased"
    perm = sorted(range(count), key=lambda j: -ords[j])
    mat = mat[perm]
    ords = [ords[j] for j in perm]
    rows_out = tuple(BoundaryRow.from_vector(mat[j]) for j in range(count))
    return NormalizedBC(n, rows_out, tuple(ords), sum(ords))


def leading_forms(nbc: NormalizedBC):
    """Leading boundary forms ``(k_j, a_j, b_j)`` of normalized rows.

    ``a_j`` and ``b_j`` are the coefficients of ``y^(k_j)`` at the two
    endpoints; at least one of them is nonzero for every row.
    """
    out = []
    for row, k in zip(nbc.rows, nbc.orders):
        out.append((k, row.a[k], row.b[k]))
    return tuple(out)
