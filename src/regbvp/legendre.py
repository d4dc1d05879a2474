"""Exact shifted-Legendre calculus on the polynomial trial space.

The trial space is spanned by the orthonormal shifted Legendre
polynomials phi_k(x) = sqrt(2k + 1) P_k(2x - 1) on [0, 1], and the
boundary rows become linear constraints on the coefficients
(:func:`constrained_basis`).  Every integral is exact in coefficient
space: the basis is orthonormal, so (f, g) is the inner product of
coefficient vectors, a derivative is a triangular matrix
(:func:`derivative_matrix`) and a polynomial coefficient acts on a
coefficient matrix through the three-term recurrence of x, by Horner's
rule (:func:`multiplication`), without a matrix of its own.  No quadrature
is involved (numpy's Gauss-Legendre weights carry relative errors up to
about 1e-11 at these sizes).  This is the Legendre-Galerkin setting of
Shen (SIAM J. Sci. Comput. 15, 1994) and of the coefficient-space
operators of Olver and Townsend (SIAM Review 55, 2013).

The constrained trial spaces V_N (degree < N + n, boundary rows
satisfied) are nested, and :func:`constrained_basis` builds one basis
for all of them, following Shen's basis recombination: past a head of
2n modes, where the rows have full rank, each further basis function is
the kernel vector of the rows on a window of n + 1 consecutive modes,
from one batched solve.  Rows are normalized over the head, so no
scaling depends on the dimension, and one QR at the end keeps the
nesting exact: for N >= n the first N columns span V_N and are zero
from row N + n on.  Every matrix on V_N is thus the leading block of
the one on the largest space, so a ladder of dimensions is assembled
once (:mod:`regbvp.numrange`, the resolvent operators of
:mod:`regbvp.spectral`).

:func:`strong_operator` is the map y -> l y = sum_j c_j y^(j) on these
coefficients.  :func:`galerkin_form` projects it onto the constrained
basis, (l phi_k, phi_i); so does the form identity check
(:func:`regbvp.quasiform.verify_form_identity`), as its reference side,
on the basis of the split assembly it checks: it takes n derivatives of
the basis and has no boundary term.  ``tests/oracles.py`` integrates
:func:`galerkin_form` symbolically.  The resolvent norms of
:mod:`regbvp.spectral` apply it to the constrained basis without
projecting: for the model expression, whose coefficient is constant,
u -> (l - lambda) u is then an exact rectangular matrix.  The split
assembly that the numerical range uses is
:func:`regbvp.quasiform.split_form`.

That assembly reads the split form on the whole coefficient space before
the basis is applied, K = sum of c D_a^T X^j D_b over the coefficients c
of its p, q and r, with D_a the :func:`derivative_matrix` and X^j the
multiplication by x^j that :func:`multiplication` applies.  Each real
piece D_a^T X^j D_b (:func:`form_piece`) is built once per (count, a, b,
j) and kept read-only in a bounded cache; X^j, the compression of a
symmetric operator, is symmetric, so the cache holds a <= b only and
reads b < a as a transpose.  Every entry of D_a and of the recurrence is
nonnegative, so the pieces carry no cancellation.
"""

import functools

import numpy as np

from .model import OperatorSpec, Poly, SpecError, operator_coefficients

__all__ = [
    "column_space",
    "null_space",
    "rounding_cutoff",
    "endpoint_jets",
    "derivative_matrix",
    "multiplication",
    "form_piece",
    "constrained_basis",
    "strong_operator",
    "galerkin_form",
]

SV_CUTOFF = 1e-10


def _rank(s, cutoff):
    """How many of the descending singular values ``s`` exceed ``cutoff`` times the largest."""
    return int(np.sum(s > cutoff * s[0])) if s.size else 0


def column_space(mat, cutoff=SV_CUTOFF):
    u, s, _ = np.linalg.svd(mat)
    return u[:, :_rank(s, cutoff)]


def null_space(mat, cutoff=SV_CUTOFF):
    """Orthonormal basis of the kernel of ``mat``, as C-contiguous columns.

    Singular values up to ``cutoff`` times the largest count as zero; the
    kernel of a zero matrix is the exact identity.
    """
    _, s, vh = np.linalg.svd(mat)
    rank = _rank(s, cutoff)
    if rank == 0:
        return np.eye(mat.shape[1], dtype=complex)
    return np.ascontiguousarray(vh[rank:].conj().T)


def rounding_cutoff(mat):
    """Relative singular-value cutoff at the rounding level of ``mat``."""
    return np.finfo(float).eps * max(mat.shape)


def _legendre_norms(count):
    # shifted Legendre: integral of P_k(2x-1)^2 over [0,1] is 1/(2k+1)
    return np.sqrt(2.0 * np.arange(count) + 1.0)


def endpoint_jets(count, orders):
    """phi_k^(j)(x) for x in {0, 1}; returns (at0, at1) of shape (orders, count).

    Closed form: P_k^(j)(1) = prod_{i<j} (k(k+1) - i(i+1)) / (2(i+1)) and
    P_k^(j)(-1) = (-1)^(k+j) P_k^(j)(1), with each factor doubled by
    d/dx = 2 d/dt.  (Clenshaw sums at -1 alternate in sign and lose digits
    at high degree.)
    """
    k = np.arange(count, dtype=float)
    at1 = np.empty((orders, count))
    value = _legendre_norms(count)
    for j in range(orders):
        if j:
            value = value * (k * (k + 1) - (j - 1) * j) / j
        at1[j] = value
    sign = (-1.0) ** (np.arange(orders)[:, None] + k[None, :])
    return sign * at1, at1


def derivative_matrix(count, order):
    """Column k: orthonormal coefficients of phi_k^(order) (upper triangular),
    the order-th power of d/dx phi_k = sum over j < k with k - j odd of
    2 sqrt(2j + 1) sqrt(2k + 1) phi_j."""
    j, k = np.ogrid[:count, :count]
    norms = _legendre_norms(count)
    step = np.where((j < k) & ((k - j) % 2 == 1), 2.0 * np.outer(norms, norms), 0.0)
    return np.linalg.matrix_power(step, order)


def multiplication(poly, coeffs):
    """poly * y for each column y of ``coeffs``, orthonormal coefficients
    of polynomials of degree < len(coeffs), in rows < len(coeffs),
    exactly: x phi_k = b_{k+1} phi_{k+1} + phi_k / 2 + b_k phi_{k-1} with
    b_k = k / (2 sqrt(4 k^2 - 1)), applied to the rows by Horner's rule,
    so the banded map costs O(deg) passes over ``coeffs``."""
    count = coeffs.shape[0]
    size = count + poly.degree
    k = np.arange(1.0, size)
    off = (k / (2.0 * np.sqrt(4.0 * k * k - 1.0)))[:, None]
    padded = np.zeros((size,) + coeffs.shape[1:], dtype=complex)
    padded[:count] = coeffs
    out = poly.coeffs[-1] * padded
    for c in poly.coeffs[-2::-1]:
        prod = 0.5 * out
        prod[:-1] += off * out[1:]
        prod[1:] += off * out[:-1]
        prod += c * padded
        out = prod
    return out[:count]


def form_piece(count, a, b, j):
    """The read-only real count x count matrix D_a^T X^j D_b, with D_a
    the :func:`derivative_matrix` of order a and X^j the multiplication
    by x^j on degrees below ``count``, truncated as :func:`multiplication`
    applies it: the coefficients of (x^j phi_l^(b), phi_k^(a)) in row k,
    column l.  Cached for a <= b; b < a is the transpose of (b, a, j)."""
    return _piece(count, b, a, j).T if b < a else _piece(count, a, b, j)


@functools.lru_cache(maxsize=32)
def _piece(count, a, b, j):
    """:func:`form_piece` for a <= b, built once."""
    right = derivative_matrix(count, b)
    if j:
        right = multiplication(Poly((0,) * j + (1,)), right).real
    piece = derivative_matrix(count, a).T @ right
    piece.flags.writeable = False
    return piece


def constrained_basis(spec: OperatorSpec, dim):
    """Orthonormal basis of V_dim = {deg < dim + n polynomials with U_j(y) = 0}.

    Returns a (dim + n, dim) matrix of shifted-Legendre coefficients whose
    columns are orthonormal in L2(0, 1).  The basis is nested degree by
    degree: for n <= N <= dim its first N columns span V_N, and they are
    exactly zero in every row from N + n on, so they are the first N
    columns of the basis for any larger dimension up to rounding, and
    every Galerkin matrix on V_N is the leading N x N block of the one on
    V_dim.

    The columns are built as in Shen's Legendre-Galerkin recombination
    (SIAM J. Sci. Comput. 15, 1994), each from a few consecutive modes,
    before one QR orthonormalizes them all; QR keeps the nesting, since
    its column k combines input columns 0..k only.

    - The head: the kernel of the rows on the first min(2n, dim + n)
      modes, where n independent rows have full rank n (Hermite
      interpolation), so it has dimension n (dim when dim < n).  Modes
      that no row sees (1 and x under free-beam rows) are exact unit
      vectors, placed first, so that QR leaves them exact.
    - The window vectors: for every further mode j + n (n <= j < dim),
      the kernel vector on modes j..j + n with coefficient 1 on mode
      j + n, from one batched solve of the n x n blocks on modes
      j..j + n - 1.  Where a block is singular to working precision (a
      coefficient of its solution exceeds 1 / SV_CUTOFF, or the batched
      solve fails), the vector is the least-norm one on all modes below
      j + n instead, which exists because the head has full rank; a mode
      past the head that no row sees gets its unit vector this way.

    The row entries grow like k^(2s) with the degree k, so each row is
    normalized over the head and every column is scaled to unit maximum
    before the kernel is taken, and the basis is orthonormalized after
    the scaling is undone: an SVD of the unscaled rows has a backward
    error of eps times the largest entry, which tilts the subspace enough
    to move the numerical-range minima of ``mixed4`` by 15 eps ||F_N||.
    No scaling depends on dim.
    """
    n = spec.order
    if dim < 1:
        raise ValueError("dimension must be positive")
    count = dim + n
    head = min(2 * n, count)
    at0, at1 = endpoint_jets(count, n)
    rows = np.empty((n, count), dtype=complex)
    for j, row in enumerate(spec.rows):
        rows[j] = np.asarray(row.a) @ at0 + np.asarray(row.b) @ at1
    rows = rows / np.linalg.norm(rows[:, :head], axis=1, keepdims=True)
    largest = np.abs(rows).max(axis=0)
    columns = 1.0 / np.where(largest > 0, largest, 1.0)
    scaled = rows * columns
    seen = largest[:head] > 0
    kernel = null_space(scaled[:, :head][:, seen], rounding_cutoff(rows[:, :head]))
    unseen = np.flatnonzero(~seen)
    if unseen.size + kernel.shape[1] != head - n:
        found = unseen.size + kernel.shape[1] + dim - (head - n)
        raise SpecError(
            f"boundary rows lose rank on the polynomial trial space "
            f"(got a subspace of dimension {found}, expected {dim})")
    full = np.zeros((count, dim), dtype=complex)
    full[unseen, np.arange(unseen.size)] = 1.0
    full[np.flatnonzero(seen), unseen.size:head - n] = kernel
    tops = np.arange(head, count)
    window = tops[:, None] + np.arange(-n, 0)
    try:
        tail = np.linalg.solve(scaled[:, window].transpose(1, 0, 2),
                               -scaled[:, tops].T[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        tail = np.full(window.shape, np.nan)
    full[tops, tops - n] = 1.0
    full[window, (tops - n)[:, None]] = tail
    for top in tops[~(np.abs(tail).max(axis=1) * SV_CUTOFF <= 1.0)]:
        full[:top, top - n] = np.linalg.lstsq(scaled[:, :top], -scaled[:, top])[0]
    return np.ascontiguousarray(np.linalg.qr(columns[:, None] * full)[0])


def strong_operator(spec: OperatorSpec, count):
    """The count x count matrix of y -> sum_j c_j y^(j) on the orthonormal
    coefficients of polynomials of degree < count, rows < count: exact
    when every c_j is constant, since l y then has degree < count."""
    form = np.zeros((count, count), dtype=complex)
    for j, c in enumerate(operator_coefficients(spec)):
        if c:
            form += multiplication(c, derivative_matrix(count, j))
    return form


def galerkin_form(spec: OperatorSpec, dim):
    """The dim x dim matrix of (l phi_k, phi_i) on the constrained basis,
    from the strong form sum_j c_j y^(j), exactly in coefficient space."""
    basis = constrained_basis(spec, dim)
    return basis.conj().T @ strong_operator(spec, dim + spec.order) @ basis
