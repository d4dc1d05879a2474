"""Quadratic-form splitting of even-order divergence expressions.

For an expression of order n = 2m in divergence form, the quasi-derivatives

    y^[k]   = y^(k),                                   k < m,
    y^[m]   = y^(m) - r_m y^(m-1),
    y^[m+k] = -(y^[m+k-1])' + p_{m-k} y^(m-k)
              + q_{m-k+1} y^(m-k+1) - r_{m-k} y^(m-k-1),   k = 1..m,

are chosen so that integration by parts turns (l y, y) into

    sum_{k=1}^m [ (p_k y^(k), y^(k)) + (q_k y^(k), y^(k-1))
                  - (r_k y^(k-1), y^(k)) ] + (p_0 y, y) + (y_vee, y_wedge)

with the endpoint vectors

    y_wedge = (y(0), ..., y^(m-1)(0), y(1), ..., y^(m-1)(1)),
    y_vee   = (y^[2m-1](0), ..., y^[m](0), -y^[2m-1](1), ..., -y^[m](1)).

Boundary rows then read B y_wedge + C y_vee = 0.  The splitting is called
completely regular when B^{-1}(im C) equals the orthogonal complement of
ker C; in that case a matrix A exists with (y_vee, x) = (A y_wedge, x) for
admissible y and all x in B^{-1}(im C), which turns the boundary term of
the quadratic form into (A y_wedge, y_wedge).

The two subspaces coincide when their largest principal angle is at most
the module constant ``ANGLE_TOL``.
"""

from dataclasses import dataclass

import numpy as np

from .model import (
    ZERO,
    DivergenceForm,
    OperatorSpec,
    Poly,
    SpecError,
    expand_divergence,
)

__all__ = [
    "QuasiTransition",
    "SplitBC",
    "CompleteRegularityReport",
    "quasi_jets",
    "quasi_transition",
    "split_bc",
    "check_completely_regular",
    "boundary_form_matrix",
    "verify_form_identity",
]

SV_CUTOFF = 1e-10
ANGLE_TOL = 1e-8
RECURRENCE_TOL = 1e-12
# Trial-space dimension of verify_form_identity: its polynomials reach
# degree 15 + n, far above the order n, at a cost of a few milliseconds.
FORM_IDENTITY_DIMENSION = 16


def _require_divergence(spec: OperatorSpec) -> DivergenceForm:
    if not isinstance(spec.form, DivergenceForm):
        raise SpecError("quadratic-form analysis requires the divergence form")
    return spec.form


def quasi_jets(form: DivergenceForm):
    """Rows of polynomials expressing y^[j] = sum_s jets[j][s] * y^(s).

    Returns rows j = 0..2m; row 2m reproduces the expanded expression,
    which :func:`quasi_transition` uses as an internal cross-check.
    """
    m = form.m
    n = 2 * m
    jets = []
    for k in range(m):
        row = [ZERO] * (n + 1)
        row[k] = Poly.constant(1)
        jets.append(row)
    row = [ZERO] * (n + 1)
    row[m] = Poly.constant(1)
    row[m - 1] = -form.r[m]
    jets.append(row)
    for k in range(1, m + 1):
        prev = jets[m + k - 1]
        row = [ZERO] * (n + 1)
        for s in range(n + 1):
            row[s] = row[s] - prev[s].derivative()
            if s + 1 <= n:
                row[s + 1] = row[s + 1] - prev[s]
        row[m - k] = row[m - k] + form.p[m - k]
        if m - k + 1 >= 1:
            row[m - k + 1] = row[m - k + 1] + form.q[m - k + 1]
        if m - k - 1 >= 0 and m - k >= 1:
            row[m - k - 1] = row[m - k - 1] - form.r[m - k]
        jets.append(row)
    return jets


@dataclass(frozen=True)
class QuasiTransition:
    """Endpoint matrices T with quasi-jet = T @ ordinary-jet.

    ``at_zero``/``at_one`` are (2m x 2m) lower-triangular with diagonal
    (1, ..., 1, -1, +1, -1, ...); both are invertible with |det| = 1.
    """

    m: int
    at_zero: np.ndarray
    at_one: np.ndarray


def quasi_transition(spec: OperatorSpec) -> QuasiTransition:
    form = _require_divergence(spec)
    m = form.m
    n = 2 * m
    jets = quasi_jets(form)

    # internal consistency: the recurrence telescopes to the expression,
    # up to rounding (the two sums add the same products in another order)
    expanded = expand_divergence(form)
    tol = RECURRENCE_TOL * max(abs(c) for poly in expanded for c in poly.coeffs)
    for s in range(n + 1):
        if any(abs(c) > tol for c in (jets[n][s] - expanded[s]).coeffs):
            raise AssertionError("quasi-derivative recurrence does not reproduce the expression")

    def evaluate(x):
        mat = np.zeros((n, n), dtype=complex)
        for j in range(n):
            for s in range(n):
                mat[j, s] = jets[j][s](x)
        return mat

    t0, t1 = evaluate(0.0), evaluate(1.0)
    for mat in (t0, t1):
        if abs(abs(np.linalg.det(mat)) - 1.0) > 1e-8:
            raise AssertionError("quasi-derivative transition must have |det| = 1")
    return QuasiTransition(m, t0, t1)


@dataclass(frozen=True)
class SplitBC:
    """Boundary rows written as B y_wedge + C y_vee = 0."""

    m: int
    B: np.ndarray
    C: np.ndarray
    wedge_layout: tuple
    vee_layout: tuple


def _layouts(m):
    wedge = tuple(f"y^({s})(0)" for s in range(m)) + tuple(f"y^({s})(1)" for s in range(m))
    vee = (tuple(f"y^[{2 * m - 1 - i}](0)" for i in range(m))
           + tuple(f"-y^[{2 * m - 1 - i}](1)" for i in range(m)))
    return wedge, vee


def _lower_inverse(mat):
    """Inverse of a lower-triangular matrix by forward substitution.

    Entries that are zero by structure stay exactly zero: a pivoted
    inverse leaves rounding noise there, which in C would count as rank
    and make clamped rows look not completely regular.
    """
    n = mat.shape[0]
    eye = np.eye(n, dtype=mat.dtype)
    inv = np.zeros_like(mat)
    for i in range(n):
        inv[i] = (eye[i] - mat[i, :i] @ inv[:i]) / mat[i, i]
    return inv


def split_bc(spec: OperatorSpec) -> SplitBC:
    """Convert the boundary rows of a divergence-form spec to split form."""
    form = _require_divergence(spec)
    m = form.m
    n = 2 * m
    trans = quasi_transition(spec)
    inv0 = _lower_inverse(trans.at_zero)
    inv1 = _lower_inverse(trans.at_one)

    B = np.zeros((n, n), dtype=complex)
    C = np.zeros((n, n), dtype=complex)
    for j, row in enumerate(spec.rows):
        alpha = np.array(row.a, dtype=complex) @ inv0  # coefficients on the quasi-jet at 0
        beta = np.array(row.b, dtype=complex) @ inv1
        B[j, :m] = alpha[:m]
        B[j, m:] = beta[:m]
        for i in range(m):
            C[j, i] = alpha[n - 1 - i]
            C[j, m + i] = -beta[n - 1 - i]

    stacked = np.hstack([B, C])
    scale = max(np.abs(stacked).max(), 1.0)
    if np.linalg.matrix_rank(stacked, tol=1e-10 * scale) < n:
        raise SpecError("split boundary form [B | C] is rank deficient")
    wedge, vee = _layouts(m)
    return SplitBC(m, B, C, wedge, vee)


# ---------------------------------------------------------------------------
# Complete regularity
# ---------------------------------------------------------------------------

def _column_space(mat, cutoff=SV_CUTOFF):
    u, s, _ = np.linalg.svd(mat)
    if s.size == 0 or s[0] == 0:
        return u[:, :0]
    rank = int(np.sum(s > cutoff * s[0]))
    return u[:, :rank]


def null_space(mat, cutoff=SV_CUTOFF):
    """Orthonormal basis of the kernel of ``mat``, as C-contiguous columns.

    Singular values up to ``cutoff`` times the largest count as zero.
    """
    u, s, vh = np.linalg.svd(mat)
    if s.size == 0 or s[0] == 0:
        return np.eye(mat.shape[1], dtype=complex)
    rank = int(np.sum(s > cutoff * s[0]))
    return np.ascontiguousarray(vh[rank:].conj().T)


def rounding_cutoff(mat):
    """Relative singular-value cutoff at the rounding level of ``mat``."""
    return np.finfo(float).eps * max(mat.shape)


def _max_angle(basis1, basis2):
    """Principal angles between two column spaces (largest first) and
    their maximum.

    Angles with cos^2 >= 1/2 come from the sines, the singular values of
    the part of one basis orthogonal to the other (Bjorck and Golub 1973):
    arccos of the cosines cannot resolve angles below about 1e-8.
    """
    d1, d2 = basis1.shape[1], basis2.shape[1]
    if d1 == 0 and d2 == 0:
        return np.array([]), 0.0
    if d1 == 0 or d2 == 0:
        return np.array([np.pi / 2]), np.pi / 2
    q1 = _column_space(basis1, rounding_cutoff(basis1))
    q2 = _column_space(basis2, rounding_cutoff(basis2))
    if q1.shape[1] < q2.shape[1]:
        q1, q2 = q2, q1
    cross = q1.conj().T @ q2
    cosines = np.linalg.svd(cross, compute_uv=False)[::-1]
    sines = np.linalg.svd(q2 - q1 @ cross, compute_uv=False)
    angles = np.where(cosines ** 2 >= 0.5,
                      np.arcsin(np.clip(sines, -1.0, 1.0)),
                      np.arccos(np.clip(cosines, -1.0, 1.0)))
    return angles, float(np.max(angles)) if angles.size else 0.0


@dataclass(frozen=True)
class CompleteRegularityReport:
    completely_regular: bool
    preimage_basis: np.ndarray       # orthonormal basis of B^{-1}(im C)
    complement_basis: np.ndarray     # orthonormal basis of (ker C)^perp
    principal_angles: np.ndarray
    max_angle: float
    A: np.ndarray | None


def check_completely_regular(spec_or_split) -> CompleteRegularityReport:
    """Decide whether B^{-1}(im C) coincides with the orthogonal
    complement of ker C, using rank-revealing SVDs and principal angles
    (largest at most ANGLE_TOL)."""
    split = spec_or_split if isinstance(spec_or_split, SplitBC) else split_bc(spec_or_split)
    B, C = split.B, split.C
    n = B.shape[0]

    im_c = _column_space(C)
    # B^{-1}(im C) = kernel of (projector onto (im C)^perp) @ B
    proj_perp = np.eye(n, dtype=complex) - im_c @ im_c.conj().T
    preimage = null_space(proj_perp @ B)
    complement = _column_space(C.conj().T)  # (ker C)^perp = range C^H

    angles, max_angle = _max_angle(preimage, complement)
    verdict = preimage.shape[1] == complement.shape[1] and max_angle <= ANGLE_TOL

    A = _boundary_form_matrix(split, preimage) if verdict else None
    return CompleteRegularityReport(verdict, preimage, complement, angles, max_angle, A)


def _boundary_form_matrix(split: SplitBC, preimage):
    n = split.B.shape[0]
    stacked = np.hstack([split.B, split.C])
    pairs = null_space(stacked, rounding_cutoff(stacked))
    y1, y2 = pairs[:n], pairs[n:]
    proj = preimage @ preimage.conj().T
    # A equals P y2 pinv(y1) restricted to the subspace: zero off it.
    return proj @ y2 @ np.linalg.pinv(y1) @ proj


def boundary_form_matrix(spec_or_split) -> np.ndarray:
    """The matrix A with (y_vee, x) = (A y_wedge, x) on B^{-1}(im C).

    Raises :class:`SpecError` when the splitting is not completely
    regular (no such A exists then).
    """
    report = check_completely_regular(spec_or_split)
    if not report.completely_regular:
        raise SpecError("boundary form matrix requires a completely regular splitting")
    return report.A


# ---------------------------------------------------------------------------
# Quadratic-form identity
# ---------------------------------------------------------------------------

def verify_form_identity(spec: OperatorSpec, A=None):
    """Relative residual ||F_strong - F_split||_2 / ||F_strong||_2 of the
    quadratic-form identity, over every admissible y at once.

    Both matrices act on the constrained trial space of dimension
    ``FORM_IDENTITY_DIMENSION``: polynomials of degree below
    FORM_IDENTITY_DIMENSION + n that satisfy the boundary rows.  F_strong
    is the Galerkin matrix of (l y, y) from the expanded expression
    (:func:`regbvp.numrange.galerkin_form`); F_split is the split form of
    the module docstring with boundary term (A y_wedge, y_wedge).  ``A``
    defaults to the computed boundary form matrix.
    """
    # numrange imports this module, so it can only be imported at call time
    from . import numrange

    _require_divergence(spec)
    if A is None:
        A = boundary_form_matrix(spec)
    dim = FORM_IDENTITY_DIMENSION
    split = numrange._Splitting(spec, quasi_transition(spec), np.asarray(A, dtype=complex))
    strong = numrange.galerkin_form(spec, dim)
    weak = numrange._split_matrix(split, *numrange._jets(split, dim))
    return float(np.linalg.norm(strong - weak, 2) / np.linalg.norm(strong, 2))
