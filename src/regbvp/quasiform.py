"""Quadratic-form splitting of even-order divergence expressions.

For an expression of order n = 2m in divergence form, the quasi-derivatives

    y^[k]   = y^(k),                                   k < m,
    y^[m]   = y^(m) - r_m y^(m-1),
    y^[m+k] = -(y^[m+k-1])' + p_{m-k} y^(m-k)
              + q_{m-k+1} y^(m-k+1) - r_{m-k} y^(m-k-1),   k = 1..m,

are chosen so that integration by parts turns (l y, y) into

    sum_{k=1}^m [ (p_k y^(k), y^(k)) + (q_k y^(k), y^(k-1))
                  - (r_k y^(k-1), y^(k)) ] + (p_0 y, y) + (y_vee, y_wedge)

with the endpoint vectors y_wedge and y_vee that :func:`wedge_vee` reads
off the quasi-derivatives at 0 and 1, the one definition of their layout.
Boundary rows then read B y_wedge + C y_vee = 0.  The splitting is called
completely regular when B^{-1}(im C) equals the orthogonal complement of
ker C; in that case a matrix A exists with (y_vee, x) = (A y_wedge, x) for
admissible y and all x in B^{-1}(im C), which turns the boundary term of
the quadratic form into (A y_wedge, y_wedge).

The two subspaces coincide when their largest principal angle is at most
the module constant ``ANGLE_TOL``.  Specs come in an even-order
divergence or model form (any other raises SpecError); the report of
:func:`check_completely_regular` is the one splitting that
:mod:`regbvp.numrange` and :func:`verify_form_identity` read.

Split assembly.  :func:`split_form` is the one assembly path of the
Galerkin matrix F_N of (l phi_k, phi_i) on the constrained trial space of
:mod:`regbvp.legendre`.  It needs no derivative above order m = n/2 and
reads the transition and A of a report.  The boundary term is
(A y_wedge, y_wedge) when the splitting is completely regular and
(y_vee, y_wedge) otherwise: on a completely regular trial space y_vee is
A y_wedge, but computed from the basis it carries rounding noise that can
exceed eps ||F_N|| (55 times over for the free beam at N = 64, where
y_vee = 0 and y_wedge is large).
"""

from dataclasses import dataclass, replace

import numpy as np

from .legendre import (
    column_space,
    constrained_basis,
    derivative_matrix,
    endpoint_jets,
    galerkin_form,
    multiplication,
    null_space,
    rounding_cutoff,
)
from .model import (
    ZERO,
    DivergenceForm,
    OperatorSpec,
    Poly,
    SpecError,
    as_divergence,
    expand_divergence,
)

__all__ = [
    "CompleteRegularityReport",
    "quasi_jets",
    "quasi_transition",
    "wedge_vee",
    "check_completely_regular",
    "split_jets",
    "split_form",
    "verify_form_identity",
]

ANGLE_TOL = 1e-8
RECURRENCE_TOL = 1e-12
# Trial-space dimension of verify_form_identity: its polynomials reach
# degree 15 + n, far above the order n, at a cost of a few milliseconds.
FORM_IDENTITY_DIMENSION = 16


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


def quasi_transition(spec: OperatorSpec):
    """Endpoint matrices (T_0, T_1) with quasi-jet = T @ ordinary-jet at
    x = 0 and x = 1.

    Both are (2m x 2m) lower-triangular with diagonal
    (1, ..., 1, -1, +1, -1, ...), so invertible with |det| = 1.
    """
    form = as_divergence(spec).form
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
    return t0, t1


def wedge_vee(block0, block1):
    """The endpoint vectors (y_wedge, y_vee) of quasi-jet rows at 0 and 1.

    ``block0`` and ``block1`` hold y^[0], ..., y^[2m-1] along their first
    axis, at x = 0 and x = 1; the result stacks

        y_wedge = (y(0), ..., y^(m-1)(0), y(1), ..., y^(m-1)(1)),
        y_vee   = (y^[2m-1](0), ..., y^[m](0), -y^[2m-1](1), ..., -y^[m](1))

    along the same axis (y^[k] = y^(k) for k < m).  The map is a signed
    row selection.
    """
    m = block0.shape[0] // 2
    wedge = np.concatenate([block0[:m], block1[:m]])
    vee = np.concatenate([block0[m:][::-1], -block1[m:][::-1]])
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


# ---------------------------------------------------------------------------
# Complete regularity
# ---------------------------------------------------------------------------

def _max_angle(basis1, basis2):
    """The largest principal angle between two column spaces.

    Angles with cos^2 >= 1/2 come from the sines, the singular values of
    the part of one basis orthogonal to the other (Bjorck and Golub 1973):
    arccos of the cosines cannot resolve angles below about 1e-8.
    """
    d1, d2 = basis1.shape[1], basis2.shape[1]
    if d1 == 0 and d2 == 0:
        return 0.0
    if d1 == 0 or d2 == 0:
        return np.pi / 2
    q1 = column_space(basis1, rounding_cutoff(basis1))
    q2 = column_space(basis2, rounding_cutoff(basis2))
    if q1.shape[1] < q2.shape[1]:
        q1, q2 = q2, q1
    cross = q1.conj().T @ q2
    cosines = np.linalg.svd(cross, compute_uv=False)[::-1]
    sines = np.linalg.svd(q2 - q1 @ cross, compute_uv=False)
    angles = np.where(cosines ** 2 >= 0.5,
                      np.arcsin(np.clip(sines, -1.0, 1.0)),
                      np.arccos(np.clip(cosines, -1.0, 1.0)))
    return float(np.max(angles)) if angles.size else 0.0


@dataclass(frozen=True)
class CompleteRegularityReport:
    """One operator's splitting: ``spec`` in divergence form, the
    quasi-derivative transition (``at_zero``, ``at_one``) of
    :func:`quasi_transition`, its boundary rows written as
    B y_wedge + C y_vee = 0 and, when completely regular, the boundary
    form matrix ``A`` (None otherwise)."""

    spec: OperatorSpec
    at_zero: np.ndarray
    at_one: np.ndarray
    B: np.ndarray
    C: np.ndarray
    completely_regular: bool
    preimage_basis: np.ndarray       # orthonormal basis of B^{-1}(im C)
    complement_basis: np.ndarray     # orthonormal basis of (ker C)^perp
    max_angle: float
    A: np.ndarray | None


def check_completely_regular(spec) -> CompleteRegularityReport:
    """Split the boundary rows of an even-order divergence or model form
    spec as B y_wedge + C y_vee = 0 and decide whether B^{-1}(im C)
    coincides with the orthogonal complement of ker C, using
    rank-revealing SVDs and principal angles (largest at most ANGLE_TOL).

    Raises :class:`SpecError` when [B | C] is rank deficient."""
    spec = as_divergence(spec)
    n = spec.order
    # row j has coefficients alpha_j = a_j T_0^{-1} and beta_j = b_j T_1^{-1}
    # on the quasi-jets at 0 and 1, so the layout of wedge_vee applied to
    # the columns (alpha_j, beta_j) gives the rows of B and C
    at_zero, at_one = quasi_transition(spec)
    inv0, inv1 = _lower_inverse(at_zero), _lower_inverse(at_one)
    alpha = np.array([np.array(row.a, dtype=complex) @ inv0 for row in spec.rows])
    beta = np.array([np.array(row.b, dtype=complex) @ inv1 for row in spec.rows])
    B, C = (block.T for block in wedge_vee(alpha.T, beta.T))
    stacked = np.hstack([B, C])
    scale = max(np.abs(stacked).max(), 1.0)
    if np.linalg.matrix_rank(stacked, tol=1e-10 * scale) < n:
        raise SpecError("split boundary form [B | C] is rank deficient")

    im_c = column_space(C)
    # B^{-1}(im C) = kernel of (projector onto (im C)^perp) @ B
    proj_perp = np.eye(n, dtype=complex) - im_c @ im_c.conj().T
    preimage = null_space(proj_perp @ B)
    complement = column_space(C.conj().T)  # (ker C)^perp = range C^H

    max_angle = _max_angle(preimage, complement)
    verdict = preimage.shape[1] == complement.shape[1] and max_angle <= ANGLE_TOL

    A = None
    if verdict:
        # the pairs (y_wedge, y_vee) of admissible y span the kernel of
        # [B | C]; A is P y_vee pinv(y_wedge) P, zero off the subspace
        pairs = null_space(stacked, rounding_cutoff(stacked))
        proj = preimage @ preimage.conj().T
        A = proj @ pairs[n:] @ np.linalg.pinv(pairs[:n]) @ proj
    return CompleteRegularityReport(spec, at_zero, at_one, B, C, verdict,
                                    preimage, complement, max_angle, A)


def as_report(spec_or_report) -> CompleteRegularityReport:
    """The splitting of a spec, decided here, or a report as it stands."""
    if not isinstance(spec_or_report, CompleteRegularityReport):
        return check_completely_regular(spec_or_report)
    return spec_or_report


# ---------------------------------------------------------------------------
# Quadratic-form identity
# ---------------------------------------------------------------------------

def split_jets(report, dim):
    """Derivative jets Y_0..Y_m and endpoint blocks (wedge, vee) of the
    constrained basis: Y_j holds the orthonormal coefficients of the
    basis functions' j-th derivatives, wedge and vee their y_wedge and
    y_vee vectors."""
    spec = report.spec
    m = spec.form.m
    n = spec.order
    count = dim + n
    basis = constrained_basis(spec, dim)
    jets = [basis] + [derivative_matrix(count, j) @ basis for j in range(1, m + 1)]
    at0, at1 = endpoint_jets(count, n)
    wedge, vee = wedge_vee(report.at_zero @ (at0 @ basis), report.at_one @ (at1 @ basis))
    return jets, wedge, vee


def _split_matrix(report, jets, wedge, vee):
    form = report.spec.form
    count = jets[0].shape[0]

    def term(poly, left, right):
        if poly.degree == 0:
            return poly.coeffs[0] * (left.conj().T @ right)
        return left.conj().T @ (multiplication(poly, count) @ right)

    out = wedge.conj().T @ (vee if report.A is None else report.A @ wedge)
    for k in range(form.m + 1):
        if form.p[k]:
            out = out + term(form.p[k], jets[k], jets[k])
        if form.q[k]:
            out = out + term(form.q[k], jets[k - 1], jets[k])
        if form.r[k]:
            out = out - term(form.r[k], jets[k], jets[k - 1])
    return out


def split_form(spec_or_report, dim):
    """The dim x dim matrix of (l phi_k, phi_i), assembled from the split
    quadratic form of a spec or a report; equals
    :func:`regbvp.legendre.galerkin_form` up to rounding."""
    report = as_report(spec_or_report)
    return _split_matrix(report, *split_jets(report, dim))


def verify_form_identity(spec_or_report, A=None):
    """Relative residual ||F_strong - F_split||_2 / ||F_strong||_2 of the
    quadratic-form identity, over every admissible y at once.

    Both matrices act on the constrained trial space of dimension
    ``FORM_IDENTITY_DIMENSION`` (polynomials of degree below
    FORM_IDENTITY_DIMENSION + n that satisfy the boundary rows):
    F_strong is :func:`regbvp.legendre.galerkin_form`, kept as this
    reference, and F_split is :func:`split_form`, with boundary term
    (A y_wedge, y_wedge).  Takes a spec or its report
    (:func:`as_report`); a given ``A`` replaces the report's, and
    :class:`SpecError` is raised when there is none (the splitting is
    not completely regular).
    """
    report = as_report(spec_or_report)
    if A is not None:
        report = replace(report, A=np.asarray(A, dtype=complex))
    if report.A is None:
        raise SpecError("the form identity requires a completely regular splitting")
    weak = split_form(report, FORM_IDENTITY_DIMENSION)
    strong = galerkin_form(report.spec, FORM_IDENTITY_DIMENSION)
    return float(np.linalg.norm(strong - weak, 2) / np.linalg.norm(strong, 2))
