"""Support-function estimates for the quadratic form (l y, y).

The form is restricted to polynomial subspaces satisfying the boundary
conditions: the trial space is spanned by shifted Legendre polynomials on
[0, 1] (orthonormal, so the Galerkin mass matrix is the identity) and the
boundary rows become linear constraints on the coefficients.  Because the
constrained subspaces are nested in the requested dimension, the support
function sigma_N(theta) = max Re(e^{i theta} (l y, y)) over unit vectors
is nondecreasing in N for every direction theta: bounded minima indicate
containment of the form values in a half-plane, while minima that keep
growing under dimension doubling indicate that the values fill the whole
plane.

Split assembly.  The Galerkin matrix F_N of (l phi_k, phi_i) has one
assembly path, the quadratic-form identity of :mod:`regbvp.quasiform`,

    (l y, y) = sum_k [ (p_k y^(k), y^(k)) + (q_k y^(k), y^(k-1))
                       - (r_k y^(k-1), y^(k)) ] + (p_0 y, y) + (y_vee, y_wedge),

which needs no derivative above order m = n/2, only an even-order
divergence or model form (any other spec raises SpecError).  It reads
the transition and A of the :func:`regbvp.quasiform.check_completely_regular`
report, which :func:`split_form`, :func:`support_profile` and
:func:`half_plane_verdict` take in place of a spec.  Every integral is
exact in coefficient space: the basis is orthonormal, so
(f, g) is the inner product of coefficient vectors, a derivative is a
triangular matrix and a polynomial coefficient acts through the
three-term recurrence of x.  No quadrature is involved (numpy's
Gauss-Legendre weights carry relative errors up to about 1e-11 at these
sizes).  The boundary term is (A y_wedge, y_wedge) when the splitting is
completely regular and (y_vee, y_wedge) otherwise: on a completely
regular trial space y_vee is A y_wedge, but computed from the basis it
carries rounding noise that can exceed eps ||F_N|| (55 times over for
the free beam at N = 64, where y_vee = 0 and y_wedge is large).
:func:`galerkin_form` assembles the strong form (l phi_k, phi_i) =
sum_j (c_j phi_k^(j), phi_i) with the same exact operators and no
quadrature either, and is kept only as the reference side of the form
identity check (:func:`regbvp.quasiform.verify_form_identity`): it
takes n derivatives of the basis and has no boundary term.
``tests/oracles.py`` integrates it symbolically.

Support functions.  A sum of squares (q = r = 0, every p_k a nonnegative
constant) with a completely regular splitting and a positive
semidefinite A has F_N = G^H G for the factor G = [sqrt(p_k) D_k ;
A^{1/2} W] of derivative jets D_k and endpoint values W.  Then
sigma_N(theta) = cos(theta) lambda_max(F_N) where cos(theta) >= 0 and
cos(theta) lambda_min(F_N) elsewhere, and both extreme eigenvalues are
squares of singular values of G: small eigenvalues then come out far
below the noise eps ||F_N|| of any eigensolver applied to F_N itself
(Demmel and Veselic, SIAM J. Matrix Anal. Appl. 13, 1992).  Every other
form takes one eigenvalue solve per angle of the rotated Hermitian part
of F_N (Johnson, SIAM J. Numer. Anal. 15, 1978).

Error bounds.  Every profile carries an estimate of the rounding error
of its minimum: (N + n) eps ||F_N||_2 on the eigenvalue path, and
2 s delta + delta^2 with delta = (N + n) eps ||G||_2 on the factored
path, s being the singular value behind the minimum.  They model the
backward error of the final eigenvalue or singular value solve, scaled
by N + n to cover the assembly; they are not proofs, and
``tests/test_numrange.py`` checks them against high-precision
references on the gallery.  A matrix A that is semidefinite only up to
rounding is replaced by the nearest such matrix, and the change times
||W||_2^2 is added to the bound.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre

from .model import OperatorSpec, SpecError, operator_coefficients
from .quasiform import as_report, null_space, rounding_cutoff, wedge_vee

__all__ = [
    "SupportProfile",
    "HalfPlaneReport",
    "constrained_basis",
    "galerkin_form",
    "split_form",
    "support_function",
    "support_profile",
    "half_plane_verdict",
    "profiles_to_csv",
]

DEFAULT_DIMENSIONS = (8, 16, 32, 64)
DEFAULT_ANGLES = 64
GROWTH_FACTOR = 1.5
SLACK = 0.1
EPS = np.finfo(float).eps


@dataclass(frozen=True)
class SupportProfile:
    """sigma_N(theta) over an angle grid for one subspace dimension.

    ``bound`` bounds the error of ``minimum`` (see the module docstring).
    """

    dimension: int
    angles: tuple
    values: tuple
    bound: float

    @property
    def minimum(self):
        return min(self.values)


@dataclass(frozen=True)
class HalfPlaneReport:
    """Verdict on half-plane containment of the form values.

    ``verdict`` is "half_plane", "whole_plane" or "undetermined";
    ``minima[i]`` is min_theta sigma_N(theta) for ``dimensions[i]`` and
    ``bounds[i]`` bounds its error.
    """

    verdict: str
    dimensions: tuple
    minima: tuple
    bounds: tuple
    profiles: tuple


def _legendre_norms(count):
    # shifted Legendre: integral of P_k(2x-1)^2 over [0,1] is 1/(2k+1)
    return np.sqrt(2.0 * np.arange(count) + 1.0)


def _endpoint_jets(count, orders):
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


def constrained_basis(spec: OperatorSpec, dim):
    """Orthonormal basis of {deg < dim + n polynomials with U_j(y) = 0}.

    Returns a (dim + n, dim) matrix of shifted-Legendre coefficients whose
    columns are orthonormal in L2(0, 1).  The subspace for a smaller dim
    is contained in the subspace for a larger one.

    The row entries grow like k^(2s) with the degree k, so the kernel is
    taken after scaling every column to unit maximum and orthonormalized
    afterwards: an SVD of the unscaled rows has a backward error of
    eps times the largest entry, which tilts the subspace enough to move
    the numerical-range minima of ``mixed4`` by 15 eps ||F_N||.  Columns
    that no row sees (1 and x under free-beam rows) are kept as exact
    unit vectors, ahead of the others, so that QR leaves them exact.
    """
    n = spec.order
    if dim < 1:
        raise ValueError("dimension must be positive")
    count = dim + n
    at0, at1 = _endpoint_jets(count, n)
    rows = np.empty((n, count), dtype=complex)
    for j, row in enumerate(spec.rows):
        rows[j] = np.asarray(row.a) @ at0 + np.asarray(row.b) @ at1
    rows = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    largest = np.abs(rows).max(axis=0)
    seen = largest > 0
    columns = 1.0 / np.where(seen, largest, 1.0)
    kernel = null_space(rows[:, seen] * columns[seen], rounding_cutoff(rows))
    unseen = np.flatnonzero(~seen)
    if unseen.size + kernel.shape[1] != dim:
        raise SpecError(
            f"boundary rows lose rank on the polynomial trial space "
            f"(got a subspace of dimension {unseen.size + kernel.shape[1]}, expected {dim})")
    full = np.zeros((count, dim), dtype=complex)
    full[unseen, np.arange(unseen.size)] = 1.0
    full[seen, unseen.size:] = kernel
    return np.ascontiguousarray(np.linalg.qr(columns[:, None] * full)[0])


def galerkin_form(spec: OperatorSpec, dim):
    """The dim x dim matrix of (l phi_k, phi_i) on the constrained basis,
    from the strong form sum_j c_j y^(j), exactly in coefficient space."""
    count = dim + spec.order
    form = np.zeros((count, count), dtype=complex)
    for j, c in enumerate(operator_coefficients(spec)):
        if c:
            form += _multiplication(c, count) @ _derivative_matrix(count, j)
    basis = constrained_basis(spec, dim)
    return basis.conj().T @ form @ basis


# ---------------------------------------------------------------------------
# Split assembly
# ---------------------------------------------------------------------------

def _derivative_matrix(count, order):
    """Column k: orthonormal coefficients of phi_k^(order) (upper triangular)."""
    norms = _legendre_norms(count)
    out = np.zeros((count, count))
    out[:count - order] = legendre.legder(np.diag(norms), order, scl=2.0, axis=0)
    return out / norms[:, None]


def _multiplication(poly, count):
    """Rows and columns < count of the map y -> poly * y on orthonormal
    coefficients, exactly: x phi_k = b_{k+1} phi_{k+1} + phi_k / 2
    + b_k phi_{k-1} with b_k = k / (2 sqrt(4 k^2 - 1)), by Horner's rule."""
    coeffs = poly.coeffs
    size = count + poly.degree
    k = np.arange(1.0, size)
    off = (k / (2.0 * np.sqrt(4.0 * k * k - 1.0)))[:, None]
    eye = np.eye(size, count)
    out = coeffs[-1] * eye
    for c in coeffs[-2::-1]:
        prod = 0.5 * out
        prod[:-1] += off * out[1:]
        prod[1:] += off * out[:-1]
        out = prod + c * eye
    return out[:count]


def _factor(report):
    """(root, defect) with A = root^H root up to defect = ||A - root^H
    root||_2 on the factored path (module docstring); None off it."""
    form, A = report.spec.form, report.A
    squares = (not any(form.q) and not any(form.r)
               and all(p.degree <= 0 and (not p or (p.coeffs[0].imag == 0 and p.coeffs[0].real >= 0))
                       for p in form.p))
    if A is None or not squares:
        return None
    lam, vec = np.linalg.eigh(0.5 * (A + A.conj().T))
    keep = lam > 0
    root = np.sqrt(lam[keep])[:, None] * vec[:, keep].conj().T
    defect = np.linalg.norm(A - root.conj().T @ root, 2)
    if defect > rounding_cutoff(A) * max(1.0, np.linalg.norm(A, 2)):
        return None
    return root, defect


def _jets(report, dim):
    """Derivative jets Y_0..Y_m and endpoint blocks (wedge, vee) of the
    constrained basis: Y_j holds the orthonormal coefficients of the
    basis functions' j-th derivatives, wedge and vee their y_wedge and
    y_vee vectors."""
    spec = report.spec
    m = spec.form.m
    n = spec.order
    count = dim + n
    basis = constrained_basis(spec, dim)
    jets = [basis] + [_derivative_matrix(count, j) @ basis for j in range(1, m + 1)]
    at0, at1 = _endpoint_jets(count, n)
    wedge, vee = wedge_vee(report.split.transition.at_zero @ (at0 @ basis),
                           report.split.transition.at_one @ (at1 @ basis))
    return jets, wedge, vee


def _split_matrix(report, jets, wedge, vee):
    form = report.spec.form
    count = jets[0].shape[0]

    def term(poly, left, right):
        if poly.degree == 0:
            return poly.coeffs[0] * (left.conj().T @ right)
        return left.conj().T @ (_multiplication(poly, count) @ right)

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
    quadratic form of a spec or a report; equals :func:`galerkin_form`
    up to rounding."""
    report = as_report(spec_or_report)
    return _split_matrix(report, *_jets(report, dim))


# ---------------------------------------------------------------------------
# Support functions
# ---------------------------------------------------------------------------

def support_function(form, theta):
    """max of Re(e^{i theta} (F v, v)) over unit vectors v."""
    form = np.asarray(form, dtype=complex)
    rotated = cmath.exp(1j * theta) * form
    herm = 0.5 * (rotated + rotated.conj().T)
    return float(np.linalg.eigvalsh(herm)[-1])


def _support(report, dim, angles):
    """(sigma_dim over ``angles``, error bound of its minimum)."""
    scale = (dim + report.spec.order) * EPS
    jets, wedge, vee = _jets(report, dim)
    factor = _factor(report)
    if factor is None:
        form = _split_matrix(report, jets, wedge, vee)
        return (tuple(support_function(form, theta) for theta in angles),
                scale * float(np.linalg.norm(form, 2)))
    # F = G^H G: sigma(theta) = cos(theta) * (s_max^2 where cos >= 0, else s_min^2)
    root, defect = factor
    p = report.spec.form.p
    blocks = [math.sqrt(p[k].coeffs[0].real) * jets[k] for k in range(len(p)) if p[k]]
    sv = np.linalg.svd(np.vstack(blocks + [root @ wedge]), compute_uv=False)
    delta = scale * sv[0]
    defect = defect * np.linalg.norm(wedge, 2) ** 2
    values = tuple(math.cos(theta) * float(sv[0] ** 2 if math.cos(theta) >= 0 else sv[-1] ** 2)
                   for theta in angles)
    behind = sv[0] if math.cos(angles[values.index(min(values))]) >= 0 else sv[-1]
    return values, float(2 * behind * delta + delta * delta + defect)


def _profile(report, dim, num_angles):
    angles = tuple(2.0 * math.pi * k / num_angles for k in range(num_angles))
    values, bound = _support(report, dim, angles)
    return SupportProfile(dimension=int(dim), angles=angles, values=values, bound=bound)


def support_profile(spec_or_report, dim, num_angles=DEFAULT_ANGLES):
    """sigma_dim(theta) over an even angle grid on [0, 2 pi), for a spec
    or a report; raises SpecError when a spec has no even-order
    divergence or model form."""
    return _profile(as_report(spec_or_report), dim, num_angles)


def profiles_to_csv(profiles, path):
    """Write support profiles as ``N, theta, sigma`` CSV rows."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("N,theta,sigma\n")
        for profile in profiles:
            for theta, sigma in zip(profile.angles, profile.values):
                handle.write("%d,%.12e,%.12e\n" % (profile.dimension, theta, sigma))


def half_plane_verdict(spec_or_report, dimensions=DEFAULT_DIMENSIONS,
                       num_angles=DEFAULT_ANGLES):
    """Decide whether the form values stay inside some half-plane.

    The minima m_N = min_theta sigma_N(theta) are nondecreasing in N.  A
    final minimum within ``SLACK`` (relative) of the first indicates a
    supporting line: "half_plane".  Minima that grow by at least
    ``GROWTH_FACTOR`` at every doubling (once above 1) indicate that every
    direction eventually fails: "whole_plane".  Anything else is reported
    as "undetermined".  Takes a spec or a report; raises SpecError when a
    spec has no even-order divergence or model form.
    """
    dimensions = tuple(sorted(int(d) for d in dimensions))
    if len(dimensions) < 2:
        raise ValueError("need at least two dimensions to compare")
    report = as_report(spec_or_report)
    profiles = tuple(_profile(report, d, num_angles) for d in dimensions)
    minima = tuple(p.minimum for p in profiles)

    first, last = minima[0], minima[-1]
    allowance = SLACK * max(1.0, abs(first))
    if last <= first + allowance:
        verdict = "half_plane"
    else:
        grew = last > 1.0
        for prev, nxt in zip(minima, minima[1:]):
            if prev <= 1.0:
                continue
            if nxt < GROWTH_FACTOR * prev:
                grew = False
        verdict = "whole_plane" if grew else "undetermined"
    return HalfPlaneReport(verdict=verdict, dimensions=dimensions, minima=minima,
                           bounds=tuple(p.bound for p in profiles), profiles=profiles)
