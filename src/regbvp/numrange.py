"""Support-function estimates for the quadratic form (l y, y).

The form is restricted to polynomial subspaces satisfying the boundary
conditions: the trial space is spanned by shifted Legendre polynomials on
[0, 1] (orthonormal, so the Galerkin mass matrix is the identity), the
boundary rows become linear constraints on the coefficients, and the form
matrix is assembled by Gauss quadrature of exact degree.  Because the
constrained subspaces are nested in the requested dimension, the support
function sigma_N(theta) = max Re(e^{i theta} (l y, y)) over unit vectors
is nondecreasing in N for every direction theta: bounded minima indicate
containment of the form values in a half-plane, while minima that keep
growing under dimension doubling indicate that the values fill the whole
plane.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre

from .model import OperatorSpec, SpecError, operator_coefficients
from .quasiform import null_space, rounding_cutoff

__all__ = [
    "SupportProfile",
    "HalfPlaneReport",
    "constrained_basis",
    "galerkin_form",
    "support_function",
    "support_profile",
    "half_plane_verdict",
    "profiles_to_csv",
]

DEFAULT_DIMENSIONS = (8, 16, 32, 64)
DEFAULT_ANGLES = 64
GROWTH_FACTOR = 1.5
SLACK = 0.1


@dataclass(frozen=True)
class SupportProfile:
    """sigma_N(theta) over an angle grid for one subspace dimension."""

    dimension: int
    angles: tuple
    values: tuple

    @property
    def minimum(self):
        return min(self.values)


@dataclass(frozen=True)
class HalfPlaneReport:
    """Verdict on half-plane containment of the form values.

    ``verdict`` is "half_plane", "whole_plane" or "undetermined";
    ``minima[i]`` is min_theta sigma_N(theta) for ``dimensions[i]``.
    """

    verdict: str
    dimensions: tuple
    minima: tuple
    profiles: tuple


def _legendre_norms(count):
    # shifted Legendre: integral of P_k(2x-1)^2 over [0,1] is 1/(2k+1)
    return np.sqrt(2.0 * np.arange(count) + 1.0)


def _endpoint_jets(count, orders):
    """phi_k^(j)(x) for x in {0, 1}; returns (at0, at1) of shape (orders, count)."""
    eye = np.eye(count)
    norms = _legendre_norms(count)
    at0 = np.empty((orders, count))
    at1 = np.empty((orders, count))
    for j in range(orders):
        dcoef = legendre.legder(eye, j, scl=2.0, axis=0) if j else eye
        at0[j] = legendre.legval(-1.0, dcoef) * norms
        at1[j] = legendre.legval(1.0, dcoef) * norms
    return at0, at1


def constrained_basis(spec: OperatorSpec, dim):
    """Orthonormal basis of {deg < dim + n polynomials with U_j(y) = 0}.

    Returns a (dim + n, dim) matrix of shifted-Legendre coefficients whose
    columns are orthonormal in L2(0, 1).  The subspace for a smaller dim
    is contained in the subspace for a larger one.
    """
    n = spec.order
    if dim < 1:
        raise ValueError("dimension must be positive")
    count = dim + n
    at0, at1 = _endpoint_jets(count, n)
    rows = np.empty((n, count), dtype=complex)
    for j, row in enumerate(spec.rows):
        rows[j] = np.asarray(row.a) @ at0 + np.asarray(row.b) @ at1
    scale = np.linalg.norm(rows, axis=1, keepdims=True)
    basis = null_space(rows / scale, rounding_cutoff(rows))
    if basis.shape != (count, dim):
        raise SpecError(
            f"boundary rows lose rank on the polynomial trial space "
            f"(got a subspace of dimension {basis.shape[1]}, expected {dim})")
    return basis


def galerkin_form(spec: OperatorSpec, dim):
    """The dim x dim matrix of (l phi_k, phi_i) on the constrained basis."""
    n = spec.order
    coeffs = operator_coefficients(spec)
    count = dim + n
    max_cdeg = max(p.degree for p in coeffs if p)
    quad = count + max_cdeg // 2 + 2
    t, w = legendre.leggauss(quad)
    xs = 0.5 * (t + 1.0)
    w = 0.5 * w

    eye = np.eye(count)
    norms = _legendre_norms(count)
    phi = legendre.legval(t, eye) * norms[:, None]               # (count, quad)
    form = np.zeros((count, count), dtype=complex)
    for j, c in enumerate(coeffs):
        if not c:
            continue
        dcoef = legendre.legder(eye, j, scl=2.0, axis=0) if j else eye
        dphi = legendre.legval(t, dcoef) * norms[:, None]
        form += (phi * (w * c(xs))[None, :]) @ dphi.T
    basis = constrained_basis(spec, dim)
    return basis.conj().T @ form @ basis


def support_function(form, theta):
    """max of Re(e^{i theta} (F v, v)) over unit vectors v."""
    form = np.asarray(form, dtype=complex)
    rotated = cmath.exp(1j * theta) * form
    herm = 0.5 * (rotated + rotated.conj().T)
    return float(np.linalg.eigvalsh(herm)[-1])


def support_profile(spec: OperatorSpec, dim, num_angles=DEFAULT_ANGLES):
    """sigma_dim(theta) over an even angle grid on [0, 2 pi)."""
    form = galerkin_form(spec, dim)
    angles = tuple(2.0 * math.pi * k / num_angles for k in range(num_angles))
    values = tuple(support_function(form, theta) for theta in angles)
    return SupportProfile(dimension=int(dim), angles=angles, values=values)


def profiles_to_csv(profiles, path):
    """Write support profiles as ``N, theta, sigma`` CSV rows."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("N,theta,sigma\n")
        for profile in profiles:
            for theta, sigma in zip(profile.angles, profile.values):
                handle.write("%d,%.12e,%.12e\n" % (profile.dimension, theta, sigma))


def half_plane_verdict(spec: OperatorSpec, dimensions=DEFAULT_DIMENSIONS,
                       num_angles=DEFAULT_ANGLES, growth_factor=GROWTH_FACTOR,
                       slack=SLACK):
    """Decide whether the form values stay inside some half-plane.

    The minima m_N = min_theta sigma_N(theta) are nondecreasing in N.  A
    final minimum within ``slack`` (relative) of the first indicates a
    supporting line: "half_plane".  Minima that grow by at least
    ``growth_factor`` at every doubling (once above 1) indicate that every
    direction eventually fails: "whole_plane".  Anything else is reported
    as "undetermined".
    """
    dimensions = tuple(sorted(int(d) for d in dimensions))
    if len(dimensions) < 2:
        raise ValueError("need at least two dimensions to compare")
    profiles = tuple(support_profile(spec, d, num_angles) for d in dimensions)
    minima = tuple(p.minimum for p in profiles)

    first, last = minima[0], minima[-1]
    allowance = slack * max(1.0, abs(first))
    if last <= first + allowance:
        verdict = "half_plane"
    else:
        grew = last > 1.0
        for prev, nxt in zip(minima, minima[1:]):
            if prev <= 1.0:
                continue
            if nxt < growth_factor * prev:
                grew = False
        verdict = "whole_plane" if grew else "undetermined"
    return HalfPlaneReport(verdict=verdict, dimensions=dimensions,
                           minima=minima, profiles=profiles)
