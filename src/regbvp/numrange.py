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

Assembly.  F_N is :func:`regbvp.quasiform.split_form` (a spec with no
even-order divergence or model form raises SpecError), which this module
re-exports with :func:`constrained_basis` and :func:`galerkin_form`:
F_N = Q^H (K Q) plus the boundary term, with Q the constrained basis and
K the split form on the Legendre coefficients, summed from cached real
pieces D_a^T X^j D_b (:func:`regbvp.legendre.form_piece`).  It and the
functions here read the one splitting that quasiform caches per
operator.  A ladder of dimensions is assembled once, at its largest
dimension: the first N columns of :func:`constrained_basis` span V_N for
every N from the order n on, and are exactly zero from row N + n on, so
F_N is the leading N x N block of the largest matrix, and on the
factored path G's jets for V_N are their leading N columns.  A dimension
below n is assembled on its own.  The verdict and the profiles of one
ladder therefore read the same matrices.

Support functions.  A sum of squares (q = r = 0, every p_k a nonnegative
constant) with a completely regular splitting and a positive
semidefinite A has F_N = G^H G for the factor G = [sqrt(p_k) D_k ;
A^{1/2} W] of derivative jets D_k and endpoint values W.  Then
sigma_N(theta) = cos(theta) lambda_max(F_N) where cos(theta) >= 0 and
cos(theta) lambda_min(F_N) elsewhere, and both extreme eigenvalues are
squares of singular values of G: small eigenvalues then come out far
below the noise eps ||F_N|| of any eigensolver applied to F_N itself
(Demmel and Veselic, SIAM J. Matrix Anal. Appl. 13, 1992).  Every other
form takes eigenvalue solves of the rotated Hermitian part H_N(theta) of
e^{i theta} F_N (Johnson, SIAM J. Numer. Anal. 15, 1978), one per
antipodal pair of angles: H_N(theta + pi) = -H_N(theta), so
sigma_N(theta + pi) = lambda_max(-H_N(theta)) = -lambda_min(H_N(theta))
comes from the solve at theta.  An odd grid has no such pairs and takes
one solve per angle.

Error bounds.  Every profile carries an estimate of the rounding error
of its minimum: (N + n) eps ||F_N||_2 on the eigenvalue path, and
2 s delta + delta^2 with delta = (N + n) eps ||G||_2 on the factored
path, s being the singular value behind the minimum.  ||F_N||_2 is the
square root of the largest eigenvalue of F_N^H F_N, clamped at 0: one
Hermitian eigenvalue solve per dimension in place of an SVD, within a
few eps of the largest singular value relative to itself.  They model the
backward error of the final eigenvalue or singular value solve, scaled
by N + n to cover the assembly; they are not proofs, and
``tests/test_numrange.py`` checks them against high-precision
references on the gallery.  A matrix A that is semidefinite only up to
rounding is replaced by the nearest such matrix, and the change times
||W||_2^2 is added to the bound.

Pruned minima.  :func:`support_profiles` solves the full angle grid;
:func:`half_plane_verdict` needs only each dimension's minimum.  It
keeps, for each solve (an antipodal pair, or a single angle on an odd
grid), a floor: a lower bound on the least value of the solve at the
dimension at hand, up to the error bound b_N of that dimension plus the
floor's own bound.  The floors come from two places.  Nesting:
sigma_N(theta) >= sigma_M(theta) for M < N at every angle, so the
computed values satisfy sigma_N(theta) >= sigma_M(theta) - (b_M + b_N)
(the bound of the eigenvalue path holds for every eigenvalue of
H_N(theta), not only the minimum), and a solve's value at the largest
dimension that solved it is a floor with bound b_M.  Ritz values: for
orthonormal columns V, the eigenvalues of V^H H_N(theta) V lie between
the extreme ones of H_N(theta) (Cauchy interlacing; Parlett, The
Symmetric Eigenvalue Problem, ch. 11), and V^H H_N(theta) V is the
Hermitian part of e^{i theta} S with S = V^H F_N V.  So the largest
eigenvalue of that 2 x 2 matrix and minus its smallest are floors for
sigma_N(theta) and sigma_N(theta + pi).  A Ritz floor carries the bound
b_N, and the rule below subtracts it twice: once for the rounding of the
floor (V is orthonormal and S exact only up to rounding of that order)
and once for that of the value it bounds.  ``tests/test_numrange.py``
checks every Ritz floor against the full grid.  Each dimension visits
the solves in ascending order of their floors and stops at the first
solve whose floor, less both bounds, exceeds the best value found at
this dimension: no later solve can go below it.  When the solve after
the first one at a dimension is not already ruled out (always so at the
smallest dimension, which has no floors yet), a Ritz step builds V from
the H_N and the extreme eigenvalues lambda_min and lambda_max of the
angle just solved: one inverse-iteration solve from the all-ones vector
at each of lambda_min - b_N and lambda_max + b_N (Parlett, ch. 4),
orthonormalized by QR (one column when N = 1).  Interlacing holds for
any orthonormal V, so the solves need not converge; they only turn V
towards the extreme eigenvectors, where its floors prune hardest.  The
shift by b_N keeps both systems definite: b_N covers the error of the
computed eigenvalues and exceeds half their ulp, while at a computed
eigenvalue itself LU can meet an exactly singular matrix.  (F_N = 0 has
b_N = 0 and every value 0, nothing to prune, and takes no Ritz step.)
One stacked eigenvalue solve of the 2 x 2 compressions at every pending
angle then gives their Ritz floors, each kept where it is a better
bound, and the visit goes on in the new order.  The angle of the minimum
is always solved by eigvalsh on the same leading block, so each minimum
is the float that the full grid of :func:`support_profiles` gives on the
same ladder, whatever V is.  A half-plane form takes one or two solves
per larger dimension, and a Ritz step there only on some forms; a
whole-plane form takes one Ritz step and a few solves per dimension
where it took nearly the full grid without the Ritz floors.  The
factored path is cheap for every angle and is not pruned.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .legendre import constrained_basis, galerkin_form, rounding_cutoff
from .model import as_divergence
from .quasiform import _splitting, split_form, split_jets

__all__ = [
    "SupportProfile",
    "HalfPlaneReport",
    "constrained_basis",
    "galerkin_form",
    "split_form",
    "support_function",
    "support_profiles",
    "half_plane_verdict",
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

    @classmethod
    def from_minima(cls, dimensions, minima, bounds):
        """The verdict on minima m_N for ascending ``dimensions``.

        The minima are nondecreasing in N.  A final minimum within
        ``SLACK`` (relative) of the first indicates a supporting line:
        "half_plane".  Minima that grow by at least ``GROWTH_FACTOR`` at
        every step (once above 1) indicate that every direction
        eventually fails: "whole_plane".  Anything else is
        "undetermined".
        """
        minima = tuple(minima)
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
        return cls(verdict=verdict, dimensions=tuple(dimensions), minima=minima,
                   bounds=tuple(bounds))


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


# ---------------------------------------------------------------------------
# Support functions
# ---------------------------------------------------------------------------

def _hermitian_part(form, theta):
    """H(theta), the Hermitian part of e^{i theta} F."""
    rotated = cmath.exp(1j * theta) * form
    return 0.5 * (rotated + rotated.conj().T)


def _extremes(form, theta):
    """(H(theta), lambda_min, lambda_max): sigma(theta) and
    -sigma(theta + pi) from one eigenvalue solve, with the matrix solved."""
    herm = _hermitian_part(form, theta)
    lam = np.linalg.eigvalsh(herm)
    return herm, float(lam[0]), float(lam[-1])


def support_function(form, theta):
    """max of Re(e^{i theta} (F v, v)) over unit vectors v."""
    return _extremes(np.asarray(form, dtype=complex), theta)[2]


def _grid(angles):
    """(solves, pairs) of an angle grid: on an even grid angle k + pairs
    is angle k + pi, and solve k serves both; an odd grid has no pairs
    and takes one solve per angle."""
    pairs = len(angles) // 2 if len(angles) % 2 == 0 else 0
    return len(angles) - pairs, pairs


def _solve(form, angles, k, pairs):
    """sigma at the angles of solve ``k``: angle k, and angle k + pairs
    on an even grid."""
    _, lo, hi = _extremes(form, angles[k])
    return (hi, -lo) if pairs else (hi,)


def _rounding_bound(report, dim, form):
    """The error bound of the eigenvalue path at ``dim``, with ||F_N||_2
    the square root of the largest eigenvalue of F_N^H F_N, clamped at 0."""
    gram = np.linalg.eigvalsh(form.conj().T @ form)[-1]
    return (dim + report.spec.order) * EPS * math.sqrt(max(float(gram), 0.0))


def _forms(report, dimensions):
    """F_N for each of ``dimensions``: the leading N x N blocks of the one
    assembly at the largest, which are F_N for every N >= n (module
    docstring); a smaller N is assembled on its own."""
    largest = max(dimensions)
    top = split_form(report.spec, largest)
    return [top[:dim, :dim] if dim >= report.spec.order or dim == largest
            else split_form(report.spec, dim) for dim in dimensions]


def _factored_supports(report, factor, dimensions, angles):
    """(sigma_N over the ``angles``, error bound of its minimum) for each
    of ``dimensions`` on the factored path, from the jets of the one
    assembly at the largest (leading columns, as in :func:`_forms`).
    F = G^H G gives sigma(theta) = cos(theta) * (s_max^2 where cos >= 0,
    else s_min^2)."""
    root, defect = factor
    largest = max(dimensions)
    top_jets, top_wedge, _ = split_jets(report, largest)
    p = report.spec.form.p
    supports = []
    for dim in dimensions:
        if dim >= report.spec.order or dim == largest:
            jets, wedge = [jet[:, :dim] for jet in top_jets], top_wedge[:, :dim]
        else:
            jets, wedge, _ = split_jets(report, dim)
        blocks = [math.sqrt(p[k].coeffs[0].real) * jets[k] for k in range(len(p)) if p[k]]
        sv = np.linalg.svd(np.vstack(blocks + [root @ wedge]), compute_uv=False)
        delta = (dim + report.spec.order) * EPS * sv[0]
        values = tuple(math.cos(theta) * float(sv[0] ** 2 if math.cos(theta) >= 0 else sv[-1] ** 2)
                       for theta in angles)
        behind = sv[0] if math.cos(angles[values.index(min(values))]) >= 0 else sv[-1]
        bound = 2 * behind * delta + delta * delta + defect * np.linalg.norm(wedge, 2) ** 2
        supports.append((values, float(bound)))
    return supports


def _ritz_floors(form, herm, lo, hi, shift, angles, pairs, pending):
    """Lower bounds on the least sigma of each of the ``pending`` solves:
    Rayleigh-Ritz values on an orthonormal pair near the extreme
    eigenvectors of ``herm``, whose eigenvalues ``lo`` and ``hi`` are
    known, from one inverse-iteration step at lo - shift and hi + shift
    (module docstring) and one stacked 2 x 2 eigenvalue solve."""
    shifted = herm - np.array([lo - shift, hi + shift])[:, None, None] * np.eye(len(herm))
    steps = np.linalg.solve(shifted, np.ones((2, len(herm), 1)))[:, :, 0]
    basis = np.linalg.qr(steps.T)[0]
    compressed = basis.conj().T @ form @ basis
    phases = np.exp(1j * np.array([angles[j] for j in pending]))
    rotated = phases[:, None, None] * compressed
    lam = np.linalg.eigvalsh(0.5 * (rotated + rotated.conj().transpose(0, 2, 1)))
    return np.minimum(lam[:, -1], -lam[:, 0]) if pairs else lam[:, -1]


def _pruned_minima(report, dimensions, angles):
    """(minima, bounds) of the eigenvalue path, each dimension solving
    only the angles that can still hold its minimum (module docstring)."""
    solves, pairs = _grid(angles)
    # per solve: a lower bound on its least sigma, up to floor_bound plus
    # the bound of the dimension at hand -- its value at the largest
    # dimension that solved it, or a Ritz value; -inf before either
    floor, floor_bound = [-math.inf] * solves, [0.0] * solves
    minima, bounds = [], []
    for dim, form in zip(dimensions, _forms(report, dimensions)):
        bound = _rounding_bound(report, dim, form)

        def pruned(j):
            return floor[j] - (floor_bound[j] + bound) > best

        best = math.inf
        pending = sorted(range(solves), key=floor.__getitem__)
        while pending and not pruned(pending[0]):
            k = pending.pop(0)
            herm, lo, hi = _extremes(form, angles[k])
            floor[k], floor_bound[k] = (min(hi, -lo) if pairs else hi), bound
            best = min(best, floor[k])
            # after the first solve, unless the next one is ruled out
            # already: Ritz floors from the angle just solved.  F_N = 0
            # (bound 0) has every value 0, so nothing to prune, and no
            # shift that makes the solves definite
            if bound and len(pending) == solves - 1 and pending and not pruned(pending[0]):
                ritz = _ritz_floors(form, herm, lo, hi, bound, angles, pairs, pending)
                for j, value in zip(pending, ritz.tolist()):
                    if value - bound > floor[j] - floor_bound[j]:
                        floor[j], floor_bound[j] = value, bound
                pending.sort(key=floor.__getitem__)
        minima.append(best)
        bounds.append(bound)
    return tuple(minima), tuple(bounds)


def _angle_grid(num_angles):
    if num_angles < 1:
        raise ValueError("need at least one angle")
    return tuple(2.0 * math.pi * k / num_angles for k in range(num_angles))


def support_profiles(spec, dimensions, num_angles=DEFAULT_ANGLES):
    """sigma_N(theta) over an even angle grid on [0, 2 pi) for each N of
    ``dimensions``, in their order, all read off one assembly at the
    largest.  Raises SpecError when the spec has no even-order divergence
    or model form, and ValueError for an empty ladder, a dimension below
    1 or fewer than one angle."""
    dimensions = tuple(int(d) for d in dimensions)
    if not dimensions or min(dimensions) < 1:
        raise ValueError("dimensions must be positive")
    report = _splitting(as_divergence(spec))
    angles = _angle_grid(num_angles)
    factor = _factor(report)
    if factor is None:
        solves, pairs = _grid(angles)
        supports = []
        for dim, form in zip(dimensions, _forms(report, dimensions)):
            sigma = [_solve(form, angles, k, pairs) for k in range(solves)]
            values = tuple(s[0] for s in sigma) + tuple(s[1] for s in sigma[:pairs])
            supports.append((values, _rounding_bound(report, dim, form)))
    else:
        supports = _factored_supports(report, factor, dimensions, angles)
    return tuple(SupportProfile(dimension=dim, angles=angles, values=values, bound=bound)
                 for dim, (values, bound) in zip(dimensions, supports))


def half_plane_verdict(spec, dimensions=DEFAULT_DIMENSIONS, num_angles=DEFAULT_ANGLES):
    """Decide whether the form values stay inside some half-plane.

    The minima m_N = min_theta sigma_N(theta) over the angle grid of
    :func:`support_profiles` are the same floats its profiles of the same
    ladder give; the eigenvalue path finds them by the pruned search of
    the module docstring, which solves only the angles whose floors, from
    smaller dimensions or from Ritz values on two inverse-iteration
    vectors, leave them able to hold the minimum.
    :meth:`HalfPlaneReport.from_minima` gives the verdict.  Raises
    SpecError when the spec has no even-order divergence or model form,
    and ValueError for fewer than two distinct dimensions or fewer than
    one angle.
    """
    dimensions = tuple(sorted(int(d) for d in dimensions))
    if len(set(dimensions)) != len(dimensions) or len(dimensions) < 2:
        raise ValueError("need at least two distinct dimensions to compare")
    report = _splitting(as_divergence(spec))
    angles = _angle_grid(num_angles)
    factor = _factor(report)
    if factor is None:
        minima, bounds = _pruned_minima(report, dimensions, angles)
    else:
        supports = _factored_supports(report, factor, dimensions, angles)
        minima, bounds = [min(values) for values, _ in supports], [b for _, b in supports]
    return HalfPlaneReport.from_minima(dimensions, minima, bounds)
