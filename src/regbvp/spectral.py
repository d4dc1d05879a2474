"""Spectral engine for the model expression (-i)^n y^(n).

The characteristic determinant Delta(rho) = det[U_j(e^(i eps_k rho x))]
vanishes exactly at the eigenvalue parameters.  It is the exponential
polynomial sum_f P_f(rho) e^(i rho f) of :mod:`regbvp.birkhoff`, which
builds its one record per operator and evaluates it by Horner; the
classification reads theta0 and theta1 off the same record.  This module
winds, polishes and scans on it, and :func:`find_roots` raises when
Delta vanishes identically.  The Green kernel and the eigenfunctions
solve on one scaled boundary matrix at a single rho instead.

Only :func:`find_roots` searches for zeros, always over a full annulus.
The ray clearance check, the scans and Gram conditioning filter a root
tuple from the caller, and a sector is a filter too (:func:`roots_in`),
so one search serves a whole command.  Every contour it winds (a polar
box, a verification circle, the two arcs of one sector whose n turns
bound the annulus) is a list of radial segments and arcs, each a
:class:`_Path`, and one function winds them all, :func:`_windings`.
The search has one retry rule: a failed contour (a box, a split, a
verification circle) rebuilds the partition with shifted lines; boxes
always split at their midpoints, and no multiplicity is taken from a
box count in place of a circle.  The search runs batched per
subdivision level, and winds the contours of the initial grid (the
first with the sector's arcs), of all splits of a level, or of all
verification circles together, with one evaluation for the first
samples of every path and one per round for the refinement midpoints
of every path; no evaluation takes more than ``BATCH_POINTS`` points.
The samples that count a box's zeros also give their power sums about
its centre (Delves and Lyness, Math. Comp. 21, 1967) with no further
evaluation, and the sums give the zeros (:func:`_zero_starts`).  So the
subdivision has one rule: a box starts one Newton point per distinct
zero, with its multiplicity, and is kept when every point converges
inside it to distinct points; otherwise it splits, and a box with more
than ``POWER_SUMS`` zeros splits at once.  Nothing is accepted on the
sums' word: the residual and in-box test, the circles and the retry
rule decide.  Batching changes no result: every point's Newton steps
and every path's samples, refinements and sums are the ones it gets
alone.  A root whose circle winds m times is polished by Newton on
Delta^(m-1), whose zero there is simple, so a multiple root is not
limited by the cancellation of Delta near it.

Green kernel and resolvent.  The Green sup scan samples the kernel on a
lattice.  The resolvent norm does not use the kernel: on the constrained
Legendre space V_N of :mod:`regbvp.legendre`, u -> (l - lambda) u is the
exact (N + n) x N coefficient matrix M_N = L B - lambda B, whose
smallest singular value is 1 / ||(l - lambda)^-1|| on V_N (Trefethen and
Embree, Spectra and Pseudospectra, 2005).  L B and B are assembled once
per scan at N = 16 and N = 32, and each sample takes the singular values
of both.  Its relative error estimate is the larger of the difference
between the two sizes and eps ||M_32|| / sigma_min.  A sample whose
estimate exceeds ``RESOLVENT_MAX_ERROR`` falls back to the Nystrom
discretization of the Green kernel, estimated by the same rule from 32
and 64 Gauss-Legendre nodes, and the scan lists it; near the spectrum of
a problem that is not regular, sigma_min falls below the rounding of
M_N.  The Nystrom kernel converges only like q^-2 on its diagonal kink
(Kress, Linear Integral Equations, ch. 12), so it serves only there.

Fixed numerical choices are module constants: the Newton residual
``RESIDUAL_TOL``, the power sums ``POWER_SUMS`` and the merge distance
``MERGE_TOL`` of the Newton starts, the search limits ``MAX_DEPTH`` and
``MAX_GRID``, the batch cap ``BATCH_POINTS``, the phase tracking of a
path (its first samples ``FIRST_SAMPLES_MIN``, ``FIRST_SAMPLES_MAX`` and
``FIRST_SAMPLES_PER_LENGTH``, its limits ``REFINE_ROUNDS`` and
``MAX_PATH_SAMPLES``, and the dip ``NEAR_ZERO_DIP`` that marks a zero
near it), the radius ``CLEARANCE_DELTA`` (delta) of the disks a scan
ray must clear, the resolvent's sizes ``RESOLVENT_DIMENSIONS``, its
fallback threshold ``RESOLVENT_MAX_ERROR`` and the fallback's node
counts ``NYSTROM_NODES``, and the eigenvalue merge and bracket widths
``LAMBDA_TOL`` and ``BRACKET_TAU`` (tau).
"""

import cmath
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .birkhoff import _delta, _derivative, _evaluate, unit_roots
from .geometry import critical_rays, ray_clearance, ray_distance
from .legendre import constrained_basis, strong_operator
from .model import ModelForm, OperatorSpec
from .normalize import NormalizedBC

__all__ = [
    "ScaledValue",
    "EigenRoot",
    "SpectralScan",
    "ContourError",
    "char_det",
    "find_roots",
    "roots_in",
    "clearance_annulus",
    "ray_clearance_check",
    "green_kernel",
    "green_sup_scan",
    "resolvent_norm",
    "resolvent_scan",
    "eigenfunction",
    "distinct_eigenvalues",
    "bracket_groups",
    "gram_condition",
]

RESIDUAL_TOL = 1e-8
# The power sums s_1 ... s_POWER_SUMS of the zeros inside each contour
# that the winding samples give, and the distance, relative to a box's
# diameter, within which the zeros estimated from them are one start
# (see _zero_starts).
POWER_SUMS = 5
MERGE_TOL = 0.1
# The most rho values one _evaluate call takes: batches beyond it buy no
# speed and only raise the peak memory.
BATCH_POINTS = 1024
NEWTON_MAX_ITER = 50
MAX_DEPTH = 40
MAX_GRID = 8
# Polished roots closer than CLUSTER_TOL * (1 + |rho|) are one zero.
CLUSTER_TOL = 1e-7
# A sample whose log|Delta| drops this far below its neighbours on a contour
# marks a nearby zero.  (An absolute threshold would be wrong: degenerate
# boundary conditions can make Delta exponentially small relative to the
# matrix scale everywhere without vanishing anywhere.)
NEAR_ZERO_DIP = 25.0
# Phase tracking along a contour path of length L: it starts from
# max(FIRST_SAMPLES_MIN, min(FIRST_SAMPLES_MAX,
#     int(4 + FIRST_SAMPLES_PER_LENGTH n L)))
# samples and halves its large phase steps for at most REFINE_ROUNDS
# rounds, up to MAX_PATH_SAMPLES samples.
FIRST_SAMPLES_MIN = 9
FIRST_SAMPLES_MAX = 4000
FIRST_SAMPLES_PER_LENGTH = 1.5
REFINE_ROUNDS = 24
MAX_PATH_SAMPLES = 200000

CLEARANCE_DELTA = 0.5
# Resolvent norms: the coefficient-space sizes N compared, the relative
# error estimate above which a sample falls back to the Nystrom kernel,
# and the node counts that kernel compares.
RESOLVENT_DIMENSIONS = (16, 32)
RESOLVENT_MAX_ERROR = 1e-6
NYSTROM_NODES = (32, 64)
LAMBDA_TOL = 1e-6
BRACKET_TAU = 0.05


class ContourError(RuntimeError):
    """A winding contour could not be separated from a determinant zero."""


@dataclass(frozen=True)
class ScaledValue:
    """A complex value stored as ``mantissa * exp(log_scale)``.

    :func:`char_det` puts the whole modulus into ``log_scale``, so
    ``|mantissa|`` is 1 up to rounding, or 0 for an exact zero.
    """

    mantissa: complex
    log_scale: float

    @property
    def value(self):
        return self.mantissa * cmath.exp(self.log_scale)

    @property
    def log_abs(self):
        if self.mantissa == 0:
            return -math.inf
        return self.log_scale + math.log(abs(self.mantissa))


@dataclass(frozen=True)
class EigenRoot:
    """A zero of the characteristic determinant.

    ``residual`` is the relative size of the final Newton correction,
    |step| / (1 + |rho|); it is meaningful even where whole rows of the
    boundary matrix vanish (there the determinant value itself carries an
    arbitrary row-scale factor).  It does not bound the root error: a
    converged step can be far below the rounding error of rho itself.
    Against the closed-form roots of four gallery examples out to
    |rho| = 66.5 the error stays below eps (1 + |rho|), and reaches
    several hundred times residual (1 + |rho|).
    """

    rho: complex
    lam: complex
    multiplicity: int
    residual: float


@dataclass(frozen=True)
class SpectralScan:
    """Samples of a positive quantity along a ray, with a power-law fit."""

    kind: str
    ray_angle: float
    samples: tuple          # ((rho, value), ...)
    exponent: float
    fit_residual: float
    clearance: float
    errors: tuple | None    # relative error estimate of each sample
    fallbacks: tuple        # indices of the samples taken by a fallback

    @property
    def exponent_error(self):
        """First-order bound on the error of ``exponent`` from the sample
        errors: the fitted slope is sum_i w_i log(value_i), so it moves by
        at most sum_i |w_i| errors_i.  None when the samples carry no
        estimate."""
        if self.errors is None:
            return None
        x = np.log([abs(rho) for rho, _ in self.samples])
        x = x - x.mean()
        return float(np.abs(x) @ np.asarray(self.errors) / (x @ x))


# ---------------------------------------------------------------------------
# Characteristic determinant
# ---------------------------------------------------------------------------

def _exponents(eps, rho):
    """The exponents z_k = i eps_k rho and the column shifts
    max(0, Re z_k): column k of every scaled matrix carries the factor
    e^(-shift_k)."""
    z = 1j * eps * rho
    return z, np.maximum(z.real, 0.0)


def _rows(nbc: NormalizedBC):
    """The unit roots eps_k and the row coefficients a, b, as arrays."""
    return (np.array(unit_roots(nbc.n)), np.array([row.a for row in nbc.rows], dtype=complex),
            np.array([row.b for row in nbc.rows], dtype=complex))


def _boundary_matrix(nbc: NormalizedBC, rho):
    """The scaled boundary matrix [U_j(e^(z_k x))] at one rho: column k
    carries the factor e^(-shift_k) of :func:`_exponents`, and each row is
    divided by its largest entry.  Returns (matrix, row divisors, column
    shifts), so a right-hand side or a solution can be scaled to match."""
    n, (eps, a, b) = nbc.n, _rows(nbc)
    z, shift = _exponents(eps, rho)
    powers = np.ones((n, n), dtype=complex)                     # (k, s) = z_k^s
    for s in range(1, n):
        powers[:, s] = powers[:, s - 1] * z
    # entry (j, k) = sum_s a[j,s] z_k^s * col + b[j,s] z_k^s e^z * col
    mat = (np.einsum("js,ks->jk", a, powers) * np.exp(-shift)
           + np.einsum("js,ks->jk", b, powers) * np.exp(z - shift))
    row_norm = np.abs(mat).max(axis=1)
    safe = np.where(row_norm > 0.0, row_norm, 1.0)
    return mat / safe[:, None], safe, shift


def _char_det_batch(delta, rhos, tables=None):
    """(values, shifts) of :func:`_evaluate` at any number of rho values,
    BATCH_POINTS at a time; ``tables`` defaults to Delta alone."""
    tables = delta.coeffs[None] if tables is None else tables
    rhos = np.asarray(rhos, dtype=complex).ravel()
    parts = [_evaluate(delta, tables, rhos[i:i + BATCH_POINTS])
             for i in range(0, rhos.size, BATCH_POINTS)]
    return (np.concatenate([values for values, _ in parts], axis=1),
            np.concatenate([shifts for _, shifts in parts]))


def char_det(nbc: NormalizedBC, rho) -> ScaledValue:
    """Characteristic determinant of the model problem at ``rho``."""
    values, shifts = _char_det_batch(_delta(nbc.rows), [rho])
    d, scale = complex(values[0, 0]), float(shifts[0])
    if d == 0:
        return ScaledValue(0j, scale)
    return ScaledValue(d / abs(d), scale + math.log(abs(d)))


# ---------------------------------------------------------------------------
# Root finding by the argument principle
# ---------------------------------------------------------------------------

class _Candidate(NamedTuple):
    """A polished point of the subdivision, before its multiplicity is
    wound on a circle: the point and its Newton residual."""

    rho: complex
    residual: float


class _Path(NamedTuple):
    """The path center + (r0 + (r1 - r0) t) e^(i (a0 + (a1 - a0) t)), t in
    [0, 1]: a radial segment when a0 = a1, an arc when r0 = r1.  Every
    contour of the search is a list of these."""

    r0: float
    r1: float
    a0: float
    a1: float
    center: complex = 0.0


def _box_contour(box):
    """The boundary of a polar box, counterclockwise, as four paths.  A
    box spanning a full turn (order 1) winds its two radial edges too,
    one segment both ways, whose phases cancel."""
    r0, r1, a0, a1 = box
    return [_Path(r0, r1, a0, a0), _Path(r1, r1, a0, a1), _Path(r1, r0, a1, a1),
            _Path(r0, r0, a1, a0)]


def _log_abs_array(dets, logs):
    with np.errstate(divide="ignore"):          # log 0 = -inf
        return logs + np.log(np.abs(dets))


def _windings(delta, contours):
    """Winding of Delta around each closed contour (a list of
    :class:`_Path` paths), and the power sums of the zeros inside it, all
    wound together.

    Each path starts from its first samples (see FIRST_SAMPLES_MIN),
    equispaced as ``np.linspace`` places them, and each round halves
    every step across which the phase of Delta jumps by more than
    pi / 2.  The first samples of all paths are one evaluation, and so
    are the midpoints of each round, so the batch costs one evaluation
    more than the refinement rounds of its slowest path.  The paths are
    tracked in shared arrays, and a round's settled paths are summed in
    one segmented reduction; every path's samples, refinements, phase
    sum and power sums are the ones it gets alone.

    The same samples give the power sums s_p = (1 / 2 pi i) oint
    (rho - c)^p Delta' / Delta drho, p = 1 ... POWER_SUMS, of the zeros
    inside about the contour's centre c, the mean of its paths' starting
    points (a box's corners), with no further evaluation (Delves and
    Lyness, Math. Comp. 21, 1967), by the trapezoid rule on log Delta
    continued along the samples: a step adds the mean of (rho - c)^p at
    its two ends times its change in log|Delta| and in the continued
    phase.  A path's sums are taken once it settles, with its phase sum.

    A path through a zero, a midpoint far below its neighbours in
    log|Delta| (a zero close to the path), REFINE_ROUNDS rounds or more
    than MAX_PATH_SAMPLES samples fail the path, and a non-integral
    winding fails its contour.  Once a path fails, no later path is
    refined.  Returns (outcomes, centres, sums), one entry each per
    contour: its count, or the ContourError of its first failing path,
    of its winding, or of the path that stopped its refinement; its
    centre c; and its power sums, a row of the (contours, POWER_SUMS)
    array ``sums``, NaN where a path has no phase sum.  :func:`_counts`
    raises the first error.

    A contour closes when each path ends where the next starts (the last
    where the first starts) or, as a circle does, where it starts.  One
    that does not is one sector's outer arc and inner arc run back, of
    angle 2 pi / n about 0; Delta(eps_k rho) = +-Delta(rho) turns the
    phase alike on all n sectors, so its count, the one checked for
    integrality, is n times its winding.  Its centre and sums mean nothing.
    """
    paths = [path for contour in contours for path in contour]
    if not paths:
        return [], [], np.zeros((0, POWER_SUMS), dtype=complex)
    r0, r1, a0, a1 = (np.array(column, dtype=float) for column in list(zip(*paths))[:4])
    center = np.array([path.center for path in paths], dtype=complex)
    per_contour = [len(contour) for contour in contours]
    firsts = np.cumsum([0] + per_contour[:-1])
    # whether each contour closes; an open one counts n turns
    after = np.arange(1, len(paths) + 1)
    after[firsts + per_contour - 1] = firsts
    joined = ((r1 == r0[after]) & (a1 == a0[after])) | ((r1 == r0) & (abs(a1 - a0) == 2 * math.pi))
    turns = np.where(np.logical_and.reduceat(joined, firsts), 1, delta.n)
    centres = np.add.reduceat(center + r0 * np.exp(1j * a0), firsts) / per_contour
    about = np.repeat(centres, per_contour)     # the centre of each path's contour

    def sample(owner, ts):
        """The points at parameters ``ts`` on paths ``owner``, and
        log|Delta| and arg Delta there, BATCH_POINTS at a time."""
        parts = []
        for i in range(0, ts.size, BATCH_POINTS):
            on, t = owner[i:i + BATCH_POINTS], ts[i:i + BATCH_POINTS]
            points = center[on] + (r0[on] + (r1 - r0)[on] * t) * np.exp(
                1j * (a0[on] + (a1 - a0)[on] * t))
            (dets,), logs = _evaluate(delta, delta.coeffs[None], points)
            parts.append((points, _log_abs_array(dets, logs), np.angle(dets)))
        return (np.concatenate(part) for part in zip(*parts))

    lengths = np.abs(r1 - r0) + np.abs(a1 - a0) * np.maximum(r0, r1)
    sizes = np.clip(4 + FIRST_SAMPLES_PER_LENGTH * delta.n * lengths,
                    FIRST_SAMPLES_MIN, FIRST_SAMPLES_MAX).astype(int)
    ends = np.cumsum(sizes)
    owner = np.repeat(np.arange(len(paths)), sizes)             # the path of each sample
    # t = k (1 / (size - 1)), and 1 at the end: the bits of np.linspace
    ts = ((np.arange(owner.size) - np.repeat(ends - sizes, sizes))
          * np.repeat(1.0 / (sizes - 1), sizes))
    ts[ends - 1] = 1.0
    points, la, phases = sample(owner, ts)
    sums = np.full(len(paths), np.nan)  # a settled path's phase sum
    shares = np.full((len(paths), POWER_SUMS), np.nan, dtype=complex)  # and of 2 pi i s_p
    errors = {}                         # a failed path's ContourError
    first_failure = len(paths)

    def fail(failed, message):
        nonlocal first_failure
        for p in sorted(set(failed.tolist())):
            if math.isnan(sums[p]) and p not in errors:
                errors[p] = ContourError(message)
                first_failure = min(first_failure, p)

    fail(owner[~np.isfinite(la)], "contour passes through a determinant zero")
    for _ in range(REFINE_ROUNDS):
        # a failed path lies at or beyond first_failure
        keep = np.isnan(sums[owner]) & (owner < first_failure)
        if not keep.all():
            owner, ts, points, phases, la = (
                owner[keep], ts[keep], points[keep], phases[keep], la[keep])
        if not owner.size:
            break
        # the step after each sample, zeroed where it leaves the path and
        # after the last sample: every path's steps end with one zero, so
        # its sums group their terms as alone
        same = owner[1:] == owner[:-1]
        diffs = np.append(np.where(same, np.angle(np.exp(1j * np.diff(phases))), 0.0), 0.0)
        bad = np.flatnonzero(np.abs(diffs) > 0.5 * math.pi)
        starts = np.flatnonzero(np.diff(owner, prepend=-1))
        live = owner[starts]
        settled = np.ones(len(paths), dtype=bool)
        settled[owner[bad]] = False
        settled = settled[live]
        sums[live[settled]] = np.add.reduceat(diffs, starts)[settled]
        # the trapezoid rule on the settled paths' samples: each sample
        # weighs half the change in log Delta over its two steps, and each
        # order multiplies in its distance from the centre once more
        done = np.repeat(settled, np.diff(starts, append=owner.size))
        if done.any():
            steps = np.append(np.where(same, np.diff(la) + 1j * diffs[:-1], 0.0), 0.0)
            terms = (0.5 * (steps + np.append(0.0, steps[:-1])))[done]
            heads = np.flatnonzero(np.diff(owner[done], prepend=-1))
            offsets = points[done] - about[owner[done]]
            for p in range(POWER_SUMS):
                terms *= offsets
                shares[live[settled], p] = np.add.reduceat(terms, heads)
        if not bad.size:
            break
        mid_owner, mid_ts = owner[bad], 0.5 * (ts[bad] + ts[bad + 1])
        mid_points, mid_la, mid_phases = sample(mid_owner, mid_ts)
        dip = np.minimum(la[bad], la[bad + 1]) - NEAR_ZERO_DIP
        fail(mid_owner[~np.isfinite(mid_la) | (mid_la < dip)],
             "contour too close to a determinant zero")
        # each midpoint goes right after the sample that starts its step
        order = np.insert(np.arange(owner.size), bad + 1,
                          np.arange(owner.size, owner.size + bad.size))
        owner, ts, points, phases, la = (np.concatenate(pair)[order] for pair in (
            (owner, mid_owner), (ts, mid_ts), (points, mid_points), (phases, mid_phases),
            (la, mid_la)))
        fail(np.flatnonzero(np.bincount(owner, minlength=len(paths)) > MAX_PATH_SAMPLES),
             "phase tracking failed to settle along an edge")
    fail(np.flatnonzero(np.isnan(sums[:first_failure])),
         "phase tracking failed to settle along an edge")

    # a contour with a path that has no phase sum has no winding either
    windings = np.add.reduceat(sums, firsts) / (2 * math.pi) * turns
    power_sums = np.add.reduceat(shares, firsts) / (2j * math.pi)
    outcomes = []
    for first, winding in zip(firsts.tolist(), windings.tolist()):
        if math.isnan(winding):
            unsettled = first + int(np.argmax(np.isnan(sums[first:])))
            outcomes.append(errors.get(unsettled, errors[first_failure]))
            continue
        rounded = round(winding)
        outcomes.append(ContourError(f"non-integral winding {winding:.3f}")
                        if abs(winding - rounded) > 0.25 else rounded)
    return outcomes, centres.tolist(), power_sums


def _counts(outcomes):
    """The counts of :func:`_windings` outcomes; raises the first
    ContourError among them."""
    for outcome in outcomes:
        if isinstance(outcome, ContourError):
            raise outcome
    return outcomes


def _box_counts(delta, boxes, ahead=()):
    """The :func:`_windings` outcomes, centres and power sums of the
    contours ``ahead`` and then of polar ``boxes``, wound together."""
    return _windings(delta, list(ahead) + [_box_contour(box) for box in boxes])


def _zero_starts(count, centre, sums, scale):
    """Newton starts [(start, multiplicity)] for the ``count`` zeros
    inside a contour, from their power sums ``sums`` about ``centre`` (as
    :func:`_windings` gives them) and a length ``scale`` of the contour.

    With t_p = s_p / scale^p, Newton's identities k c_k = -(c_(k-1) t_1
    + ... + c_0 t_k), c_0 = 1, give the polynomial sum_k c_k z^(count-k)
    whose roots are the scaled zeros.  The sums carry an error of about
    1e-3, which a multiple zero spreads by its square root or more, so
    roots within MERGE_TOL of each other (single linkage) are one start
    at their mean, of their joint multiplicity.  One zero, or more than
    POWER_SUMS, start at their mean."""
    if count == 1 or count > POWER_SUMS:
        return [(centre + complex(sums[0]) / count, count)]
    t = (sums[:count] / scale ** np.arange(1, count + 1)).tolist()
    coeffs = [1.0]
    for k in range(1, count + 1):
        coeffs.append(-sum(c * t_p for c, t_p in zip(coeffs[::-1], t)) / k)
    groups = []
    for z in np.roots(coeffs).tolist():
        near = [group for group in groups if any(abs(z - w) <= MERGE_TOL for w in group)]
        groups = [group for group in groups if group not in near] + [[z] + sum(near, [])]
    return [(centre + scale * sum(group) / len(group), len(group)) for group in groups]


def _newton(delta, starts, multiplicities, polish=False):
    """Polish each start with Newton steps, all points in lockstep.

    A point of multiplicity m steps by -m Delta / Delta'.  When
    ``polish``, the step is -Delta^(m-1)/Delta^(m): an m-fold zero of
    Delta is a simple zero of Delta^(m-1), which does not cancel near it.
    Each step evaluates the tables of Delta, Delta', ... in one call.  A
    zero denominator stops the point.  A point stops once its step is
    below 1e-13 (relative); when ``polish``, it goes on while each step
    is nonzero and at most half the one before, since the polished roots
    are the ones printed.

    The subdivision starts from the zeros that a box's power sums give
    (:func:`_zero_starts`), and the final polish at each verified root.

    Returns [(rho, residual)] with residual = |last step| / (1 + |rho|).
    Steps and residuals are taken per point in Python arithmetic, so a
    point's result does not depend on the batch it runs in.
    """
    orders = [m - 1 if polish else 0 for m in multiplicities]
    tables = [delta.coeffs]
    for _ in range(max(orders, default=0) + 1):
        tables.append(_derivative(delta.freqs, tables[-1]))
    tables = np.array(tables)
    rhos = list(starts)
    best = list(starts)
    best_res = [math.inf] * len(rhos)
    last_res = [math.inf] * len(rhos)
    active = range(len(rhos))
    for _ in range(NEWTON_MAX_ITER):
        if not active:
            break
        values, _ = _char_det_batch(delta, [rhos[i] for i in active], tables)
        going = []
        for col, i in enumerate(active):
            value, slope = complex(values[orders[i], col]), complex(values[orders[i] + 1, col])
            if slope == 0:
                continue
            step = -(1 if polish else multiplicities[i]) * value / slope
            if not cmath.isfinite(step):
                continue
            rhos[i] = rhos[i] + step
            res = abs(step) / (1.0 + abs(rhos[i]))
            if res < best_res[i]:
                best[i], best_res[i] = rhos[i], res
            if res >= 1e-13 or (polish and 0 < res <= 0.5 * last_res[i]):
                going.append(i)
            last_res[i] = res
        active = going
    return list(zip(best, best_res))


def _by_modulus(roots, modulus, rtol):
    """``roots`` sorted by ``modulus``, ties broken by arg(rho) in [0, 2 pi).

    Moduli within ``rtol * (1 + modulus)`` of the first of a run tie: the
    rotated copies of one eigenvalue agree in |rho| only up to rounding.
    Arguments are shifted by CLUSTER_TOL, so that a real root whose
    imaginary part is -0 up to rounding still sorts first.
    """
    runs = []
    for root in sorted(roots, key=modulus):
        if runs and modulus(root) - modulus(runs[-1][0]) <= rtol * (1.0 + modulus(runs[-1][0])):
            runs[-1].append(root)
        else:
            runs.append([root])

    def phase(root):
        return (cmath.phase(root.rho) + CLUSTER_TOL) % (2 * math.pi)

    return [root for run in runs for root in sorted(run, key=phase)]


def _split_box(box):
    r0, r1, a0, a1 = box
    rm = r0 + (r1 - r0) * 0.5
    am = a0 + (a1 - a0) * 0.5
    return [(r0, rm, a0, am), (rm, r1, a0, am), (r0, rm, am, a1), (rm, r1, am, a1)]


def _circle_radii(rhos):
    """The radius of the verification circle around each of ``rhos``:
    1e-4 (1 + |rho|), or 0.45 times the distance to the nearest other
    rho where that is smaller, so that no two circles meet."""
    rhos = np.asarray(rhos, dtype=complex)
    gaps = rhos[:, None] - rhos[None, :]
    gaps = np.hypot(gaps.real, gaps.imag)       # the bits of abs(complex)
    np.fill_diagonal(gaps, np.inf)
    return np.minimum(1e-4 * (1.0 + np.hypot(rhos.real, rhos.imag)),
                      0.45 * gaps.min(axis=1, initial=np.inf)).tolist()


def _box_diameter(box):
    r0, r1, a0, a1 = box
    return max(r1 - r0, (a1 - a0) * r1)


def _in_box(rho, box):
    """Whether ``rho`` lies in the polar ``box``, padded by 1e-6 of its widths."""
    r0, r1, a0, a1 = box
    pad_r = 1e-6 * (r1 - r0) + 1e-12
    pad_a = 1e-6 * (a1 - a0) + 1e-12
    return (r0 - pad_r <= abs(rho) <= r1 + pad_r and abs(cmath.phase(
        cmath.exp(1j * (cmath.phase(rho) - 0.5 * (a0 + a1))))) <= (a1 - a0) / 2 + pad_a)


def find_roots(nbc: NormalizedBC, annulus):
    """Zeros of the characteristic determinant inside an annulus.

    ``annulus`` is (r_min, r_max) with 0 < r_min < r_max.  Zeros are
    isolated by argument-principle winding counts on adaptively
    subdivided polar boxes and polished by Newton steps (see
    :func:`_newton`); ``multiplicity`` comes from a winding count around
    each zero.  Box edges, the boundary of the annulus and the
    verification circles are all one kind of path (:class:`_Path`).
    Raises ValueError when Delta vanishes identically.

    The search covers one sector of angle 2 pi / n and turns what it
    finds, and checks the turned zeros against the count of the whole
    annulus, n times the winding of one sector's outer arc and inner arc
    run back (:func:`_windings`).  Only those arcs are fixed, at arg 0
    ... 2 pi / n, and wound once; an arc that fails raises.  The
    partition lines and the seam of the sector move off a zero, and no
    partition puts the seam on the real axis, where real zeros lie.

    There is one retry rule.  Any ContourError (a box count, a split
    whose child counts do not add up to the parent's, or a verification
    circle) and any shortfall against the whole-annulus count rebuild
    the partition with shifted lines and seam, up to 6 partitions; the
    last error is raised.  Boxes always split at their midpoints, and
    every multiplicity comes from the winding of a circle.

    The subdivision runs level by level with one rule: each box starts
    one Newton point per distinct zero that its power sums show
    (:func:`_zero_starts`), all boxes of a level in one batch, and is
    kept when every point converges inside it to distinct points; it
    splits otherwise, and at once when it holds more than POWER_SUMS
    zeros.  At ``MAX_DEPTH`` or the smallest diameter a box steps and
    keeps its points whatever they converged to.  The initial partition
    (the first with the arcs ahead of its boxes), the children of all
    splits of a level and all verification circles are each wound as
    one batch (:func:`_windings`); the splits of a level are checked in
    level order, and the first that fails raises, as if each had been
    wound on its own.  Each verification circle's radius is 1e-4 (1 + |rho|),
    or 0.45 times the distance to the nearest other root where that is
    smaller.
    """
    r_min, r_max = annulus
    if not 0 < r_min < r_max < math.inf:
        raise ValueError("annulus radii must satisfy 0 < r_min < r_max < inf")
    n = nbc.n
    delta = _delta(nbc.rows)
    if not delta.freqs.size:
        raise ValueError("the characteristic determinant vanishes identically: "
                         "every \u03bb is an eigenvalue")
    # rho -> eps_k rho permutes the exponentials e^(i eps_j rho x), so the
    # zeros repeat in every sector of angle 2 pi / n.  One sector is
    # searched (its seam moves with the partition) and turned.
    width = 2 * math.pi / n
    # the count of the whole annulus, whose boundary no partition line
    # crosses, checks that no zero went missing on a line: n times the
    # winding of one sector's two arcs, fixed at arg 0 ... 2 pi / n
    arcs = [_Path(r_max, r_max, 0.0, width), _Path(r_min, r_min, width, 0.0)]
    diam_tol = max(1e-10 * r_max, 1e-12)

    def subdivide(boxes, outcomes, centres, sums):
        found = []
        # a level entry is (box, count, centre, power sums), count != 0
        level = [entry for entry in zip(boxes, _counts(outcomes), centres, sums) if entry[1]]
        depth = 0
        while level:
            # one Newton point per distinct zero of each box, all in one
            # batch; more than POWER_SUMS zeros split at once, but at a limit
            plans = []
            for box, count, centre, box_sums in level:
                limit = depth >= MAX_DEPTH or _box_diameter(box) <= diam_tol
                box_starts = _zero_starts(count, centre, box_sums, _box_diameter(box))
                plans.append((box, count, limit,
                              box_starts if count <= POWER_SUMS or limit else []))
            starts = [start for *_, box_starts in plans for start in box_starts]
            polished = iter(_newton(delta, [rho for rho, _ in starts], [m for _, m in starts]))
            splitting = []
            for box, count, limit, box_starts in plans:
                points = [next(polished) for _ in box_starts]
                # kept when every start converged (essentially) inside the box, to
                # distinct points; a point outside it counts in a neighbour
                if box_starts and (limit or (
                        all(res <= RESIDUAL_TOL and _in_box(rho, box) for rho, res in points)
                        and all(abs(rho - other) > CLUSTER_TOL * (1.0 + abs(rho))
                                for k, (rho, _) in enumerate(points)
                                for other, _ in points[k + 1:]))):
                    found += [_Candidate(complex(rho), float(res)) for rho, res in points]
                else:
                    splitting.append((box, count))
            if not splitting:
                break
            # the children of all splits are wound together, and each
            # split is checked in level order
            children = [child for box, _ in splitting for child in _split_box(box)]
            outcomes, centres, sums = _box_counts(delta, children)
            level = []
            for k, (box, count) in enumerate(splitting):
                four = slice(4 * k, 4 * k + 4)
                child_counts = _counts(outcomes[four])
                if sum(child_counts) != count:
                    raise ContourError(f"winding counts failed to split box {box}")
                level += [entry for entry in zip(children[four], child_counts, centres[four],
                                                 sums[four]) if entry[1]]
            depth += 1
        return found

    def cluster_and_verify(candidates):
        # Cluster seam/corner duplicates, then confirm each multiplicity
        # with a small winding circle: a zero sitting on a partition line
        # splits its winding across the adjacent boxes, and a box may even
        # credit such a split count to a different zero; the circle gives
        # every cluster its true multiplicity.  Each circle is wound once:
        # a circle that fails raises, and the partition moves.  The
        # circles are sampled together, and the verified roots polished
        # together.
        clusters = []
        for root in _by_modulus(candidates, lambda root: abs(root.rho), CLUSTER_TOL):
            for cluster in clusters:
                if abs(root.rho - cluster[0].rho) <= CLUSTER_TOL * (1.0 + abs(root.rho)):
                    cluster.append(root)
                    break
            else:
                clusters.append([root])
        reps = [min(cluster, key=lambda root: root.residual) for cluster in clusters]
        circles = [[_Path(radius, radius, 0.0, 2 * math.pi, rep.rho)]
                   for rep, radius in zip(reps, _circle_radii([rep.rho for rep in reps]))]
        mults = _counts(_windings(delta, circles)[0])
        verified = [(rep.rho, mult) for rep, mult in zip(reps, mults) if mult > 0]
        polished = _newton(delta, [rho for rho, _ in verified], [mult for _, mult in verified],
                           polish=True)
        final = [EigenRoot(complex(rho), complex(rho) ** n, int(mult), float(res))
                 for (_, mult), (rho, res) in zip(verified, polished)]
        return _by_modulus(final, lambda root: abs(root.rho), CLUSTER_TOL)

    # Initial partition: coarse boxes with edges of bounded arc length.
    # Partition lines may accidentally pass through (or very near) zeros.
    # The one retry: on a ContourError from a box, a split or a circle,
    # or when the verified multiplicities add up to less than the winding
    # total (an even-order zero on a line leaves no phase jump and can go
    # missing silently), the partition is rebuilt with its interior lines
    # shifted, and so is the seam of the sector, which is arbitrary.  The
    # first partition is already shifted: a seam on arg rho = 0 would lie
    # on the real zeros that so many operators have.
    grid_r = max(1, min(MAX_GRID, math.ceil((r_max - r_min) / 12.0)))
    grid_a = max(1, min(MAX_GRID, math.ceil(width * r_max / 12.0)))
    for attempt in range(1, 7):
        shift = 0.31 * attempt / (attempt + 1.0)
        r_edges = np.linspace(r_min, r_max, grid_r + 1)
        a_edges = np.linspace(0.0, width, grid_a + 1)
        r_edges[1:-1] += shift * (r_max - r_min) / max(grid_r, 1)
        a_edges += shift * width / max(grid_a, 1)
        boxes = [
            (float(r_edges[i]), float(r_edges[i + 1]),
             float(a_edges[j]), float(a_edges[j + 1]))
            for i in range(grid_r) for j in range(grid_a)
        ]
        # the first partition winds the arcs ahead of its boxes, which
        # then cannot stop their refinement; no retry moves a failed arc
        wound = _box_counts(delta, boxes, [arcs] if attempt == 1 else [])
        if attempt == 1:
            (total,), wound = _counts(wound[0][:1]), [part[1:] for part in wound]
        try:
            found = subdivide(boxes, *wound)
            found += [_Candidate(root.rho * turn, root.residual)
                      for turn in unit_roots(n)[1:] for root in found]
            final = cluster_and_verify(found)
        except ContourError as exc:
            last_error = exc
            continue
        if sum(root.multiplicity for root in final) >= total:
            return tuple(final)
        last_error = ContourError(
            "winding count lost near a partition line "
            f"({sum(root.multiplicity for root in final)} of {total} recovered)")
    raise last_error


# ---------------------------------------------------------------------------
# Green kernel and resolvent
# ---------------------------------------------------------------------------

def _green_matrix(nbc: NormalizedBC, rho, xs, xis):
    """Values G(x, xi) on a grid; shape (len(xs), len(xis)).

    The particular kernel uses only decaying exponentials on each side of
    the diagonal, and the boundary correction is solved on the scaled
    matrix, so the evaluation is overflow-free for large |rho|.
    """
    n, (eps, a, b) = nbc.n, _rows(nbc)
    rho = complex(rho)
    xs = np.asarray(xs, dtype=float)
    xis = np.asarray(xis, dtype=float)
    z, shift = _exponents(eps, rho)         # (n,)
    gamma = (1j * eps) / (n * rho ** (n - 1))
    growing = z.real > 0.0

    diff = xs[:, None] - xis[None, :]       # (X, K)
    g = np.zeros((xs.size, xis.size), dtype=complex)
    for k in range(n):
        if growing[k]:
            mask = diff < 0.0
            sign = -1.0
        else:
            mask = diff >= 0.0
            sign = 1.0
        expo = np.where(mask, z[k] * diff, -np.inf)
        g += sign * gamma[k] * np.exp(expo)

    # boundary data of g(., xi): derivatives at x = 0 (xi > 0 side) and x = 1
    s_powers = np.array([z ** s for s in range(n)])             # (s, k)
    at0 = np.zeros((n, xis.size), dtype=complex)                # (k, K): d^s factor applied later
    at1 = np.zeros((n, xis.size), dtype=complex)
    for k in range(n):
        if growing[k]:
            at0[k] = -gamma[k] * np.exp(-z[k] * xis)
            at1[k] = 0.0
        else:
            at0[k] = np.where(xis <= 0.0, gamma[k], 0.0)        # xi = 0 edge case
            at1[k] = gamma[k] * np.exp(z[k] * (1.0 - xis))
    rhs = (np.einsum("js,sk,kK->jK", a, s_powers, at0)
           + np.einsum("js,sk,kK->jK", b, s_powers, at1))

    # the boundary matrix rows are rescaled inside _boundary_matrix, so
    # the right-hand side must be rescaled identically before solving
    mat, row_scales, _ = _boundary_matrix(nbc, rho)
    coeffs = np.linalg.solve(mat, rhs / row_scales[:, None])

    e_cols = np.exp(np.outer(xs, z) - shift[None, :])           # scaled e^(z x)
    return g - e_cols @ coeffs


def green_kernel(nbc: NormalizedBC, rho, x, xi):
    """Green kernel of the model problem at spectral parameter rho^n.

    Scalar ``x`` and ``xi`` give a complex value; array arguments give the
    matrix ``G[i, j] = G(x[i], xi[j])``.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    xis = np.atleast_1d(np.asarray(xi, dtype=float))
    out = _green_matrix(nbc, rho, xs, xis)
    if np.ndim(x) == 0 and np.ndim(xi) == 0:
        return complex(out[0, 0])
    return out


@functools.lru_cache(maxsize=None)
def _gauss_nodes(count):
    """Gauss-Legendre nodes and weights on [0, 1], computed once per
    ``count``; the arrays are shared, so they are read-only."""
    t, w = np.polynomial.legendre.leggauss(count)
    x, w = 0.5 * (t + 1.0), 0.5 * w
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _estimate(coarse, fine, largest):
    """The relative error estimate of a norm taken at two sizes, from the
    smaller one ``coarse`` and the larger one ``fine``: the larger of
    their difference and eps times the largest singular value of the
    larger matrix, over ``fine``; infinite when ``fine`` is 0."""
    coarse, fine, largest = float(coarse), float(fine), float(largest)
    if fine == 0.0:
        return math.inf
    return max(abs(coarse - fine), np.finfo(float).eps * largest) / fine


def _coefficient_operators(nbc: NormalizedBC):
    """(L B, B) at each of RESOLVENT_DIMENSIONS N, once per scan: B the
    constrained basis of the model expression with the normalized rows,
    (N + n) x N, and L the strong operator on its coefficients, so that
    u -> (l - lambda) u on V_N is exactly L B - lambda B.  Both come from
    one basis at the largest N: the bases are nested from N = n on, and L
    is upper triangular, so each smaller pair is the leading (N + n) x N
    block (an N below the order takes its own basis)."""
    spec = OperatorSpec(nbc.n, ModelForm(), nbc.rows)

    def pair(dim):
        basis = constrained_basis(spec, dim)
        return strong_operator(spec, dim + nbc.n) @ basis, basis

    image, basis = pair(max(RESOLVENT_DIMENSIONS))
    return [(image[:dim + nbc.n, :dim], basis[:dim + nbc.n, :dim]) if dim >= nbc.n
            else pair(dim) for dim in RESOLVENT_DIMENSIONS]


def _nystrom_norm(nbc: NormalizedBC, rho, nodes):
    """Largest singular value of the Green kernel sampled on ``nodes``
    Gauss-Legendre nodes and weighted by their square roots (Nystrom)."""
    x, w = _gauss_nodes(nodes)
    sw = np.sqrt(w)
    return float(np.linalg.svd(sw[:, None] * _green_matrix(nbc, rho, x, x) * sw[None, :],
                               compute_uv=False)[0])


def _resolvent_sample(nbc: NormalizedBC, operators, rho):
    """(norm, relative error estimate, fell back) of the resolvent at
    rho^n, from the :func:`_coefficient_operators`, or from the Nystrom
    kernel when their estimate exceeds RESOLVENT_MAX_ERROR; (inf, 0,
    False) when sigma_min at the larger size is exactly 0."""
    lam = complex(rho) ** nbc.n
    coarse, fine = (np.linalg.svd(image - lam * basis, compute_uv=False)
                    for image, basis in operators)
    if fine[-1] == 0.0:     # V_N holds an eigenfunction: lambda is an eigenvalue
        return math.inf, 0.0, False
    error = _estimate(coarse[-1], fine[-1], fine[0])
    if error <= RESOLVENT_MAX_ERROR:
        return 1.0 / float(fine[-1]), error, False
    coarse, fine = (_nystrom_norm(nbc, rho, nodes) for nodes in NYSTROM_NODES)
    return fine, _estimate(coarse, fine, fine), True


def resolvent_norm(nbc: NormalizedBC, rho) -> float:
    """L2 operator norm of the resolvent of the model problem at rho^n.

    On the constrained polynomial space V_N of degree < N + n, u ->
    (l - lambda) u is the exact (N + n) x N matrix M_N = L B - lambda B
    in orthonormal Legendre coefficients (:func:`_coefficient_operators`),
    so 1 / sigma_min(M_N) is the norm of the resolvent on V_N, and it
    rises to the norm as N grows.  It is taken at N = 16 and N = 32
    (RESOLVENT_DIMENSIONS), and its relative error estimate is the larger
    of |sigma_16 - sigma_32| / sigma_32 and eps ||M_32|| / sigma_32.  Where
    that estimate exceeds RESOLVENT_MAX_ERROR (near the spectrum of a
    problem that is not regular, sigma_min falls below the rounding of
    M_N), the norm is the largest singular value of the Nystrom
    discretization of the Green kernel on 64 Gauss-Legendre nodes, whose
    estimate compares 32 and 64 nodes (NYSTROM_NODES) by the same rule.
    Where sigma_32 is exactly 0, V_N holds an eigenfunction and the norm
    is ``inf``.
    """
    return _resolvent_sample(nbc, _coefficient_operators(nbc), rho)[0]


# ---------------------------------------------------------------------------
# Ray scans
# ---------------------------------------------------------------------------

def _fit_exponent(radii, values):
    """Least-squares slope of log(value) against log(radius)."""
    lr = np.log(np.asarray(radii, dtype=float))
    lv = np.log(np.asarray(values, dtype=float))
    design = np.vstack([lr, np.ones_like(lr)]).T
    coef = np.linalg.lstsq(design, lv, rcond=None)[0]
    rms = float(np.sqrt(np.mean((lv - design @ coef) ** 2)))
    return float(coef[0]), rms


def roots_in(roots, annulus, sector=None):
    """The roots with r_min <= |rho| <= r_max, and inside the closed
    ``sector`` (angle_lo, angle_hi) when one is given, in their original
    order.  This is the one closed-sector test of the package: arg(rho)
    is measured from the sector's midpoint modulo 2 pi, so the sector may
    start at any angle."""
    lo, hi = sector if sector is not None else (-math.pi, math.pi)
    return tuple(root for root in roots if annulus[0] <= abs(root.rho) <= annulus[1] and abs(
        math.remainder(cmath.phase(root.rho) - 0.5 * (lo + hi), 2 * math.pi)) <= 0.5 * (hi - lo))


def clearance_annulus(r_min, r_max):
    """The annulus whose zeros decide the clearance of a ray scanned from
    r_min to r_max, the same for every ray: the inner radius
    r_min - CLEARANCE_DELTA (at least 0.25) drops the zeros whose disks
    end before r_min, and the outer radius r_max + CLEARANCE_DELTA + 6
    sees the disks just past r_max."""
    return (max(0.25, r_min - CLEARANCE_DELTA), r_max + CLEARANCE_DELTA + 6.0)


def ray_clearance_check(roots, ray_angle, r_min, r_max):
    """The radius beyond which the ray clears the eigenvalue disks.

    Reads the ``roots`` in :func:`clearance_annulus`, which must all be
    there.  Raises ValueError when that radius is beyond ``r_min``.
    """
    near = roots_in(roots, clearance_annulus(r_min, r_max))
    clearance = ray_clearance(ray_angle, [r.rho for r in near], CLEARANCE_DELTA, r_max)
    if clearance is None:
        raise ValueError(
            f"ray at angle {ray_angle:.4f} is blocked by eigenvalue disks up to r_max")
    if clearance > r_min:
        raise ValueError(
            f"ray at angle {ray_angle:.4f} only clears eigenvalue disks beyond "
            f"{clearance:.3f} > r_min = {r_min:.3f}")
    return clearance


def _ray_scan(kind, sample, ray_angle, roots, r_min, r_max, samples):
    """``sample(rho)`` at ``samples`` geometric radii from r_min to r_max
    along a ray that :func:`ray_clearance_check` passes, with the fitted
    power law.  ``sample`` gives (value, relative error estimate or None,
    fell back)."""
    clearance = ray_clearance_check(roots, ray_angle, r_min, r_max)
    radii = np.geomspace(r_min, r_max, samples)
    rhos = radii * cmath.exp(1j * ray_angle)
    values, errors, fell_back = zip(*map(sample, rhos))
    exponent, rms = _fit_exponent(radii, values)
    return SpectralScan(kind, float(ray_angle), tuple(zip(rhos, values)), exponent, rms,
                        clearance, None if None in errors else errors,
                        tuple(i for i, fell in enumerate(fell_back) if fell))


def green_sup_scan(nbc: NormalizedBC, ray_angle, roots, r_min=5.0, r_max=60.0,
                   samples=24, grid=48) -> SpectralScan:
    """Sup of |G| over an interior lattice, sampled along a ray.

    ``roots`` feed :func:`ray_clearance_check`.  The fitted exponent
    estimates the decay order of the kernel; for a regular problem on a
    noncritical ray it approaches -(n - 1).  The samples carry no error
    estimate.
    """
    lattice = (np.arange(grid) + 0.5) / grid
    return _ray_scan(
        "green_sup",
        lambda rho: (float(np.abs(_green_matrix(nbc, rho, lattice, lattice)).max()), None, False),
        ray_angle, roots, r_min, r_max, samples)


def resolvent_scan(nbc: NormalizedBC, ray_angle, roots, r_min=5.0, r_max=60.0,
                   samples=24) -> SpectralScan:
    """Resolvent norms along a ray, as :func:`resolvent_norm` takes them.

    The direction must keep a positive angular distance from every
    critical ray, and ``roots`` feed :func:`ray_clearance_check`.  For a
    regular problem the fitted exponent approaches -n.  The coefficient
    operators are assembled once per scan; each sample costs one singular
    value decomposition at each of the two sizes, and the Nystrom kernel
    at two node counts where it falls back.  The scan carries each
    sample's relative error estimate and the indices of the samples that
    fell back.
    """
    if ray_distance(ray_angle, critical_rays(nbc.n)) < 1e-3:
        raise ValueError("ray angle lies on a critical ray")
    operators = _coefficient_operators(nbc)
    return _ray_scan("resolvent", lambda rho: _resolvent_sample(nbc, operators, rho),
                     ray_angle, roots, r_min, r_max, samples)


# ---------------------------------------------------------------------------
# Eigenfunctions, brackets, Gram conditioning
# ---------------------------------------------------------------------------

def eigenfunction(nbc: NormalizedBC, root: EigenRoot):
    """Coefficients of the eigenfunction(s) over e^(i eps_k rho x).

    Returns an array of shape (multiplicity, n); each row is a unit-norm
    coefficient vector.  Multiplicities above two are rejected.
    """
    if root.multiplicity > 2:
        raise ValueError("unexpected multiplicity > 2")
    mat, _, shift = _boundary_matrix(nbc, root.rho)
    _u, s, vh = np.linalg.svd(mat)
    vecs = vh[nbc.n - root.multiplicity:].conj()
    out = vecs * np.exp(-shift)[None, :]
    norms = np.linalg.norm(out, axis=1, keepdims=True)
    return out / norms


def distinct_eigenvalues(roots):
    """One representative root per eigenvalue lambda = rho^n.

    Rotated parameters rho and eps_k rho give the same lambda; the
    representative with the smallest argument in [0, 2 pi) is kept
    (multiplicities of merged representatives agree by symmetry).
    """
    reps = []
    for root in _by_modulus(roots, lambda r: abs(r.lam), LAMBDA_TOL):
        if all(abs(root.lam - rep.lam) > LAMBDA_TOL * (1.0 + abs(root.lam)) for rep in reps):
            reps.append(root)
    return tuple(reps)


def bracket_groups(roots):
    """Group eigenvalues whose mutual distance is below the bracket width
    BRACKET_TAU * (1 + |lambda|^(1 - 1/n)).

    ``roots`` must hold one representative per eigenvalue; group sizes
    count multiplicity.  Returns a tuple of tuples of roots.
    """
    items = sorted(roots, key=lambda r: (abs(r.lam), cmath.phase(r.lam) % (2 * math.pi)))
    parent = list(range(len(items)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def scale(root):
        # |lambda|^(1 - 1/n) = |lambda| / |rho|
        return 1.0 + abs(root.lam) / max(abs(root.rho), 1e-300)

    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            width = BRACKET_TAU * min(scale(items[i]), scale(items[j]))
            if abs(items[i].lam - items[j].lam) <= width:
                parent[find(i)] = find(j)
    buckets = {}
    for i, item in enumerate(items):
        buckets.setdefault(find(i), []).append(item)
    groups = sorted(buckets.values(), key=lambda g: min(abs(r.lam) for r in g))
    return tuple(tuple(g) for g in groups)


def _exp_integral(mu):
    """Vectorized integral of e^(mu x) over [0, 1]."""
    mu = np.asarray(mu, dtype=complex)
    small = np.abs(mu) < 1e-8
    safe = np.where(small, 1.0, mu)
    return np.where(small, 1.0 + mu / 2.0 + mu * mu / 6.0, np.expm1(safe) / safe)


def _l2_gram(funcs):
    """Gram matrix of exponential sums given as (rho, coefficient) pairs."""
    count = len(funcs)
    zs = [1j * np.array(unit_roots(c.size)) * rho for rho, c in funcs]
    gram = np.zeros((count, count), dtype=complex)
    for p in range(count):
        for q in range(p + 1):
            e = _exp_integral(zs[p][:, None] + zs[q].conj()[None, :])
            val = complex(funcs[p][1] @ e @ funcs[q][1].conj())
            gram[p, q] = val
            gram[q, p] = np.conj(val)
    return gram


def gram_condition(nbc: NormalizedBC, roots, count, radius):
    """Condition numbers of the Gram matrix of the first eigenfunctions.

    ``roots`` must hold every zero with |rho| < ``radius``, as one
    full-circle :func:`find_roots` call gives; ``radius`` is named in the
    error when they carry fewer than ``count`` eigenfunctions.
    Eigenfunctions are sorted by |lambda|, normalized in L2, and
    orthonormalized inside each bracket group (so honest double
    eigenvalues and tight pairs do not dominate the conditioning).
    Returns [(N, condition)] for N = 4, 8, 16, ... up to ``count``.
    """
    funcs = []
    brackets = []
    for group in bracket_groups(distinct_eigenvalues(roots)):
        members = [(root.rho, vec) for root in group for vec in eigenfunction(nbc, root)]
        brackets.append((len(funcs), len(funcs) + len(members)))
        funcs.extend(members)
        if len(funcs) >= count:
            break
    if len(funcs) < count:
        raise RuntimeError(f"found only {len(funcs)} eigenfunctions below radius {radius:.1f}")
    funcs = funcs[:count]
    brackets = [(lo, min(hi, count)) for lo, hi in brackets if lo < count]

    gram = _l2_gram(funcs)
    norms = np.sqrt(np.abs(np.diag(gram)))
    gram = gram / np.outer(norms, norms)

    # orthonormalize inside each bracket
    transform = np.eye(count, dtype=complex)
    for lo, hi in brackets:
        if hi - lo < 2:
            continue
        vals, vecs = np.linalg.eigh(gram[lo:hi, lo:hi])
        transform[lo:hi, lo:hi] = vecs @ np.diag(1.0 / np.sqrt(np.maximum(vals, 1e-300)))
    gram = transform.conj().T @ gram @ transform

    sizes = []
    size = 4
    while size < count:
        sizes.append(size)
        size *= 2
    sizes.append(count)
    out = []
    for size in sizes:
        vals = np.linalg.eigvalsh(gram[:size, :size])
        out.append((size, float(vals[-1] / max(vals[0], 1e-300))))
    return out
