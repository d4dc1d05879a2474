"""Spectral engine for the model expression (-i)^n y^(n).

Solutions of the model equation l0(y) = rho^n y are e^(i eps_k rho x) with
eps_k the n-th roots of unity.  The characteristic determinant
Delta(rho) = det[U_j(e_k)] vanishes exactly at the eigenvalue parameters.
Column k of that matrix is alpha_k(rho) + e^(i eps_k rho) beta_k(rho)
with polynomial alpha_k and beta_k, so Delta is the exponential polynomial

    Delta(rho) = sum_f P_f(rho) e^(i rho f),

with f running over the distinct subset sums of the eps_k and each P_f of
degree at most kappa.  Its coefficients come from
:func:`birkhoff.determinant_terms` (the expansion that also gives theta0
and theta1), built once per operator; Delta is zero identically when
every coefficient is, and :func:`find_roots` then raises.  Delta, scaled
by e^(-max_f Re(i rho f)) with the log of the scale kept apart, and its
derivatives (P_f -> P_f' + i f P_f) are evaluated by Horner, one
polynomial per frequency, without forming the raw exponentials.  The
Green kernel and the eigenfunctions solve on one scaled boundary matrix
at a single rho instead.

Only :func:`find_roots` searches for zeros, always over a full annulus.
The ray clearance check, the scans and Gram conditioning filter a root
tuple from the caller, and a sector is a filter too (:func:`roots_in`),
so one search serves a whole command.  Every contour it winds (a polar
box, the annulus, a verification circle) is a list of radial segments
and arcs from one constructor, :func:`_path`.  The search has one retry
rule: a failed contour (a box, a split, a verification circle) rebuilds
the partition with shifted lines; boxes always split at their
midpoints, and no multiplicity is taken from a box count in place of a
circle.
The search runs batched per subdivision level: the Newton steps of all
boxes of a level are one array computation, and so are the first
winding samples of the initial grid and of the four children of each
split.  No evaluation takes more than ``BATCH_POINTS`` points at once.
Batching changes no result: every point's determinant, Newton step and
residual is the one it gets alone.  A box is polished by the step
-m Delta/Delta' with its count m; a root whose circle winds m times is
polished by Newton on Delta^(m-1), whose zero there is simple, so a
multiple root is not limited by the cancellation of Delta near it.

Fixed numerical choices are module constants: the Newton residual
``RESIDUAL_TOL``, the search limits ``MAX_DEPTH`` and ``MAX_GRID``, the
batch cap ``BATCH_POINTS``, the radius ``CLEARANCE_DELTA`` (delta) of
the disks a scan ray must clear, and the eigenvalue merge and bracket
widths ``LAMBDA_TOL`` and ``BRACKET_TAU`` (tau).
"""

import cmath
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .birkhoff import determinant_terms, unit_roots
from .geometry import critical_rays, ray_clearance, ray_distance
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
    "scan_to_csv",
]

RESIDUAL_TOL = 1e-8
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

CLEARANCE_DELTA = 0.5
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
    divided by its largest entry.  Returns (matrix, row divisors), so a
    right-hand side can be scaled to match."""
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
    return mat / safe[:, None], safe


class _Delta(NamedTuple):
    """Delta(rho) = sum_f P_f(rho) e^(i rho f) of one operator: the order,
    the distinct frequencies f, and row by row the coefficients of P_f,
    ascending."""

    n: int
    freqs: np.ndarray
    coeffs: np.ndarray


def _negligible(coeffs, moduli):
    """The one rule for a zero coefficient of Delta: it is at most 64 eps
    times the sum of the moduli of the products added into it, so that
    rounding alone can account for it."""
    return np.abs(coeffs) <= 64 * np.finfo(float).eps * moduli


@functools.lru_cache(maxsize=16)
def _delta(rows):
    """The Delta of the normalized ``rows``, built once per operator: the
    terms of :func:`birkhoff.determinant_terms` with equal frequencies
    merged, and the coefficients :func:`_negligible` set to zero.  A
    frequency left with none is dropped, so Delta vanishes identically
    when none is left."""
    terms = [term for _, term in sorted(determinant_terms(
        len(rows), [(row.a, row.b) for row in rows]).items())]
    freqs = np.array([freq for freq, _, _ in terms])
    group = [int(np.argmax(np.abs(freqs - freq) <= 1e-12)) for freq in freqs]
    firsts = sorted(set(group))
    coeffs, moduli = (np.array([sum(term[part] for term, g in zip(terms, group) if g == first)
                                for first in firsts]) for part in (1, 2))
    coeffs[_negligible(coeffs, moduli)] = 0.0
    kept = coeffs.any(axis=1)
    delta = _Delta(len(rows), freqs[firsts][kept], coeffs[kept])
    delta.freqs.flags.writeable = delta.coeffs.flags.writeable = False  # cached, so shared
    return delta


def _derivative(freqs, coeffs):
    """The coefficients of Delta' from those of Delta: P_f -> P_f' + i f P_f."""
    out = 1j * freqs[:, None] * coeffs
    out[:, :-1] += coeffs[:, 1:] * np.arange(1, coeffs.shape[1])
    return out


def _evaluate(delta, tables, rhos):
    """sum_f T_f(rho) e^(i rho f - shift) for every coefficient table T in
    ``tables`` (shape (tables, frequencies, degree + 1)), by Horner, at at
    most BATCH_POINTS values rho, with shift = max_f Re(i rho f).

    Returns (values of shape (tables, points), shifts).
    """
    z = 1j * delta.freqs[:, None] * rhos[None, :]
    shift = z.real.max(axis=0, initial=-np.inf)
    acc = np.zeros(tables.shape[:2] + rhos.shape, dtype=complex)
    for d in range(tables.shape[2] - 1, -1, -1):
        acc = acc * rhos + tables[:, :, d, None]
    # summed one frequency at a time, in order: numpy's sum over an axis
    # would change its order, and the bits, with the number of points
    values = np.zeros((tables.shape[0], rhos.size), dtype=complex)
    for term in (acc * np.exp(z - shift)).transpose(1, 0, 2):
        values = values + term
    return values, shift


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


def _path(r0, r1, a0, a1, center=0.0):
    """The path center + (r0 + (r1 - r0) t) e^(i (a0 + (a1 - a0) t)), t in
    [0, 1], as (points_of_ts, length): a radial segment when a0 = a1, an
    arc when r0 = r1.  Every contour of the search is a list of these."""
    def points(ts):
        return center + (r0 + (r1 - r0) * ts) * np.exp(1j * (a0 + (a1 - a0) * ts))

    return points, abs(r1 - r0) + abs(a1 - a0) * max(r0, r1)


def _box_contour(box):
    """The boundary of a polar box, counterclockwise, as four paths."""
    r0, r1, a0, a1 = box
    return [_path(r0, r1, a0, a0), _path(r1, r1, a0, a1),
            _path(r1, r0, a1, a1), _path(r0, r0, a1, a0)]


def _log_abs_array(dets, logs):
    with np.errstate(divide="ignore"):          # log 0 = -inf
        return logs + np.log(np.abs(dets))


def _start_contours(delta, contours):
    """The first samples on closed ``contours``, from one batched evaluation.

    Each contour is a list of :func:`_path` paths (points_of_ts, length),
    where ``points_of_ts`` maps parameters in [0, 1] to complex rho values.
    Returns, per contour, its paths as (points_of_ts, ts, dets, logs).
    """
    paths = [(points, np.linspace(0.0, 1.0, max(9, min(4000, int(4 + 1.5 * delta.n * length)))))
             for contour in contours for points, length in contour]
    if not paths:
        return []
    (dets,), logs = _char_det_batch(delta, np.concatenate([points(ts) for points, ts in paths]))
    ends = np.cumsum([ts.size for _, ts in paths])
    started = iter([(points, ts, dets[end - ts.size:end], logs[end - ts.size:end])
                    for (points, ts), end in zip(paths, ends)])
    return [[next(started) for _ in contour] for contour in contours]


def _path_phase(delta, points_of_ts, ts, dets, logs):
    """Accumulated phase of Delta along a started path, refined where
    neighbouring samples differ in phase by more than pi / 2.

    A sample far below its neighbours in log|Delta| signals a zero close
    to the path and raises ContourError so the caller can move the path.
    """
    la = _log_abs_array(dets, logs)
    if not np.all(np.isfinite(la)):
        raise ContourError("contour passes through a determinant zero")
    phases = np.angle(dets)

    for _ in range(24):
        diffs = np.angle(np.exp(1j * np.diff(phases)))
        bad = np.nonzero(np.abs(diffs) > 0.5 * math.pi)[0]
        if bad.size == 0:
            return float(np.sum(diffs))
        mid_ts = 0.5 * (ts[bad] + ts[bad + 1])
        (mids,), mid_logs = _char_det_batch(delta, points_of_ts(mid_ts))
        mid_la = _log_abs_array(mids, mid_logs)
        dip = np.minimum(la[bad], la[bad + 1]) - NEAR_ZERO_DIP
        if not np.all(np.isfinite(mid_la)) or np.any(mid_la < dip):
            raise ContourError("contour too close to a determinant zero")
        order = np.argsort(np.concatenate([ts, mid_ts]))
        ts = np.concatenate([ts, mid_ts])[order]
        phases = np.concatenate([phases, np.angle(mids)])[order]
        la = np.concatenate([la, mid_la])[order]
        if ts.size > 200000:
            break
    raise ContourError("phase tracking failed to settle along an edge")


def _winding(delta, contour):
    """Winding of Delta around a started contour: the zero count inside."""
    winding = sum(_path_phase(delta, *path) for path in contour) / (2 * math.pi)
    rounded = int(round(winding))
    if abs(winding - rounded) > 0.25:
        raise ContourError(f"non-integral winding {winding:.3f}")
    return rounded


def _box_counts(delta, boxes):
    """Zero counts of polar ``boxes``, sampled together; the first
    ContourError in box order is raised."""
    return [_winding(delta, contour)
            for contour in _start_contours(delta, [_box_contour(box) for box in boxes])]


def _newton(delta, starts, multiplicities, polish=False):
    """Polish each start with Newton steps, all points in lockstep.

    A point of multiplicity m steps by -m Delta/Delta', or, when
    ``polish``, by -Delta^(m-1)/Delta^(m): an m-fold zero of Delta is a
    simple zero of Delta^(m-1), which does not cancel near it.  Each step
    evaluates the tables of Delta, Delta', ... in one call.  A point
    stops once its step is below 1e-13 (relative); when ``polish``, it
    goes on while each step is at most half the one before, since the
    polished roots are the ones printed.

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
            if res >= 1e-13 or (polish and res <= 0.5 * last_res[i]):
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


def _box_diameter(box):
    r0, r1, a0, a1 = box
    return max(r1 - r0, (a1 - a0) * r1)


def find_roots(nbc: NormalizedBC, annulus):
    """Zeros of the characteristic determinant inside an annulus.

    ``annulus`` is (r_min, r_max) with 0 < r_min < r_max.  Zeros are
    isolated by argument-principle winding counts on adaptively
    subdivided polar boxes and polished by Newton steps (see
    :func:`_newton`); ``multiplicity`` comes from a winding count around
    each zero.  Box edges, the boundary of the annulus and the
    verification circles are all one kind of path (:func:`_path`).
    Raises ValueError when Delta vanishes identically.

    The search covers one sector of angle 2 pi / n and turns what it
    finds, and checks the turned zeros against the winding count of the
    whole annulus.  Only the two circles are fixed: the partition lines
    and the seam of the sector move off a zero.

    There is one retry rule.  Any ContourError (a box count, a split
    whose child counts do not add up to the parent's, or a verification
    circle) and any shortfall against the whole-annulus count rebuild
    the partition with shifted lines and seam, up to 6 partitions; the
    last error is raised.  Boxes always split at their midpoints, and
    every multiplicity comes from the winding of a circle.

    The subdivision runs level by level: the boxes of one level are
    polished in one Newton batch, and the four children of a split are
    counted from one batch of first contour samples.
    """
    r_min, r_max = annulus
    if not 0 < r_min < r_max:
        raise ValueError("annulus radii must satisfy 0 < r_min < r_max")
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
    # crosses, checks that no zero went missing on a line
    boundary = [_path(r_max, r_max, 0.0, 2 * math.pi), _path(r_min, r_min, 2 * math.pi, 0.0)]
    total = _winding(delta, _start_contours(delta, [boundary])[0])
    diam_tol = max(1e-10 * r_max, 1e-12)

    def subdivide(boxes):
        found = []
        level = [(box, count) for box, count in zip(boxes, _box_counts(delta, boxes))
                 if count != 0]
        depth = 0
        while level:
            # Newton with the box count as multiplicity: converges only when
            # the count is concentrated at one point (an m-fold zero, or a
            # cluster tighter than the tolerance); distinct roots keep it
            # oscillating at the separation scale and the box is subdivided.
            polished = _newton(
                delta, [0.5 * (box[0] + box[1]) * cmath.exp(0.5j * (box[2] + box[3]))
                       for box, _ in level], [count for _, count in level])
            deeper = []
            for (box, count), (rho, res) in zip(level, polished):
                r, ang = abs(rho), cmath.phase(rho)
                # accept only roots (essentially) inside this box; a polished
                # point in a neighbouring box belongs to that box's count
                pad_r = 1e-6 * (box[1] - box[0]) + 1e-12
                pad_a = 1e-6 * (box[3] - box[2]) + 1e-12
                mid_a = 0.5 * (box[2] + box[3])
                in_box = (box[0] - pad_r <= r <= box[1] + pad_r
                          and abs(cmath.phase(cmath.exp(1j * (ang - mid_a))))
                          <= (box[3] - box[2]) / 2 + pad_a)
                if ((res <= RESIDUAL_TOL and in_box)
                        or depth >= MAX_DEPTH or _box_diameter(box) <= diam_tol):
                    found.append(_Candidate(complex(rho), float(res)))
                    continue
                children = _split_box(box)
                child_counts = _box_counts(delta, children)
                if sum(child_counts) != count:
                    raise ContourError(f"winding counts failed to split box {box}")
                deeper += [(child, child_count) for child, child_count
                           in zip(children, child_counts) if child_count != 0]
            level = deeper
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
        radii = []
        for idx, rep in enumerate(reps):
            radius = 1e-4 * (1.0 + abs(rep.rho))
            others = [abs(rep.rho - other.rho) for j, other in enumerate(reps) if j != idx]
            if others:
                radius = min(radius, 0.45 * min(others))
            radii.append(radius)
        circles = _start_contours(
            delta, [[_path(radius, radius, 0.0, 2 * math.pi, rep.rho)]
                    for rep, radius in zip(reps, radii)])
        verified = []
        for rep, circle in zip(reps, circles):
            mult = _winding(delta, circle)
            if mult > 0:
                verified.append((rep.rho, mult))
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
    # shifted, and so is the seam of the sector, which is arbitrary.
    grid_r = max(1, min(MAX_GRID, math.ceil((r_max - r_min) / 12.0)))
    grid_a = max(1, min(MAX_GRID, math.ceil(width * r_max / 12.0)))
    for attempt in range(6):
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
        try:
            found = subdivide(boxes)
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
    mat, row_scales = _boundary_matrix(nbc, rho)
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


def resolvent_norm(nbc: NormalizedBC, rho, quad_nodes=64) -> float:
    """L2 operator norm of the resolvent at rho^n, by Nystrom discretization
    of the Green kernel on a Gauss-Legendre grid."""
    x, w = _gauss_nodes(quad_nodes)
    g = _green_matrix(nbc, rho, x, x)
    sw = np.sqrt(w)
    a = sw[:, None] * g * sw[None, :]
    return float(np.linalg.svd(a, compute_uv=False)[0])


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


def _ray_scan(kind, value, ray_angle, roots, r_min, r_max, samples):
    """``value(rho)`` at ``samples`` geometric radii from r_min to r_max
    along a ray that :func:`ray_clearance_check` passes, with the fitted
    power law."""
    clearance = ray_clearance_check(roots, ray_angle, r_min, r_max)
    radii = np.geomspace(r_min, r_max, samples)
    out = tuple((rho, value(rho)) for rho in radii * cmath.exp(1j * ray_angle))
    exponent, rms = _fit_exponent(radii, [v for _, v in out])
    return SpectralScan(kind, float(ray_angle), out, exponent, rms, clearance)


def green_sup_scan(nbc: NormalizedBC, ray_angle, roots, r_min=5.0, r_max=60.0,
                   samples=24, grid=48) -> SpectralScan:
    """Sup of |G| over an interior lattice, sampled along a ray.

    ``roots`` feed :func:`ray_clearance_check`.  The fitted exponent
    estimates the decay order of the kernel; for a regular problem on a
    noncritical ray it approaches -(n - 1).
    """
    lattice = (np.arange(grid) + 0.5) / grid
    return _ray_scan(
        "green_sup", lambda rho: float(np.abs(_green_matrix(nbc, rho, lattice, lattice)).max()),
        ray_angle, roots, r_min, r_max, samples)


def resolvent_scan(nbc: NormalizedBC, ray_angle, roots, r_min=5.0, r_max=60.0,
                   samples=24) -> SpectralScan:
    """Resolvent norms along a ray.

    The direction must keep a positive angular distance from every
    critical ray, and ``roots`` feed :func:`ray_clearance_check`.  For a
    regular problem the fitted exponent approaches -n.
    """
    if ray_distance(ray_angle, critical_rays(nbc.n)) < 1e-3:
        raise ValueError("ray angle lies on a critical ray")
    return _ray_scan("resolvent", lambda rho: resolvent_norm(nbc, rho),
                     ray_angle, roots, r_min, r_max, samples)


def scan_to_csv(scan: SpectralScan, path):
    """Write scan samples as CSV with log columns for decay fitting."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("abs_rho,arg_rho,quantity,log_abs_rho,log_quantity\n")
        for rho, value in scan.samples:
            handle.write("%.12e,%.12e,%.12e,%.12e,%.12e\n" % (
                abs(rho), cmath.phase(rho), value, math.log(abs(rho)), math.log(value)))


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
    mat, _ = _boundary_matrix(nbc, root.rho)
    _u, s, vh = np.linalg.svd(mat)
    vecs = vh[nbc.n - root.multiplicity:].conj()
    _z, shift = _exponents(np.array(unit_roots(nbc.n)), root.rho)
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
