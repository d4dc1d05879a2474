"""Spectral engine for the model expression (-i)^n y^(n).

Solutions of the model equation l0(y) = rho^n y are e^(i eps_k rho x) with
eps_k the n-th roots of unity.  The characteristic determinant
Delta(rho) = det[U_j(e_k)] vanishes exactly at the eigenvalue parameters;
its entries grow like e^(Re(i eps_k rho)), so every column is rescaled by
e^(-max(0, Re(i eps_k rho))) and every row by its largest entry, with the
logs accumulated separately.  All quantities derived here (roots, Green
kernel, resolvent norms) work on the scaled matrices and never form the
raw exponentials.

Only :func:`find_roots` searches for zeros.  The ray clearance check, the
scans and Gram conditioning filter a root tuple from the caller, so one
full-circle search can serve a whole report.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .geometry import DiskSet, critical_rays, ray_clearance
from .normalize import NormalizedBC

__all__ = [
    "ScaledValue",
    "EigenRoot",
    "SpectralScan",
    "ContourError",
    "char_det",
    "find_roots",
    "roots_in",
    "clearance_region",
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
NEWTON_MAX_ITER = 50
MAX_DEPTH = 40
# Polished roots closer than CLUSTER_TOL * (1 + |rho|) are one zero.
CLUSTER_TOL = 1e-7
# A sample whose log|Delta| drops this far below its neighbours on a contour
# marks a nearby zero.  (An absolute threshold would be wrong: degenerate
# boundary conditions can make Delta exponentially small relative to the
# matrix scale everywhere without vanishing anywhere.)
NEAR_ZERO_DIP = 25.0


class ContourError(RuntimeError):
    """A winding contour could not be separated from a determinant zero."""


@dataclass(frozen=True)
class ScaledValue:
    """A complex value stored as ``mantissa * exp(log_scale)``.

    ``0.5 <= |mantissa| <= 2`` unless the value is exactly zero.
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
    clearance: float | None = None


# ---------------------------------------------------------------------------
# Characteristic determinant
# ---------------------------------------------------------------------------

def _unit_roots(n):
    return np.exp(2j * np.pi * np.arange(n) / n)


def _coefficient_arrays(nbc: NormalizedBC):
    a = np.array([row.a for row in nbc.rows], dtype=complex)
    b = np.array([row.b for row in nbc.rows], dtype=complex)
    return a, b


def _char_matrices(nbc: NormalizedBC, rhos, derivative=False):
    """Scaled boundary matrices for a batch of rho values.

    Returns (mats, log_scales, row_scales), where ``row_scales`` are the
    divisors applied to the rows (so a right-hand side can be scaled to
    match), and, when ``derivative`` is set, also the derivative matrices
    with identical scaling (so that the trace formula tr(M^-1 M') is
    unaffected).
    """
    n = nbc.n
    rhos = np.asarray(rhos, dtype=complex).ravel()
    eps = _unit_roots(n)
    a, b = _coefficient_arrays(nbc)

    z = 1j * eps[None, :] * rhos[:, None]                       # (N, n)
    shift = np.maximum(z.real, 0.0)
    scaled_exp = np.exp(z - shift)                              # e^z * column scale
    col_scale = np.exp(-shift)

    powers = np.ones((rhos.size, n, n), dtype=complex)          # (N, k, s) = z_k^s
    for s in range(1, n):
        powers[:, :, s] = powers[:, :, s - 1] * z

    # entry (j, k) = sum_s a[j,s] z_k^s * col + b[j,s] z_k^s e^z * col
    mats = (np.einsum("js,Nks->Njk", a, powers) * col_scale[:, None, :]
            + np.einsum("js,Nks->Njk", b, powers) * scaled_exp[:, None, :])
    log_scales = shift.sum(axis=1)

    row_norm = np.abs(mats).max(axis=2)                         # (N, j)
    safe = np.where(row_norm > 0.0, row_norm, 1.0)
    mats = mats / safe[:, :, None]
    log_scales = log_scales + np.log(safe).sum(axis=1)

    if not derivative:
        return mats, log_scales, safe

    dpow = np.zeros_like(powers)                                # d/drho z_k^s
    for s in range(1, n):
        dpow[:, :, s] = s * powers[:, :, s - 1] * (1j * eps[None, :])
    dexp = powers * (1j * eps[None, :, None])                   # d/drho of z^s * e^z, part 1
    dmats = (np.einsum("js,Nks->Njk", a, dpow) * col_scale[:, None, :]
             + np.einsum("js,Nks->Njk", b, dpow + dexp) * scaled_exp[:, None, :])
    dmats = dmats / safe[:, :, None]
    return mats, log_scales, safe, dmats


def _char_det_batch(nbc, rhos):
    """(scaled determinants, log scales) for a batch of rho values."""
    mats, log_scales, _ = _char_matrices(nbc, rhos)
    return np.linalg.det(mats), log_scales


def char_det(nbc: NormalizedBC, rho) -> ScaledValue:
    """Characteristic determinant of the model problem at ``rho``."""
    dets, logs = _char_det_batch(nbc, [rho])
    d, scale = complex(dets[0]), float(logs[0])
    if d == 0:
        return ScaledValue(0j, scale)
    mag = math.log(abs(d))
    return ScaledValue(d / abs(d), scale + mag)


# ---------------------------------------------------------------------------
# Root finding by the argument principle
# ---------------------------------------------------------------------------

def _edge_points(box, edge, ts):
    """Points on one of the four polar-box edges at parameters ts in [0,1]."""
    r0, r1, a0, a1 = box
    ts = np.asarray(ts, dtype=float)
    if edge == 0:    # radial, angle a0, r0 -> r1
        return (r0 + (r1 - r0) * ts) * np.exp(1j * a0)
    if edge == 1:    # arc at r1, a0 -> a1
        return r1 * np.exp(1j * (a0 + (a1 - a0) * ts))
    if edge == 2:    # radial, angle a1, r1 -> r0
        return (r1 - (r1 - r0) * ts) * np.exp(1j * a1)
    return r0 * np.exp(1j * (a1 - (a1 - a0) * ts))  # arc at r0, a1 -> a0


def _log_abs_array(dets, logs):
    mags = np.abs(dets)
    out = np.full(mags.shape, -np.inf)
    nz = mags > 0.0
    out[nz] = logs[nz] + np.log(mags[nz])
    return out


def _path_winding(nbc, points_of_ts, length, n):
    """Accumulated phase of Delta along a path (adaptively sampled).

    ``points_of_ts`` maps parameters in [0, 1] to complex rho values.
    A sample far below its neighbours in log|Delta| signals a zero close
    to the path and raises ContourError so the caller can move the path.
    """
    count = max(9, min(4000, int(4 + 1.5 * n * length)))
    ts = np.linspace(0.0, 1.0, count)
    dets, logs = _char_det_batch(nbc, points_of_ts(ts))
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
        mids, mid_logs = _char_det_batch(nbc, points_of_ts(mid_ts))
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


def _zero_count(total):
    """The winding number of an accumulated phase ``total``."""
    winding = total / (2 * math.pi)
    rounded = int(round(winding))
    if abs(winding - rounded) > 0.25:
        raise ContourError(f"non-integral winding {winding:.3f}")
    return rounded


def _circle_winding(nbc, center, radius, n):
    """Winding of Delta around a small circle: the zero count inside."""
    def points(ts):
        ts = np.asarray(ts, dtype=float)
        return center + radius * np.exp(2j * np.pi * ts)

    return _zero_count(_path_winding(nbc, points, 2 * math.pi * radius, n))


def _box_winding(nbc, box, n):
    r0, r1, a0, a1 = box
    lengths = (r1 - r0, (a1 - a0) * r1, r1 - r0, (a1 - a0) * r0)
    edges = (1, 3) if abs((a1 - a0) - 2 * math.pi) < 1e-12 else (0, 1, 2, 3)
    return _zero_count(sum(
        _path_winding(nbc, lambda ts, e=edge: _edge_points(box, e, ts), lengths[edge], n)
        for edge in edges))


def _newton(nbc, rho, multiplicity, residual_tol):
    """Polish a root with Newton steps on the logarithmic derivative.

    Returns (rho, residual) with residual = |last step| / (1 + |rho|); the
    trace formula tr(M^-1 M') equals Delta'/Delta exactly for any row and
    column scaling, so the iteration is overflow-free.
    """
    best = rho
    best_res = math.inf
    for _ in range(NEWTON_MAX_ITER):
        try:
            mats, _, _, dmats = _char_matrices(nbc, [rho], derivative=True)
            trace = complex(np.trace(np.linalg.solve(mats[0], dmats[0])))
        except np.linalg.LinAlgError:
            break
        if not np.isfinite(trace.real) or not np.isfinite(trace.imag) or trace == 0:
            break
        step = -multiplicity / trace
        rho = rho + step
        res = abs(step) / (1.0 + abs(rho))
        if res < best_res:
            best, best_res = rho, res
        if res < 1e-13:
            break
    return best, best_res


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


def _split_box(box, fr=0.5, fa=0.5):
    r0, r1, a0, a1 = box
    rm = r0 + (r1 - r0) * fr
    am = a0 + (a1 - a0) * fa
    return [(r0, rm, a0, am), (rm, r1, a0, am), (r0, rm, am, a1), (rm, r1, am, a1)]


def _box_diameter(box):
    r0, r1, a0, a1 = box
    return max(r1 - r0, (a1 - a0) * r1)


def find_roots(nbc: NormalizedBC, annulus, sector=None, grid=8,
               residual_tol=RESIDUAL_TOL, max_depth=MAX_DEPTH):
    """Zeros of the characteristic determinant inside an annulus sector.

    ``annulus`` is (r_min, r_max) with 0 < r_min < r_max; ``sector`` is
    (angle_lo, angle_hi) or None for the full circle.  Zeros are isolated
    by argument-principle winding counts on adaptively subdivided polar
    boxes and polished by Newton steps on the logarithmic derivative;
    ``multiplicity`` comes from a winding count around each zero.  A full
    circle is searched in one sector of angle 2 pi / n and turned.
    """
    r_min, r_max = annulus
    if not 0 < r_min < r_max:
        raise ValueError("annulus radii must satisfy 0 < r_min < r_max")
    n = nbc.n
    if sector is None:
        # rho -> eps_k rho permutes the exponentials e^(i eps_j rho x), so the
        # zeros repeat in every sector of angle 2 pi / n.  One sector is
        # searched (its seam moves with the partition) and turned.
        a0, a1 = 0.0, 2 * math.pi / n
        region = (r_min, r_max, 0.0, 2 * math.pi)
    else:
        a0, a1 = sector
        if not a0 < a1 <= a0 + 2 * math.pi + 1e-12:
            raise ValueError("sector must satisfy lo < hi <= lo + 2 pi")
        region = (r_min, r_max, a0, a1)
    # the count of the whole region, whose boundary no partition line
    # crosses, checks that no zero went missing on a line
    total = _box_winding(nbc, region, n)
    diam_tol = max(1e-10 * r_max, 1e-12)

    def solve(box, count, depth):
        if count == 0:
            return
        center = 0.5 * (box[0] + box[1]) * cmath.exp(0.5j * (box[2] + box[3]))
        # Newton with the box count as multiplicity: converges only when the
        # count is concentrated at one point (an m-fold zero, or a cluster
        # tighter than the tolerance); distinct roots keep it oscillating at
        # the separation scale and the box is subdivided instead.
        rho, res = _newton(nbc, center, count, residual_tol)
        r, ang = abs(rho), cmath.phase(rho)
        # accept only roots (essentially) inside this box; a polished
        # point in a neighbouring box belongs to that box's count
        pad_r = 1e-6 * (box[1] - box[0]) + 1e-12
        pad_a = 1e-6 * (box[3] - box[2]) + 1e-12
        mid_a = 0.5 * (box[2] + box[3])
        in_box = (box[0] - pad_r <= r <= box[1] + pad_r
                  and abs(cmath.phase(cmath.exp(1j * (ang - mid_a)))) <= (box[3] - box[2]) / 2 + pad_a)
        if ((res <= residual_tol and in_box)
                or depth >= max_depth or _box_diameter(box) <= diam_tol):
            found.append(EigenRoot(complex(rho), complex(rho) ** n, int(count), float(res)))
            return
        for fractions in ((0.5, 0.5), (0.53, 0.47), (0.47, 0.56), (0.515, 0.485)):
            children = _split_box(box, *fractions)
            try:
                counts = [_box_winding(nbc, child, n) for child in children]
            except ContourError:
                continue
            if sum(counts) == count:
                for child, child_count in zip(children, counts):
                    solve(child, child_count, depth + 1)
                return
        raise ContourError(f"winding counts failed to split box {box}")

    def cluster_and_verify(candidates):
        # Cluster seam/corner duplicates, then confirm each multiplicity
        # with a small winding circle: a zero sitting on a partition line
        # splits its winding across the adjacent boxes, and a box may even
        # credit such a split count to a different zero; the circle gives
        # every cluster its true multiplicity.
        clusters = []
        for root in _by_modulus(candidates, lambda root: abs(root.rho), CLUSTER_TOL):
            for cluster in clusters:
                if abs(root.rho - cluster[0].rho) <= CLUSTER_TOL * (1.0 + abs(root.rho)):
                    cluster.append(root)
                    break
            else:
                clusters.append([root])
        reps = [min(cluster, key=lambda root: root.residual) for cluster in clusters]
        final = []
        for idx, rep in enumerate(reps):
            radius = 1e-4 * (1.0 + abs(rep.rho))
            others = [abs(rep.rho - other.rho) for j, other in enumerate(reps) if j != idx]
            if others:
                radius = min(radius, 0.45 * min(others))
            mult = None
            for _ in range(8):
                try:
                    mult = _circle_winding(nbc, rep.rho, radius, n)
                    break
                except ContourError:
                    radius *= 0.7
            if mult is None:
                mult = max(root.multiplicity for root in clusters[idx])
            if mult <= 0:
                continue
            rho, res = _newton(nbc, rep.rho, mult, residual_tol)
            final.append(EigenRoot(complex(rho), complex(rho) ** n, int(mult), float(res)))
        return _by_modulus(final, lambda root: abs(root.rho), CLUSTER_TOL)

    # Initial partition: coarse boxes with edges of bounded arc length.
    # Partition lines may accidentally pass through (or very near) zeros;
    # on a contour failure, or when the verified multiplicities add up to
    # less than the winding total (an even-order zero on a line leaves no
    # phase jump and can go missing silently), the partition is rebuilt
    # with its interior lines shifted.  A user-given region boundary is
    # never moved, but the seam of the sector a full-circle search turns
    # is arbitrary and is shifted too.
    grid_r = max(1, min(grid, math.ceil((r_max - r_min) / 12.0)))
    grid_a = max(1, min(grid, math.ceil((a1 - a0) * r_max / 12.0)))
    for attempt in range(6):
        shift = 0.31 * attempt / (attempt + 1.0)
        r_edges = np.linspace(r_min, r_max, grid_r + 1)
        a_edges = np.linspace(a0, a1, grid_a + 1)
        r_edges[1:-1] += shift * (r_max - r_min) / max(grid_r, 1)
        if sector is None:
            a_edges += shift * (a1 - a0) / max(grid_a, 1)
        else:
            a_edges[1:-1] += shift * (a1 - a0) / max(grid_a, 1)
        boxes = [
            (float(r_edges[i]), float(r_edges[i + 1]),
             float(a_edges[j]), float(a_edges[j + 1]))
            for i in range(grid_r) for j in range(grid_a)
        ]
        found = []
        try:
            tasks = [(box, _box_winding(nbc, box, n)) for box in boxes]
            for box, count in tasks:
                solve(box, count, 0)
        except ContourError as exc:
            last_error = exc
            continue
        if sector is None:
            found += [EigenRoot(root.rho * turn, root.lam, root.multiplicity, root.residual)
                      for turn in _unit_roots(n)[1:] for root in found]
        final = cluster_and_verify(found)
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
    n = nbc.n
    rho = complex(rho)
    xs = np.asarray(xs, dtype=float)
    xis = np.asarray(xis, dtype=float)
    eps = _unit_roots(n)
    z = 1j * eps * rho                      # (n,)
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
    a, b = _coefficient_arrays(nbc)
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

    # the boundary matrix rows are rescaled inside _char_matrices, so the
    # right-hand side must be rescaled identically before solving
    mats, _, row_scales = _char_matrices(nbc, [rho])
    coeffs = np.linalg.solve(mats[0], rhs / row_scales[0][:, None])

    shift = np.maximum(z.real, 0.0)
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


def resolvent_norm(nbc: NormalizedBC, rho, quad_nodes=64) -> float:
    """L2 operator norm of the resolvent at rho^n, by Nystrom discretization
    of the Green kernel on a Gauss-Legendre grid."""
    t, w = np.polynomial.legendre.leggauss(quad_nodes)
    x, w = 0.5 * (t + 1.0), 0.5 * w
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
    """The roots with r_min <= |rho| <= r_max, and inside ``sector``
    (angle_lo, angle_hi) when one is given, in their original order."""
    lo, hi = sector if sector is not None else (-math.pi, math.pi)
    return tuple(root for root in roots if annulus[0] <= abs(root.rho) <= annulus[1] and abs(
        math.remainder(cmath.phase(root.rho) - 0.5 * (lo + hi), 2 * math.pi)) <= 0.5 * (hi - lo))


def clearance_region(ray_angle, r_min, r_max, delta):
    """(annulus, sector) whose zeros decide the clearance of a ray: a zero
    outside the sector, beyond the inner radius, keeps its disk of radius
    ``delta`` off the ray, and the outer radius r_max + delta + 6 sees the
    disks just past ``r_max``."""
    r_lo = max(0.25, r_min - delta)
    width = min(0.5 * math.pi, math.asin(min(1.0, delta / r_lo)) + 0.15)
    return (r_lo, r_max + delta + 6.0), (ray_angle - width, ray_angle + width)


def ray_clearance_check(roots, ray_angle, r_min, r_max, delta):
    """The radius beyond which the ray clears the eigenvalue disks.

    Reads the ``roots`` in :func:`clearance_region`, which must all be
    there.  Raises ValueError when that radius is beyond ``r_min``.
    """
    near = roots_in(roots, *clearance_region(ray_angle, r_min, r_max, delta))
    disks = DiskSet(tuple(r.rho for r in near), delta)
    clearance = ray_clearance(ray_angle, disks, r_max)
    if clearance is None:
        raise ValueError(
            f"ray at angle {ray_angle:.4f} is blocked by eigenvalue disks up to r_max")
    if clearance > r_min:
        raise ValueError(
            f"ray at angle {ray_angle:.4f} only clears eigenvalue disks beyond "
            f"{clearance:.3f} > r_min = {r_min:.3f}")
    return clearance


def green_sup_scan(nbc: NormalizedBC, ray_angle, roots, r_min=5.0, r_max=60.0,
                   samples=24, grid=48, delta=0.5) -> SpectralScan:
    """Sup of |G| over an interior lattice, sampled along a ray.

    ``roots`` feed :func:`ray_clearance_check`.  The fitted exponent
    estimates the decay order of the kernel; for a regular problem on a
    noncritical ray it approaches -(n - 1).
    """
    clearance = ray_clearance_check(roots, ray_angle, r_min, r_max, delta)
    radii = np.geomspace(r_min, r_max, samples)
    lattice = (np.arange(grid) + 0.5) / grid
    out = []
    for r in radii:
        rho = r * cmath.exp(1j * ray_angle)
        sup = float(np.abs(_green_matrix(nbc, rho, lattice, lattice)).max())
        out.append((rho, sup))
    exponent, rms = _fit_exponent(radii, [v for _, v in out])
    return SpectralScan("green_sup", float(ray_angle), tuple(out), exponent, rms, clearance)


def resolvent_scan(nbc: NormalizedBC, ray_angle=None, roots=None, r_min=5.0, r_max=60.0,
                   samples=24, quad_nodes=64, delta=0.5,
                   sample_points=None) -> SpectralScan:
    """Resolvent norms along a ray (or at explicit sample points).

    With a ray, the direction must keep a positive angular distance from
    every critical ray and clear the eigenvalue disks of ``roots`` beyond
    r_min (:func:`ray_clearance_check`).  An explicit ``sample_points``
    sequence bypasses both checks and needs no roots (used for sparse
    sequences threaded between the disks along critical rays).
    """
    clearance = None
    if sample_points is None:
        if ray_angle is None or roots is None:
            raise ValueError("a ray needs ray_angle and roots, or give sample_points")
        if critical_rays(nbc.n).distance(ray_angle) < 1e-3:
            raise ValueError("ray angle lies on a critical ray")
        clearance = ray_clearance_check(roots, ray_angle, r_min, r_max, delta)
        points = [r * cmath.exp(1j * ray_angle) for r in np.geomspace(r_min, r_max, samples)]
        angle = float(ray_angle)
    else:
        points = [complex(p) for p in sample_points]
        angle = float(ray_angle) if ray_angle is not None else math.nan
    out = [(rho, resolvent_norm(nbc, rho, quad_nodes)) for rho in points]
    exponent, rms = _fit_exponent([abs(p) for p in points], [v for _, v in out])
    return SpectralScan("resolvent", angle, tuple(out), exponent, rms, clearance)


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
    n = nbc.n
    mats, _, _ = _char_matrices(nbc, [root.rho])
    _u, s, vh = np.linalg.svd(mats[0])
    vecs = vh[n - root.multiplicity:].conj()
    eps = _unit_roots(n)
    col_scale = np.exp(-np.maximum((1j * eps * root.rho).real, 0.0))
    out = vecs * col_scale[None, :]
    norms = np.linalg.norm(out, axis=1, keepdims=True)
    return out / norms


def distinct_eigenvalues(roots, tol=1e-6):
    """One representative root per eigenvalue lambda = rho^n.

    Rotated parameters rho and eps_k rho give the same lambda; the
    representative with the smallest argument in [0, 2 pi) is kept
    (multiplicities of merged representatives agree by symmetry).
    """
    reps = []
    for root in _by_modulus(roots, lambda r: abs(r.lam), tol):
        if all(abs(root.lam - rep.lam) > tol * (1.0 + abs(root.lam)) for rep in reps):
            reps.append(root)
    return tuple(reps)


def bracket_groups(roots, tau=0.05):
    """Group eigenvalues whose mutual distance is below the bracket width
    tau * (1 + |lambda|^(1 - 1/n)).

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
            width = tau * min(scale(items[i]), scale(items[j]))
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
    zs = [1j * _unit_roots(c.size) * rho for rho, c in funcs]
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
