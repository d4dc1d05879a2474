"""Characteristic determinant, root finding, Green kernel, and scans.

Reference values come from the sine closed forms of the second-order
constant-coefficient problems: the determinant is proportional to
sin(rho), the kernel is sin(rho x<) sin(rho (1 - x>)) / (rho sin rho),
roots sit at pi j, and the resolvent norm is the reciprocal distance to
the nearest squared root.
"""

import cmath
import math
import random

import numpy as np
import pytest

import oracles
from conftest import clearance_roots, make_row
from oracles import apply_to_jets
from regbvp import gallery, spectral
from regbvp.normalize import reduce_total_order
from regbvp.spectral import (
    CLUSTER_TOL,
    EigenRoot,
    SpectralScan,
    bracket_groups,
    char_det,
    distinct_eigenvalues,
    eigenfunction,
    find_roots,
    gram_condition,
    green_kernel,
    green_sup_scan,
    ray_clearance_check,
    resolvent_norm,
    resolvent_scan,
    roots_in,
    scan_to_csv,
)


def _nbc(name):
    return reduce_total_order(gallery.build(name))


def dirichlet_green(rho, x, xi):
    lo, hi = min(x, xi), max(x, xi)
    return cmath.sin(rho * lo) * cmath.sin(rho * (1 - hi)) / (rho * cmath.sin(rho))


# ---------------------------------------------------------------------------
# Characteristic determinant
# ---------------------------------------------------------------------------

def test_char_det_proportional_to_sine():
    nbc = _nbc("dirichlet2")
    ratios = [char_det(nbc, rho).value / cmath.sin(rho)
              for rho in (1.3, 2.2 + 0.4j, 4.0 - 1.1j, 7.7)]
    base = ratios[0]
    assert abs(base) > 1e-6
    for r in ratios[1:]:
        assert abs(r - base) <= 1e-10 * abs(base)


def test_char_det_vanishes_at_roots():
    nbc = _nbc("dirichlet2")
    on = char_det(nbc, math.pi).log_abs
    off = char_det(nbc, math.pi + 0.5).log_abs
    assert on < off - 25.0


def test_char_det_overflow_safe():
    nbc = _nbc("dirichlet2")
    base = char_det(nbc, 1.3).value / cmath.sin(1.3)
    rho = 300.0 + 300.0j
    sv = char_det(nbc, rho)
    assert 0.5 <= abs(sv.mantissa) <= 2.0
    assert np.isfinite(sv.log_abs)
    # log |sin(x + iy)| = 0.5 log(sin^2 x + sinh^2 y), stable for large y
    log_sin = 0.5 * math.log(math.sin(rho.real) ** 2 + math.sinh(rho.imag) ** 2)
    assert abs(sv.log_abs - (log_sin + math.log(abs(base)))) <= 1e-9 * abs(log_sin)


def test_char_det_against_oracle_determinant():
    """log|Delta| of the exponential polynomial against numpy's LU
    determinant of the boundary matrix, at 5 seeded random points with
    |rho| <= 66.5 for each of 300 seeded random row sets of orders 1-5.

    Each side is accurate to eps times its own condition: the LU
    determinant to that of the scaled matrix, the exponential polynomial
    to sum |term| / |Delta| over the terms c rho^p e^(i rho f) it adds.
    Near rho = 0 the terms cancel down to the order of the zero of Delta
    there (mpmath put the polynomial's error at 5.8e-7 at |rho| = 0.02
    for an order-5 row set, and LU's at 2.8e-11).  Measured over 12
    seeds of this sample, the difference stays below 5.6 eps times
    |log|Delta|| plus both conditions, and exceeds 1e-12 (1 + |log|Delta||)
    at no more than 3 of 1,500 points."""
    rng = np.random.default_rng(20261019)
    eps = np.finfo(float).eps
    errors = []
    for _ in range(300):
        n = int(rng.integers(1, 6))
        nbc = reduce_total_order(oracles.random_rows(rng, n))
        delta = spectral._delta(nbc.rows)
        for _ in range(5):
            rho = cmath.rect(rng.uniform(0.0, 66.5), rng.uniform(0.0, 2.0 * math.pi))
            got = char_det(nbc, rho).log_abs
            _phase, want, condition = oracles.boundary_logdet(nbc.rows, rho)
            exponents = (1j * delta.freqs * rho).real
            terms = np.abs(delta.coeffs) @ (abs(rho) ** np.arange(delta.coeffs.shape[1]))
            spread = math.log(terms @ np.exp(exponents - exponents.max())) + exponents.max() - got
            error = abs(got - want)
            assert error <= 64 * eps * (abs(want) + math.exp(spread) + condition), (n, rho)
            errors.append(error / (1.0 + abs(want)))
    assert sum(error > 1e-12 for error in errors) <= 0.01 * len(errors)


# The two specs of -y'' whose determinant vanishes identically:
# y'(0) = y'(1), y(0) = -y(1), and y'(0) + y'(1) = 0, y(0) = y(1)
VANISHING = {
    "dy_periodic_y_antiperiodic": (make_row(2, a=((1, 1),), b=((1, -1),)),
                                   make_row(2, a=((0, 1),), b=((0, 1),))),
    "dy_antiperiodic_y_periodic": (make_row(2, a=((1, 1),), b=((1, 1),)),
                                   make_row(2, a=((0, 1),), b=((0, -1),))),
}


@pytest.mark.parametrize("recombined", [False, True])
@pytest.mark.parametrize("name", sorted(VANISHING))
def test_identically_vanishing_determinant_is_named(name, recombined):
    """Every coefficient of Delta is zero, so every lambda is an
    eigenvalue: the search says so instead of failing on a contour, and
    char_det is an exact zero everywhere."""
    rows = VANISHING[name]
    if recombined:
        rows = oracles.random_mix(np.random.default_rng(17), rows)
    nbc = reduce_total_order(rows)
    with pytest.raises(ValueError, match="^the characteristic determinant vanishes "
                       "identically: every \u03bb is an eigenvalue$"):
        find_roots(nbc, (0.5, 20.0))
    for rho in (0.7, 3 * math.pi, -12.5 + 4j, 40j):
        det = char_det(nbc, rho)
        assert det.mantissa == 0
        assert det.log_abs == -math.inf
        assert det.value == 0


# ---------------------------------------------------------------------------
# Root localization
# ---------------------------------------------------------------------------

def test_dirichlet_roots_on_both_half_axes():
    nbc = _nbc("dirichlet2")
    roots = find_roots(nbc, (0.5, 10.5 * math.pi))
    assert len(roots) == 20
    want = sorted([j * math.pi for j in range(1, 11)]
                  + [-j * math.pi for j in range(1, 11)], key=abs)
    got = sorted((r.rho for r in roots), key=lambda z: (abs(z), z.real))
    for root in roots:
        assert root.multiplicity == 1
        assert root.residual <= 1e-8
        assert abs(root.lam - root.rho ** 2) <= 1e-9 * (1 + abs(root.lam))
    for w in want:
        assert min(abs(g - w) for g in got) <= 1e-8 * (1 + abs(w))


def test_periodic_double_roots():
    nbc = _nbc("periodic2")
    roots = find_roots(nbc, (0.5, 15.0))
    by_value = sorted(roots, key=lambda r: (abs(r.rho), r.rho.real))
    assert len(by_value) == 4
    targets = [-4 * math.pi, -2 * math.pi, 2 * math.pi, 4 * math.pi]
    assert all(r.multiplicity == 2 for r in by_value)
    got = sorted(r.rho.real for r in by_value)
    assert np.allclose(got, sorted(targets), atol=1e-8)
    assert all(abs(r.rho.imag) <= 1e-8 for r in by_value)


def test_non_semisimple_double_roots_on_their_closed_form():
    """-y'' with y'(0) + y'(1) = 0 and y(0) = 0: Delta is proportional to
    rho (1 + cos rho), so every zero (2k+1) pi is double, with a single
    eigenfunction.  Each root must be double, lie within 1e-12 (1 + |rho|)
    of its closed form and carry a finite residual."""
    nbc = reduce_total_order((make_row(2, a=((1, 1),), b=((1, 1),)), make_row(2, a=((0, 1),))))
    roots = find_roots(nbc, (0.5, 40.0))
    targets = sorted(sign * (2 * k + 1) * math.pi for k in range(6) for sign in (1, -1))
    nearest = [min(targets, key=lambda t: abs(root.rho - t)) for root in roots]
    assert sorted(nearest) == targets
    for root, target in zip(roots, nearest):
        assert root.multiplicity == 2
        assert math.isfinite(root.residual)
        assert abs(root.rho - target) <= 1e-12 * (1 + abs(target)), (root, target)


def test_irregular_third_order_search_to_report_radius():
    """A Birkhoff-irregular order-3 operator whose search to the report
    radius used to fail on a contour: 54 simple roots, each confirmed by
    a circle that winds once for numpy's LU determinant of the raw
    boundary matrix."""
    rows = (make_row(3, b=((2, 0.405 - 0.709j),)),
            make_row(3, a=((0, 1.277 + 0.758j),), b=((0, 0.679 + 1.427j),)),
            make_row(3, a=((0, 0.819 - 0.799j),), b=((0, 0.07 - 0.234j),)))
    roots = find_roots(reduce_total_order(rows), (0.5, 66.5))
    assert len(roots) == 54
    assert all(root.multiplicity == 1 for root in roots)
    for root in roots:
        radius = min([1e-3 * (1.0 + abs(root.rho))]
                     + [0.4 * abs(root.rho - other.rho) for other in roots if other is not root])
        winding = oracles.winding_number(lambda rho: oracles.boundary_logdet(rows, rho)[0],
                                         root.rho, radius)
        assert abs(winding - 1.0) < 0.25, root


def test_empty_spectrum():
    nbc = _nbc("cauchy2")
    assert find_roots(nbc, (0.5, 30.0)) == ()


def test_sector_restriction():
    nbc = _nbc("dirichlet2")
    roots = roots_in(find_roots(nbc, (0.5, 16.0)), (0.5, 16.0), (-0.3, 0.3))
    got = sorted(r.rho.real for r in roots)
    assert np.allclose(got, [math.pi * j for j in range(1, 6)], atol=1e-8)


def _beam_roots(rho_max):
    """beta > 0 with cos(beta) cosh(beta) = 1, by bisection near (k + 1/2) pi."""
    out = []
    for k in range(1, int(rho_max / math.pi) + 1):
        lo, hi = (k + 0.5) * math.pi - 0.3, (k + 0.5) * math.pi + 0.3
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if (math.cos(lo) - 1 / math.cosh(lo) < 0) == (math.cos(mid) - 1 / math.cosh(mid) < 0):
                lo = mid
            else:
                hi = mid
        if lo < rho_max:
            out.append(lo)
    return out


@pytest.mark.parametrize("name", ["periodic2", "dirichlet4"])
def test_full_circle_roots_out_to_report_radius(name):
    # the full circle is searched in one sector of angle 2 pi / n and
    # turned; the double roots of periodic2 lie on the real axis, where
    # the sector's seam starts
    nbc = _nbc(name)
    roots = find_roots(nbc, (0.5, 66.5))
    if name == "periodic2":
        moduli, mult = [2 * math.pi * j for j in range(1, 11)], 2
    else:
        moduli, mult = _beam_roots(66.5), 1
    n = nbc.n
    want = [m * cmath.exp(2j * math.pi * k / n) for m in moduli for k in range(n)]
    assert len(roots) == len(want)
    assert all(root.multiplicity == mult for root in roots)
    for w in want:
        assert min(abs(root.rho - w) for root in roots) <= 1e-13 * (1 + abs(w))


def _count_evaluations(monkeypatch):
    """Record the number of points of every _evaluate call."""
    sizes = []
    evaluate = spectral._evaluate

    def counted(delta, tables, rhos):
        sizes.append(np.asarray(rhos).size)
        return evaluate(delta, tables, rhos)

    monkeypatch.setattr(spectral, "_evaluate", counted)
    return sizes


def test_batched_newton_independent_of_batch(monkeypatch):
    # pi is a simple root, where Newton stops after one step; the centre
    # between pi and 2 pi, with the box count 2 as multiplicity, keeps
    # oscillating until NEWTON_MAX_ITER
    delta = spectral._delta(_nbc("dirichlet2").rows)
    starts, mults = [complex(math.pi), 4.6 + 0.3j], [1, 2]
    sizes = _count_evaluations(monkeypatch)
    alone = [spectral._newton(delta, [start], [mult])[0] for start, mult in zip(starts, mults)]
    assert sizes == [1] + [1] * spectral.NEWTON_MAX_ITER
    assert alone[0][1] < 1e-13 < spectral.RESIDUAL_TOL < alone[1][1]
    sizes.clear()
    together = spectral._newton(delta, starts, mults)
    assert sizes == [2] + [1] * (spectral.NEWTON_MAX_ITER - 1)
    assert repr(together) == repr(alone)


def test_evaluation_independent_of_batch():
    # mixed4's Delta has 5 frequencies; each point's Delta and Delta' are
    # the same bits alone as among 300
    delta = spectral._delta(_nbc("mixed4").rows)
    tables = np.array([delta.coeffs, spectral._derivative(delta.freqs, delta.coeffs)])
    rng = np.random.default_rng(1)
    rhos = 20.0 * (rng.normal(size=300) + 1j * rng.normal(size=300))
    values, shifts = spectral._evaluate(delta, tables, rhos)
    for k, rho in enumerate(rhos):
        alone, shift = spectral._evaluate(delta, tables, rhos[k:k + 1])
        assert repr((alone[:, 0].tolist(), shift[0])) == repr((values[:, k].tolist(), shifts[k]))


def test_find_roots_independent_of_batch_size(monkeypatch):
    nbc = _nbc("dirichlet4")
    whole = find_roots(nbc, (0.5, 30.0))
    monkeypatch.setattr(spectral, "BATCH_POINTS", 7)
    sizes = _count_evaluations(monkeypatch)
    chunked = find_roots(nbc, (0.5, 30.0))
    assert max(sizes) == 7
    assert repr(chunked) == repr(whole)


def test_find_roots_work_count(monkeypatch):
    # the count of determinant evaluations does not depend on the machine:
    # dirichlet2 out to the report radius takes 1,398 calls one box and one
    # Newton point at a time, and at most a third of that batched
    sizes = _count_evaluations(monkeypatch)
    find_roots(_nbc("dirichlet2"), (0.5, 66.5))
    assert len(sizes) <= 466
    assert max(sizes) <= spectral.BATCH_POINTS


def test_failing_verification_circle_is_loud(monkeypatch):
    # every multiplicity comes from a circle: when no circle winds, each
    # partition fails and the search raises instead of falling back on
    # the box counts
    wind = spectral._winding

    def no_circles(delta, contour):
        if len(contour) == 1:
            raise spectral.ContourError("circle refused")
        return wind(delta, contour)

    monkeypatch.setattr(spectral, "_winding", no_circles)
    with pytest.raises(spectral.ContourError, match="circle refused"):
        find_roots(_nbc("dirichlet2"), (0.5, 20.0))


def _coupled_operator(seed):
    """A seeded order-2 model operator with two coupled rows of N(0,1)
    complex coefficients on y and y' at both ends."""
    rng = random.Random(seed)

    def coefficient():
        return complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))

    return reduce_total_order([make_row(2, a=[(0, coefficient()), (1, coefficient())],
                                        b=[(0, coefficient()), (1, coefficient())])
                               for _ in range(2)])


def test_failed_split_moves_the_partition(monkeypatch):
    # on (0.5, 20) the order-2 partition has 12 boxes, and a split counts
    # 4 children; this operator's first partition succeeds and splits
    nbc = _coupled_operator(1)
    sizes = []
    count = spectral._box_counts

    def counted(delta, boxes):
        sizes.append(len(boxes))
        return count(delta, boxes)

    monkeypatch.setattr(spectral, "_box_counts", counted)
    plain = find_roots(nbc, (0.5, 20.0))
    assert sizes.count(12) == 1 and 4 in sizes
    sizes.clear()
    refused = []

    def refuse_first_split(delta, boxes):
        if len(boxes) == 4 and not refused:
            refused.append(boxes)
            raise spectral.ContourError("split refused")
        return counted(delta, boxes)

    monkeypatch.setattr(spectral, "_box_counts", refuse_first_split)
    moved = find_roots(nbc, (0.5, 20.0))
    # the failed split rebuilt the partition once, with shifted lines
    assert refused and sizes.count(12) == 2
    assert [root.multiplicity for root in moved] == [root.multiplicity for root in plain]
    for got, want in zip(moved, plain):
        assert abs(got.rho - want.rho) <= 1e-12


def test_fourth_order_root_count_consistency():
    nbc = _nbc("mixed4")
    roots = find_roots(nbc, (0.5, 12.0))
    # lambda = rho^4 is n-fold symmetric: the count is a multiple of 4
    assert len(roots) % 4 == 0
    assert len(roots) > 0
    reps = distinct_eigenvalues(roots)
    assert len(reps) * 4 == len(roots)


# ---------------------------------------------------------------------------
# Green kernel
# ---------------------------------------------------------------------------

def test_green_kernel_matches_closed_form():
    nbc = _nbc("dirichlet2")
    xs = [0.12, 0.37, 0.5, 0.88]
    for rho in (2.3 + 0.7j, 1.0 - 3.0j, 30.0 * cmath.exp(0.25j * math.pi),
                300.0 * cmath.exp(0.25j * math.pi)):
        for x in xs:
            for xi in xs:
                got = green_kernel(nbc, rho, x, xi)
                want = dirichlet_green(rho, x, xi)
                assert abs(got - want) <= 1e-10 * max(abs(want), 1e-30), (rho, x, xi)


def test_green_kernel_value_at_half():
    # G(1/2, 1/2) at rho = pi/2 is sin^2(pi/4)/((pi/2) sin(pi/2)) = 1/pi
    nbc = _nbc("dirichlet2")
    got = green_kernel(nbc, 0.5 * math.pi, 0.5, 0.5)
    assert abs(got - 1.0 / math.pi) <= 1e-12


def test_green_kernel_array_api():
    nbc = _nbc("dirichlet2")
    xs = np.array([0.2, 0.5, 0.8])
    xis = np.array([0.3, 0.6])
    rho = 2.0 + 1.0j
    mat = green_kernel(nbc, rho, xs, xis)
    assert mat.shape == (3, 2)
    for i, x in enumerate(xs):
        for j, xi in enumerate(xis):
            assert abs(mat[i, j] - green_kernel(nbc, rho, float(x), float(xi))) < 1e-14
    scalar = green_kernel(nbc, rho, 0.2, 0.3)
    assert isinstance(scalar, complex)


def _one_sided_fit(f, x0, h, direction, points=8, include_anchor=False):
    """Polynomial fit of f around x0 from one side; derivatives of the
    returned poly1d at 0.0 approximate the one-sided derivatives at x0."""
    start = 0 if include_anchor else 1
    offsets = direction * h * np.arange(start, start + points)
    vals = [f(x0 + o) for o in offsets]
    return np.poly1d(np.polyfit(offsets, vals, points - 1))


def _centered_derivative(f, x0, order, h, points=9):
    offsets = h * (np.arange(points) - (points - 1) / 2)
    vals = [f(x0 + o) for o in offsets]
    return np.poly1d(np.polyfit(offsets, vals, points - 1)).deriv(order)(0.0)


@pytest.mark.parametrize("name,h,tol", [("dirichlet2", 1e-4, 1e-6),
                                        ("mixed4", 2e-2, 1e-4)])
def test_green_kernel_derivative_jump(name, h, tol):
    """The (n-1)-th x-derivative jumps by i^n across x = xi."""
    spec = gallery.build(name)
    n = spec.order
    nbc = reduce_total_order(spec)
    rho = 2.0 + 1.0j
    xi = 0.4
    f = lambda t: green_kernel(nbc, rho, t, xi)
    jump = (_one_sided_fit(f, xi, h, +1).deriv(n - 1)(0.0)
            - _one_sided_fit(f, xi, h, -1).deriv(n - 1)(0.0))
    assert abs(jump - (1j) ** n) <= tol


@pytest.mark.parametrize("name", ["dirichlet2", "mixed4"])
def test_green_kernel_solves_model_equation(name):
    """(-1)^m d^n G / dx^n = rho^n G away from the diagonal."""
    spec = gallery.build(name)
    n = spec.order
    nbc = reduce_total_order(spec)
    rho = 2.0 + 1.0j
    xi = 0.4
    x0 = 0.75
    h = 1e-2 if n == 4 else 1e-4
    dn = _centered_derivative(lambda t: green_kernel(nbc, rho, t, xi), x0, n, h)
    g0 = green_kernel(nbc, rho, x0, xi)
    lead = (-1.0) ** (n // 2)
    assert abs(lead * dn - rho ** n * g0) <= 1e-5 * abs(rho ** n * g0)


def test_green_kernel_satisfies_boundary_rows():
    spec = gallery.build("mixed4")
    n = spec.order
    nbc = reduce_total_order(spec)
    rho = 2.0 + 1.0j
    xi = 0.37
    h = 2e-2
    f = lambda t: green_kernel(nbc, rho, t, xi)
    at0 = _one_sided_fit(f, 0.0, h, +1, include_anchor=True)
    at1 = _one_sided_fit(f, 1.0, h, -1, include_anchor=True)
    jet0 = [at0.deriv(s)(0.0) for s in range(n)]
    jet1 = [at1.deriv(s)(0.0) for s in range(n)]
    scale = abs(green_kernel(nbc, rho, 0.5, xi))
    for row in spec.rows:
        assert abs(apply_to_jets(row, jet0, jet1)) <= 1e-4 * max(scale, 1.0)


# ---------------------------------------------------------------------------
# Resolvent norm
# ---------------------------------------------------------------------------

def test_resolvent_norm_against_spectral_distance():
    # self-adjoint Dirichlet problem: ||R(lambda)|| = 1 / dist(lambda, spectrum)
    nbc = _nbc("dirichlet2")
    rho = 2.0 * cmath.exp(0.25j * math.pi)
    lam = rho ** 2  # = 4i
    dist = min(abs(lam - (math.pi * j) ** 2) for j in range(1, 50))
    got = resolvent_norm(nbc, rho)
    assert abs(got - 1.0 / dist) <= 0.02 / dist


def test_resolvent_norm_quadrature_stability():
    nbc = _nbc("dirichlet2")
    rho = 3.0 + 2.0j
    coarse = resolvent_norm(nbc, rho, quad_nodes=48)
    fine = resolvent_norm(nbc, rho, quad_nodes=96)
    assert abs(coarse - fine) <= 1e-3 * fine


# ---------------------------------------------------------------------------
# Ray scans
# ---------------------------------------------------------------------------

def test_green_scan_decays_at_order_one():
    nbc = _nbc("dirichlet2")
    scan = green_sup_scan(nbc, math.pi / 4, clearance_roots(nbc, math.pi / 4, 8.0, 60.0),
                          r_min=8.0, r_max=60.0, samples=10, grid=32)
    assert isinstance(scan, SpectralScan)
    assert scan.kind == "green_sup"
    assert len(scan.samples) == 10
    assert abs(scan.exponent - (-1.0)) <= 0.2
    assert scan.clearance is not None and scan.clearance <= 8.0


def test_green_scan_rejects_blocked_ray():
    nbc = _nbc("dirichlet2")
    with pytest.raises(ValueError):
        green_sup_scan(nbc, 0.0, clearance_roots(nbc, 0.0, 5.0, 20.0),
                       r_min=5.0, r_max=20.0, samples=4, grid=8)


def test_green_scan_grows_for_degenerate_rows():
    nbc = _nbc("cauchy2")
    scan = green_sup_scan(nbc, math.pi / 4, clearance_roots(nbc, math.pi / 4, 5.0, 25.0),
                          r_min=5.0, r_max=25.0, samples=8, grid=24)
    assert scan.exponent >= 0.0  # no decay at all


def test_resolvent_scan_decays_at_order_two():
    nbc = _nbc("dirichlet2")
    scan = resolvent_scan(nbc, math.pi / 4, clearance_roots(nbc, math.pi / 4, 8.0, 60.0),
                          r_min=8.0, r_max=60.0, samples=8)
    assert abs(scan.exponent - (-2.0)) <= 0.25
    assert scan.fit_residual < 0.2


def test_resolvent_scan_fourth_order():
    nbc = _nbc("mixed4")
    scan = resolvent_scan(nbc, math.pi / 8, clearance_roots(nbc, math.pi / 8, 5.0, 40.0),
                          r_min=5.0, r_max=40.0, samples=8)
    assert abs(scan.exponent - (-4.0)) <= 0.5


def test_resolvent_scan_rejects_critical_ray():
    nbc = _nbc("dirichlet2")
    with pytest.raises(ValueError):
        resolvent_scan(nbc, 0.0, clearance_roots(nbc, 0.0, 5.0, 60.0), samples=4)


def test_scan_to_csv_format(tmp_path):
    nbc = _nbc("cauchy2")
    scan = green_sup_scan(nbc, math.pi / 4, clearance_roots(nbc, math.pi / 4, 5.0, 10.0),
                          r_min=5.0, r_max=10.0, samples=4, grid=8)
    path = tmp_path / "scan.csv"
    scan_to_csv(scan, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "abs_rho,arg_rho,quantity,log_abs_rho,log_quantity"
    assert len(lines) == 5
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == pytest.approx(5.0)
    assert first[3] == pytest.approx(math.log(5.0))


# ---------------------------------------------------------------------------
# Eigenfunctions and brackets
# ---------------------------------------------------------------------------

def test_eigenfunction_is_sine():
    nbc = _nbc("dirichlet2")
    root = min(find_roots(nbc, (0.5, 4.0)), key=lambda r: abs(r.rho - math.pi))
    vecs = eigenfunction(nbc, root)
    assert vecs.shape == (1, 2)
    eps = np.exp(2j * np.pi * np.arange(2) / 2)
    xs = np.linspace(0.0, 1.0, 21)
    vals = np.array([np.sum(vecs[0] * np.exp(1j * eps * root.rho * x)) for x in xs])
    target = np.sin(np.pi * xs)
    # proportional to sin(pi x)
    scale = vals[10] / target[10]
    assert np.allclose(vals, scale * target, atol=1e-8 * abs(scale))


def test_eigenfunction_multiplicity_two():
    nbc = _nbc("periodic2")
    roots = find_roots(nbc, (0.5, 8.0))
    root = next(r for r in roots if abs(r.rho - 2 * math.pi) < 1e-6)
    vecs = eigenfunction(nbc, root)
    assert vecs.shape == (2, 2)
    eps = np.exp(2j * np.pi * np.arange(2) / 2)
    for vec in vecs:
        def y(x, v=vec):
            return np.sum(v * np.exp(1j * eps * root.rho * x))
        def dy(x, v=vec):
            return np.sum(v * 1j * eps * root.rho * np.exp(1j * eps * root.rho * x))
        assert abs(y(0.0) - y(1.0)) <= 1e-10
        assert abs(dy(0.0) - dy(1.0)) <= 1e-9


def test_eigenfunction_rejects_high_multiplicity():
    nbc = _nbc("dirichlet2")
    fake = EigenRoot(rho=1.0 + 0j, lam=1.0 + 0j, multiplicity=3, residual=0.0)
    with pytest.raises(ValueError):
        eigenfunction(nbc, fake)


def test_distinct_eigenvalues_merges_rotations():
    nbc = _nbc("dirichlet2")
    roots = find_roots(nbc, (0.5, 10.0))
    reps = distinct_eigenvalues(roots)
    # +pi j and -pi j share lambda = (pi j)^2
    assert len(roots) == 2 * len(reps)
    lams = sorted(abs(r.lam) for r in reps)
    assert np.allclose(lams, [(math.pi * j) ** 2 for j in range(1, 4)],
                       rtol=1e-8)


def _rotated(r, phase, ulps):
    rho = cmath.rect(r + ulps * math.ulp(r), phase)
    return EigenRoot(rho=rho, lam=rho ** 4, multiplicity=1, residual=0.0)


def test_root_order_ignores_modulus_noise():
    # the four parameters of mixed4's lambda = -1.88 differ in |rho| by
    # rounding only; here the copy at 3 pi/4 has the smallest modulus
    r = 0.82805497918 * math.sqrt(2.0)
    copies = [_rotated(r, math.pi / 4 + k * math.pi / 2, ulps)
              for k, ulps in enumerate((3, -2, 1, 0))]
    want = [math.pi / 4, 3 * math.pi / 4, -3 * math.pi / 4, -math.pi / 4]
    for shift in range(4):
        shuffled = copies[shift:] + copies[:shift]
        ordered = spectral._by_modulus(shuffled, lambda root: abs(root.rho), CLUSTER_TOL)
        assert [cmath.phase(root.rho) for root in ordered] == pytest.approx(want)
        # the representative is the copy with the smallest argument
        (rep,) = distinct_eigenvalues(shuffled)
        assert cmath.phase(rep.rho) == pytest.approx(math.pi / 4)
    # a real root whose imaginary part is -0 up to rounding still has
    # argument 0, and comes before its partner at argument pi
    pair = [EigenRoot(complex(-math.pi + 4e-16, 1e-17), math.pi ** 2, 1, 0.0),
            EigenRoot(complex(math.pi, -1e-17), math.pi ** 2, 1, 0.0)]
    ordered = spectral._by_modulus(pair, lambda root: abs(root.rho), CLUSTER_TOL)
    assert [root.rho.real > 0 for root in ordered] == [True, False]
    assert distinct_eigenvalues(pair)[0].rho.real > 0


def test_scans_and_gram_read_given_roots(monkeypatch):
    nbc = _nbc("dirichlet2")
    roots = find_roots(nbc, (0.5, 66.5))
    sector_roots = clearance_roots(nbc, math.pi / 4, 8.0, 60.0)

    def no_search(*_args, **_kwargs):
        raise AssertionError("find_roots called")

    monkeypatch.setattr(spectral, "find_roots", no_search)
    assert [n for n, _ in gram_condition(nbc, roots, 8, 66.5)] == [4, 8]
    green = green_sup_scan(nbc, math.pi / 4, roots, r_min=8.0, r_max=60.0,
                           samples=4, grid=8)
    resolvent = resolvent_scan(nbc, math.pi / 4, roots, r_min=8.0, r_max=60.0, samples=4)
    # the clearance check reads only its own region of the inventory
    alone = ray_clearance_check(sector_roots, math.pi / 4, 8.0, 60.0)
    assert green.clearance == resolvent.clearance == alone
    with pytest.raises(RuntimeError, match="below radius 66.5"):
        gram_condition(nbc, roots[:4], 8, 66.5)


def test_bracket_groups_sizes():
    nbc = _nbc("dirichlet2")
    reps = distinct_eigenvalues(find_roots(nbc, (0.5, 20.0)))
    groups = bracket_groups(reps)
    assert all(len(g) == 1 for g in groups)

    nbc = _nbc("periodic2")
    reps = distinct_eigenvalues(find_roots(nbc, (0.5, 15.0)))
    groups = bracket_groups(reps)
    sizes = sorted(sum(r.multiplicity for r in g) for g in groups)
    assert sizes == [2, 2]


def test_bracket_groups_cluster_artificial_pair():
    mk = lambda lam: EigenRoot(rho=lam ** 0.5, lam=lam, multiplicity=1, residual=0.0)
    close = (mk(100.0 + 0j), mk(100.0 + 1e-3j), mk(400.0 + 0j))
    groups = bracket_groups(close)
    assert sorted(len(g) for g in groups) == [1, 2]


# ---------------------------------------------------------------------------
# Gram conditioning
# ---------------------------------------------------------------------------

GRAM_RADIUS = 40.0


def _gram(name, count):
    nbc = _nbc(name)
    return gram_condition(nbc, find_roots(nbc, (0.5, GRAM_RADIUS)), count, GRAM_RADIUS)


def test_gram_condition_orthogonal_family():
    pairs = _gram("dirichlet2", 8)
    assert [n for n, _ in pairs] == [4, 8]
    for _, cond in pairs:
        assert abs(cond - 1.0) <= 1e-6


def test_gram_condition_periodic_double_family():
    pairs = _gram("periodic2", 6)
    for _, cond in pairs:
        assert abs(cond - 1.0) <= 1e-6


def test_gram_condition_bounded_for_regular_fourth_order():
    pairs = _gram("mixed4", 8)
    for _, cond in pairs:
        assert 1.0 - 1e-9 <= cond <= 3.0
