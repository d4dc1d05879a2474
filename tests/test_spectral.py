"""Characteristic determinant, root finding, Green kernel, and scans.

Reference values come from the sine closed forms of the second-order
constant-coefficient problems: the determinant is proportional to
sin(rho), the kernel is sin(rho x<) sin(rho (1 - x>)) / (rho sin rho),
roots sit at pi j, and the resolvent norm is the reciprocal distance to
the nearest squared root.
"""

import cmath
import itertools
import math
import random
import warnings
from collections import Counter

import numpy as np
import pytest

import oracles
from conftest import clearance_roots, make_row
from oracles import apply_to_jets
from regbvp import birkhoff, gallery, spectral
from regbvp.cli import scan_to_csv
from regbvp.legendre import constrained_basis, strong_operator
from regbvp.model import ModelForm, OperatorSpec, parse_spec
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
        delta = birkhoff._delta(nbc.rows)
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


@pytest.mark.parametrize("annulus", [(0.5, math.inf), (0.5, math.nan), (0.0, 20.0),
                                     (20.0, 0.5), (-1.0, 20.0)])
def test_find_roots_rejects_bad_annulus_radii(annulus):
    # an infinite outer radius is named here, not left to fail in the
    # sizing of the initial partition
    nbc = reduce_total_order(gallery.build("dirichlet2").rows)
    with pytest.raises(ValueError, match="^annulus radii must satisfy "):
        find_roots(nbc, annulus)


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


# -y'' with y'(0) + y'(1) = 0 and y(0) = 0, whose zeros (2k+1) pi are double
DOUBLE_ZERO_ROWS = (make_row(2, a=((1, 1),), b=((1, 1),)), make_row(2, a=((0, 1),)))


@pytest.mark.parametrize("r_max", [40.0, 66.5, 80.0, 100.0, 120.0])
def test_non_semisimple_double_roots_on_their_closed_form(r_max):
    """-y'' with y'(0) + y'(1) = 0 and y(0) = 0: Delta is proportional to
    rho (1 + cos rho), so every zero (2k+1) pi is double, with a single
    eigenfunction.  Each root must be double, lie within 1e-12 (1 + |rho|)
    of its closed form and carry a finite residual.  A box of count 2
    around -pi, split from a box of larger count, must still take Newton
    steps: split instead, it is split next to the real axis, and the
    search failed at r_max 80 and 120.  (At r_max = 66 the outer circle
    passes 0.03 from 21 pi and the whole annulus miscounts; ROADMAP
    item 6.)"""
    nbc = reduce_total_order(DOUBLE_ZERO_ROWS)
    roots = find_roots(nbc, (0.5, r_max))
    targets = sorted(sign * (2 * k + 1) * math.pi
                     for k in range(int((r_max / math.pi + 1) // 2)) for sign in (1, -1))
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
    """Record the number of points of every _evaluate call of the search."""
    sizes = []
    evaluate = spectral._evaluate

    def counted(delta, tables, rhos):
        sizes.append(np.asarray(rhos).size)
        return evaluate(delta, tables, rhos)

    monkeypatch.setattr(spectral, "_evaluate", counted)
    return sizes


def test_batched_newton_independent_of_batch(monkeypatch):
    # pi is a simple root, where Newton stops after one step; the centre
    # between pi and 2 pi, with multiplicity 2, keeps oscillating until
    # NEWTON_MAX_ITER
    delta = birkhoff._delta(_nbc("dirichlet2").rows)
    starts, mults = [complex(math.pi), 4.6 + 0.3j], [1, 2]
    sizes = _count_evaluations(monkeypatch)
    alone = [spectral._newton(delta, [start], [mult])[0] for start, mult in zip(starts, mults)]
    assert sizes == [1] + [1] * spectral.NEWTON_MAX_ITER
    assert alone[0][1] < 1e-13 < spectral.RESIDUAL_TOL < alone[1][1]
    sizes.clear()
    together = spectral._newton(delta, starts, mults)
    assert sizes == [2] + [1] * (spectral.NEWTON_MAX_ITER - 1)
    assert repr(together) == repr(alone)
    # neumann4's Delta has a 14-fold zero at 0, which draws the step from
    # 3.5 in for all NEWTON_MAX_ITER steps, while the step from 7 + i
    # reaches the root near 4.73 in a few; together, each point takes the
    # steps it takes alone
    four = birkhoff._delta(_nbc("neumann4").rows)
    four_starts = [3.5 + 0j, 7 + 1j]
    four_alone, four_steps = [], []
    for start in four_starts:
        sizes.clear()
        four_alone += spectral._newton(four, [start], [1])
        four_steps.append(len(sizes))
    assert abs(four_alone[0][0]) < 0.5 and abs(four_alone[1][0] - 4.730040744862704) < 1e-12
    assert 2 < four_steps[1] < 20 < four_steps[0] == spectral.NEWTON_MAX_ITER
    sizes.clear()
    assert repr(spectral._newton(four, four_starts, [1, 1])) == repr(four_alone)
    assert sizes == [2] * four_steps[1] + [1] * (four_steps[0] - four_steps[1])


def test_roots_lie_within_their_printed_bound_of_the_40_digit_zeros():
    # an oracle independent of the search: every root of the gallery and
    # of the first 20 roots-random operators of random.Random(1), on
    # (0.5, 20), lies within the bound it is printed to, max(residual,
    # n eps) (1 + |rho|), of the zero of the 40-digit determinant nearest
    # it (of its (m - 1)-th derivative for an m-fold root)
    pytest.importorskip("mpmath")
    operators = [_nbc(name) for name in sorted(gallery.EXAMPLES)]
    operators += [reduce_total_order(rows) for rows in oracles.roots_random_rows(1, 20)]
    eps, checked = np.finfo(float).eps, []
    for nbc in operators:
        for root in find_roots(nbc, (0.5, 20.0)):
            zero = oracles.mp_char_zero(nbc.rows, root.rho, root.multiplicity)
            bound = max(root.residual, nbc.n * eps) * (1.0 + abs(root.rho))
            assert abs(root.rho - zero) <= bound, (root, zero)
            checked.append(root.multiplicity)
    assert len(checked) > 300 and 2 in checked


def test_evaluation_independent_of_batch():
    # mixed4's Delta has 5 frequencies; each point's Delta and Delta' are
    # the same bits alone as among 300
    delta = birkhoff._delta(_nbc("mixed4").rows)
    tables = np.array([delta.coeffs, birkhoff._derivative(delta.freqs, delta.coeffs)])
    rng = np.random.default_rng(1)
    rhos = 20.0 * (rng.normal(size=300) + 1j * rng.normal(size=300))
    values, shifts = birkhoff._evaluate(delta, tables, rhos)
    for k, rho in enumerate(rhos):
        alone, shift = birkhoff._evaluate(delta, tables, rhos[k:k + 1])
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
    # Newton point at a time, and 134 batched when every box of a level
    # stepped until the slowest stopped; with the multi-zero boxes of the
    # initial partition split at once and the boxes whose split separated
    # their zeros following the others, it takes 40, 41 with the steps
    # on Delta / rho, which divide out Delta's simple zero at 0, and 25
    # with each box started at the mean of its zeros; with one start per
    # zero, from the power sums, it takes 17
    sizes = _count_evaluations(monkeypatch)
    find_roots(_nbc("dirichlet2"), (0.5, 66.5))
    assert len(sizes) <= 25
    assert max(sizes) <= spectral.BATCH_POINTS


def test_gallery_search_point_count(monkeypatch):
    # the first partition's seam lies off arg rho = 0, where the real
    # zeros of most gallery examples made a first attempt fail and start
    # over: the 8 gallery searches to the report radius evaluate at most
    # 150,000 determinant points (200,944 with that attempt).  They take
    # 265 evaluations: 1,269 when boxes that hold separate zeros kept
    # their level's Newton batch running to NEWTON_MAX_ITER, 749 when
    # the high-order zero of Delta at 0 drew the Newton steps of boxes
    # near it (before they stepped on Delta / rho^k), 442 when each split
    # was wound on its own, not with the other splits of its level, 376
    # when Newton started at each box's midpoint, not at the mean of its
    # zeros, and 265 evaluations of 121,644 points when each box took one
    # start at that mean, with its count as multiplicity.  With one start
    # per zero, from the power sums, they take 201 evaluations of 91,519
    # points, and no box splits.  With the whole-annulus count read off one
    # sector's two arcs, wound with the first partition, not off both full
    # circles in a batch of their own, they take 185 evaluations of 82,572
    # points
    sizes = _count_evaluations(monkeypatch)
    for name in sorted(gallery.EXAMPLES):
        find_roots(_nbc(name), (0.5, 66.5))
    assert sum(sizes) <= 90000
    assert len(sizes) <= 195


def test_random_search_work_count(monkeypatch):
    # 30 seeded random operators each of orders 2 and 4 on (0.5, 20) take
    # 708 evaluations with the whole-annulus count read off one sector's
    # arcs, wound with the first partition, and 802 when both full circles
    # were wound in a batch of their own.  Before each box took one Newton
    # start per zero, from its power sums, they took 2,072 when each box
    # started once at the mean of its zeros, 3,834 when Newton started at
    # each box's midpoint, 4,086 when each split was also wound on its
    # own, and 6,330 when those midpoint starts also stepped on Delta
    # itself, whose zero at 0 (of order at least n (n - 1) / 2) drew in
    # the boxes near the inner circle.  One subdivision Newton batch runs
    # all NEWTON_MAX_ITER steps, held by two zeros close enough to merge
    # into one start; 16 did with one start per box
    rng = np.random.default_rng(20261019)
    sizes = _count_evaluations(monkeypatch)
    newton, capped = spectral._newton, []

    def counted(delta, starts, multiplicities, polish=False):
        before = len(sizes)
        result = newton(delta, starts, multiplicities, polish)
        capped.append(not polish and len(sizes) - before == spectral.NEWTON_MAX_ITER)
        return result

    monkeypatch.setattr(spectral, "_newton", counted)
    for n in (2, 4) * 30:
        find_roots(reduce_total_order(oracles.random_rows(rng, n)), (0.5, 20.0))
    assert len(sizes) <= 750
    assert sum(capped) <= 3


# Two simple roots of the seeded operator of
# test_polish_stops_on_an_exact_zero_step that are exact zeros of the
# computed Delta, as the search on (0.5, 20) returns them.  Which roots
# are exact zeros depends on the last bits of Delta's coefficients, so a
# change to the expansion re-derives these from that search.
EXACT_ZEROS = [complex(float.fromhex(re), float.fromhex(im)) for re, im in (
    ("-0x1.c96474c6ea961p-1", "0x1.2d9e86a234349p-1"),
    ("0x1.c96474c6ea961p-1", "-0x1.2d9e86a234349p-1"))]


def test_polish_stops_on_an_exact_zero_step(monkeypatch):
    # two roots of this seeded operator are exact zeros of the computed
    # Delta, so a polish from one steps by exactly 0; it used to go on
    # stepping, by 0, until NEWTON_MAX_ITER
    nbc = reduce_total_order(oracles.random_rows(np.random.default_rng(11), 2))
    delta = birkhoff._delta(nbc.rows)
    sizes = _count_evaluations(monkeypatch)
    for rho in EXACT_ZEROS:
        sizes.clear()
        polished = spectral._newton(delta, [rho], [1], polish=True)
        assert polished == [(rho, 0.0)]
        assert len(sizes) == 1


@pytest.mark.parametrize("source", ["dirichlet4", "neumann4", 1, 2, 3, 4])
def test_origin_order_only_steers(source, monkeypatch):
    # the search does not read k, the order of Delta's zero at 0: with
    # one Newton start per zero, from the power sums, dividing rho^k out
    # of the subdivision's steps saved no evaluation (4,666 subdivision
    # Newton evaluations with it and 4,605 without on 840 roots-random
    # operators), so a wrong k gives the same roots, bit for bit
    if isinstance(source, str):
        nbc = _nbc(source)
    else:
        nbc = reduce_total_order(oracles.random_rows(np.random.default_rng(source),
                                                     2 + 2 * (source % 2)))
    want = find_roots(nbc, (0.5, 20.0))
    k = birkhoff._delta(nbc.rows).origin_order
    for wrong in (0, k + 3):
        monkeypatch.setattr(spectral, "_delta",
                            lambda rows, wrong=wrong: birkhoff._delta(rows)._replace(
                                origin_order=wrong))
        got = find_roots(nbc, (0.5, 20.0))
        assert [root.multiplicity for root in got] == [root.multiplicity for root in want]
        for root in got:
            assert min(abs(root.rho - other.rho) for other in want) <= 1e-12 * (1 + abs(root.rho))
        assert repr(got) == repr(want)


def test_failing_verification_circle_is_loud(monkeypatch):
    # every multiplicity comes from a circle: when no circle winds, each
    # partition fails and the search raises instead of falling back on
    # the box counts
    wind = spectral._windings

    def no_circles(delta, contours):
        if any(len(contour) == 1 for contour in contours):
            raise spectral.ContourError("circle refused")
        return wind(delta, contours)

    monkeypatch.setattr(spectral, "_windings", no_circles)
    with pytest.raises(spectral.ContourError, match="circle refused"):
        find_roots(_nbc("dirichlet2"), (0.5, 20.0))


@pytest.mark.parametrize("name", ["dirichlet4", "mixed4"])
def test_windings_of_a_batch_are_those_alone(name, monkeypatch):
    # the children of a split box, the whole annulus, one sector's two
    # arcs (both gallery operators have n = 4), verification circles, and
    # a circle passing 1e-3 from a root that needs several refinement
    # rounds: wound together, each count, centre and row of power sums
    # is the one it gets alone, and the batch takes as many evaluations
    # as its slowest contour (one for the first samples, one per round)
    nbc = _nbc(name)
    delta = birkhoff._delta(nbc.rows)
    roots = find_roots(nbc, (0.5, 20.0))
    contours = [spectral._box_contour(box)
                for box in spectral._split_box((0.5, 20.0, -0.3, 0.5 * math.pi - 0.3))]
    contours.append([spectral._Path(20.0, 20.0, 0.0, 2 * math.pi),
                     spectral._Path(0.5, 0.5, 2 * math.pi, 0.0)])
    contours.append([spectral._Path(20.0, 20.0, 0.0, 0.5 * math.pi),
                     spectral._Path(0.5, 0.5, 0.5 * math.pi, 0.0)])
    contours += [[spectral._Path(1e-3, 1e-3, 0.0, 2 * math.pi, root.rho)] for root in roots[:4]]
    contours.append([spectral._Path(0.05, 0.05, 0.0, 2 * math.pi, roots[0].rho + 0.049)])
    monkeypatch.setattr(spectral, "BATCH_POINTS", 1 << 20)
    sizes = _count_evaluations(monkeypatch)
    alone, alone_centres, alone_sums, calls = [], [], [], []
    for contour in contours:
        sizes.clear()
        outcomes, centres, sums = spectral._windings(delta, [contour])
        alone += outcomes
        alone_centres += centres
        alone_sums += sums.tolist()
        calls.append(len(sizes))
    sizes.clear()
    outcomes, centres, sums = spectral._windings(delta, contours)
    assert outcomes == alone
    assert repr(centres) == repr(alone_centres)
    assert sums.shape == (len(contours), spectral.POWER_SUMS)
    assert repr(sums.tolist()) == repr(alone_sums)
    assert len(sizes) == max(calls) >= 3
    assert alone[4] == alone[5] == len(roots_in(roots, (0.5, 20.0))) and alone[-5:] == [1] * 5


@pytest.mark.parametrize("name, boxes", [
    # dirichlet2's zeros k pi, one, two and six to a box, on both half axes
    ("dirichlet2", [((2.5, 4.0, -0.3, 0.3), [math.pi]),
                    ((5.5, 10.0, -0.2, 0.2), [2 * math.pi, 3 * math.pi]),
                    ((2.5, 4.0, math.pi - 0.3, math.pi + 0.3), [-math.pi]),
                    ((0.5, 20.0, -0.3, 0.3), [k * math.pi for k in range(1, 7)]),
                    ((3.5, 6.0, 0.3, 1.0), [])]),
    # dirichlet4's first zero and its turn by i
    ("dirichlet4", [((4.0, 5.5, -0.3, 0.3), [4.730040744862704]),
                    ((4.0, 5.5, 0.5 * math.pi - 0.3, 0.5 * math.pi + 0.3), [4.730040744862704j])]),
    # periodic2's double zeros 2 k pi, each counted twice
    ("periodic2", [((5.5, 7.0, -0.3, 0.3), [2 * math.pi] * 2),
                   ((0.5, 20.0, -0.3, 0.3), [2 * math.pi * k for k in (1, 1, 2, 2, 3, 3)])]),
])
def test_box_moments_are_sums_of_zeros(name, boxes):
    # the power sums s_p = sum (z - c)^p that _windings reads off its
    # samples, about the box's centre c (the mean of its corners), are the
    # sums over the zeros inside: s_1 within 1e-3 h and each s_p within
    # 5e-3 h^p, with h the box diameter (5.4e-4 and 2.1e-3 measured, on
    # periodic2's double zero), and 0 for a box without zeros.  The starts
    # built from them are one per distinct zero, with its multiplicity,
    # within 2e-3 h of it (4.7e-4 measured); a box of more than
    # POWER_SUMS zeros starts once, at their mean
    delta = birkhoff._delta(_nbc(name).rows)
    outcomes, centres, sums = spectral._box_counts(delta, [box for box, _ in boxes])
    for (box, zeros), count, centre, row in zip(boxes, outcomes, centres, sums):
        assert count == len(zeros)
        r0, r1, a0, a1 = box
        corners = [r * cmath.exp(1j * a) for r in (r0, r1) for a in (a0, a1)]
        assert abs(centre - sum(corners) / 4) <= 1e-15 * r1
        h = spectral._box_diameter(box)
        assert row.shape == (spectral.POWER_SUMS,)
        for p, power_sum in enumerate(row, 1):
            tol = 1e-3 if p == 1 else 5e-3
            assert abs(power_sum - sum((z - centre) ** p for z in zeros)) <= tol * h ** p
        if not zeros:
            continue
        starts = spectral._zero_starts(count, centre, row, h)
        want = (Counter(zeros) if count <= spectral.POWER_SUMS
                else {sum(zeros) / count: count})
        assert sorted(mult for _, mult in starts) == sorted(want.values())
        for zero, mult in want.items():
            assert min(abs(start - zero) for start, k in starts if k == mult) <= 2e-3 * h


@pytest.mark.parametrize("diameter", [0.3, 1.0, 2.5])
def test_double_zero_is_one_start(diameter):
    # periodic2's double zero 2 pi: the sums' error of about 1e-3 spreads
    # the two zeros that Newton's identities give by up to 0.075 of the
    # diameter, and MERGE_TOL makes them one start of multiplicity 2,
    # within 1.7e-3 of the diameter, in any box around 2 pi of diameter
    # up to 2.5 whose zero lies at 0.2 to 0.8 of its radial and angular
    # widths (the spread reaches 0.11 in boxes of diameter up to 1.5 whose
    # zero lies 0.1 from a corner, which split instead)
    delta = birkhoff._delta(_nbc("periodic2").rows)
    zero, boxes = 2 * math.pi, []
    for radial, angular in itertools.product((0.2, 0.5, 0.8), repeat=2):
        r0 = zero - radial * diameter
        width = diameter / (r0 + diameter)
        boxes.append((r0, r0 + diameter, -angular * width, (1 - angular) * width))
    outcomes, centres, sums = spectral._box_counts(delta, boxes)
    for box, count, centre, row in zip(boxes, outcomes, centres, sums):
        assert count == 2 and spectral._box_diameter(box) == pytest.approx(diameter)
        ((start, mult),) = spectral._zero_starts(count, centre, row, diameter)
        assert mult == 2 and abs(start - zero) <= 2e-3 * diameter


def test_verification_circle_radii():
    # a circle's radius is 0.45 of the distance to the nearest other root
    # where that is below 1e-4 (1 + |rho|), so no two circles meet
    pair = [3.0 + 0j, 3.0 + 1e-5 + 1e-5j]
    separation = abs(pair[1] - pair[0])
    assert spectral._circle_radii(pair + [10j]) == [0.45 * separation] * 2 + [1e-4 * (1.0 + 10.0)]
    assert spectral._circle_radii([2j]) == [1e-4 * (1.0 + 2.0)]
    assert spectral._circle_radii([]) == []
    # the same bits as a scan over all other roots, on random roots with
    # some close pairs
    rng = np.random.default_rng(7)
    rhos = 20.0 * (rng.normal(size=300) + 1j * rng.normal(size=300))
    rhos[1::10] = rhos[::10] + 1e-4 * (rng.normal(size=30) + 1j * rng.normal(size=30))
    rhos = rhos.tolist()
    scanned = []
    for k, rho in enumerate(rhos):
        radius = 1e-4 * (1.0 + abs(rho))
        others = [abs(rho - other) for j, other in enumerate(rhos) if j != k]
        scanned.append(min(radius, 0.45 * min(others)))
    radii = spectral._circle_radii(rhos)
    assert [radius.hex() for radius in radii] == [radius.hex() for radius in scanned]
    assert sum(radius < 1e-4 * (1.0 + abs(rho)) for radius, rho in zip(radii, rhos)) >= 60


def _coupled_first_order_operators(seed, count):
    """Order-1 model operators a y(0) + b y(1) = 0 with complex N(0, 1)
    coefficients, drawn as perfbench's coupled random operators are."""
    rng = random.Random(seed)
    specs = []
    for _ in range(count):
        rng.randrange(0, 1)             # the row's derivative order, always 0
        a, b = (complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(2))
        specs.append(OperatorSpec(1, ModelForm(), (make_row(1, a=[(0, a)], b=[(0, b)]),)))
    return specs


def test_full_turn_box_roots_match_closed_form():
    # below r_max ~ 1.9 an order-1 search has one box spanning a full
    # turn, whose two radial edges are one segment wound both ways; its
    # roots are those of a + b e^(i rho) = 0, rho = -i log(-a/b) + 2 pi k
    specs = _coupled_first_order_operators(3, 20)
    found = 0
    for spec in specs:
        (row,) = spec.rows
        base = -1j * cmath.log(-row.a[0] / row.b[0])
        want = [base + 2 * math.pi * k for k in range(-1, 2)
                if 0.25 < abs(base + 2 * math.pi * k) < 1.5]
        roots = find_roots(reduce_total_order(spec), (0.25, 1.5))
        assert [root.multiplicity for root in roots] == [1] * len(want)
        for w in want:
            assert min(abs(root.rho - w) for root in roots) <= 1e-14 * (1 + abs(w))
        found += len(roots)
    assert found == 9


def test_windings_raise_the_first_failing_contour():
    # on dirichlet2 (Delta proportional to sin rho) the segment [2, 4] of
    # the real axis crosses the zero pi and never settles, while the
    # segment [0, 1] starts on the exact zero rho = 0 and fails at once;
    # wound after a good circle, the error raised is the second contour's
    delta = birkhoff._delta(_nbc("dirichlet2").rows)
    circle = [spectral._Path(0.5, 0.5, 0.0, 2 * math.pi, math.pi)]
    crossing, through = [spectral._Path(2.0, 4.0, 0.0, 0.0)], [spectral._Path(0.0, 1.0, 0.0, 0.0)]
    assert spectral._windings(delta, [circle])[0] == [1]
    with pytest.raises(spectral.ContourError, match="^contour passes through a determinant zero$"):
        spectral._counts(spectral._windings(delta, [through])[0])
    for contours in ([circle, crossing, through], [circle, crossing]):
        with pytest.raises(spectral.ContourError,
                           match="^phase tracking failed to settle along an edge$"):
            spectral._counts(spectral._windings(delta, contours)[0])
    # each contour's outcome is its own count or error; a contour after
    # the first failing path is not refined, and carries that path's error
    settle, zero = "phase tracking failed to settle along an edge", \
        "contour passes through a determinant zero"
    outcomes, _, _ = spectral._windings(delta, [circle, crossing, through])
    assert outcomes[0] == 1 and [str(error) for error in outcomes[1:]] == [settle, zero]
    outcomes, _, _ = spectral._windings(delta, [through, circle])
    assert [str(error) for error in outcomes] == [zero, zero]


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
    # on (0.5, 20) the order-2 partition has 12 boxes tiling the sector of
    # angle pi, and each level counts the 4 children of all its splits in
    # one batch; this operator's first partition succeeds and splits (7
    # of the first 600 seeds split at all once a box's starts came from
    # its power sums)
    nbc = _coupled_operator(9)
    calls = []
    count = spectral._box_counts
    sector = math.pi * (20.0 ** 2 - 0.5 ** 2) / 2

    def counted(delta, boxes, ahead=()):
        area = sum((r1 ** 2 - r0 ** 2) * (a1 - a0) for r0, r1, a0, a1 in boxes) / 2
        calls.append(("partition" if math.isclose(area, sector) else "splits", len(boxes)))
        return count(delta, boxes, ahead)

    monkeypatch.setattr(spectral, "_box_counts", counted)
    plain = find_roots(nbc, (0.5, 20.0))
    assert calls[0] == ("partition", 12) and len(calls) >= 2
    assert all(kind == "splits" and size % 4 == 0 for kind, size in calls[1:])
    calls.clear()
    refused = []

    def refuse_first_split(delta, boxes, ahead=()):
        if len(calls) == 1 and not refused:
            refused.append(boxes)
            raise spectral.ContourError("split refused")
        return counted(delta, boxes, ahead)

    monkeypatch.setattr(spectral, "_box_counts", refuse_first_split)
    moved = find_roots(nbc, (0.5, 20.0))
    # the failed split batch rebuilt the partition once, with shifted lines
    assert refused and [call for call in calls if call[0] == "partition"] == [("partition", 12)] * 2
    assert calls[1] == ("partition", 12)
    assert [root.multiplicity for root in moved] == [root.multiplicity for root in plain]
    for got, want in zip(moved, plain):
        assert abs(got.rho - want.rho) <= 1e-12


# The roots-random operation of seed 523, round 67 (from 0), operation 5:
# a regular order-4 operator with coupled rows.  Its inner circle
# |rho| = 0.5 passes 0.019 from a cluster of zeros and, wound whole from
# 22 samples, winds 8 where a dense reference gives 10, so every
# partition fell short of the count of the annulus.  Its quarter arc,
# wound from 9 samples, counts the 10.
ALIASED_INNER_CIRCLE = {
    "order": 4,
    "form": {"type": "model"},
    "boundary_conditions": [
        {"a": {"0": [-1.8306879526364312, 0.648531916538099]},
         "b": {"0": [0.8747448554665117, -1.0149749502999899]}},
        {"a": {"0": [0.7408720878594101, 1.0345197062352427],
               "1": [0.8044678009730629, -0.06692039415736345],
               "2": [-1.9690658614351932, -0.989340434798748]},
         "b": {"0": [-0.1272028761891689, -1.135570275164922],
               "1": [1.7791351484737874, -0.885701038455848],
               "2": [-0.9316075706941086, 0.3993056935172164]}},
        {"a": {"0": [0.539509622033829, 0.6823492648912095],
               "1": [2.1178728008351357, -1.5028459479530538],
               "2": [-1.8292346721849304, 0.053867642272853344],
               "3": [-0.7257785306455047, 1.768221651024026]},
         "b": {"0": [-0.6761662400573033, -1.0197934761116312],
               "1": [1.0455277002543268, -0.2961813180223462],
               "2": [-0.5787178715248911, -1.2606367276271704],
               "3": [0.2916539828555557, 0.05454194165851228]}},
        {"a": {"0": [-1.0323754429951044, -0.14304976433576277],
               "1": [0.6705845570532254, 0.2728613301352127],
               "2": [0.05711301802509256, 0.4529364928631607],
               "3": [-1.2570925099157015, 0.3610720885462641]},
         "b": {"0": [-0.6557420808337461, -0.6499392371002682],
               "1": [-1.5315934901191592, -0.4485617654562058],
               "2": [-0.13592671619474542, -0.3923417941766073],
               "3": [-1.2183424932752263, 0.43132583299016897]}},
    ],
}


def _search_outcome(nbc, annulus):
    """repr of the roots found, or the message of the ContourError raised."""
    try:
        return repr(find_roots(nbc, annulus))
    except spectral.ContourError as exc:
        return f"ContourError: {exc}"


def test_level_batches_change_no_result(monkeypatch):
    # a level winds the children of all its splits in one batch and checks
    # the splits in level order; winding each split's four children alone
    # gives the same roots and the same errors
    rng = np.random.default_rng(20261020)
    gallery_searches = [(_nbc(name), (0.5, 66.5)) for name in sorted(gallery.EXAMPLES)]
    random_searches = [(reduce_total_order(oracles.random_rows(rng, n)), (0.5, 20.0))
                       for n in (2, 4) * 30]
    # two searches whose every partition fails a split, next to a double
    # zero (ROADMAP item 2); no search was found that still ends in
    # "winding count lost near a partition line"
    failing = [(_nbc("periodic2"), (0.5, 4 * math.pi - 0.01)),
               (reduce_total_order(DOUBLE_ZERO_ROWS), (0.5, 7 * math.pi - 0.03))]
    wound = []
    wind = spectral._windings

    def counted(delta, contours):
        wound.append(len(contours))
        return wind(delta, contours)

    monkeypatch.setattr(spectral, "_windings", counted)
    batched = [_search_outcome(nbc, annulus) for nbc, annulus in gallery_searches]
    # 16 calls, one each for the partition with the sector's arcs and for
    # the circles of each search; 24 when the whole annulus was wound in a
    # batch of its own, 41 when a box of several zeros started once, at
    # their mean, and 131 when each split was wound on its own
    assert len(wound) <= 20
    batched += [_search_outcome(nbc, annulus) for nbc, annulus in random_searches + failing]
    assert all(outcome.startswith("ContourError: winding counts failed to split box")
               for outcome in batched[-2:])
    count = spectral._box_counts

    def each_split_alone(delta, boxes, ahead=()):
        # the arcs of the first partition are wound alone too
        fours = [count(delta, [], ahead)] if ahead else []
        fours += [count(delta, boxes[k:k + 4]) for k in range(0, len(boxes), 4)]
        return ([outcome for outcomes, _, _ in fours for outcome in outcomes],
                [centre for _, centres, _ in fours for centre in centres],
                np.concatenate([sums for _, _, sums in fours]))

    monkeypatch.setattr(spectral, "_box_counts", each_split_alone)
    assert [_search_outcome(nbc, annulus) for nbc, annulus
            in gallery_searches + random_searches + failing] == batched


@pytest.mark.parametrize("first", ["count", "path"])
def test_level_batch_raises_in_level_order(first, monkeypatch):
    # the first split of a level batch that fails raises, whether its
    # children's counts do not add up or one of its child paths failed;
    # here every partition's first batch of splits fails twice, at its
    # first split and at its last.  With a single power sum every box of
    # two zeros or more splits at once, so each batch splits two boxes
    monkeypatch.setattr(spectral, "POWER_SUMS", 1)
    nbc = _coupled_operator(1)
    count = spectral._box_counts
    calls, parents = [], []

    def spoiled(delta, boxes, ahead=()):
        calls.append(len(boxes))
        outcomes, centres, sums = count(delta, boxes, ahead)
        if len(calls) % 2 == 0:         # each partition, then its first batch
            assert len(boxes) >= 8
            # the box that the first four children were split from
            parents.append((boxes[0][0], boxes[3][1], boxes[0][2], boxes[3][3]))
            refused = spectral.ContourError("path refused")
            if first == "count":
                outcomes[0], outcomes[-1] = outcomes[0] + 1, refused
            else:
                outcomes[0], outcomes[-1] = refused, outcomes[-1] + 1
        return outcomes, centres, sums

    monkeypatch.setattr(spectral, "_box_counts", spoiled)
    with pytest.raises(spectral.ContourError) as raised:
        find_roots(nbc, (0.5, 20.0))
    assert len(calls) == 12             # 6 partitions, each failing at its first batch
    if first == "count":
        assert str(raised.value) == f"winding counts failed to split box {parents[-1]}"
    else:
        assert str(raised.value) == "path refused"


def _dense_count(nbc, annulus, samples=20001):
    """The winding of Delta around the annulus from ``samples`` equispaced
    points on each circle, and the largest phase step among them."""
    delta = birkhoff._delta(nbc.rows)
    turns, largest = [], 0.0
    for radius in annulus:
        values, _ = spectral._char_det_batch(
            delta, radius * np.exp(1j * np.linspace(0.0, 2 * math.pi, samples)))
        steps = np.angle(np.exp(1j * np.diff(np.angle(values[0]))))
        turns.append(steps.sum() / (2 * math.pi))
        largest = max(largest, float(np.abs(steps).max()))
    return turns[1] - turns[0], largest


def test_aliased_inner_circle_operator_roots():
    # every partition of the seed-523 operator fell short of the 26 zeros
    # that its aliased inner circle counted; with the count read off the
    # sector's arcs, the search returns the 24 zeros of a dense count, each
    # within its printed bound of the 40-digit zero
    pytest.importorskip("mpmath")
    nbc = reduce_total_order(parse_spec(ALIASED_INNER_CIRCLE).rows)
    roots = find_roots(nbc, (0.5, 20.0))
    count, largest = _dense_count(nbc, (0.5, 20.0))
    assert largest < 0.1 and abs(count - 24) < 1e-6
    assert len(roots) == 24 and all(root.multiplicity == 1 for root in roots)
    eps = np.finfo(float).eps
    for root in roots:
        zero = oracles.mp_char_zero(nbc.rows, root.rho)
        assert abs(root.rho - zero) <= max(root.residual, nbc.n * eps) * (1.0 + abs(root.rho))


def test_neumann4_from_the_aliased_origin_circle():
    # neumann4's circle |rho| = 0.25, wound whole, counted 2 of the 14
    # zeros at 0, and every partition fell short; its quarter arc counts
    # them, and the search returns the roots it returns from 0.5
    nbc = _nbc("neumann4")
    near, far = find_roots(nbc, (0.25, 12.0)), find_roots(nbc, (0.5, 12.0))
    assert len(near) == 12 and [root.multiplicity for root in near] == [1] * 12
    moduli = sorted({round(abs(root.rho), 4) for root in near})
    assert moduli == [4.73, 7.8532, 10.9956]
    for got, want in zip(near, far):
        assert abs(got.rho - want.rho) <= 1e-14 * (1 + abs(want.rho))


def test_sector_arcs_count_the_whole_annulus():
    # rho -> eps_k rho permutes the columns of the boundary matrix, so
    # Delta(eps_k rho) = +-Delta(rho) and each arc of angle 2 pi / n turns
    # the phase of Delta by 1/n of its circle's turn: n times the winding
    # of one sector's outer arc and inner arc run back, as _windings counts
    # that open contour, is the winding of the two full circles.  On the
    # gallery and on random operators of orders 1 to 5 (whose unit roots
    # of order 3 and 5 are not exact in floating point)
    operators = [(_nbc(name), r_max) for name in sorted(gallery.EXAMPLES)
                 for r_max in (20.0, 66.5)]
    rng = np.random.default_rng(20261021)
    operators += [(reduce_total_order(oracles.random_rows(rng, n)), 20.0)
                  for n in (1, 2, 3, 4, 5) * 12]
    for nbc, r_max in operators:
        delta, width = birkhoff._delta(nbc.rows), 2 * math.pi / nbc.n
        circles = [spectral._Path(r_max, r_max, 0.0, 2 * math.pi),
                   spectral._Path(0.5, 0.5, 2 * math.pi, 0.0)]
        arcs = [spectral._Path(r_max, r_max, 0.0, width), spectral._Path(0.5, 0.5, width, 0.0)]
        (whole,), _, _ = spectral._windings(delta, [circles])
        (sector,), _, _ = spectral._windings(delta, [arcs])
        assert isinstance(whole, int) and sector == whole, (nbc, r_max)


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


@pytest.mark.parametrize("name", ["neumann2", "periodic2"])
def test_resolvent_norm_at_an_exact_eigenvalue_is_infinite(name):
    # lambda = 0 is an eigenvalue with the constant eigenfunction, which
    # V_N holds, so sigma_min of M_32 is exactly 0: the norm is inf, with
    # no warning and no fallback to the singular Nystrom kernel
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert resolvent_norm(_nbc(name), 0.0) == math.inf


def _coefficient_norm(nbc, rho, dim):
    """1 / sigma_min of L B - rho^n B on the constrained basis of size dim."""
    spec = OperatorSpec(nbc.n, ModelForm(), nbc.rows)
    basis = constrained_basis(spec, dim)
    matrix = strong_operator(spec, dim + nbc.n) @ basis - complex(rho) ** nbc.n * basis
    return 1.0 / np.linalg.svd(matrix, compute_uv=False)[-1]


def test_resolvent_norm_dimension_stability():
    """The coefficient-space norms at N = 16 and N = 32 agree to 1e-12,
    resolvent_norm is the N = 32 one, and its estimate bounds its
    distance to the reciprocal distance to the spectrum."""
    nbc = _nbc("dirichlet2")
    rho = 3.0 + 2.0j
    exact = 1.0 / min(abs(rho ** 2 - (math.pi * j) ** 2) for j in range(1, 50))
    coarse, fine = (_coefficient_norm(nbc, rho, dim) for dim in (16, 32))
    assert abs(coarse - fine) <= 1e-12 * fine
    norm, error, fell_back = spectral._resolvent_sample(
        nbc, spectral._coefficient_operators(nbc), rho)
    assert not fell_back
    assert norm == resolvent_norm(nbc, rho) == fine
    assert 0.0 < error <= 1e-11
    assert abs(norm - exact) <= error * exact


def test_resolvent_samples_match_dirichlet_closed_form():
    """On the ray pi / 2, lambda = -r^2 lies at distance pi^2 + r^2 from
    the spectrum (k pi)^2 of the self-adjoint Dirichlet problem, so the
    norm is 1 / (pi^2 + r^2); the coefficient path matches it to 1e-10
    on the report's 24 radii from 5 to 60 (a 64-node Nystrom kernel is
    16% off at r = 60)."""
    nbc = _nbc("dirichlet2")
    ray = 0.5 * math.pi
    scan = resolvent_scan(nbc, ray, clearance_roots(nbc, ray, 5.0, 60.0))
    assert scan.fallbacks == ()
    assert len(scan.samples) == 24
    for (rho, value), error in zip(scan.samples, scan.errors):
        exact = 1.0 / (math.pi ** 2 + abs(rho) ** 2)
        assert abs(value - exact) <= 1e-10 * exact, (abs(rho), value, exact)
        assert error <= spectral.RESOLVENT_MAX_ERROR


def test_resolvent_scan_labels_its_fallback_samples():
    """cauchy2 is not regular: its resolvent grows along the ray, and
    where sigma_min falls below the rounding of M_N the coefficient
    estimate exceeds RESOLVENT_MAX_ERROR and the sample comes from the
    Nystrom kernel.  Exactly those samples are labelled, each with the
    estimate of the kernel at 32 against 64 nodes."""
    nbc = _nbc("cauchy2")
    ray = 0.5 * math.pi
    scan = resolvent_scan(nbc, ray, clearance_roots(nbc, ray, 5.0, 60.0))
    assert scan.exponent >= 0.0
    operators = spectral._coefficient_operators(nbc)
    labelled = []
    for i, (rho, value) in enumerate(scan.samples):
        assert spectral._resolvent_sample(nbc, operators, rho) == (
            value, scan.errors[i], i in scan.fallbacks)
        if i in scan.fallbacks:
            labelled.append(i)
            coarse, fine = (spectral._nystrom_norm(nbc, rho, q) for q in spectral.NYSTROM_NODES)
            assert value == fine
            assert scan.errors[i] == max(abs(coarse - fine), np.finfo(float).eps * fine) / fine
        else:
            assert value == _coefficient_norm(nbc, rho, spectral.RESOLVENT_DIMENSIONS[-1])
            assert scan.errors[i] <= spectral.RESOLVENT_MAX_ERROR
    # the large radii fall back, the small ones do not
    assert labelled == list(range(labelled[0], 24)) and 0 < labelled[0] < 23


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
