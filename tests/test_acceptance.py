"""Acceptance suite: the headline guarantees of the package.

Each criterion is one test function, so a verbose run prints exactly one
pass/fail line per criterion.  Tolerances are stated inline; reference
values come from closed forms (sine kernels, root ladders pi j), from
hand-derived determinants, and from the independent cofactor oracle in
``oracles.py``.
"""

import cmath
import json
import math
import time

import numpy as np

import oracles
from conftest import REGULAR_GALLERY, clearance_roots, make_row
from regbvp import cli, gallery
from regbvp.birkhoff import classify_regularity
from regbvp.geometry import is_rare
from regbvp.normalize import reduce_total_order
from regbvp.numrange import half_plane_verdict
from regbvp.quasiform import check_completely_regular, verify_form_identity
from regbvp.spectral import (
    bracket_groups,
    distinct_eigenvalues,
    find_roots,
    green_sup_scan,
    resolvent_norm,
    resolvent_scan,
)


def _announce(num, text):
    print(f"CRITERION {num} PASS: {text}")


# ---------------------------------------------------------------------------

def test_criterion_1_mixed_example_classification():
    """Regular but not completely regular, decided in under a second."""
    start = time.perf_counter()
    spec = gallery.build("mixed4")
    verdict = classify_regularity(spec)
    report = check_completely_regular(spec)
    elapsed = time.perf_counter() - start
    assert verdict.regular is True
    assert report.completely_regular is False
    assert elapsed < 1.0, f"classification took {elapsed:.3f}s"
    _announce(1, "mixed4 is regular yet not completely regular "
                 f"({elapsed * 1e3:.0f} ms)")


def test_criterion_2_determinant_oracle_suite():
    """Frozen determinant values, cross-checked against the cofactor
    oracle to machine precision."""
    cases = {
        "dirichlet2": 1 + 0j,
        "periodic2": -2 + 0j,
        "cauchy2": 0j,
        "mixed4": -4 + 0j,
    }
    for name, want in cases.items():
        spec = gallery.build(name)
        verdict = classify_regularity(spec)
        assert verdict.theta0 == want, (name, verdict.theta0)
        nbc = reduce_total_order(spec)
        forms = [(k, row.a[k], row.b[k]) for row, k in zip(nbc.rows, nbc.orders)]
        o0, _ = oracles.theta_pair(forms, nbc.n)
        assert abs(verdict.theta0 - o0) <= 1e-12 * max(1.0, abs(o0)), name

    first = classify_regularity((make_row(1, a=((0, 1),), b=((0, -1),)),))
    assert (first.theta0, first.theta1) == (1 + 0j, -1 + 0j)
    o0, o1 = oracles.theta_pair([(0, 1 + 0j, -1 + 0j)], 1)
    assert abs(first.theta0 - o0) <= 1e-12 and abs(first.theta1 - o1) <= 1e-12
    _announce(2, "theta values 1, -2, 0, -4 and the first-order pair (1, -1) "
                 "match the cofactor oracle")


def test_criterion_3_green_kernel_decay():
    """Kernel sup norms fall like |rho|^-(n-1) on clear rays; the
    degenerate control problem violates every decay bound."""
    start = time.perf_counter()
    dir2 = reduce_total_order(gallery.build("dirichlet2"))
    scan = green_sup_scan(dir2, math.pi / 4, clearance_roots(dir2, math.pi / 4, 10.0, 200.0),
                          r_min=10.0, r_max=200.0, samples=24, grid=48)
    assert abs(scan.exponent - (-1.0)) <= 0.15, scan.exponent
    compensated = np.array([v * abs(rho) for rho, v in scan.samples])
    ratio = compensated.max() / np.median(compensated)
    assert ratio <= 2.0, ratio

    mix4 = reduce_total_order(gallery.build("mixed4"))
    scan4 = green_sup_scan(mix4, math.pi / 8, clearance_roots(mix4, math.pi / 8, 10.0, 80.0),
                           r_min=10.0, r_max=80.0, samples=16, grid=48)
    assert abs(scan4.exponent - (-3.0)) <= 0.3, scan4.exponent

    cauchy = reduce_total_order(gallery.build("cauchy2"))
    growth = green_sup_scan(cauchy, math.pi / 4, clearance_roots(cauchy, math.pi / 4, 5.0, 40.0),
                            r_min=5.0, r_max=40.0, samples=10, grid=24)
    assert growth.exponent >= 0.0, growth.exponent
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"decay scans took {elapsed:.1f}s"
    _announce(3, f"green decay exponents {scan.exponent:+.3f} (target -1), "
                 f"{scan4.exponent:+.3f} (target -3), degenerate control "
                 f"{growth.exponent:+.2f} >= 0 ({elapsed:.1f}s)")


def test_criterion_4_resolvent_decay():
    """Resolvent norms fall like |rho|^-n, and the pointwise norm at a
    reference parameter matches the spectral distance."""
    dir2 = reduce_total_order(gallery.build("dirichlet2"))
    scan = resolvent_scan(dir2, math.pi / 4, clearance_roots(dir2, math.pi / 4, 10.0, 120.0),
                          r_min=10.0, r_max=120.0, samples=16)
    assert abs(scan.exponent - (-2.0)) <= 0.2, scan.exponent

    point = resolvent_norm(dir2, 2.0 * cmath.exp(0.25j * math.pi))
    assert abs(point - 0.0939) <= 0.02 * 0.0939, point

    mix4 = reduce_total_order(gallery.build("mixed4"))
    scan4 = resolvent_scan(mix4, math.pi / 8, clearance_roots(mix4, math.pi / 8, 5.0, 60.0),
                           r_min=5.0, r_max=60.0, samples=16)
    assert abs(scan4.exponent - (-4.0)) <= 0.4, scan4.exponent
    _announce(4, f"resolvent exponents {scan.exponent:+.3f} (target -2), "
                 f"{scan4.exponent:+.3f} (target -4); "
                 f"||R|| at 2e^(i pi/4) = {point:.4f}")


def test_criterion_5_eigenvalue_localization():
    """Root ladders, multiplicities, bracket sizes, and ray clearance."""
    dir2 = reduce_total_order(gallery.build("dirichlet2"))
    roots = find_roots(dir2, (0.5, 20.5 * math.pi))
    positive = sorted(r.rho.real for r in roots if r.rho.real > 0)
    assert len(positive) == 20
    for j, rho in enumerate(positive, start=1):
        assert abs(rho - j * math.pi) <= 1e-8, (j, rho)
    assert all(r.multiplicity == 1 for r in roots)

    per2 = reduce_total_order(gallery.build("periodic2"))
    proots = find_roots(per2, (0.5, 27.0))
    ladder = sorted(r.rho.real for r in proots if r.rho.real > 0)
    assert np.allclose(ladder, [2 * math.pi * j for j in (1, 2, 3, 4)],
                       atol=1e-8)
    assert all(r.multiplicity == 2 for r in proots)

    oversized = {}
    for name in REGULAR_GALLERY:
        nbc = reduce_total_order(gallery.build(name))
        reps = distinct_eigenvalues(find_roots(nbc, (0.5, 30.0)))
        sizes = [sum(r.multiplicity for r in g) for g in bracket_groups(reps)]
        oversized[name] = max(sizes, default=0)
        assert oversized[name] <= 2, (name, sizes)

    code = cli.main(["spectrum", "dirichlet2", "--rmax", "20",
                     "-o", "/tmp/acc5_spectrum.json"])
    assert code == 0
    with open("/tmp/acc5_spectrum.json") as handle:
        doc = json.load(handle)
    rays = {round(entry["angle"], 9): entry for entry in doc["clearance"]["rays"]}
    assert rays[0.0]["exit"] is None                      # blocked by the ladder
    clear = rays[round(math.pi / 2, 9)]["exit"]
    assert clear is not None and clear == 0.0             # bisector is free
    _announce(5, "pi-ladder located to 1e-8, periodic doubles, bracket "
                 f"sizes {sorted(set(oversized.values()))} <= 2, real axis "
                 "blocked while the bisector is clear")


def test_criterion_6_splitting_geometry():
    """Principal angles decide the splitting, stably under recombination."""
    expected_true = ["dirichlet2", "dirichlet4", "neumann2", "neumann4"]
    for name in expected_true:
        assert check_completely_regular(gallery.build(name)).completely_regular, name

    spec = gallery.build("mixed4")
    base = check_completely_regular(spec)
    assert base.completely_regular is False
    assert abs(base.max_angle - math.pi / 4) <= 1e-8, base.max_angle

    rng = np.random.default_rng(5150)
    for trial in range(100):
        mixed = oracles.remix_spec(rng, spec)
        report = check_completely_regular(mixed)
        assert report.completely_regular is False, trial
        assert abs(report.max_angle - math.pi / 4) <= 1e-8, (trial, report.max_angle)
    _announce(6, "max principal angle pi/4 +- 1e-8 for mixed4 under 100 "
                 "recombinations; first- and second-order splittings verified")


def test_criterion_7_form_identity():
    """The strong and split Galerkin matrices of the quadratic form agree
    to 1e-8 relative on the whole constrained trial space, with the
    computed boundary matrix."""
    residuals = {}
    for name in ("dirichlet2", "neumann2"):
        residuals[name] = verify_form_identity(gallery.build(name))
        assert residuals[name] <= 1e-8, (name, residuals[name])
    _announce(7, "form identity residuals "
              + ", ".join(f"{name} {val:.2e}" for name, val in residuals.items()))


def test_criterion_8_numerical_range_dichotomy():
    """Support-function minima stabilize for the clamped problem and blow
    up at every doubling for the non-splitting one."""
    start = time.perf_counter()
    clamped = half_plane_verdict(gallery.build("dirichlet4"))
    assert clamped.verdict == "half_plane", clamped.minima
    lo, hi = min(clamped.minima), max(clamped.minima)
    assert hi - lo <= 0.1 * abs(lo), clamped.minima

    mixed = half_plane_verdict(gallery.build("mixed4"))
    assert mixed.verdict == "whole_plane", mixed.minima
    assert len(mixed.minima) >= 4
    for prev, nxt in zip(mixed.minima, mixed.minima[1:]):
        assert nxt >= 1.5 * prev, mixed.minima
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"numerical-range verdicts took {elapsed:.1f}s"
    _announce(8, f"clamped minima steady at {clamped.minima[-1]:.4f}, "
                 f"whole-plane minima grow {mixed.minima[0]:.2f} -> "
                 f"{mixed.minima[-1]:.2f} ({elapsed:.1f}s)")


def test_criterion_9_implications_and_rarefaction():
    """Complete regularity implies determinant regularity and half-plane
    containment on every gallery member; geometric modulus ladders are
    rare at lag 1, arithmetic ones are not rare."""
    counterexamples = []
    for name in sorted(gallery.EXAMPLES):
        spec = gallery.build(name)
        if not check_completely_regular(spec).completely_regular:
            continue
        if not classify_regularity(spec).regular:
            counterexamples.append((name, "regular"))
        if half_plane_verdict(spec).verdict != "half_plane":
            counterexamples.append((name, "half_plane"))
    assert counterexamples == []

    assert is_rare([2.0 ** j for j in range(12)], 4) == 1
    assert is_rare([3.0 ** j for j in range(8)], 4) == 1
    assert is_rare([1.0 + 0.5 * j for j in range(16)], 4) is None
    _announce(9, "no implication counterexamples in the gallery; geometric "
                 "ladders rare at lag 1, arithmetic ladders not rare")
