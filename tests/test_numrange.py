"""Galerkin support functions and half-plane containment verdicts."""

import math
import random

import numpy as np
import pytest
from numpy.polynomial import legendre as L
from numpy.polynomial.polynomial import Polynomial

from oracles import apply_to_jets, inner_01
from regbvp import gallery, numrange, quasiform
from regbvp.model import (
    ONE,
    ZERO,
    BoundaryRow,
    ClassicalForm,
    DivergenceForm,
    ModelForm,
    OperatorSpec,
    Poly,
    SpecError,
    as_divergence,
    operator_coefficients,
)
from regbvp.numrange import (
    constrained_basis,
    galerkin_form,
    half_plane_verdict,
    profiles_to_csv,
    split_form,
    support_function,
    support_profile,
)
from regbvp.legendre import derivative_matrix, endpoint_jets
from regbvp.quasiform import check_completely_regular, split_jets

EPS = np.finfo(float).eps


def _basis_polynomials(spec, dim):
    """Constrained basis columns as power-basis polynomials on [0, 1]."""
    basis = constrained_basis(spec, dim)
    count = basis.shape[0]
    norms = np.sqrt(2.0 * np.arange(count) + 1.0)
    polys = []
    for col in range(basis.shape[1]):
        series = L.Legendre(basis[:, col] * norms, domain=[0.0, 1.0])
        polys.append(series.convert(kind=Polynomial))
    return polys


def _as_poly(p: Polynomial) -> Poly:
    return Poly(tuple(complex(c) for c in p.coef))


# ---------------------------------------------------------------------------
# Support function of explicit matrices
# ---------------------------------------------------------------------------

def test_support_function_one_by_one():
    # sigma(theta) of [2i] is the largest eigenvalue of Re(e^{i theta} 2i),
    # which is -2 sin(theta)
    form = np.array([[2j]])
    for theta in np.linspace(0.0, 2.0 * math.pi, 17):
        assert abs(support_function(form, theta) - (-2.0 * math.sin(theta))) <= 1e-14


def test_support_function_hermitian_pair():
    form = np.diag([1.0 + 0j, -3.0 + 0j])
    assert support_function(form, 0.0) == pytest.approx(1.0)
    assert support_function(form, math.pi) == pytest.approx(3.0)


# ---------------------------------------------------------------------------
# Constrained trial spaces
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["dirichlet2", "mixed4", "robin2"])
def test_constrained_basis_orthonormal(name):
    spec = gallery.build(name)
    basis = constrained_basis(spec, 6)
    assert basis.shape == (6 + spec.order, 6)
    gram = basis.conj().T @ basis
    assert np.allclose(gram, np.eye(6), atol=1e-10)


@pytest.mark.parametrize("name", ["dirichlet2", "mixed4", "periodic2"])
def test_constrained_basis_satisfies_rows(name):
    spec = gallery.build(name)
    n = spec.order
    for poly in _basis_polynomials(spec, 5):
        jet0 = [poly.deriv(s)(0.0) for s in range(n)]
        jet1 = [poly.deriv(s)(1.0) for s in range(n)]
        for row in spec.rows:
            assert abs(apply_to_jets(row, jet0, jet1)) <= 1e-8


def test_constrained_basis_spans_known_functions():
    # x(1 - x) lies in every Dirichlet trial space of dimension >= 1
    spec = gallery.build("dirichlet2")
    basis = constrained_basis(spec, 4)
    count = basis.shape[0]
    norms = np.sqrt(2.0 * np.arange(count) + 1.0)
    target = L.Legendre.fit(np.linspace(0, 1, 50),
                            [x * (1 - x) for x in np.linspace(0, 1, 50)],
                            deg=count - 1, domain=[0.0, 1.0]).coef / norms
    # the residual orthogonal to the span must vanish
    proj = basis @ (basis.conj().T @ target)
    assert np.allclose(proj, target, atol=1e-8)


def test_constrained_basis_rank_loss_is_a_spec_error():
    # on polynomials of degree 4 the neumann4 rows (y'' and y''' at both
    # ends) have rank 3, so a trial space of dimension 1 does not exist
    spec = gallery.build("neumann4")
    with pytest.raises(SpecError, match="lose rank"):
        constrained_basis(spec, 1)
    with pytest.raises(SpecError, match="lose rank"):
        support_profile(spec, 1)


# ---------------------------------------------------------------------------
# Galerkin matrix against exact polynomial integration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("count", [8, 33, 132])
def test_derivative_matrix_closed_form_matches_legder(count):
    """The powers of the closed-form step d/dx phi_k = sum over odd k - j
    of 2 sqrt(2j + 1) sqrt(2k + 1) phi_j agree with numpy's Legendre
    differentiation (the oracle here) to a few ulps per entry, with the
    same zero pattern."""
    norms = np.sqrt(2.0 * np.arange(count) + 1.0)
    for order in range(5):
        want = np.zeros((count, count))
        want[:count - order] = L.legder(np.diag(norms), order, scl=2.0, axis=0)
        want /= norms[:, None]
        got = derivative_matrix(count, order)
        assert np.array_equal(got != 0, want != 0), order
        nonzero = want != 0
        ulps = np.abs(got - want)[nonzero] / np.spacing(np.abs(want[nonzero]))
        assert ulps.max(initial=0.0) <= 16, (order, ulps.max())


@pytest.mark.parametrize("name", ["dirichlet2", "robin2", "mixed4"])
def test_galerkin_matrix_matches_symbolic_integration(name):
    spec = gallery.build(name)
    dim = 4
    form = galerkin_form(spec, dim)
    polys = [_as_poly(p) for p in _basis_polynomials(spec, dim)]
    coeffs = operator_coefficients(spec)
    want = np.zeros((dim, dim), dtype=complex)
    for l, u in enumerate(polys):
        lu = Poly(())
        for j, c in enumerate(coeffs):
            if c:
                lu = lu + c * u.derivative(j)
        for k, v in enumerate(polys):
            want[k, l] = inner_01(lu, v)
    assert np.allclose(form, want, atol=1e-9 * max(1.0, np.abs(want).max()))


# ---------------------------------------------------------------------------
# Split assembly against the strong form
# ---------------------------------------------------------------------------

# The two assemblies of F_16 differ by rounding only: at most 7e-14
# relative over the gallery and the random forms below.  The strong form
# inherits relative errors up to about 1e-12 from numpy's Gauss-Legendre
# weights at larger sizes, so this bound stays at a few thousand ulps.
SPLIT_AGREEMENT = 1e-12


def _random_poly(rng, real=False):
    return Poly(tuple(complex(rng.gauss(0, 1), 0.0 if real else rng.gauss(0, 1))
                      for _ in range(rng.randrange(0, 4))))


def _random_form(rng, m, real=False):
    def block(count):
        return tuple(_random_poly(rng, real) for _ in range(count))
    return DivergenceForm(m, p=block(m) + (ONE,), q=(ZERO,) + block(m), r=(ZERO,) + block(m))


def _random_coupled_rows(rng, n):
    def vector():
        return tuple(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n))
    return tuple(BoundaryRow(vector(), vector()) for _ in range(n))


def _random_divergence_specs():
    """Seeded order-2 and order-4 forms with polynomial p, q, r: real
    coefficients with clamped rows (y_wedge = 0, a completely regular
    splitting) and complex coefficients with random coupled rows."""
    rng = random.Random(11)
    specs = []
    for n in (2, 4):
        clamped = gallery.build(f"dirichlet{n}").rows
        for _ in range(4):
            specs.append(OperatorSpec(n, _random_form(rng, n // 2, real=True), clamped))
            specs.append(OperatorSpec(n, _random_form(rng, n // 2), _random_coupled_rows(rng, n)))
    return specs


@pytest.mark.parametrize("name", sorted(gallery.EXAMPLES))
def test_split_form_matches_strong_form_on_gallery(name):
    spec = gallery.build(name)
    strong = galerkin_form(spec, 16)
    gap = np.linalg.norm(split_form(spec, 16) - strong, 2)
    assert gap <= SPLIT_AGREEMENT * np.linalg.norm(strong, 2)


def test_split_form_matches_strong_form_on_random_forms():
    kinds = set()
    for spec in _random_divergence_specs():
        kinds.add((spec.order, check_completely_regular(spec).completely_regular))
        strong = galerkin_form(spec, 16)
        gap = np.linalg.norm(split_form(spec, 16) - strong, 2)
        assert gap <= SPLIT_AGREEMENT * np.linalg.norm(strong, 2), spec
    # both boundary terms, (A y_wedge, y_wedge) and (y_vee, y_wedge), ran
    assert kinds == {(2, True), (2, False), (4, True), (4, False)}


def test_split_rows_vanish_on_the_basis_endpoint_vectors():
    """The report's B and C and the split assembly share one endpoint
    layout: on the constrained basis, B y_wedge + C y_vee is the boundary
    rows applied to the basis, so it vanishes as far as those rows do.
    (Relative to ||[B | C]|| ||[y_wedge; y_vee]||: under clamped rows
    y_wedge is pure rounding noise, so ||B|| ||y_wedge|| would be the
    residual itself.)"""
    dim = 16
    specs = [gallery.build(name) for name in sorted(gallery.EXAMPLES)]
    for spec in specs + _random_divergence_specs():
        spec = as_divergence(spec)
        split = check_completely_regular(spec)
        _jets, wedge, vee = split_jets(split, dim)
        residual = np.linalg.norm(split.B @ wedge + split.C @ vee, 2) / (
            np.linalg.norm(np.hstack([split.B, split.C]), 2)
            * np.linalg.norm(np.vstack([wedge, vee]), 2))
        at0, at1 = endpoint_jets(dim + spec.order, spec.order)
        basis = constrained_basis(spec, dim)
        rows = np.array([row.a + row.b for row in spec.rows], dtype=complex)
        jets = np.vstack([at0 @ basis, at1 @ basis])
        direct = np.linalg.norm(rows @ jets, 2) / (
            np.linalg.norm(rows, 2) * np.linalg.norm(jets, 2))
        assert residual <= 4 * direct + 64 * EPS, (spec, residual, direct)


@pytest.mark.parametrize("spec", [
    # odd order: no divergence form at all
    OperatorSpec(3, ModelForm(), (BoundaryRow((1, 0, 0), (0, 0, 0)),
                                  BoundaryRow((0, 1, 0), (0, 0, 0)),
                                  BoundaryRow((0, 0, 0), (1, 0, 0)))),
    # even order, but written in classical form
    OperatorSpec(2, ClassicalForm({2: Poly((0, 5))}),
                 (BoundaryRow((1, 0), (0, 0)), BoundaryRow((0, 0), (1, 0)))),
], ids=["model3", "classical2"])
def test_numerical_range_needs_a_divergence_form(spec):
    with pytest.raises(SpecError):
        half_plane_verdict(spec)
    with pytest.raises(SpecError):
        support_profile(spec, 8)
    with pytest.raises(SpecError):
        split_form(spec, 8)


@pytest.mark.parametrize("name", sorted(gallery.EXAMPLES))
def test_support_paths_agree_with_rotated_eigenvalues(name):
    # the factored path (the sums of squares: every completely regular
    # example) and the paired eigenvalue path (one eigvalsh per antipodal
    # pair) give what one eigvalsh per angle of the split matrix gives,
    # within the eigvalsh error bound
    spec = gallery.build(name)
    for dim in (8, 16):
        profile = support_profile(spec, dim, num_angles=16)
        form = split_form(spec, dim)
        slack = (dim + spec.order) * EPS * np.linalg.norm(form, 2)
        for theta, value in zip(profile.angles, profile.values):
            assert abs(value - support_function(form, theta)) <= slack


def _non_self_adjoint_spec():
    """p_0 y - y'' + q_1 y' + (r_1 y)' with complex linear p_0, q_1 and
    r_1 and coupled complex rows: an order-2 divergence form off the
    gallery that takes the eigenvalue path."""
    rng = random.Random(2024)

    def linear():
        return Poly(tuple(complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(2)))

    form = DivergenceForm(1, p=(linear(), ONE), q=(ZERO, linear()), r=(ZERO, linear()))
    return OperatorSpec(2, form, _random_coupled_rows(rng, 2))


@pytest.mark.parametrize("num_angles", [16, 7])
def test_paired_support_values_match_one_angle_solves(num_angles):
    # an even grid reads sigma(theta + pi) as -lambda_min at theta; an odd
    # grid solves every angle; both agree with the one-angle oracle
    spec = _non_self_adjoint_spec()
    for dim in (8, 16, 32):
        profile = support_profile(spec, dim, num_angles=num_angles)
        form = split_form(spec, dim)
        assert len(profile.values) == num_angles
        for theta, value in zip(profile.angles, profile.values):
            assert abs(value - support_function(form, theta)) <= profile.bound, (dim, theta)


def test_eigenvalue_path_solves_once_per_antipodal_pair(monkeypatch):
    calls = []
    solve = np.linalg.eigvalsh

    def counting(matrix):
        calls.append(matrix.shape)
        return solve(matrix)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    mixed4 = gallery.build("mixed4")
    report = half_plane_verdict(mixed4)
    assert report.dimensions == (8, 16, 32, 64)
    assert len(calls) == 4 * 32
    calls.clear()
    half_plane_verdict(mixed4, num_angles=7)
    assert len(calls) == 4 * 7
    calls.clear()
    # the sums of squares take one SVD per dimension and no eigvalsh
    half_plane_verdict(gallery.build("dirichlet2"))
    assert calls == []


def test_half_plane_verdict_builds_each_profile_with_support_profile(monkeypatch):
    # the splitting is decided once, and every profile comes from the
    # public support_profile, where a wrapper around it can count the work
    dims, decided = [], []
    profile, decide = numrange.support_profile, quasiform.check_completely_regular

    def counted_profile(report, dim, num_angles):
        dims.append(dim)
        return profile(report, dim, num_angles)

    def counted_decide(spec):
        decided.append(spec)
        return decide(spec)

    monkeypatch.setattr(numrange, "support_profile", counted_profile)
    monkeypatch.setattr(quasiform, "check_completely_regular", counted_decide)
    dimensions = (8, 16, 32)
    report = half_plane_verdict(gallery.build("mixed4"), dimensions=dimensions, num_angles=8)
    assert dims == list(dimensions) == list(report.dimensions)
    assert len(decided) == 1


def test_indefinite_boundary_matrix_takes_eigenvalue_path():
    # -y'' with y'(0) + y(0) = 0 and y'(1) + 2 y(1) = 0 has q = r = 0 and
    # p_1 = 1, but its boundary matrix A = diag(-1, 2) is indefinite, so
    # F_N is no G^H G.  sigma(pi) = -lambda_min, where lambda_min = -k^2
    # belongs to y = cosh(kx) - sinh(kx) / k and k sinh k + cosh k
    # = 2 sinh(k) / k.
    k = 0.8711803574937484
    assert abs(k * math.sinh(k) + math.cosh(k) - 2 * math.sinh(k) / k) <= 1e-14
    spec = OperatorSpec(2, DivergenceForm.model(1),
                        (BoundaryRow((1, 1), (0, 0)), BoundaryRow((0, 0), (2, 1))))
    for dim in (8, 16, 32):
        profile = support_profile(spec, dim, num_angles=16)
        assert profile.angles[8] == math.pi
        # a rounding-level bound: the eigenvalue path's, not a factored
        # path's inflated by the change of A
        rounding = (dim + spec.order) * EPS * np.linalg.norm(split_form(spec, dim), 2)
        assert profile.bound <= 1.01 * rounding
        assert abs(profile.values[8] - k * k) <= profile.bound


def test_galerkin_dirichlet_is_nearly_hermitian():
    form = galerkin_form(gallery.build("dirichlet2"), 8)
    scale = np.abs(form).max()
    assert np.abs(form - form.conj().T).max() <= 1e-9 * scale


def test_galerkin_dirichlet_lowest_eigenvalue():
    # smallest eigenvalue of the constrained -y'' form approximates pi^2
    form = galerkin_form(gallery.build("dirichlet2"), 8)
    herm = 0.5 * (form + form.conj().T)
    lam = np.linalg.eigvalsh(herm).min()
    assert abs(lam - math.pi ** 2) <= 1e-6
    assert support_function(form, math.pi) == pytest.approx(-math.pi ** 2, abs=1e-6)


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------

def test_support_profile_structure():
    profile = support_profile(gallery.build("dirichlet2"), 8, num_angles=16)
    assert profile.dimension == 8
    assert len(profile.angles) == 16 and len(profile.values) == 16
    assert profile.angles[0] == 0.0
    assert profile.minimum == min(profile.values)


@pytest.mark.parametrize("name", ["dirichlet2", "mixed4"])
def test_support_profiles_nested(name):
    spec = gallery.build(name)
    smaller = support_profile(spec, 8, num_angles=24)
    larger = support_profile(spec, 16, num_angles=24)
    for lo, hi in zip(smaller.values, larger.values):
        assert hi >= lo - 1e-9 * max(1.0, abs(lo))


def test_profiles_to_csv_format(tmp_path):
    profiles = [support_profile(gallery.build("dirichlet2"), d, num_angles=8)
                for d in (4, 8)]
    path = tmp_path / "profiles.csv"
    profiles_to_csv(profiles, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "N,theta,sigma"
    assert len(lines) == 1 + 2 * 8
    n, theta, sigma = lines[1].split(",")
    assert n == "4" and float(theta) == 0.0
    assert math.isfinite(float(sigma))


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

VERDICTS = {
    "dirichlet2": "half_plane",
    "dirichlet4": "half_plane",
    "neumann2": "half_plane",
    "neumann4": "half_plane",
    "periodic2": "half_plane",
    "robin2": "half_plane",
    "mixed4": "whole_plane",
    "cauchy2": "whole_plane",
}


@pytest.mark.parametrize("name", sorted(VERDICTS))
def test_half_plane_verdicts(name):
    report = half_plane_verdict(gallery.build(name))
    assert report.verdict == VERDICTS[name], (name, report.minima)
    assert len(report.minima) == len(report.dimensions) == 4
    # minima never decrease with the dimension (up to eigensolver noise,
    # which scales with the matrix norm at high polynomial degree)
    for prev, nxt in zip(report.minima, report.minima[1:]):
        assert nxt >= prev - 1e-7 * max(1.0, abs(prev))


def test_dirichlet_minima_sit_at_first_eigenvalue():
    report = half_plane_verdict(gallery.build("dirichlet2"))
    for value in report.minima:
        assert abs(value - (-math.pi ** 2)) <= 1e-6


def test_neumann_minima_sit_at_zero():
    report = half_plane_verdict(gallery.build("neumann2"))
    for value in report.minima:
        assert abs(value) <= 1e-6


# References for the Galerkin minima over the 64-angle grid on the same
# trial spaces.  MIXED4_MINIMA and CAUCHY2_MINIMUM_64 come from a 150-digit
# mpmath computation of the same Galerkin problem;
# tests/test_reference_minima.py recomputes them, and the N = 16 Dirichlet
# values, at 40 digits wherever mpmath is installed.  From N = 16 on the
# Dirichlet minima equal the first eigenvalue to all digits: -pi^2, and
# -beta^4 with beta = 4.730040744862704 the first root of
# cos(beta) cosh(beta) = 1.  The free, periodic and Neumann forms
# contain the constants (and x), on which the form vanishes.
MIXED4_MINIMA = {8: 6.5198704888030, 16: 22.550427111805,
                 32: 143.61669464106, 64: 942.50475308943}
CAUCHY2_MINIMUM_64 = 1923267.4780295606
CLAMPED_BEAM_MINIMUM = -500.56390174043
MINIMUM_REFERENCES = {
    "mixed4": MIXED4_MINIMA,
    "cauchy2": {64: CAUCHY2_MINIMUM_64},
    "dirichlet2": {d: -math.pi ** 2 for d in (16, 32, 64)},
    "dirichlet4": {d: CLAMPED_BEAM_MINIMUM for d in (16, 32, 64)},
    "neumann2": {d: 0.0 for d in (8, 16, 32, 64)},
    "neumann4": {d: 0.0 for d in (8, 16, 32, 64)},
    "periodic2": {d: 0.0 for d in (8, 16, 32, 64)},
}


@pytest.mark.parametrize("name", sorted(MINIMUM_REFERENCES))
def test_minima_within_error_bounds(name):
    report = half_plane_verdict(gallery.build(name))
    assert report.dimensions == (8, 16, 32, 64)
    references = MINIMUM_REFERENCES[name]
    for dim, value, bound in zip(report.dimensions, report.minima, report.bounds):
        assert bound > 0
        if dim in references:
            assert abs(value - references[dim]) <= bound, (dim, value, bound)


def test_free_beam_minima_nondecreasing():
    report = half_plane_verdict(gallery.build("neumann4"))
    for prev, nxt in zip(report.minima, report.minima[1:]):
        assert nxt >= prev - 1e-12


def test_whole_plane_minima_grow():
    report = half_plane_verdict(gallery.build("mixed4"))
    for prev, nxt in zip(report.minima, report.minima[1:]):
        assert nxt >= 1.5 * prev


@pytest.mark.parametrize("minima, verdict", [
    ((2.0, 3.0, 4.5, 6.75), "whole_plane"),   # growth 1.5 at every doubling
    ((2.0, 3.0, 4.0, 6.0), "undetermined"),   # one doubling grows by 4/3 only
    ((0.5, 0.9, 2.0, 3.0), "whole_plane"),    # doublings from minima <= 1 are skipped
    ((1.0, 1.05), "half_plane"),              # within SLACK of the first minimum
])
def test_half_plane_verdict_rule(monkeypatch, minima, verdict):
    """The verdict rule alone, on fixed minima in place of computed ones."""
    dimensions = tuple(8 * 2 ** k for k in range(len(minima)))
    by_dimension = dict(zip(dimensions, minima))

    def fixed_profile(report, dim, num_angles):
        return numrange.SupportProfile(dim, (0.0,), (by_dimension[dim],), 0.0)

    monkeypatch.setattr(numrange, "support_profile", fixed_profile)
    report = half_plane_verdict(gallery.build("dirichlet2"), dimensions=dimensions)
    assert report.minima == minima
    assert report.verdict == verdict


def test_half_plane_verdict_needs_two_dimensions():
    with pytest.raises(ValueError):
        half_plane_verdict(gallery.build("dirichlet2"), dimensions=(8,))


@pytest.mark.parametrize("dimensions", [(8, 8), (16, 8, 16), (8, 8, 8)])
def test_half_plane_verdict_rejects_repeated_dimensions(dimensions):
    # one dimension twice is no growth test: mixed4 fills the plane, but
    # equal minima at (8, 8) would read "half_plane"
    with pytest.raises(ValueError, match="distinct"):
        half_plane_verdict(gallery.build("mixed4"), dimensions=dimensions)


@pytest.mark.parametrize("num_angles", [0, -3])
def test_empty_angle_grid_is_rejected(num_angles):
    spec = gallery.build("mixed4")
    with pytest.raises(ValueError, match="need at least one angle"):
        support_profile(spec, 8, num_angles=num_angles)
    with pytest.raises(ValueError, match="need at least one angle"):
        half_plane_verdict(spec, num_angles=num_angles)
