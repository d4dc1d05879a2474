"""Galerkin support functions and half-plane containment verdicts."""

import collections
import importlib
import inspect
import math
import random

import numpy as np
import pytest
from numpy.polynomial import legendre as L
from numpy.polynomial.polynomial import Polynomial

import oracles
from conftest import count_calls
from oracles import apply_to_jets, inner_01
from regbvp import gallery, legendre, numrange, quasiform
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
    parse_spec,
)
from regbvp.cli import profiles_to_csv
from regbvp.numrange import (
    constrained_basis,
    galerkin_form,
    half_plane_verdict,
    split_form,
    support_function,
    support_profiles,
)
from regbvp.legendre import derivative_matrix, endpoint_jets
from regbvp.quasiform import check_completely_regular, split_jets, verify_form_identity

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
        support_profiles(spec, (1,))


def _random_row_sets(seed, count):
    """``count`` seeded row sets cycling through orders 1-6, coupled and
    separated: coupled rows involve both ends with random derivative
    orders; separated ones put ceil(n/2) rows at 0 and the rest at 1,
    with distinct orders at each end.  Complex N(0, 1) coefficients."""
    rng = random.Random(seed)

    def vector(n, k):
        return tuple(complex(rng.gauss(0, 1), rng.gauss(0, 1)) if s <= k else 0j
                     for s in range(n))

    sets = []
    for i in range(count):
        n, coupled = 1 + i % 6, (i // 6) % 2 == 0
        if coupled:
            rows = tuple(BoundaryRow(vector(n, rng.randrange(j // 2, n)),
                                     vector(n, rng.randrange(j // 2, n))) for j in range(n))
        else:
            zero = (0j,) * n
            rows = (tuple(BoundaryRow(vector(n, k), zero) for k in rng.sample(range(n), n - n // 2))
                    + tuple(BoundaryRow(zero, vector(n, k)) for k in rng.sample(range(n), n // 2)))
        sets.append(OperatorSpec(n, ModelForm(), rows))
    return sets


def _row_matrix(spec, count):
    at0, at1 = endpoint_jets(count, spec.order)
    return np.array([np.asarray(row.a) @ at0 + np.asarray(row.b) @ at1 for row in spec.rows])


# Bounds on the componentwise residual max |R B| / (|R| |B|) of the
# boundary rows R on the basis B, per dimension: the worst that the
# construction from one kernel SVD of all the rows reached on random row
# sets of orders 1-6 (on the row sets below it reaches 1.5e-12 and
# 4.5e-9, the nested construction 1.5e-14 and 3.2e-13).
BASIS_RESIDUALS = {32: 1.3e-13, 128: 8.4e-12}


def _assert_nested_basis(spec, dim):
    n = spec.order
    basis = constrained_basis(spec, dim)
    assert basis.shape == (dim + n, dim)
    assert np.abs(basis.conj().T @ basis - np.eye(dim)).max() <= 1e-14
    rows = _row_matrix(spec, dim + n)
    scale = np.abs(rows) @ np.abs(basis)
    seen = scale > 0
    assert np.all(np.abs(rows @ basis)[~seen] == 0)
    residual = (np.abs(rows @ basis)[seen] / scale[seen]).max()
    assert residual <= BASIS_RESIDUALS[dim], (spec, dim, residual)
    for N in (8, 16, 32):
        if N <= dim:
            assert np.all(basis[N + n:, :N] == 0), (spec, dim, N)


@pytest.mark.parametrize("dim", [32, 128])
def test_constrained_basis_is_nested(dim):
    """The columns are orthonormal and satisfy the rows, and the first N
    vanish exactly from row N + n on, so they span V_N: for the gallery
    and 120 seeded row sets of orders 1-6."""
    specs = [gallery.build(name) for name in sorted(gallery.EXAMPLES)]
    for spec in specs + _random_row_sets(31, 120):
        _assert_nested_basis(spec, dim)


@pytest.mark.parametrize("rows", [
    # -y'' with y'(0) = 0 and y'(1) - 8 y(1) = 0: the window block on
    # modes 2 and 3 is singular, and the batched solve fails
    (BoundaryRow((0, 1), (0, 0)), BoundaryRow((0, 0), (-8, 1))),
    # y'(1) - 15 y(1) = 0: the block on modes 3 and 4 is singular to
    # working precision, and only its window takes the least-norm vector
    (BoundaryRow((0, 1), (0, 0)), BoundaryRow((0, 0), (-15, 1))),
    # y(0) + y(1) = 0 and y'(0) - y'(1) = 0: no row sees the odd modes
    (BoundaryRow((1, 0), (1, 0)), BoundaryRow((0, 1), (0, -1))),
], ids=["robin-8", "robin-15", "odd-modes-unseen"])
@pytest.mark.parametrize("dim", [32, 128])
def test_constrained_basis_nested_on_singular_windows(rows, dim):
    _assert_nested_basis(OperatorSpec(2, ModelForm(), rows), dim)


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


def test_form_pieces_match_symbolic_integration():
    # D_a^T X^j D_b holds (x^j phi_l^(b), phi_k^(a)) in row k, column l:
    # phi_k^(a) has degree below count, so the truncation of X^j changes
    # nothing, and the integral is exact
    count = 9
    for a in range(3):
        for b in range(3):
            for j in range(4):
                want = oracles.symbolic_form_piece(count, a, b, j)
                got = legendre.form_piece(count, a, b, j)
                assert np.abs(got - want).max() <= 64 * EPS * np.abs(want).max(), (a, b, j)


def test_form_pieces_are_cached_read_only():
    eye = legendre.form_piece(20, 0, 0, 0)
    assert np.array_equal(eye, np.eye(20))
    for a, b in ((1, 2), (2, 1)):
        piece = legendre.form_piece(20, a, b, 1)
        assert not piece.flags.writeable
        with pytest.raises(ValueError):
            piece[0, 0] = 1.0
    # b < a reads the transpose of the one cached piece
    assert np.shares_memory(legendre.form_piece(20, 2, 1, 1), legendre.form_piece(20, 1, 2, 1))


def test_split_form_builds_each_piece_once():
    # a second form of the same order, whose p, q and r have no higher
    # degree, at the same count builds no new piece; a cold and a warm
    # cache give the same bits
    rng = random.Random(5)
    quadratic = DivergenceForm(1, p=(Poly((1, 2j, 3)), ONE), q=(ZERO, Poly((1j, 1, 2))),
                               r=(ZERO, Poly((2, 1j, 1))))
    rows = _random_coupled_rows(rng, 2)
    first = OperatorSpec(2, quadratic, rows)
    second = OperatorSpec(2, _random_form(rng, 1), rows)
    legendre._piece.cache_clear()
    cold = split_form(first, 32)
    built = legendre._piece.cache_info().misses
    # (0, 0) and (0, 1) with x^0, x^1 and x^2, (1, 1) with x^0 (p_1 = 1);
    # r_1 reads the transposes of (0, 1)
    assert built == 7
    assert np.array_equal(split_form(first, 32), cold)
    split_form(second, 32)
    assert legendre._piece.cache_info().misses == built


@pytest.mark.parametrize("count", [8, 33, 132])
def test_multiplication_matches_legmul(count):
    """Horner's rule on the three-term recurrence of x agrees with numpy's
    Legendre multiplication (the oracle here), truncated to degree below
    count, within a few ulps of the largest entry."""
    rng = np.random.default_rng(count)
    norms = np.sqrt(2.0 * np.arange(count) + 1.0)
    coeffs = rng.normal(size=(count, 3)) + 1j * rng.normal(size=(count, 3))
    for degree in range(4):
        poly = Poly(tuple(complex(*rng.normal(size=2)) for _ in range(degree + 1)))
        series = Polynomial(poly.coeffs).convert(kind=L.Legendre, domain=[0.0, 1.0])
        want = np.stack([L.legmul(series.coef, col * norms)[:count] for col in coeffs.T],
                        axis=1) / norms[:, None]
        got = legendre.multiplication(poly, coeffs)
        assert np.abs(got - want).max() <= 16 * EPS * np.abs(want).max(), degree


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
        support_profiles(spec, (8,))
    with pytest.raises(SpecError):
        split_form(spec, 8)


@pytest.mark.parametrize("name", sorted(gallery.EXAMPLES))
def test_support_paths_agree_with_rotated_eigenvalues(name):
    # the factored path (the sums of squares: every completely regular
    # example) and the paired eigenvalue path (one eigvalsh per antipodal
    # pair), read off the leading blocks of one assembly, give what one
    # eigvalsh per angle of the split matrix assembled at each dimension
    # gives, within the eigvalsh error bound
    spec = gallery.build(name)
    for profile in support_profiles(spec, (8, 16), num_angles=16):
        dim = profile.dimension
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
    for profile in support_profiles(spec, (8, 16, 32), num_angles=num_angles):
        dim = profile.dimension
        form = split_form(spec, dim)
        assert len(profile.values) == num_angles
        for theta, value in zip(profile.angles, profile.values):
            assert abs(value - support_function(form, theta)) <= profile.bound, (dim, theta)


def _indefinite_spec():
    """-y'' with y'(0) + y(0) = 0 and y'(1) + 2 y(1) = 0: q = r = 0 and
    p_1 = 1, but the boundary matrix A = diag(-1, 2) is indefinite, so
    the form takes the eigenvalue path and its values stay in a
    half-plane."""
    return OperatorSpec(2, DivergenceForm.model(1),
                        (BoundaryRow((1, 1), (0, 0)), BoundaryRow((0, 0), (2, 1))))


def _count_solves(monkeypatch):
    """Counters of eigvalsh and of eigh calls by matrix size (the last
    axis, so that a stack of 2 x 2 compressions counts once, under 2)."""
    eigvalsh, eigh = collections.Counter(), collections.Counter()

    def counting(solve, calls):
        def counted(matrix):
            calls[matrix.shape[-1]] += 1
            return solve(matrix)
        return counted

    monkeypatch.setattr(np.linalg, "eigvalsh", counting(np.linalg.eigvalsh, eigvalsh))
    monkeypatch.setattr(np.linalg, "eigh", counting(np.linalg.eigh, eigh))
    return eigvalsh, eigh


def _counted(solve, shapes):
    """``solve``, counting the shapes of the matrices it is given."""
    def counted(matrix, *args, **kwargs):
        shapes[matrix.shape] += 1
        return solve(matrix, *args, **kwargs)
    return counted


@pytest.mark.parametrize("spec, num_angles, solves, ritz, eigh", [
    # a dimension takes one Ritz step when the solve after its first one
    # is not already pruned: always at the smallest dimension, where no
    # floor exists yet; each Ritz step brings one stacked 2 x 2 eigvalsh
    # and no eigh.  Then only the solves whose floor, less both error
    # bounds, is not above the best value found at this dimension, and
    # one eigvalsh of F_N^H F_N per dimension for the error bound
    (gallery.build("mixed4"), 64, {2: 4, 8: 26, 16: 14, 32: 2, 64: 12},
     {8: 1, 16: 1, 32: 1, 64: 1}, {}),
    (gallery.build("mixed4"), 7, {2: 4, 8: 4, 16: 3, 32: 3, 64: 3},
     {8: 1, 16: 1, 32: 1, 64: 1}, {}),
    # the 2 x 2 eigh is the one of the boundary matrix A that rules out
    # the factored path
    (_indefinite_spec(), 64, {2: 1, 8: 3, 16: 2, 32: 2, 64: 2}, {8: 1}, {2: 1}),
    (_indefinite_spec(), 7, {2: 4, 8: 4, 16: 3, 32: 3, 64: 3},
     {8: 1, 16: 1, 32: 1, 64: 1}, {2: 1}),
    # the sums of squares take one SVD per dimension and no eigvalsh
    (gallery.build("dirichlet2"), 64, {}, {}, {2: 1}),
], ids=["mixed4", "mixed4-odd", "indefinite", "indefinite-odd", "dirichlet2"])
def test_pruned_search_solve_counts(monkeypatch, spec, num_angles, solves, ritz, eigh):
    eigvalsh, eigh_calls = _count_solves(monkeypatch)
    # np.linalg.norm reaches its SVD through the module it is defined in
    svd_shapes = collections.Counter()
    for module in (np.linalg, importlib.import_module(inspect.unwrap(np.linalg.norm).__module__)):
        monkeypatch.setattr(module, "svd", _counted(module.svd, svd_shapes))
    ritz_steps = collections.Counter()
    ritz_floors = numrange._ritz_floors

    def counted(form, *args):
        ritz_steps[form.shape[0]] += 1
        return ritz_floors(form, *args)

    monkeypatch.setattr(numrange, "_ritz_floors", counted)
    report = half_plane_verdict(spec, num_angles=num_angles)
    assert report.dimensions == (8, 16, 32, 64)
    assert dict(eigvalsh) == solves
    assert dict(ritz_steps) == ritz
    assert dict(eigh_calls) == eigh
    # the norm of F_N comes from the eigenvalues of F_N^H F_N: no N x N SVD
    assert not [shape for shape in svd_shapes if shape in {(d, d) for d in report.dimensions}]


def test_half_plane_verdict_decides_splitting_once(monkeypatch):
    # the splitting is decided once, and the ladder is assembled once, at
    # its largest dimension: every smaller matrix is a leading block
    dims = []
    assemble = numrange.split_form

    def counted_assemble(spec, dim):
        dims.append(dim)
        return assemble(spec, dim)

    monkeypatch.setattr(numrange, "split_form", counted_assemble)
    decided = count_calls(monkeypatch, quasiform, "quasi_transition")
    quasiform._splitting.cache_clear()
    dimensions = (8, 16, 32)
    report = half_plane_verdict(gallery.build("mixed4"), dimensions=dimensions, num_angles=8)
    assert dims == [max(dimensions)]
    assert report.dimensions == dimensions
    assert len(decided) == 1


def test_numerical_range_and_form_identity_split_once(monkeypatch):
    # the identity, the verdict and the profiles of one operator read one
    # cached splitting
    spec, = _random_forms(31, 1)
    assert spec.order == 2
    decided = count_calls(monkeypatch, quasiform, "quasi_transition")
    quasiform._splitting.cache_clear()
    verify_form_identity(spec, np.eye(2))
    half_plane_verdict(spec)
    support_profiles(spec, (8, 16), num_angles=8)
    assert len(decided) == 1


def _coefficients(rng, n, k):
    """n complex coefficients, random on y^(0..k) and zero above."""
    return tuple(complex(rng.gauss(0, 1), rng.gauss(0, 1)) if s <= k else 0j
                 for s in range(n))


def _random_rows(rng, n, coupled):
    """n random complex rows: coupled ones involve both ends; separated
    ones put n/2 rows at each end, with the same derivative orders at
    both ends (y at one end and y' at the other is ROADMAP item 1)."""
    if coupled:
        return _random_coupled_rows(rng, n)
    orders = rng.sample(range(n), n // 2)
    zero = (0j,) * n
    return (tuple(BoundaryRow(_coefficients(rng, n, k), zero) for k in orders)
            + tuple(BoundaryRow(zero, _coefficients(rng, n, k)) for k in orders))


def _random_forms(seed, count):
    """``count`` seeded complex forms, cycling through orders 2 and 4 with
    separated and coupled rows."""
    rng = random.Random(seed)
    return [OperatorSpec(n, _random_form(rng, n // 2), _random_rows(rng, n, coupled))
            for n, coupled in [((2, 4)[i % 2], i % 4 >= 2) for i in range(count)]]


def _whole_plane_candidates(seed, count):
    """``count`` seeded forms among which whole-plane ones are common,
    cycling through orders 2 and 4 with coupled rows of random derivative
    orders (row j has an order k from floor(j/2)..n-1 and coefficients on
    y^(0..k) at both ends, as in forms-random) and order 4 with separated
    rows, the one kind of :func:`_random_forms` that gives whole-plane
    forms."""
    rng = random.Random(seed)
    specs = []
    for i in range(count):
        n = (2, 4, 4)[i % 3]
        form = _random_form(rng, n // 2)
        if i % 3 == 2:
            rows = _random_rows(rng, n, False)
        else:
            orders = [rng.randrange(j // 2, n) for j in range(n)]
            rows = tuple(BoundaryRow(_coefficients(rng, n, k), _coefficients(rng, n, k))
                         for k in orders)
        specs.append(OperatorSpec(n, form, rows))
    return specs


def _assert_full_grid_minima(spec, dimensions, num_angles):
    verdict = half_plane_verdict(spec, dimensions=dimensions, num_angles=num_angles)
    profiles = support_profiles(spec, sorted(dimensions), num_angles)
    assert verdict.minima == tuple(min(p.values) for p in profiles)
    assert verdict.bounds == tuple(p.bound for p in profiles)


# the gallery and seeded random forms of orders 2 and 4, with coupled
# and separated rows
ORACLE_SPECS = ([gallery.build(name) for name in sorted(gallery.EXAMPLES)]
                + _random_forms(34, 16))


@pytest.mark.parametrize("spec", ORACLE_SPECS,
                         ids=sorted(gallery.EXAMPLES) + [f"random{i}" for i in range(16)])
def test_split_form_matches_the_pairwise_oracle(spec):
    # the split form on the coefficients, K = sum c D_a^T X^j D_b, then
    # two products with the basis, is the per-term sum over the jets
    # regrouped: the two differ by rounding only, also below the order
    for dim in (1, 2, 8, 16, 64):
        try:
            want = oracles.pairwise_split_form(spec, dim)
        except SpecError:       # rows that lose rank on so small a space
            with pytest.raises(SpecError):
                split_form(spec, dim)
            continue
        gap = np.linalg.norm(split_form(spec, dim) - want, 2)
        assert gap <= 8 * (dim + spec.order) * EPS * np.linalg.norm(want, 2), dim


@pytest.mark.parametrize("name", sorted(gallery.EXAMPLES))
def test_verdict_minima_are_full_grid_minima_on_gallery(name):
    spec = gallery.build(name)
    _assert_full_grid_minima(spec, numrange.DEFAULT_DIMENSIONS, numrange.DEFAULT_ANGLES)
    _assert_full_grid_minima(spec, (8, 16, 32, 48), 7)


def test_verdict_minima_are_full_grid_minima_on_random_forms():
    # the pruned search skips only angles whose values cannot be the
    # minimum, so every minimum is the float of the full grid: on an
    # even grid, an odd one and a ladder that does not double
    eigenvalue_path = 0
    for spec in _random_forms(101, 120):
        report = check_completely_regular(spec)
        eigenvalue_path += numrange._factor(report) is None
        _assert_full_grid_minima(spec, (8, 16, 32), 32)
        _assert_full_grid_minima(spec, (8, 16, 32, 48), 7)
    assert eigenvalue_path >= 100


def test_ritz_floors_are_lower_bounds(monkeypatch):
    # the premise of the Ritz floors: a Ritz value on a subspace of V_N is
    # at most sigma_N, so every floor is at most the full-grid value of
    # its solve, up to the two error bounds of its dimension
    floors = []
    ritz_floors = numrange._ritz_floors

    def recorded(form, herm, lo, hi, shift, angles, pairs, pending):
        values = ritz_floors(form, herm, lo, hi, shift, angles, pairs, pending)
        floors.append((form.shape[0], list(pending), values))
        return values

    monkeypatch.setattr(numrange, "_ritz_floors", recorded)
    specs = [gallery.build(name) for name in sorted(gallery.EXAMPLES)] + _random_forms(25, 100)
    checked = set()
    for spec in specs:
        for num_angles in (32, 7):
            floors.clear()
            half_plane_verdict(spec, dimensions=(8, 16, 32, 64), num_angles=num_angles)
            profiles = {p.dimension: p for p in support_profiles(spec, (8, 16, 32, 64),
                                                                  num_angles)}
            solves, _ = numrange._grid(profiles[8].angles)
            for dim, pending, values in floors:
                profile = profiles[dim]
                for j, floor in zip(pending, values):
                    # solve j: angle j and, on an even grid, angle j + solves
                    least = min(profile.values[j::solves])
                    assert floor <= least + 2 * profile.bound, (dim, j)
                    checked.add(dim)
    # the smallest dimension always takes Ritz floors; the larger ones on
    # the forms whose next solve is not pruned by the smaller dimensions
    assert checked == {8, 16, 32, 64}


def test_verdict_minima_are_full_grid_minima_where_ritz_floors_prune(monkeypatch):
    # the whole-plane forms are where the Ritz floors save solves: their
    # minima are still the floats of the full grid, and at N = 128 they
    # solve a few of the 32 antipodal pairs, not nearly all of them
    eigvalsh, _ = _count_solves(monkeypatch)
    ladder = (8, 16, 32, 64, 128)
    whole_plane = []
    for spec in _whole_plane_candidates(26, 60):
        eigvalsh.clear()
        if half_plane_verdict(spec, dimensions=ladder).verdict == "whole_plane":
            # less the one eigvalsh of F_N^H F_N for the error bound
            whole_plane.append(eigvalsh[128] - 1)
        _assert_full_grid_minima(spec, ladder, 64)
        _assert_full_grid_minima(spec, ladder, 7)
    assert len(whole_plane) >= 15
    assert sum(whole_plane) / len(whole_plane) <= 4


# The forms-random operation of seed 902, round 50 (from 0), operation 1:
# p_0 = 0, q_1 constant and coupled rows.  At N = 32, H_N less one of its
# computed extreme eigenvalues is exactly singular to LU, so an inverse
# iteration at that eigenvalue raises LinAlgError.
SINGULAR_AT_ITS_EIGENVALUE = {
    "order": 2,
    "form": {"type": "divergence", "p": {"0": []},
             "q": {"1": [[1.1791296863589416, -1.4860116946034334]]}, "r": {"1": []}},
    "boundary_conditions": [
        {"a": {"0": [0.9305179724460204, -0.5895092156444638],
               "1": [0.9311697066020355, 0.6381722247513164]},
         "b": {"0": [0.5975771514157497, 1.0046592202501803],
               "1": [-0.3199931335432879, -2.361399112756212]}},
        {"a": {"0": [0.606050714989054, -0.9256672885250171],
               "1": [-0.3522532240444254, -0.7588933128083309]},
         "b": {"0": [1.758112554102754, 0.31359264948178944],
               "1": [-0.1493574115071184, -0.6424706955156265]}},
    ],
}


@pytest.mark.parametrize("num_angles", [64, 7])
def test_ritz_steps_solve_off_the_computed_eigenvalues(num_angles):
    # a Ritz step solves at the error bound beyond each extreme
    # eigenvalue, where the shifted H_N is definite; the odd grid takes
    # Ritz steps too, and shifts lambda_min as well as lambda_max
    spec = parse_spec(SINGULAR_AT_ITS_EIGENVALUE)
    _assert_full_grid_minima(spec, (8, 16, 32, 64, 128), num_angles)


def test_verdict_minima_are_full_grid_minima_at_dimension_one():
    # V_1 has one basis vector, so a Ritz step compresses onto it alone;
    # a zero F_1 (bound 0) has no definite shift and takes no Ritz step
    zero = OperatorSpec(2, DivergenceForm(1, (ZERO, ONE), (ZERO, Poly((1j,))), (ZERO, ZERO)),
                        gallery.build("neumann2").rows)
    assert not split_form(zero, 1).any()
    for spec in [zero] + _random_forms(41, 24):
        _assert_full_grid_minima(spec, (1, 2, 8), 8)
        _assert_full_grid_minima(spec, (1, 2, 8), 7)


@pytest.mark.parametrize("name", ["mixed4", "dirichlet4"])
def test_dimensions_below_the_order_take_their_own_assembly(name):
    # below the order the leading block of the largest matrix is not
    # F_N, so such a dimension of a ladder is assembled on its own: its
    # profile is the one of a one-element ladder, on the eigenvalue path
    # (mixed4) and on the factored one (dirichlet4)
    spec = gallery.build(name)
    ladder = support_profiles(spec, (2, 3, 16), num_angles=16)
    for profile in ladder[:2]:
        alone, = support_profiles(spec, (profile.dimension,), num_angles=16)
        assert profile == alone


def test_support_values_nested_within_error_bounds():
    # the premise of the pruned search: the trial spaces are nested, so
    # sigma_N(theta) >= sigma_M(theta) for M < N at every angle, up to
    # the two error bounds
    checked = 0
    for spec in _random_forms(202, 24):
        report = check_completely_regular(spec)
        if numrange._factor(report) is not None:    # not the eigenvalue path
            continue
        profiles = support_profiles(spec, (8, 16, 32, 64, 128), num_angles=16)
        for i, small in enumerate(profiles):
            for large in profiles[i + 1:]:
                for lo, hi in zip(small.values, large.values):
                    assert hi >= lo - (small.bound + large.bound), (small.dimension,
                                                                   large.dimension)
                    checked += 1
    assert checked >= 20 * 10 * 16


def test_indefinite_boundary_matrix_takes_eigenvalue_path():
    # -y'' with y'(0) + y(0) = 0 and y'(1) + 2 y(1) = 0 has q = r = 0 and
    # p_1 = 1, but its boundary matrix A = diag(-1, 2) is indefinite, so
    # F_N is no G^H G.  sigma(pi) = -lambda_min, where lambda_min = -k^2
    # belongs to y = cosh(kx) - sinh(kx) / k and k sinh k + cosh k
    # = 2 sinh(k) / k.
    k = 0.8711803574937484
    assert abs(k * math.sinh(k) + math.cosh(k) - 2 * math.sinh(k) / k) <= 1e-14
    spec = _indefinite_spec()
    for profile in support_profiles(spec, (8, 16, 32), num_angles=16):
        dim = profile.dimension
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
    profile, = support_profiles(gallery.build("dirichlet2"), (8,), num_angles=16)
    assert profile.dimension == 8
    assert len(profile.angles) == 16 and len(profile.values) == 16
    assert profile.angles[0] == 0.0
    assert profile.minimum == min(profile.values)


@pytest.mark.parametrize("name", ["dirichlet2", "mixed4"])
def test_support_profiles_nested(name):
    spec = gallery.build(name)
    smaller, larger = support_profiles(spec, (8, 16), num_angles=24)
    for lo, hi in zip(smaller.values, larger.values):
        assert hi >= lo - 1e-9 * max(1.0, abs(lo))


def test_profiles_to_csv_format(tmp_path):
    profiles = support_profiles(gallery.build("dirichlet2"), (4, 8), num_angles=8)
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
# sigma_32(pi / 2) of mixed4 on the 32-angle grid: a support value away
# from the minimum, where the bound of the eigenvalue path holds as well
MIXED4_SUPPORT_32 = 2462558.973800453133245
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


def test_support_value_away_from_the_minimum_within_its_bound():
    profile, = support_profiles(gallery.build("mixed4"), (32,), num_angles=32)
    assert profile.angles[8] == math.pi / 2
    assert abs(profile.values[8] - MIXED4_SUPPORT_32) <= profile.bound, profile.bound


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
def test_half_plane_verdict_rule(minima, verdict):
    """The verdict rule alone, on fixed minima in place of computed ones."""
    dimensions = tuple(8 * 2 ** k for k in range(len(minima)))
    report = numrange.HalfPlaneReport.from_minima(dimensions, minima, (0.0,) * len(minima))
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
        support_profiles(spec, (8,), num_angles=num_angles)
    with pytest.raises(ValueError, match="need at least one angle"):
        half_plane_verdict(spec, num_angles=num_angles)
