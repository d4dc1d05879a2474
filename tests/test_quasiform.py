"""Quasi-derivative splitting and the complete-regularity criterion."""

import math
import random

import numpy as np
import pytest

import oracles
from conftest import count_calls, make_row
from oracles import apply_to_jets, inner_01
from regbvp import gallery, legendre, quasiform
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
    operator_coefficients,
    parse_spec,
    spec_to_document,
)
from regbvp.quasiform import (
    ANGLE_TOL,
    check_completely_regular,
    quasi_jets,
    quasi_transition,
    verify_form_identity,
)


def _nontrivial_form():
    """Fourth-order divergence expression with all blocks populated."""
    return DivergenceForm(
        2,
        p=(Poly((1, -1)), Poly((0, 2)), ONE),
        q=(ZERO, Poly((3,)), Poly((0, 0, 1))),
        r=(ZERO, Poly((1j,)), Poly((2, 1))),
    )


def _nontrivial_spec():
    return OperatorSpec(4, _nontrivial_form(), gallery.build("dirichlet4").rows)


def _quasi_jet_values(form, y, x):
    """Evaluate (y^[0], ..., y^[2m]) at x via the jet polynomials."""
    jets = quasi_jets(form)
    return [sum(row[s](x) * y.derivative(s)(x) for s in range(len(row)))
            for row in jets]


# ---------------------------------------------------------------------------
# Quasi-derivative recurrence
# ---------------------------------------------------------------------------

def test_quasi_jets_start_as_plain_derivatives():
    jets = quasi_jets(_nontrivial_form())
    for j in range(2):  # j < m rows are the identity on the ordinary jet
        for s, p in enumerate(jets[j]):
            if s == j:
                assert p.coeffs == (1 + 0j,)
            else:
                assert p.is_zero()


def test_quasi_jet_top_row_is_the_expression(rng):
    form = _nontrivial_form()
    coeffs = operator_coefficients(_nontrivial_spec())
    for _ in range(5):
        y = Poly(tuple(rng.normal(size=7) + 1j * rng.normal(size=7)))
        x = float(rng.random())
        top = _quasi_jet_values(form, y, x)[-1]
        direct = sum(c(x) * y.derivative(j)(x) for j, c in enumerate(coeffs) if c)
        assert abs(top - direct) <= 1e-9 * max(1.0, abs(direct))


def test_quasi_transition_triangular_unit_diagonal():
    for spec in (gallery.build("dirichlet4"), _nontrivial_spec()):
        m = spec.form.m
        n = 2 * m
        for mat in quasi_transition(spec):
            assert np.allclose(np.triu(mat, 1), 0.0, atol=1e-12)
            diag = np.diagonal(mat)
            want = [1.0 if j <= m else (-1.0) ** (j - m) for j in range(n)]
            assert np.allclose(diag, want, atol=1e-12)
            assert abs(abs(np.linalg.det(mat)) - 1.0) < 1e-9


def _random_poly(rng):
    return Poly(tuple(complex(rng.gauss(0, 1), rng.gauss(0, 1))
                      for _ in range(rng.randrange(0, 4))))


def _random_clamped_spec(rng, n=4):
    """Complex polynomial p, q, r of degree below 3 with p_m = 1, on the
    clamped rows y^(s)(0) = y^(s)(1) = 0, s < n/2."""
    m = n // 2
    form = DivergenceForm(
        m,
        p=tuple(_random_poly(rng) for _ in range(m)) + (ONE,),
        q=(ZERO,) + tuple(_random_poly(rng) for _ in range(m)),
        r=(ZERO,) + tuple(_random_poly(rng) for _ in range(m)),
    )
    return OperatorSpec(n, form, gallery.build(f"dirichlet{n}").rows)


def test_quasi_transition_accepts_random_fourth_order_forms():
    # the recurrence and the expansion add the same products in different
    # orders, so their coefficients may differ in the last bits
    rng = random.Random(7)
    for _ in range(200):
        at_zero, _ = quasi_transition(_random_clamped_spec(rng))
        assert abs(abs(np.linalg.det(at_zero)) - 1.0) < 1e-9


def test_quasi_transition_rejects_wrong_expansion(monkeypatch):
    expand = quasiform.expand_divergence

    def perturbed(form):
        coeffs = list(expand(form))
        coeffs[1] = coeffs[1] + Poly((1.0,))
        return tuple(coeffs)

    monkeypatch.setattr(quasiform, "expand_divergence", perturbed)
    with pytest.raises(AssertionError):
        quasi_transition(_random_clamped_spec(random.Random(7)))


def test_quasi_transition_requires_divergence_form():
    spec = OperatorSpec(2, ClassicalForm(),
                        (make_row(2, a=((0, 1),)), make_row(2, b=((0, 1),))))
    with pytest.raises(SpecError):
        quasi_transition(spec)


def test_model_form_splits_like_its_divergence_form():
    """An even-order model form is rewritten in divergence form: with
    dirichlet2's rows it gives dirichlet2's splitting, bit for bit."""
    reference = gallery.build("dirichlet2")
    model = OperatorSpec(2, ModelForm(), reference.rows)
    expected = check_completely_regular(reference)
    report = check_completely_regular(model)
    assert report.spec == reference
    for name in ("B", "C", "at_zero", "at_one"):
        assert np.array_equal(getattr(report, name), getattr(expected, name))
    for mat, name in zip(quasi_transition(model), ("at_zero", "at_one")):
        assert np.array_equal(mat, getattr(expected, name))
    assert np.array_equal(report.A, expected.A)
    assert verify_form_identity(model) == verify_form_identity(reference)


# ---------------------------------------------------------------------------
# Split form B y_wedge + C y_vee = 0
# ---------------------------------------------------------------------------

def _wedge_and_vee(form, y):
    m = form.m
    q0 = _quasi_jet_values(form, y, 0.0)
    q1 = _quasi_jet_values(form, y, 1.0)
    wedge = ([y.derivative(s)(0.0) for s in range(m)]
             + [y.derivative(s)(1.0) for s in range(m)])
    vee = ([q0[2 * m - 1 - i] for i in range(m)]
           + [-q1[2 * m - 1 - i] for i in range(m)])
    return np.array(wedge), np.array(vee)


@pytest.mark.parametrize("name", ["dirichlet2", "robin2", "mixed4", "neumann4"])
def test_split_reproduces_rows_on_random_polynomials(name, rng):
    spec = gallery.build(name)
    split = check_completely_regular(spec)
    n = spec.order
    for _ in range(5):
        y = Poly(tuple(rng.normal(size=n + 4) + 1j * rng.normal(size=n + 4)))
        wedge, vee = _wedge_and_vee(spec.form, y)
        jet0 = [y.derivative(s)(0.0) for s in range(n)]
        jet1 = [y.derivative(s)(1.0) for s in range(n)]
        direct = np.array([apply_to_jets(row, jet0, jet1) for row in spec.rows])
        via_split = split.B @ wedge + split.C @ vee
        assert np.allclose(via_split, direct, atol=1e-9 * max(1.0, np.abs(direct).max()))


def test_split_layout_labels():
    split = check_completely_regular(gallery.build("dirichlet4"))
    assert split.B.shape == (4, 4) and split.C.shape == (4, 4)
    # y^[0..3] at 0 and at 1 stand for 0..3 and 10..13
    wedge, vee = quasiform.wedge_vee(np.arange(4.0), np.arange(10.0, 14.0))
    assert wedge.tolist() == [0.0, 1.0, 10.0, 11.0]
    assert vee.tolist() == [3.0, 2.0, -13.0, -12.0]


def rows_from_split(spec, B, C):
    """Inverse of the row split of :func:`check_completely_regular`:
    boundary rows realizing given (B, C) for the expression of ``spec``
    (whose own rows are ignored)."""
    m = spec.form.m
    n = 2 * m
    B = np.asarray(B, dtype=complex)
    C = np.asarray(C, dtype=complex)
    at_zero, at_one = quasi_transition(spec)
    rows = []
    for j in range(n):
        alpha = np.zeros(n, dtype=complex)
        beta = np.zeros(n, dtype=complex)
        alpha[:m] = B[j, :m]
        beta[:m] = B[j, m:]
        for i in range(m):
            alpha[n - 1 - i] += C[j, i]
            beta[n - 1 - i] += -C[j, m + i]
        a = alpha @ at_zero
        b = beta @ at_one
        rows.append(BoundaryRow(tuple(a), tuple(b)))
    return tuple(rows)


def test_rows_from_split_round_trip(rng):
    spec = _nontrivial_spec()
    split = check_completely_regular(spec)
    rebuilt = rows_from_split(spec, split.B, split.C)
    again = check_completely_regular(OperatorSpec(spec.order, spec.form, rebuilt))
    assert np.allclose(again.B, split.B, atol=1e-9)
    assert np.allclose(again.C, split.C, atol=1e-9)
    # the rebuilt rows span the original ones
    stacked = np.vstack([
        np.array([row.as_vector() for row in spec.rows]),
        np.array([row.as_vector() for row in rebuilt]),
    ])
    assert np.linalg.matrix_rank(stacked, tol=1e-8) == spec.order


# ---------------------------------------------------------------------------
# Complete regularity verdicts
# ---------------------------------------------------------------------------

CR_EXPECTED = {
    "dirichlet2": True,
    "dirichlet4": True,
    "neumann2": True,
    "neumann4": True,
    "periodic2": True,
    "robin2": True,
    "mixed4": False,
    "cauchy2": False,
}


@pytest.mark.parametrize("name", sorted(CR_EXPECTED))
def test_complete_regularity_verdicts(name):
    report = check_completely_regular(gallery.build(name))
    assert report.completely_regular == CR_EXPECTED[name], name


@pytest.mark.parametrize("n", [2, 4])
def test_clamped_rows_completely_regular_for_random_forms(n):
    """Clamped rows see no quasi-derivative of order m or above, so C is
    exactly zero and every expression is completely regular with A = 0.
    A pivoted inverse of the transition matrices left rounding noise in
    C, which counted as rank."""
    rng = random.Random(7)
    for _ in range(50):
        spec = _random_clamped_spec(rng, n)
        report = check_completely_regular(spec)
        assert not report.C.any()
        assert report.completely_regular, report.max_angle
        assert not report.A.any()


def test_mixed_fourth_order_angle_is_quarter_pi():
    report = check_completely_regular(gallery.build("mixed4"))
    assert abs(report.max_angle - math.pi / 4) <= 1e-8
    assert report.A is None


def test_cauchy_angle_is_half_pi():
    report = check_completely_regular(gallery.build("cauchy2"))
    assert abs(report.max_angle - math.pi / 2) <= 1e-8


@pytest.mark.parametrize("angle, verdict", [(1e-10, True), (1e-6, False)])
def test_small_principal_angles_resolved(angle, verdict):
    """Preimage span{(cos t, 0, sin t, 0), e2} against (ker C)^perp =
    span{e1, e2}: principal angles t and 0.  arccos of the cosines reads
    t = 1e-10 as 0 and t = 1e-6 only to about 1e-8."""
    c, s = math.cos(angle), math.sin(angle)
    B = np.array([[0, 0, 0, 0], [0, 0, 0, 0], [-s, 0, c, 0], [0, 0, 0, 1]], dtype=complex)
    C = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    dirichlet4 = gallery.build("dirichlet4")
    rows = rows_from_split(dirichlet4, B, C)
    report = check_completely_regular(OperatorSpec(4, dirichlet4.form, rows))
    assert report.max_angle == pytest.approx(angle, rel=1e-6)
    assert report.completely_regular is verdict
    assert (report.max_angle <= ANGLE_TOL) is verdict


def test_boundary_form_matrices_frozen():
    a_robin = check_completely_regular(gallery.build("robin2")).A
    assert np.allclose(a_robin, np.diag([1.0, 2.0]), atol=1e-10)
    a_dir = check_completely_regular(gallery.build("dirichlet2")).A
    assert np.allclose(a_dir, 0.0, atol=1e-10)
    assert check_completely_regular(gallery.build("mixed4")).A is None
    with pytest.raises(SpecError):
        verify_form_identity(gallery.build("mixed4"))


def test_identity_vee_block_gives_a_equals_minus_b(rng):
    """Rows with C = I are always completely regular, with boundary
    matrix -B (solve B w + C v = 0 for v)."""
    spec = gallery.build("dirichlet4")
    for _ in range(5):
        B = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rows = rows_from_split(spec, B, np.eye(4))
        candidate = OperatorSpec(4, spec.form, rows)
        report = check_completely_regular(candidate)
        assert report.completely_regular
        assert np.allclose(report.A, -B, atol=1e-8 * max(1.0, np.abs(B).max()))


@pytest.mark.xfail(strict=True, reason="an invertible C is misread as not completely "
                   "regular; the fix lands with ROADMAP open item 1 (form-domain trial space)")
def test_invertible_vee_block_is_completely_regular():
    """An invertible C makes B^{-1}(im C) the whole space, so the splitting
    is completely regular with A = -C^{-1} B, and the form identity holds
    with that A.  Here C has singular values 1.41 and 1, but the projector
    onto (im C)^perp comes out as rounding noise (about 4e-16) instead of
    zero, and null_space judges that noise against its own largest
    singular value: the preimage gets dimension 1 against 2."""
    rows = (BoundaryRow((-1, 1 + 1j), (0, 0)), BoundaryRow((0, 0), (2j, 1)))
    spec = OperatorSpec(2, ModelForm(), rows)
    split = check_completely_regular(spec)
    assert np.linalg.svd(split.C, compute_uv=False).min() >= 0.5
    assert verify_form_identity(spec, A=-np.linalg.solve(split.C, split.B)) <= 1e-12
    assert check_completely_regular(spec).completely_regular


def test_angle_invariant_under_recombination(rng):
    spec = gallery.build("mixed4")
    base = check_completely_regular(spec).max_angle
    for _ in range(10):
        mixed = oracles.remix_spec(rng, spec)
        report = check_completely_regular(mixed)
        assert not report.completely_regular
        assert abs(report.max_angle - base) <= 1e-8


# ---------------------------------------------------------------------------
# Quadratic-form identity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["dirichlet2", "neumann2", "robin2", "periodic2",
                                  "dirichlet4", "neumann4"])
def test_form_identity_residual(name):
    residual = verify_form_identity(gallery.build(name))
    assert residual <= 1e-8, (name, residual)
    assert verify_form_identity(gallery.build(name)) == residual


@pytest.mark.parametrize("n", [2, 4])
def test_form_identity_on_random_clamped_forms(n):
    rng = random.Random(11)
    for _ in range(10):
        spec = _random_clamped_spec(rng, n)
        residual = verify_form_identity(spec)
        assert residual <= 1e-10, (spec, residual)


def test_form_identity_with_explicit_matrix():
    spec = gallery.build("dirichlet2")
    residual = verify_form_identity(spec, A=np.zeros((2, 2)))
    assert residual <= 1e-8
    # a wrong boundary matrix must be detected on rows whose wedge data
    # does not vanish (Dirichlet admissible functions hide any A)
    bad = verify_form_identity(gallery.build("robin2"), A=np.zeros((2, 2)))
    assert bad > 1e-3


def test_form_identity_builds_one_basis(monkeypatch):
    # F_strong and F_split act on the one constrained basis of the jets
    built = count_calls(monkeypatch, legendre, "constrained_basis")
    for name in ("robin2", "dirichlet4"):
        built.clear()
        verify_form_identity(gallery.build(name))
        assert len(built) == 1


def test_form_identity_reads_a_report():
    # a given A replaces the cached report's in a copy: the residual is
    # that of the given matrix, and the cached report keeps its own A
    spec = gallery.build("robin2")
    report = check_completely_regular(spec)
    own = report.A.copy()
    residual = verify_form_identity(spec)
    assert verify_form_identity(spec, A=np.zeros((2, 2))) > 1e-3
    assert check_completely_regular(spec) is report
    assert np.array_equal(report.A, own)
    assert verify_form_identity(spec, A=own) == residual == verify_form_identity(spec)


def test_equal_operators_share_one_report():
    # the cache key is the divergence-form spec: a rebuilt spec, a parsed
    # copy of it and its model form all read the report of the first
    first = check_completely_regular(gallery.build("dirichlet2"))
    rebuilt = gallery.build("dirichlet2")
    assert rebuilt is not first.spec
    assert check_completely_regular(rebuilt) is first
    assert check_completely_regular(parse_spec(spec_to_document(rebuilt))) is first
    assert check_completely_regular(OperatorSpec(2, ModelForm(), rebuilt.rows)) is first


@pytest.mark.parametrize("name", ["robin2", "mixed4"])
def test_cached_report_arrays_are_read_only(name):
    report = check_completely_regular(gallery.build(name))
    arrays = ("at_zero", "at_one", "B", "C", "preimage_basis", "complement_basis", "A")
    for array in (getattr(report, field) for field in arrays):
        if array is None:           # mixed4 is not completely regular
            continue
        with pytest.raises(ValueError, match="read-only"):
            array[0, 0] = 7.0
    assert (report.A is None) == (name == "mixed4")


def test_form_identity_left_side_oracle(rng):
    """Cross-check the identity by hand for one admissible polynomial:
    for Dirichlet rows and l(y) = -y'', (l y, y) = int |y'|^2."""
    spec = gallery.build("dirichlet2")
    y = Poly((0, 1, -1))  # x(1 - x), satisfies both rows
    ly = Poly((2,))  # -y'' = 2
    lhs = inner_01(ly, y)
    rhs = inner_01(y.derivative(), y.derivative())
    assert abs(lhs - rhs) < 1e-15
    assert abs(lhs - (1.0 / 3.0)) < 1e-15
