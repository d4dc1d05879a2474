"""Polynomials, boundary rows, spec parsing, and expression expansion."""

import functools
import json
import math
import re

import numpy as np
import pytest

import oracles
from conftest import make_row
from oracles import apply_to_jets, inner_01, integral_01
from regbvp import gallery
from regbvp.model import (
    ZERO,
    ONE,
    BoundaryRow,
    ClassicalForm,
    DivergenceForm,
    ModelForm,
    OperatorSpec,
    Poly,
    RankError,
    SpecError,
    as_divergence,
    expand_divergence,
    load_spec,
    operator_coefficients,
    parse_spec,
    spec_to_document,
)


# ---------------------------------------------------------------------------
# Poly arithmetic against hand-worked values
# ---------------------------------------------------------------------------

def test_poly_product_by_hand():
    # (1 + 2x)(3 - x) = 3 + 5x - 2x^2
    f = Poly((1, 2))
    g = Poly((3, -1))
    assert (f * g).coeffs == (3 + 0j, 5 + 0j, -2 + 0j)


def test_poly_sum_difference_scalar():
    f = Poly((1, 2, 3))
    g = Poly((0, -2, -3))
    assert (f + g).coeffs == (1 + 0j,)
    assert (f - f).is_zero()
    assert (2 * f).coeffs == (2 + 0j, 4 + 0j, 6 + 0j)
    assert (f + 1).coeffs == (2 + 0j, 2 + 0j, 3 + 0j)


def test_poly_trailing_zeros_trimmed():
    assert Poly((1, 0, 0)).coeffs == (1 + 0j,)
    assert Poly((0, 0)).is_zero()
    assert Poly((0, 0)).degree == -1
    assert not Poly((0,))
    assert Poly((0, 1)).degree == 1


def test_poly_derivative_and_eval():
    # d/dx (1 + 2x + 3x^2) = 2 + 6x ; second derivative = 6
    f = Poly((1, 2, 3))
    assert f.derivative().coeffs == (2 + 0j, 6 + 0j)
    assert f.derivative(2).coeffs == (6 + 0j,)
    assert f.derivative(3).is_zero()
    assert f(2.0) == 1 + 4 + 12
    assert f(1j) == 1 + 2j + 3 * (1j) ** 2


def test_poly_integral_and_inner_product():
    # int_0^1 (1 + 2x) dx = 2 ; int_0^1 (1 + 2x) x dx = 1/2 + 2/3
    f = Poly((1, 2))
    assert integral_01(f) == 2 + 0j
    assert abs(inner_01(f, Poly((0, 1))) - (0.5 + 2.0 / 3.0)) < 1e-15
    # conjugate-linearity in the second slot: <1, i x> = -i/2
    assert abs(inner_01(ONE, Poly((0, 1j))) - (-0.5j)) < 1e-15


def test_poly_nonfinite_rejected():
    with pytest.raises(SpecError):
        Poly((float("nan"),))
    with pytest.raises(SpecError):
        Poly((float("inf") + 0j,))


# ---------------------------------------------------------------------------
# Boundary rows
# ---------------------------------------------------------------------------

def test_row_order_and_vector():
    row = make_row(3, a=((0, 1),), b=((2, -1j),))
    assert row.order() == 2
    assert row.n == 3
    vec = row.as_vector()
    assert vec.shape == (6,)
    assert vec[0] == 1 and vec[5] == -1j
    again = BoundaryRow.from_vector(vec)
    assert again == row


def test_row_apply_to_jets_matches_polynomial():
    # row evaluates y''(0) - 2 y(1) on jets of y = x^3 + 1:
    # y''(0) = 0, y(1) = 2, so the row gives -4
    row = make_row(3, a=((2, 1),), b=((0, -2),))
    y = Poly((1, 0, 0, 1))
    jet0 = [y.derivative(s)(0.0) for s in range(3)]
    jet1 = [y.derivative(s)(1.0) for s in range(3)]
    assert apply_to_jets(row, jet0, jet1) == -4 + 0j


def test_row_mismatched_blocks_rejected():
    with pytest.raises(SpecError):
        BoundaryRow((1 + 0j,), (0j, 0j))


# ---------------------------------------------------------------------------
# Spec construction and validation
# ---------------------------------------------------------------------------

def test_spec_rejects_rank_deficient_rows():
    rows = (make_row(2, a=((0, 1),)), make_row(2, a=((0, 2),)))
    with pytest.raises(RankError):
        OperatorSpec(2, ModelForm(), rows)


def test_spec_rejects_row_count_and_length_mismatch():
    with pytest.raises(SpecError):
        OperatorSpec(2, ModelForm(), (make_row(2, a=((0, 1),)),))
    rows3 = (make_row(3, a=((0, 1),)), make_row(3, a=((1, 1),)),
             make_row(3, b=((0, 1),)))
    with pytest.raises(SpecError):
        OperatorSpec(2, ModelForm(), rows3)


def test_spec_rejects_bad_divergence_blocks():
    with pytest.raises(SpecError):
        DivergenceForm(1, (ZERO, Poly((2,))), (ZERO, ZERO), (ZERO, ZERO))  # p_m != 1
    with pytest.raises(SpecError):
        DivergenceForm(1, (ZERO, ONE), (ONE, ZERO), (ZERO, ZERO))  # q_0 != 0
    with pytest.raises(SpecError):
        DivergenceForm(1, (ZERO, ONE), (ZERO, ZERO), (ONE, ZERO))  # r_0 != 0
    with pytest.raises(SpecError):
        DivergenceForm(1, (ZERO, ONE, ONE), (ZERO, ZERO), (ZERO, ZERO))


def test_spec_rejects_classical_index_out_of_range():
    rows = (make_row(2, a=((0, 1),)), make_row(2, b=((0, 1),)))
    with pytest.raises(SpecError):
        OperatorSpec(2, ClassicalForm({1: ONE}), rows)
    with pytest.raises(SpecError):
        OperatorSpec(2, ClassicalForm({3: ONE}), rows)


def test_classical_coefficients_are_read_only():
    # a write would go around the index check of OperatorSpec
    rows = (make_row(2, a=((0, 1),)), make_row(2, b=((0, 1),)))
    given = {2: ONE}
    spec = OperatorSpec(2, ClassicalForm(given), rows)
    with pytest.raises(TypeError):
        spec.form.p[9] = Poly((1,))
    given[9] = ONE                  # the form holds a copy
    assert dict(spec.form.p) == {2: ONE}
    assert spec.form == ClassicalForm({2: ONE})


def test_divergence_order_mismatch():
    rows = (make_row(2, a=((0, 1),)), make_row(2, b=((0, 1),)))
    with pytest.raises(SpecError):
        OperatorSpec(2, DivergenceForm.model(2), rows)


# ---------------------------------------------------------------------------
# JSON round trips
# ---------------------------------------------------------------------------

# The gallery, plus one spec of each wire form it does not use: a model
# form, a classical form and a divergence form with nonzero p, q and r.
WIRE_SPECS = {name: gallery.build(name) for name in gallery.EXAMPLES}
WIRE_SPECS["model3"] = OperatorSpec(3, ModelForm(), (
    make_row(3, a=((0, 1 - 2j),), b=((2, 0.5),)),
    make_row(3, a=((1, 1),)),
    make_row(3, b=((0, 1),)),
))
WIRE_SPECS["classical3"] = OperatorSpec(
    3, ClassicalForm({2: Poly((0, 5)), 3: Poly((1j, 0, -2))}), WIRE_SPECS["model3"].rows)
WIRE_SPECS["divergence4"] = OperatorSpec(4, DivergenceForm(
    2,
    p=(Poly((1, -1)), Poly((0, 2j)), ONE),
    q=(ZERO, Poly((3,)), Poly((0, 0, 1))),
    r=(ZERO, Poly((1j,)), Poly((2, 1))),
), gallery.build("mixed4").rows)


@pytest.mark.parametrize("name", sorted(WIRE_SPECS))
def test_document_round_trip(name):
    spec = WIRE_SPECS[name]
    doc = spec_to_document(spec)
    again = parse_spec(doc)
    assert again == spec
    assert spec_to_document(again) == doc


def test_load_spec_from_file(tmp_path):
    spec = gallery.build("mixed4")
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec_to_document(spec)))
    assert load_spec(path) == spec


def _dirichlet2_doc(**top):
    """The document of dirichlet2 with the given top-level keys replaced."""
    doc = spec_to_document(gallery.build("dirichlet2"))
    doc.update(top)
    return doc


def _row_doc(row):
    """The document of dirichlet2 with its first boundary row replaced."""
    doc = _dirichlet2_doc()
    doc["boundary_conditions"][0] = row
    return doc


def _classical_doc(p):
    return _dirichlet2_doc(form={"type": "classical", "p": p})


def _parsing(document):
    return functools.partial(parse_spec, document)


# Each rejected input and the message of the check that must reject it.
SPEC_ERRORS = [
    (_parsing([]), "input document must be a JSON object"),
    (_parsing(_dirichlet2_doc(extra=1)), "unknown top-level keys ['extra']"),
    (_parsing(_dirichlet2_doc(order=0)), "'order' must be a positive integer"),
    (_parsing(_dirichlet2_doc(form={})), "'form' must be an object with a 'type'"),
    (_parsing(_dirichlet2_doc(form={"type": "mystery"})), "unknown form type 'mystery'"),
    (_parsing(_dirichlet2_doc(order=3, form={"type": "divergence"})),
     "divergence form requires an even order"),
    (_parsing(_classical_doc([])), "form.p: expected an object keyed by integer strings"),
    (_parsing(_classical_doc({"x": []})), "form.p: bad index 'x'"),
    (_parsing(_classical_doc({"1": []})), "form.p: index 1 outside 2..2"),
    (_parsing(_classical_doc({"2": 5})), "form.p[2]: expected a list of [re, im] pairs"),
    (_parsing({"order": 2, "form": {"type": "model"}}), "'boundary_conditions' must be a list"),
    (_parsing(_row_doc({"c": {}})), "boundary row 0: expected an object with keys 'a', 'b'"),
    (_parsing(_row_doc({"a": []})), "boundary row 0.a: expected an object"),
    (_parsing(_row_doc({"a": {"x": [1.0, 0.0]}})), "boundary row 0.a: bad index 'x'"),
    (_parsing(_row_doc({"a": {"7": [1.0, 0.0]}})),
     "boundary row 0.a: derivative order 7 outside 0..1"),
    (_parsing(_row_doc({"a": {"0": [1.0]}})),
     "boundary row 0.a[0]: expected a [re, im] pair, got [1.0]"),
    (_parsing(_row_doc({"a": {"0": [math.inf, 0.0]}})),
     "boundary row 0.a[0]: non-finite component"),
    (_parsing(_row_doc({"a": {"0": [0.0, 0.0]}})), "boundary row 0 is identically zero"),
    (lambda: OperatorSpec(0, ModelForm(), ()), "order must be a positive integer"),
    (lambda: OperatorSpec(2, None, ()), "unknown form None"),
    (lambda: OperatorSpec(2, ModelForm(), (make_row(3, a=[(0, 1)]), make_row(3, b=[(0, 1)]))),
     "boundary row length does not match the order"),
]


def test_parse_spec_error_reporting():
    """Each rejected input raises SpecError from the check that names it."""
    for build, message in SPEC_ERRORS:
        with pytest.raises(SpecError, match=re.escape(message)):
            build()


# ---------------------------------------------------------------------------
# Expression expansion against the coefficient-list oracle
# ---------------------------------------------------------------------------

def test_expand_divergence_second_order_by_hand():
    # -(y')' + q_1 y' + (r_1 y)' + p_0 y with p_0 = 2, q_1 = x, r_1 = 1 + x
    # = -y'' + (1 + 2x) y' + 3 y
    form = DivergenceForm(
        1,
        p=(Poly((2,)), ONE),
        q=(ZERO, Poly((0, 1))),
        r=(ZERO, Poly((1, 1))),
    )
    c0, c1, c2 = expand_divergence(form)
    assert c2.coeffs == (-1 + 0j,)
    assert c1.coeffs == (1 + 0j, 2 + 0j)
    assert c0.coeffs == (3 + 0j,)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_expand_divergence_matches_list_oracle(m, rng):
    def rand_poly(deg):
        c = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)
        return Poly(tuple(c))

    for _ in range(10):
        p = [rand_poly(2) for _ in range(m)] + [ONE]
        q = [ZERO] + [rand_poly(2) for _ in range(m)]
        r = [ZERO] + [rand_poly(1) for _ in range(m)]
        form = DivergenceForm(m, tuple(p), tuple(q), tuple(r))
        got = expand_divergence(form)
        want = oracles.expand_divergence_lists(
            m, [list(x.coeffs) for x in p], [list(x.coeffs) for x in q],
            [list(x.coeffs) for x in r])
        assert len(got) == 2 * m + 1
        for g, w in zip(got, want):
            gl = list(g.coeffs) + [0j] * (len(w) - len(g.coeffs))
            assert np.allclose(gl[:len(w)], w, atol=1e-12)


def test_operator_coefficients_model_and_classical():
    rows = (make_row(2, a=((0, 1),)), make_row(2, b=((0, 1),)))
    model = OperatorSpec(2, ModelForm(), rows)
    c = operator_coefficients(model)
    assert c[2].coeffs == ((-1j) ** 2,)
    assert c[0].is_zero() and c[1].is_zero()

    classical = OperatorSpec(2, ClassicalForm({2: Poly((0, 5))}), rows)
    c = operator_coefficients(classical)
    assert c[2].coeffs == (-1 + 0j,)
    assert c[0].coeffs == (0j, 5 + 0j)


def test_as_divergence_round_trip():
    spec = OperatorSpec(2, ModelForm(),
                        (make_row(2, a=((0, 1),)), make_row(2, b=((0, 1),))))
    div = as_divergence(spec)
    assert isinstance(div.form, DivergenceForm)
    assert div.form.m == 1
    got = operator_coefficients(div)
    want = operator_coefficients(spec)
    assert all((g - w).is_zero() for g, w in zip(got, want))
    # divergence specs pass through unchanged, odd orders are refused
    assert as_divergence(div) is div
    odd = OperatorSpec(1, ModelForm(), (make_row(1, a=((0, 1),)),))
    with pytest.raises(SpecError):
        as_divergence(odd)


def test_divergence_expansion_agrees_pointwise(rng):
    """Evaluate l(y) for random y two ways: expanded classical
    coefficients versus direct term-by-term differentiation."""
    form = DivergenceForm(
        2,
        p=(Poly((1, -1)), Poly((0, 2)), ONE),
        q=(ZERO, Poly((3,)), Poly((0, 0, 1))),
        r=(ZERO, Poly((1j,)), Poly((2, 1))),
    )
    spec = OperatorSpec(4, form, gallery.build("dirichlet4").rows)
    coeffs = operator_coefficients(spec)
    for _ in range(5):
        y = Poly(tuple(rng.normal(size=6) + 1j * rng.normal(size=6)))
        direct = ZERO
        for k in range(form.m + 1):
            sign = (-1) ** k
            if form.p[k]:
                direct = direct + sign * (form.p[k] * y.derivative(k)).derivative(k)
            if k >= 1 and form.q[k]:
                direct = direct - sign * (form.q[k] * y.derivative(k)).derivative(k - 1)
            if k >= 1 and form.r[k]:
                direct = direct - sign * (form.r[k] * y.derivative(k - 1)).derivative(k)
        expanded = ZERO
        for j, c in enumerate(coeffs):
            if c:
                expanded = expanded + c * y.derivative(j)
        diff = direct - expanded
        assert all(abs(c) < 1e-10 for c in diff.coeffs)
