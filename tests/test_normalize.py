"""Boundary-row normalization: minimal total order and leading forms."""

import numpy as np
import pytest

import oracles
from conftest import make_row
from regbvp import gallery
from regbvp.birkhoff import classify_regularity
from regbvp.model import RankError
from regbvp.normalize import leading_forms, reduce_total_order


def test_proportional_leading_rows_reduce():
    # {y'(0) + y'(1), y'(0) + y'(1) + y(0)}: the second row drops to y(0)
    rows = (make_row(2, a=((1, 1),), b=((1, 1),)),
            make_row(2, a=((1, 1), (0, 1)), b=((1, 1),)))
    nbc = reduce_total_order(rows)
    assert nbc.orders == (1, 0)
    assert nbc.kappa == 1
    low = nbc.rows[1]
    assert abs(low.a[1]) < 1e-12 and abs(low.b[1]) < 1e-12
    assert abs(low.b[0]) < 1e-12 and abs(low.a[0]) > 0.1


def test_dirichlet_untouched():
    nbc = reduce_total_order(gallery.build("dirichlet2"))
    assert nbc.orders == (0, 0)
    assert nbc.kappa == 0


def test_three_rows_of_equal_order_reduce():
    # three rows lead with y''; only two independent pairs exist at any
    # order, so one row must fall through to order 0
    rows = (make_row(3, a=((2, 1),)),
            make_row(3, b=((2, 1),)),
            make_row(3, a=((2, 1), (0, 1)), b=((2, 1),)))
    nbc = reduce_total_order(rows)
    assert nbc.orders == (2, 2, 0)
    assert nbc.kappa == 4


def test_mixed_fourth_order_example():
    nbc = reduce_total_order(gallery.build("mixed4"))
    assert nbc.orders == (3, 3, 1, 1)
    assert nbc.kappa == 8
    forms = leading_forms(nbc)
    assert [(k, complex(a), complex(b)) for k, a, b in forms] == [
        (3, -1 + 0j, 0j), (3, 0j, 1 + 0j), (1, 1 + 0j, 0j), (1, 0j, 1 + 0j)]


def test_leading_forms_read_off():
    periodic = reduce_total_order(gallery.build("periodic2"))
    assert [(k, a, b) for k, a, b in leading_forms(periodic)] == [
        (1, 1 + 0j, -1 + 0j), (0, 1 + 0j, -1 + 0j)]
    cauchy = reduce_total_order(gallery.build("cauchy2"))
    assert [(k, a, b) for k, a, b in leading_forms(cauchy)] == [
        (1, 1 + 0j, 0j), (0, 1 + 0j, 0j)]


def test_transform_reproduces_rows():
    # An invertible T with rows = T @ original_rows exists exactly when
    # both row sets have rank n and so does their stack (one row space).
    for name in sorted(gallery.EXAMPLES):
        spec = gallery.build(name)
        nbc = reduce_total_order(spec)
        original = np.array([row.as_vector() for row in spec.rows])
        produced = np.array([row.as_vector() for row in nbc.rows])
        for mat in (original, produced, np.vstack([original, produced])):
            assert np.linalg.matrix_rank(mat, tol=1e-10) == spec.order


def test_span_preserved():
    rng = np.random.default_rng(7)
    for _ in range(20):
        rows = oracles.random_rows(rng, int(rng.integers(1, 5)))
        nbc = reduce_total_order(rows)
        stacked = np.vstack([
            np.array([row.as_vector() for row in rows]),
            np.array([row.as_vector() for row in nbc.rows]),
        ])
        assert np.linalg.matrix_rank(stacked, tol=1e-8) == len(rows)


def test_order_gap_invariant():
    rng = np.random.default_rng(11)
    for _ in range(50):
        nbc = reduce_total_order(oracles.random_rows(rng, int(rng.integers(1, 5))))
        ks = nbc.orders
        assert all(ks[j] >= ks[j + 1] for j in range(len(ks) - 1))
        assert all(ks[j] > ks[j + 2] for j in range(len(ks) - 2))
        assert all(max(abs(a), abs(b)) > 0 for _, a, b in leading_forms(nbc))


def test_recombination_invariance_200():
    """Orders, total order, and the regularity verdict do not depend on
    which invertible recombination of the rows is presented."""
    rng = np.random.default_rng(20260823)
    for trial in range(200):
        n = int(rng.integers(1, 5))
        rows = oracles.random_rows(rng, n)
        mixed = oracles.random_mix(rng, rows)
        base = reduce_total_order(rows)
        alt = reduce_total_order(mixed)
        assert sorted(base.orders) == sorted(alt.orders), f"trial {trial}"
        assert base.kappa == alt.kappa
        v1 = classify_regularity(base)
        v2 = classify_regularity(alt)
        assert v1.regular == v2.regular, f"trial {trial}"


def test_rank_deficient_rows_rejected():
    rows = (make_row(2, a=((0, 1), (1, 1))),
            make_row(2, a=((0, 2), (1, 2))))
    with pytest.raises(RankError):
        reduce_total_order(rows)
