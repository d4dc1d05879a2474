"""Regularity determinants against an independent cofactor oracle.

Expected values were derived by hand (2x2 and block determinants over
snapped roots of unity) and frozen; the cofactor oracle recomputes every
determinant by Laplace expansion along the first row, a different
algorithm from the library's subset dynamic programming, on which
``classify_regularity`` reads theta0 and theta1 off the characteristic
determinant.
"""

import tracemalloc

import numpy as np
import pytest

import oracles
from conftest import make_row
from regbvp import birkhoff, gallery
from regbvp.birkhoff import classify_regularity, unit_roots
from regbvp.model import BoundaryRow
from regbvp.normalize import NormalizedBC, reduce_total_order


# ---------------------------------------------------------------------------
# Frozen determinant values (hand-derived)
# ---------------------------------------------------------------------------

FROZEN_THETA0 = {
    "dirichlet2": 1 + 0j,
    "neumann2": -1 + 0j,
    "robin2": -1 + 0j,
    "periodic2": -2 + 0j,
    "cauchy2": 0j,
    "mixed4": -4 + 0j,
    "dirichlet4": -2j,
    "neumann4": -2j,
}


@pytest.mark.parametrize("name", sorted(FROZEN_THETA0))
def test_theta_frozen_values_exact(name):
    verdict = classify_regularity(gallery.build(name))
    assert verdict.theta0 == FROZEN_THETA0[name]
    assert verdict.theta1 is None  # all gallery members have even order


@pytest.mark.parametrize("name", sorted(gallery.EXAMPLES))
def test_theta_matches_cofactor_oracle(name):
    spec = gallery.build(name)
    nbc = reduce_total_order(spec)
    verdict = classify_regularity(nbc)
    t0, t1 = verdict.theta0, verdict.theta1
    forms = [(k, row.a[k], row.b[k]) for row, k in zip(nbc.rows, nbc.orders)]
    o0, o1 = oracles.theta_pair(forms, nbc.n)
    assert abs(t0 - o0) <= 1e-12 * max(1.0, abs(o0))
    assert (t1 is None) == (o1 is None)


def test_first_order_pair():
    # y(0) - y(1): theta0 = a = 1, companion theta1 = b = -1
    spec_reg = (make_row(1, a=((0, 1),), b=((0, -1),)),)
    v = classify_regularity(spec_reg)
    assert (v.theta0, v.theta1) == (1 + 0j, -1 + 0j)
    assert v.regular

    # y(0) alone: the companion determinant vanishes
    v = classify_regularity((make_row(1, a=((0, 1),)),))
    assert (v.theta0, v.theta1) == (1 + 0j, 0j)
    assert not v.regular


def test_regularity_verdicts_for_gallery():
    expected = {name: name != "cauchy2" for name in gallery.EXAMPLES}
    for name, want in expected.items():
        assert classify_regularity(gallery.build(name)).regular == want, name


def test_random_forms_against_oracle(rng):
    """300 random leading-form sets, orders 1..5, both determinants.  A
    set is taken as it stands, not normalized: its rows
    a_j y^(k_j)(0) + b_j y^(k_j)(1) go to the classification as given."""
    for trial in range(300):
        n = int(rng.integers(1, 6))
        forms = []
        for _ in range(n):
            k = int(rng.integers(0, n))
            a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
            forms.append((k, complex(a), complex(b)))
        rows = tuple(BoundaryRow(*(tuple(c if s == k else 0j for s in range(n)) for c in (a, b)))
                     for k, a, b in forms)
        verdict = classify_regularity(
            NormalizedBC(n, rows, tuple(k for k, _, _ in forms), sum(k for k, _, _ in forms)))
        t0, t1 = verdict.theta0, verdict.theta1
        o0, o1 = oracles.theta_pair(forms, n)
        scale = max(1.0, abs(o0))
        assert abs(t0 - o0) <= 1e-10 * scale, f"trial {trial}"
        if n % 2:
            assert abs(t1 - o1) <= 1e-10 * max(1.0, abs(o1)), f"trial {trial}"
        else:
            assert t1 is None and o1 is None


def test_verdict_invariant_under_recombination(rng):
    """100 recombinations across the gallery leave every verdict alone."""
    names = sorted(gallery.EXAMPLES)
    for trial in range(100):
        name = names[trial % len(names)]
        spec = gallery.build(name)
        base = classify_regularity(spec)
        mixed = classify_regularity(oracles.remix_spec(rng, spec))
        assert mixed.regular == base.regular, f"{name} trial {trial}"
        assert mixed.kappa == base.kappa
        assert sorted(mixed.orders) == sorted(base.orders)


def test_tolerance_scales_with_row_magnitude():
    spec = gallery.build("dirichlet2")
    big_rows = tuple(
        make_row(2, a=((s, 1e8 * c) for s, c in enumerate(row.a) if c),
                 b=((s, 1e8 * c) for s, c in enumerate(row.b) if c))
        for row in spec.rows)
    v = classify_regularity(big_rows)
    assert v.regular
    assert v.tol > 1e-9  # grew with the 1e8 row scales

    small = classify_regularity(
        tuple(make_row(2, a=((s, 1e-6 * c) for s, c in enumerate(row.a) if c),
                       b=((s, 1e-6 * c) for s, c in enumerate(row.b) if c))
              for row in gallery.build("cauchy2").rows))
    assert not small.regular  # zero determinant stays zero at any scale


def test_unit_roots_snapped():
    assert unit_roots(1) == (1 + 0j,)
    assert unit_roots(2) == (1 + 0j, -1 + 0j)
    assert unit_roots(4) == (1 + 0j, 1j, -1 + 0j, -1j)
    r3 = unit_roots(3)
    assert abs(r3[1] - np.exp(2j * np.pi / 3)) < 1e-15



# ---------------------------------------------------------------------------
# The array expansion against one convolution per product
# ---------------------------------------------------------------------------

def _separated_rows(rng, n):
    """Random rows, ceil(n/2) at x = 0 and the rest at x = 1, of distinct
    orders at each end, with complex N(0, 1) coefficients up to the order."""
    rows = []
    for side, count in ((0, (n + 1) // 2), (1, n // 2)):
        for k in rng.choice(n, size=count, replace=False):
            coeffs = [0j] * n
            coeffs[:k + 1] = rng.normal(size=k + 1) + 1j * rng.normal(size=k + 1)
            zeros = (0j,) * n
            rows.append(BoundaryRow(tuple(coeffs), zeros) if side == 0
                        else BoundaryRow(zeros, tuple(coeffs)))
    return tuple(rows)


def _oracle_row_sets():
    yield from ((name, gallery.build(name)) for name in sorted(gallery.EXAMPLES))
    rng = np.random.default_rng(20261020)
    for n in range(1, 7):
        for draw in range(4):
            yield f"coupled {n}/{draw}", oracles.random_rows(rng, n)
            yield f"separated {n}/{draw}", _separated_rows(rng, n)


@pytest.mark.parametrize("label, spec", list(_oracle_row_sets()))
def test_array_expansion_matches_the_pairwise_oracle(label, spec):
    # the same subsets and frequencies as one np.convolve per product, and
    # coefficients and moduli sums that differ by rounding only: measured
    # at most 1.8 eps M_S and 2.7 eps relative on 480 random row sets of
    # orders 1-6
    rows = reduce_total_order(spec).rows
    n, eps = len(rows), np.finfo(float).eps
    pairs = [(row.a, row.b) for row in rows]
    terms = birkhoff.determinant_terms(n, pairs)
    reference = oracles.pairwise_determinant_terms(n, pairs)
    assert list(terms) == sorted(reference)
    for subset, (freq, poly, moduli) in terms.items():
        ref_freq, ref_poly, ref_moduli = reference[subset]
        assert (freq.real.hex(), freq.imag.hex()) == (ref_freq.real.hex(), ref_freq.imag.hex())
        assert poly.shape == ref_poly.shape == moduli.shape
        assert np.all(np.abs(poly - ref_poly) <= 8 * eps * ref_moduli)
        assert np.all(np.abs(moduli - ref_moduli) <= 8 * eps * ref_moduli)
    # the merged Delta: the same frequency classes, the same zeros, and
    # coefficients that differ by rounding only
    delta = birkhoff._delta(rows)
    ref_freqs, ref_coeffs, ref_moduli = oracles.pairwise_delta(rows)
    assert delta.freqs.tobytes() == ref_freqs.tobytes()
    assert np.array_equal(delta.coeffs == 0, ref_coeffs == 0)
    assert np.all(np.abs(delta.coeffs - ref_coeffs) <= 8 * eps * ref_moduli)


def _raw_rows(rng, n):
    """The (a, b) pairs of a random coupled row set of order n, unreduced:
    each coefficient is nonzero with probability 0.65, so almost every
    row reaches order n - 1 and the passes are about as wide as they get."""
    return [(row.a, row.b) for row in oracles.random_rows(rng, n)]


def test_chunked_expansion_is_bit_identical():
    # a pass sums each next state's products in pair order whatever the
    # chunk it falls in, so the terms are the same bits as one chunk per
    # pass and, at a budget of one entry, as one next state per chunk, at
    # every order up to 8
    rng = np.random.default_rng(20261021)
    for n in range(1, 9):
        pairs = _raw_rows(rng, n)
        default = birkhoff.determinant_terms(n, pairs)
        for chunk in (1, 1 << 30):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(birkhoff, "BATCH_ELEMENTS", chunk)
                other = birkhoff.determinant_terms(n, pairs)
            assert list(other) == list(default), n
            for subset, (freq, poly, moduli) in default.items():
                assert repr((freq, poly.tolist(), moduli.tolist())) == repr(
                    (other[subset][0], other[subset][1].tolist(), other[subset][2].tolist()))


def test_expansion_peak_memory_at_order_8():
    # a pass holds at most BATCH_ELEMENTS entries of products at once and
    # writes each chunk's sums into the next table: at order 8 the
    # tracemalloc peak is within three times the per-pair loop's (6.2
    # against 4.7 MB measured), where holding a whole pass and its
    # gathered copy took 37.4 MB
    pairs = _raw_rows(np.random.default_rng(5), 8)
    peaks = []
    for expand in (birkhoff.determinant_terms, oracles.pairwise_determinant_terms):
        tracemalloc.start()
        try:
            expand(8, pairs)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 3 * peaks[1], peaks
