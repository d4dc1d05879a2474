"""High-precision recomputation of the numerical-range reference minima.

``tests/test_numrange.py`` checks the minima and their error bounds
against constants.  This module recomputes those constants with mpmath,
independently of :mod:`regbvp.numrange`: the strong form (l phi_k, phi_i)
on the same trial spaces (polynomials of degree < N + n that satisfy the
boundary rows, in the orthonormal shifted Legendre basis), integrated by
Gauss-Legendre quadrature with nodes found by Newton's method at the
working precision, and the support function over the same 64-angle grid.
One support value away from the minimum, sigma_32(pi / 2) of ``mixed4``
on the 32-angle grid, is recomputed the same way.

Only the angles whose double-precision support value lies within
1e-12 ||F_N|| of the smallest are evaluated at full precision.  The
double-precision values err by about (N + n) eps ||F_N||, below 2e-14
||F_N|| at these sizes, so no other angle can hold the minimum.

To print the references:

    PYTHONPATH=src python tests/test_reference_minima.py [digits]
"""

import math
import sys

import numpy as np
import pytest

from regbvp import gallery
from regbvp.model import operator_coefficients
from test_numrange import (
    CAUCHY2_MINIMUM_64,
    CLAMPED_BEAM_MINIMUM,
    MIXED4_MINIMA,
    MIXED4_SUPPORT_32,
)

mp = pytest.importorskip("mpmath")

ANGLES = 64
DIGITS = 40

# name -> {N: reference minimum as tests/test_numrange.py holds it}
REFERENCES = {
    "mixed4": MIXED4_MINIMA,
    "cauchy2": {64: CAUCHY2_MINIMUM_64},
    "dirichlet2": {16: -math.pi ** 2},
    "dirichlet4": {16: CLAMPED_BEAM_MINIMUM},
}


def _gauss_legendre(count):
    """Nodes and weights of the count-point rule on [-1, 1]."""
    tol = mp.mpf(10) ** (-mp.mp.dps + 2)
    rule = []
    for i in range(1, count + 1):
        t = mp.cos(mp.pi * (i - mp.mpf(1) / 4) / (count + mp.mpf(1) / 2))
        for _ in range(100):
            p0, p1 = mp.mpf(1), t
            for k in range(1, count):
                p0, p1 = p1, ((2 * k + 1) * t * p1 - k * p0) / (k + 1)
            dp = count * (t * p1 - p0) / (t * t - 1)
            step = p1 / dp
            t -= step
            if abs(step) < tol:
                break
        p0, p1 = mp.mpf(1), t
        for k in range(1, count):
            p0, p1 = p1, ((2 * k + 1) * t * p1 - k * p0) / (k + 1)
        dp = count * (t * p1 - p0) / (t * t - 1)
        rule.append((t, 2 / ((1 - t * t) * dp * dp)))
    return rule


def _jets(t, count, orders):
    """jet[j][k] = phi_k^(j) at x = (t + 1) / 2, phi_k = sqrt(2k+1) P_k(2x-1).

    Differentiating (k+1) P_{k+1} = (2k+1) t P_k - k P_{k-1} j times gives
    the recurrence for P_k^(j); each x-derivative doubles a t-derivative.
    """
    jet = []
    for j in range(orders + 1):
        row = [mp.mpf(1) if j == 0 else mp.mpf(0)]
        row.append(t if j == 0 else (mp.mpf(1) if j == 1 else mp.mpf(0)))
        for k in range(1, count - 1):
            lower = jet[j - 1][k] if j else 0
            row.append(((2 * k + 1) * (t * row[k] + j * lower) - k * row[k - 1]) / (k + 1))
        jet.append(row[:count])
    return [[mp.sqrt(2 * k + 1) * 2 ** j * jet[j][k] for k in range(count)]
            for j in range(orders + 1)]


def galerkin_matrix(spec, dim):
    """F_dim = (l z_b, z_a) on an orthonormal basis z of the trial space."""
    n = spec.order
    count = dim + n
    coeffs = operator_coefficients(spec)
    rows = mp.matrix(n, count)
    at0, at1 = _jets(mp.mpf(-1), count, n), _jets(mp.mpf(1), count, n)
    for i, row in enumerate(spec.rows):
        for k in range(count):
            rows[i, k] = sum(mp.mpc(row.a[s]) * at0[s][k] + mp.mpc(row.b[s]) * at1[s][k]
                             for s in range(n))
    q, _ = mp.qr(rows.H, mode="full")
    basis = q[:, n:]
    degree = max(c.degree for c in coeffs if c)
    strong = mp.matrix(count, count)
    for t, w in _gauss_legendre(count + degree // 2 + 2):
        x = (t + 1) / 2
        jet = _jets(t, count, n)
        for j, c in enumerate(coeffs):
            if not c:
                continue
            weight = w / 2 * mp.polyval([mp.mpc(v) for v in reversed(c.coeffs)], x)
            for i in range(count):
                scaled = weight * jet[0][i]
                for k in range(count):
                    strong[i, k] += scaled * jet[j][k]
    return basis.H * strong * basis


def _support(form, theta):
    rotated = mp.expj(theta) * form
    return max(mp.eighe((rotated + rotated.H) / 2, eigvals_only=True))


def galerkin_minimum(spec, dim, angles=ANGLES):
    """min over the angle grid of the support function of F_dim."""
    form = galerkin_matrix(spec, dim)
    approx = np.array(form.tolist(), dtype=complex)
    values = []
    for k in range(angles):
        rotated = np.exp(2j * math.pi * k / angles) * approx
        values.append(np.linalg.eigvalsh(0.5 * (rotated + rotated.conj().T))[-1])
    near = min(values) + 1e-12 * np.linalg.norm(approx, 2)
    return min(_support(form, 2 * mp.pi * k / angles)
               for k in range(angles) if values[k] <= near)


CASES = [(name, dim) for name in sorted(REFERENCES) for dim in sorted(REFERENCES[name])]


@pytest.mark.parametrize("name, dim", CASES)
def test_reference_constants_reproduced(name, dim):
    with mp.workdps(DIGITS):
        value = galerkin_minimum(gallery.build(name), dim)
    want = REFERENCES[name][dim]
    assert abs(float(value) - want) <= 1e-13 * abs(want), (name, dim, mp.nstr(value, 20))


def test_support_value_reference_reproduced():
    # sigma_32(pi / 2) of mixed4, angle 8 of the 32-angle grid
    with mp.workdps(DIGITS):
        value = _support(galerkin_matrix(gallery.build("mixed4"), 32), mp.pi / 2)
    assert abs(float(value) - MIXED4_SUPPORT_32) <= 1e-13 * MIXED4_SUPPORT_32, mp.nstr(value, 25)


if __name__ == "__main__":
    mp.mp.dps = int(sys.argv[1]) if len(sys.argv) > 1 else DIGITS
    for name, dim in CASES:
        print(name, dim, mp.nstr(galerkin_minimum(gallery.build(name), dim), 20))
    print("mixed4 32 sigma(pi/2)",
          mp.nstr(_support(galerkin_matrix(gallery.build("mixed4"), 32), mp.pi / 2), 25))
