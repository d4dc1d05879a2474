"""The characteristic determinant, and regularity read off it.

On e^(i eps_k rho x), eps_k = exp(2 pi i (k-1)/n), column k of the
boundary matrix is alpha_k(rho) + e^(i eps_k rho) beta_k(rho) with
polynomial alpha_k and beta_k, so the characteristic determinant is the
exponential polynomial Delta(rho) = sum_f P_f(rho) e^(i rho f), f over
the distinct subset sums of the eps_k, each P_f of degree at most kappa.
:func:`determinant_terms` expands it once per column subset, without
division, and :func:`_delta` merges equal frequencies into the cached
record of an operator that the classification, the root search and
``spectral.char_det`` all read; :func:`_negligible` is its one zero
rule.  :func:`_evaluate` takes Delta and its derivatives
(:func:`_derivative`) by Horner, scaled by e^(-max_f Re(i rho f)).

The record also holds k, the order of the zero of Delta at rho = 0
(:func:`_origin_order`).  k is the first j whose Taylor coefficient at 0,
t_j = sum_f sum_(d <= j) P_f[d] (i f)^(j - d) / (j - d)!, is not
negligible by the same rule.  At rho = 0 the n exponentials coincide,
so k is at least n (n - 1) / 2, and an eigenvalue lambda = 0 of
algebraic multiplicity a adds n a.

Regularity is read off two vertices of that distribution diagram.  With
m = ceil(n/2), theta_0 is (-i)^kappa times the rho^kappa coefficient of
Delta at the frequency of S = {k >= m}, and theta_1 that of
S = {k >= m - 1}; a frequency Delta lacks gives 0.  On leading pairs
(a_j, b_j) of orders k_j, theta_0 is the determinant whose row j is
a_j eps_i^{k_j} in the first m columns and b_j eps_i^{k_j} in the rest,
and theta_1 switches the middle column from ``a`` to ``b``.  For even n
the verdict is ``theta_0 != 0``; for odd n, theta_1 must be nonzero as
well.  Rational (Gaussian-integer) inputs give exact values whenever the
roots of unity are exactly representable (n = 1, 2, 4).
"""

import cmath
import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .normalize import NormalizedBC, reduce_total_order

__all__ = [
    "RegularityVerdict",
    "unit_roots",
    "determinant_terms",
    "classify_regularity",
]


def _snap(z, tol=1e-15):
    re, im = z.real, z.imag
    if abs(re - round(re)) < tol:
        re = float(round(re))
    if abs(im - round(im)) < tol:
        im = float(round(im))
    return complex(re, im)


def unit_roots(n):
    """The n-th roots of unity eps_k, k = 1..n, snapped to exact values
    when representable (so n = 1, 2, 4 stay Gaussian integers)."""
    return tuple(_snap(cmath.exp(2j * cmath.pi * k / n)) for k in range(n))


def determinant_terms(n, rows):
    """The characteristic determinant of ``rows`` as an exponential
    polynomial, one term per column subset.

    ``rows`` are pairs (a, b) of the coefficients of y^(s)(0) and
    y^(s)(1), s < n.  On e^(i eps_k rho x) row j takes the value
    alpha_jk(rho) + e^(i eps_k rho) beta_jk(rho), with
    alpha_jk(rho) = sum_s a_js (i eps_k rho)^s and beta_jk likewise from
    b, so by multilinearity in the columns

        Delta(rho) = sum_S P_S(rho) e^(i rho f_S),   f_S = sum_(k in S) eps_k,

    where P_S is the determinant that takes the columns k in S from beta.
    The expansion runs row by row over the free columns, without division.

    Returns {S: (f_S, P_S, M_S)} over the column subsets S (bit masks)
    that some product reaches: P_S holds the coefficients of P_S(rho),
    ascending, and M_S the sums of the moduli of the products added into
    each of them.
    """
    eps = unit_roots(n)
    states = {(0, 0): (np.ones(1, dtype=complex), np.ones(1))}   # (used, S) -> (P, M)
    for a, b in rows:
        deg = max((s for s in range(n) if a[s] != 0 or b[s] != 0), default=0)
        entries = [[np.array([c[s] * (1j * e) ** s for s in range(deg + 1)]) for c in (a, b)]
                   for e in eps]
        reached = {}
        for (used, subset), (poly, moduli) in states.items():
            for k in range(n):
                bit = 1 << k
                if used & bit:
                    continue
                sign = -1 if (used >> k).bit_count() % 2 else 1  # used columns right of k
                for entry, taken in zip(entries[k], (0, bit)):
                    if entry.any():
                        key = (used | bit, subset | taken)
                        p, m = reached.get(key, (0, 0))
                        reached[key] = (p + sign * np.convolve(poly, entry),
                                        m + np.convolve(moduli, np.abs(entry)))
        states = reached
    return {subset: (_snap(sum(eps[k] for k in range(n) if subset >> k & 1)), poly, moduli)
            for (_, subset), (poly, moduli) in states.items()}


class _Delta(NamedTuple):
    """Delta(rho) = sum_f P_f(rho) e^(i rho f) of one operator: the order,
    the distinct frequencies f, row by row the coefficients of P_f,
    ascending, and k, the order of the zero of Delta at rho = 0 (see
    :func:`_origin_order`)."""

    n: int
    freqs: np.ndarray
    coeffs: np.ndarray
    origin_order: int


def _negligible(coeffs, moduli):
    """The one rule for a zero coefficient of Delta: it is at most 64 eps
    times the sum of the moduli of the products added into it, so that
    rounding alone can account for it."""
    return np.abs(coeffs) <= 64 * np.finfo(float).eps * moduli


def _origin_order(freqs, coeffs, moduli):
    """k, the order of the zero of Delta at rho = 0: the first j whose
    Taylor coefficient at 0,

        t_j = sum_f sum_(d <= j) P_f[d] (i f)^(j - d) / (j - d)!,

    is not negligible against the same sum taken over moduli: the
    ``moduli`` of the products added into each P_f[d] in place of P_f[d],
    and |f|^(j - d) / (j - d)!.  A nonzero Delta spans at most
    ``coeffs.size`` functions rho^d e^(i rho f), so its zero at 0 has a
    lower order than that and no later t_j is needed; k is 0 when every
    t_j looks negligible."""
    size = coeffs.size
    steps = np.ones((freqs.size, size), dtype=complex)
    steps[:, 1:] = 1j * freqs[:, None] / np.arange(1, size)
    series = np.cumprod(steps, axis=1)                  # (i f)^l / l!

    def taylor(table, factors):
        return sum(np.convolve(row, terms)[:size] for row, terms in zip(table, factors))

    nonzero = ~_negligible(taylor(coeffs, series), taylor(moduli, np.abs(series)))
    return int(np.argmax(nonzero))


@functools.lru_cache(maxsize=16)
def _delta(rows):
    """The Delta of the normalized ``rows``, built once per operator: the
    terms of :func:`determinant_terms` with equal frequencies merged, and
    the coefficients :func:`_negligible` set to zero, and the order k of
    its zero at 0.  A frequency left with none is dropped, so Delta
    vanishes identically when none is left."""
    terms = [term for _, term in sorted(determinant_terms(
        len(rows), [(row.a, row.b) for row in rows]).items())]
    freqs = np.array([freq for freq, _, _ in terms])
    group = [int(np.argmax(np.abs(freqs - freq) <= 1e-12)) for freq in freqs]
    firsts = sorted(set(group))
    coeffs, moduli = (np.array([sum(term[part] for term, g in zip(terms, group) if g == first)
                                for first in firsts]) for part in (1, 2))
    coeffs[_negligible(coeffs, moduli)] = 0.0
    kept = coeffs.any(axis=1)
    freqs, coeffs, moduli = freqs[firsts][kept], coeffs[kept], moduli[kept]
    delta = _Delta(len(rows), freqs, coeffs, _origin_order(freqs, coeffs, moduli))
    delta.freqs.flags.writeable = delta.coeffs.flags.writeable = False  # cached, so shared
    return delta


def _derivative(freqs, coeffs):
    """The coefficients of Delta' from those of Delta: P_f -> P_f' + i f P_f."""
    out = 1j * freqs[:, None] * coeffs
    out[:, :-1] += coeffs[:, 1:] * np.arange(1, coeffs.shape[1])
    return out


def _evaluate(delta, tables, rhos):
    """sum_f T_f(rho) e^(i rho f - shift) for every coefficient table T in
    ``tables`` (shape (tables, frequencies, degree + 1)), by Horner, at the
    values ``rhos`` (a batch; memory grows with it), with
    shift = max_f Re(i rho f).

    Returns (values of shape (tables, points), shifts).
    """
    z = 1j * delta.freqs[:, None] * rhos[None, :]
    shift = z.real.max(axis=0, initial=-np.inf)
    acc = np.zeros(tables.shape[:2] + rhos.shape, dtype=complex)
    for d in range(tables.shape[2] - 1, -1, -1):
        acc = acc * rhos + tables[:, :, d, None]
    # summed one frequency at a time, in order: numpy's sum over an axis
    # would change its order, and the bits, with the number of points
    values = np.zeros((tables.shape[0], rhos.size), dtype=complex)
    for term in (acc * np.exp(z - shift)).transpose(1, 0, 2):
        values = values + term
    return values, shift


@dataclass(frozen=True)
class RegularityVerdict:
    regular: bool
    theta0: complex
    theta1: complex | None
    kappa: int
    orders: tuple
    tol: float


def classify_regularity(spec, tol=None) -> RegularityVerdict:
    """Classify an operator spec (or pre-normalized rows).

    theta0 and theta1 are read off the operator's Delta (see the module
    docstring).  ``tol`` is the magnitude below which a determinant
    counts as zero; the default scales with the product of the
    leading-pair magnitudes, which is how the determinant itself scales
    under row rescaling.
    """
    nbc = spec if isinstance(spec, NormalizedBC) else reduce_total_order(spec)
    n, kappa = nbc.n, nbc.kappa
    if tol is None:
        scale = float(np.prod([max(abs(row.a[k]), abs(row.b[k]))
                               for row, k in zip(nbc.rows, nbc.orders)]))
        tol = 1e-9 * max(scale, 1e-300)
    delta = _delta(nbc.rows)
    eps = unit_roots(n)

    def theta(first):
        """(-i)^kappa times the rho^kappa coefficient of Delta at the
        frequency of S = {k >= first}."""
        hit = np.flatnonzero(np.abs(delta.freqs - _snap(sum(eps[first:]))) <= 1e-12)
        # adding to 0j clears the negative zeros the unit factor can leave
        return 0j if not hit.size else 0j + (-1j) ** kappa * delta.coeffs[hit[0], kappa]

    m = (n + 1) // 2
    theta0, theta1 = theta(m), None if n % 2 == 0 else theta(m - 1)
    regular = abs(theta0) > tol and (theta1 is None or abs(theta1) > tol)
    return RegularityVerdict(regular, theta0, theta1, kappa, nbc.orders, tol)
