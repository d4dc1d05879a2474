"""Regularity classification of normalized boundary rows.

The decision is made from the leading boundary forms alone.  With
``eps_k = exp(2 pi i (k-1)/n)`` the n x n matrix whose row j is

    a_j * eps_i^{k_j}   in the first half of the columns,
    b_j * eps_i^{k_j}   in the remaining columns,

has determinant ``theta_0``.  For even n the verdict is ``theta_0 != 0``.
For odd n a companion determinant ``theta_1`` -- identical except that the
middle column switches from the ``a`` to the ``b`` coefficient -- must be
nonzero as well.

Both are read off the characteristic determinant itself.  Column k of the
boundary matrix on e^(i eps_k rho x) is alpha_k(rho) + e^(i eps_k rho)
beta_k(rho), so Delta(rho) = sum_S P_S(rho) e^(i rho sum_(k in S) eps_k)
over the column subsets S, and :func:`determinant_terms` builds every P_S
by a division-free expansion over the columns.  On the leading forms,
theta_0 is i^(-kappa) times the rho^kappa coefficient of P_S for
S = {k >= ceil(n/2)}, and theta_1 that of S = {k >= ceil(n/2) - 1}.
Rational (Gaussian-integer) inputs give exact values whenever the roots
of unity are exactly representable (n = 1, 2, 4).  The spectral engine
reads the same expansion, with equal frequencies merged.
"""

import cmath
from dataclasses import dataclass

import numpy as np

from .model import OperatorSpec
from .normalize import NormalizedBC, leading_forms, reduce_total_order

__all__ = [
    "RegularityVerdict",
    "unit_roots",
    "determinant_terms",
    "theta_determinants",
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


def theta_determinants(forms, n):
    """Pair (theta0, theta1) of leading forms (k_j, a_j, b_j); theta1 is
    None for even n.

    theta0 is i^(-kappa) times the rho^kappa coefficient of the term
    S = {k >= m}, m = ceil(n/2), of :func:`determinant_terms` on the rows
    a_j y^(k_j)(0) + b_j y^(k_j)(1); theta1 that of S = {k >= m - 1}.
    """
    if len(forms) != n:
        raise ValueError(f"expected {n} leading forms, got {len(forms)}")
    rows = [tuple(tuple(c if s == k else 0j for s in range(n)) for c in (a, b))
            for k, a, b in forms]
    terms = determinant_terms(n, rows)
    kappa = sum(k for k, _, _ in forms)

    def theta(first):
        term = terms.get((1 << n) - (1 << first))
        # adding to 0j clears the negative zeros the unit factor can leave
        return 0j if term is None else 0j + (-1j) ** kappa * term[1][kappa]

    m = (n + 1) // 2
    return theta(m), None if n % 2 == 0 else theta(m - 1)


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

    ``tol`` is the magnitude below which a determinant counts as zero; the
    default scales with the product of the leading-pair magnitudes, which
    is how the determinant itself scales under row rescaling.
    """
    if isinstance(spec, NormalizedBC):
        nbc = spec
    elif isinstance(spec, OperatorSpec):
        nbc = reduce_total_order(spec)
    else:
        nbc = reduce_total_order(tuple(spec))
    n = nbc.n
    forms = leading_forms(nbc)
    if tol is None:
        scale = float(np.prod([max(abs(a), abs(b)) for _, a, b in forms]))
        tol = 1e-9 * max(scale, 1e-300)
    theta0, theta1 = theta_determinants(forms, n)
    regular = abs(theta0) > tol and (theta1 is None or abs(theta1) > tol)
    return RegularityVerdict(regular, theta0, theta1, nbc.kappa, nbc.orders, tol)
