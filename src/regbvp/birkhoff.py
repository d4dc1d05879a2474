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

The expansion runs row by row as n array passes over a plan built once
per order n (:class:`_Plan`).  The plan holds the states (used, S) of
each step; the pairs (state, free column, alpha or beta), in a fixed
order and with their signs; which pairs reach each state of the next
step; and each subset's frequency and frequency class.  A pass convolves
the polynomials of all pairs with the row's entries at once and sums the
products into each state in pair order, and the merge of equal
frequencies is one scatter that the plan indexes.  The coefficients
therefore agree with an expansion that convolves pair by pair only up
to rounding.

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


@functools.lru_cache(maxsize=16)
def unit_roots(n):
    """The n-th roots of unity eps_k, k = 1..n, snapped to exact values
    when representable (so n = 1, 2, 4 stay Gaussian integers)."""
    return tuple(_snap(cmath.exp(2j * cmath.pi * k / n)) for k in range(n))


class _Plan(NamedTuple):
    """The row-by-row expansion of an order-n determinant, laid out for
    array passes (see :func:`determinant_terms`).

    A state is a pair (used, S) of column masks: the columns the rows so
    far have taken, and those of them taken from beta.  Row step j pairs
    each state i it starts from with each free column k, ascending, and
    with alpha, then beta; in ``steps[j] = (columns, sources)``,
    ``columns[i, t]`` is the t-th free column k of state i, plus n where
    the sign (-1)^(used columns above k) is -1.  Each state of the next
    step is reached by j + 1 pairs, one per column it uses, and row i of
    ``sources`` lists those of state i in pair order.  States are
    numbered in the order the expansion first reaches them, except those
    of the last step, which hold every column and are numbered by S.
    ``powers[k, s]`` is (i eps_k)^s, ``freqs[S]`` is f_S and
    ``classes[S]`` the first subset whose frequency lies within 1e-12 of
    f_S."""

    powers: np.ndarray
    steps: tuple
    freqs: np.ndarray
    classes: np.ndarray


@functools.lru_cache(maxsize=8)
def _plan(n):
    """The :class:`_Plan` of order n, built once; its arrays are read-only,
    since the cache shares them."""
    eps = unit_roots(n)
    states, steps = [(0, 0)], []
    for j in range(n):
        reached, columns, targets = {}, [], []
        for used, subset in states:
            free = [k for k in range(n) if not used >> k & 1]
            columns.append([k + n * ((used >> k).bit_count() % 2) for k in free])
            targets += [reached.setdefault((used | 1 << k, subset | taken), len(reached))
                        for k in free for taken in (0, 1 << k)]
        states = list(reached)
        if j == n - 1:
            targets = [states[target][1] for target in targets]
        steps.append((np.array(columns),
                      np.argsort(targets, kind="stable").reshape(len(states), j + 1)))
    freqs = np.array([_snap(sum(eps[k] for k in range(n) if subset >> k & 1))
                      for subset in range(1 << n)])
    plan = _Plan(np.array([[(1j * e) ** s for s in range(n)] for e in eps]), tuple(steps),
                 freqs, np.argmax(np.abs(freqs[:, None] - freqs) <= 1e-12, axis=1))
    for array in (plan.powers, plan.freqs, plan.classes, *(a for step in steps for a in step)):
        array.flags.writeable = False
    return plan


def determinant_terms(n, rows):
    """The characteristic determinant of ``rows`` as an exponential
    polynomial, one term per column subset.

    ``rows`` are n pairs (a, b) of the coefficients of y^(s)(0) and
    y^(s)(1), s < n.  On e^(i eps_k rho x) row j takes the value
    alpha_jk(rho) + e^(i eps_k rho) beta_jk(rho), with
    alpha_jk(rho) = sum_s a_js (i eps_k rho)^s and beta_jk likewise from
    b, so by multilinearity in the columns

        Delta(rho) = sum_S P_S(rho) e^(i rho f_S),   f_S = sum_(k in S) eps_k,

    where P_S is the determinant that takes the columns k in S from beta.
    The expansion runs row by row, without division, as n array passes
    over the :class:`_Plan` of order n.  A state (used, S) carries the
    polynomial of the rows so far on the columns ``used``, those in S
    taken from beta, and the moduli sums of its coefficients.  Pass j
    pairs each state with each free column and with alpha or beta,
    convolves the state's polynomial and moduli with the pair's signed
    row entry and its moduli by deg + 1 shifted multiply-adds over all
    pairs at once, and gives each state of the next step the sum of the
    products of the pairs that reach it, in pair order.  The coefficients
    therefore agree with a convolution per pair only up to rounding.

    Returns {S: (f_S, P_S, M_S)}, ascending in S, over the column subsets
    S (bit masks) that some product of nonzero entries reaches: P_S holds
    the coefficients of P_S(rho), ascending, and M_S the sums of the
    moduli of the products added into each of them.
    """
    if len(rows) != n:
        raise ValueError(f"expected {n} rows, got {len(rows)}")
    plan = _plan(n)
    table = np.ones((1, 2, 1), dtype=complex)       # state x (P, M) x coefficient
    for (columns, sources), (a, b) in zip(plan.steps, rows):
        deg = max((s for s in range(n) if a[s] != 0 or b[s] != 0), default=0)
        factors = np.empty((2 * n, 2, 2, deg + 1), dtype=complex)  # signed column, a/b, P/M, s
        factors[:n, :, 0] = np.array([a[:deg + 1], b[:deg + 1]]) * plan.powers[:, None, :deg + 1]
        factors[n:, :, 0] = -factors[:n, :, 0]
        factors[:, :, 1] = np.abs(factors[:, :, 0])
        factors = factors[columns]
        width = table.shape[-1]
        products = np.zeros(factors.shape[:-1] + (width + deg,), dtype=complex)
        for s in range(deg + 1):
            products[..., s:s + width] += table[:, None, None] * factors[..., s, None]
        table = products.reshape(-1, 2, width + deg)[sources].sum(axis=1)
    polys, moduli = table[:, 0], table[:, 1].real
    return {subset: (complex(plan.freqs[subset]), polys[subset], moduli[subset])
            for subset in np.flatnonzero(moduli.any(axis=1)).tolist()}


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
    if not size:
        return 0
    steps = np.zeros((freqs.size, size + 1), dtype=complex)
    steps[:, 0] = 1.0
    steps[:, 1:size] = 1j * freqs[:, None] / np.arange(1, size)
    series = np.cumprod(steps, axis=1)          # (i f)^l / l!, then a zero column
    # row (f, d) of the table holds the factor of P_f[d] in t_j,
    # (i f)^(j - d) / (j - d)!, and 0 where d > j: one product with the
    # coefficient table gives every t_j, one with the moduli their scales
    lag = np.arange(size) - np.arange(coeffs.shape[1])[:, None]
    table = series[:, np.where(lag >= 0, lag, size)].reshape(-1, size)
    taylor = coeffs.reshape(-1) @ table
    scale = moduli.reshape(-1) @ np.abs(table)
    return int(np.argmax(~_negligible(taylor, scale)))


@functools.lru_cache(maxsize=16)
def _delta(rows):
    """The Delta of the normalized ``rows``, built once per operator: the
    terms of :func:`determinant_terms` with equal frequencies (a class of
    the :class:`_Plan`) merged, and the coefficients :func:`_negligible`
    set to zero, and the order k of its zero at 0.  A frequency left with
    none is dropped, so Delta vanishes identically when none is left."""
    n = len(rows)
    terms = determinant_terms(n, [(row.a, row.b) for row in rows])
    plan, subsets = _plan(n), np.array(list(terms))
    # each subset joins the first subset of its frequency class that Delta
    # has, and the scatter sums each class in subset order
    classes = plan.classes[subsets]
    first = np.argmax(classes[:, None] == classes, axis=1)
    firsts = np.flatnonzero(first == np.arange(first.size))
    group = np.searchsorted(firsts, first)
    _, polys, sums = map(np.array, zip(*terms.values()))
    coeffs = np.zeros((firsts.size, polys.shape[1]), dtype=complex)
    moduli = np.zeros(coeffs.shape)
    np.add.at(coeffs, group, polys)
    np.add.at(moduli, group, sums)
    coeffs[_negligible(coeffs, moduli)] = 0.0
    kept = coeffs.any(axis=1)
    freqs, coeffs, moduli = plan.freqs[subsets[firsts]][kept], coeffs[kept], moduli[kept]
    delta = _Delta(n, freqs, coeffs, _origin_order(freqs, coeffs, moduli))
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
