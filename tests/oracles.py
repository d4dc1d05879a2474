"""Independent reference implementations used by the test suite.

Everything in this module is deliberately written along a different
algorithmic path than the library code it checks: determinants are
expanded recursively by cofactors, or factored by numpy's LU, instead
of the library's subset expansion (or, for that expansion itself,
by one convolution per product), differential expressions are expanded with raw
coefficient-list arithmetic instead of the Poly class, integrals
are evaluated term by term from monomials, and the split quadratic form
is summed term by term on the derivative jets of the basis instead of
on the coefficients first.  Agreement between the two
paths is what the tests assert.
"""

import cmath
import math
import random
from fractions import Fraction

import numpy as np

from regbvp.birkhoff import _negligible, _origin_order, _snap, unit_roots
from regbvp.legendre import multiplication
from regbvp.model import BoundaryRow, OperatorSpec
from regbvp.quasiform import check_completely_regular, split_jets


# ---------------------------------------------------------------------------
# Determinants by recursive cofactor expansion
# ---------------------------------------------------------------------------

def cofactor_det(matrix):
    """Determinant via Laplace expansion along the first row."""
    size = len(matrix)
    if size == 0:
        return 1.0 + 0.0j
    if size == 1:
        return complex(matrix[0][0])
    total = 0j
    for col in range(size):
        entry = matrix[0][col]
        if entry == 0:
            continue
        minor = [row[:col] + row[col + 1:] for row in matrix[1:]]
        sign = -1.0 if col % 2 else 1.0
        total += sign * entry * cofactor_det(minor)
    return total


def theta_pair(forms, n):
    """(theta0, theta1) from leading forms, built from scratch.

    The matrix convention matches the library: row j of the determinant
    holds a_j eps_k^{k_j} for the first ceil(n/2) roots of unity and
    b_j eps_k^{k_j} for the rest; the odd-order companion flips the
    middle column from a to b.
    """
    eps = [cmath.rect(1.0, 2.0 * math.pi * k / n) for k in range(n)]
    m = (n + 1) // 2

    def build(swap_middle):
        mat = []
        for (k, a, b) in forms:
            row = []
            for i in range(n):
                use_b = i >= m or (swap_middle and i == m - 1)
                row.append((b if use_b else a) * eps[i] ** k)
            mat.append(row)
        return mat

    theta0 = cofactor_det(build(False))
    if n % 2 == 0:
        return theta0, None
    return theta0, cofactor_det(build(True))


def boundary_logdet(rows, rho):
    """(phase, log|det|, condition) of the boundary matrix
    [U_j(e^(i eps_k rho x))] at ``rho``, by numpy's LU.

    The matrix is built from the raw rows with unit roots from cmath, not
    by the library's subset expansion.  Every column and then every row
    is scaled to unit largest modulus before the factorization, and the
    logs of the scale factors are added back; ``condition`` is the
    2-norm condition number of the scaled matrix, which bounds the
    relative error of its determinant to about eps times itself.
    """
    n = len(rows)
    z = [1j * cmath.rect(1.0, 2.0 * math.pi * k / n) * rho for k in range(n)]
    mat = np.array([[sum((row.a[s] + row.b[s] * cmath.exp(zk)) * zk ** s for s in range(n))
                     for zk in z] for row in rows])
    cols = np.abs(mat).max(axis=0)
    mat = mat / cols
    row_max = np.abs(mat).max(axis=1)
    mat = mat / row_max[:, None]
    phase, log_abs = np.linalg.slogdet(mat)
    return (complex(phase), float(log_abs + np.log(cols).sum() + np.log(row_max).sum()),
            float(np.linalg.cond(mat)))


def mp_char_zero(rows, rho, multiplicity=1, dps=40):
    """The zero near ``rho`` of det[U_j(e^(i eps_k rho x))] for ``rows``,
    in ``dps``-digit mpmath; for an m-fold zero, the zero of the
    (m-1)-th derivative, which is simple there.

    The entries sum_s (a_js + b_js e^(z_k)) z_k^s, z_k = i eps_k rho,
    are built from the raw rows with eps_k = exp(2 pi i k / n) in
    mpmath, the determinant is expanded by cofactors (mpmath's LU returns
    0 once its pivot falls below its own tolerance, near the zero), a
    derivative is mpmath's numerical one, and the zero is mpmath's
    secant iteration from ``rho`` and a point 1e-8 (1 + |rho|) beside
    it.  mpmath is imported here, so the module loads without it.
    """
    import mpmath

    with mpmath.workdps(dps):
        n = len(rows)
        eps = [mpmath.expjpi(mpmath.mpf(2 * k) / n) for k in range(n)]
        a, b = ([[mpmath.mpc(c) for c in getattr(row, side)] for row in rows] for side in "ab")

        def cofactors(mat):
            if len(mat) == 1:
                return mat[0][0]
            return mpmath.fsum((-1) ** col * mat[0][col]
                               * cofactors([row[:col] + row[col + 1:] for row in mat[1:]])
                               for col in range(len(mat)))

        def det(r):
            z = [mpmath.mpc(0, 1) * e * r for e in eps]
            ez = [mpmath.exp(zk) for zk in z]
            return cofactors([[mpmath.fsum((a[j][s] + b[j][s] * ez[k]) * z[k] ** s
                                           for s in range(n)) for k in range(n)]
                              for j in range(n)])

        def target(r):
            return det(r) if multiplicity == 1 else mpmath.diff(det, r, multiplicity - 1)

        start = mpmath.mpc(rho)
        return complex(mpmath.findroot(target, (start, start + 1e-8 * (1 + abs(rho))),
                                       verify=False))


def winding_number(phase, center, radius):
    """Change of arg of ``phase(rho)`` around a circle, in turns; the
    circle is sampled until no phase step exceeds pi / 2."""
    count = 16
    while True:
        points = center + radius * np.exp(2j * np.pi * np.arange(count + 1) / count)
        steps = np.angle(np.exp(1j * np.diff([cmath.phase(phase(p)) for p in points])))
        if np.all(np.abs(steps) < 0.5 * math.pi) or count >= 4096:
            return float(steps.sum()) / (2.0 * math.pi)
        count *= 2


# ---------------------------------------------------------------------------
# Coefficient-list polynomial arithmetic (ascending powers)
# ---------------------------------------------------------------------------

def c_mul(f, g):
    out = [0j] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def c_add(f, g):
    out = [0j] * max(len(f), len(g))
    for i, a in enumerate(f):
        out[i] += a
    for i, b in enumerate(g):
        out[i] += b
    return out


def c_scale(f, s):
    return [s * a for a in f]


def c_diff(f, times=1):
    for _ in range(times):
        f = [k * a for k, a in enumerate(f)][1:] or [0j]
    return f


def c_eval(f, x):
    acc = 0j
    for a in reversed(f):
        acc = acc * x + a
    return acc


def c_int01(f):
    """Integral over [0, 1] from the monomial antiderivatives."""
    return sum(a / (k + 1) for k, a in enumerate(f))


def integral_01(p):
    """Definite integral of a Poly over [0, 1]."""
    return sum((c / (k + 1) for k, c in enumerate(p.coeffs)), 0j)


def apply_to_jets(row, jet0, jet1):
    """Evaluate a boundary row on derivative jets at the two endpoints."""
    return sum(row.a[s] * jet0[s] + row.b[s] * jet1[s] for s in range(row.n))


def inner_01(f, g):
    """L2(0, 1) inner product of two polynomials, conjugate-linear in
    ``g``, from their coefficient lists."""
    return c_int01(c_mul(list(f.coeffs), [b.conjugate() for b in g.coeffs]))


def symbolic_form_piece(count, a, b, j):
    """The count x count matrix of (x^j phi_l^(b), phi_k^(a)), row k and
    column l, for phi_k(x) = sqrt(2k + 1) P_k(2x - 1): the integrals are
    exact in rationals, from the integer monomial coefficients
    (-1)^(k + i) C(k, i) C(k + i, i) of P_k(2x - 1), and the square-root
    norms are applied at the end."""
    def diff(f, times):
        for _ in range(times):
            f = [i * c for i, c in enumerate(f)][1:] or [0]
        return f

    polys = [[(-1) ** (k + i) * math.comb(k, i) * math.comb(k + i, i) for i in range(k + 1)]
             for k in range(count)]
    out = np.empty((count, count))
    for k in range(count):
        left = diff(polys[k], a)
        for l in range(count):
            right = [0] * j + diff(polys[l], b)
            integral = sum(Fraction(x * y, s + t + 1)
                           for s, x in enumerate(left) for t, y in enumerate(right))
            out[k, l] = float(integral) * math.sqrt((2 * k + 1) * (2 * l + 1))
    return out


def expand_divergence_lists(m, p, q, r):
    """Classical coefficients c_0..c_{2m} of the divergence expression.

    Input blocks are coefficient lists indexed by k; implements
    sum_k (-1)^k [ (p_k y^(k))^(k) - (q_k y^(k))^(k-1) - (r_k y^(k-1))^(k) ]
    by distributing derivatives with the Leibniz rule one at a time.
    """
    coeffs = [[0j] for _ in range(2 * m + 1)]

    def add_term(weight, factor, base, times):
        # contributes weight * (factor * y^(base))^(times); each outer
        # derivative splits every product term in two via the Leibniz rule
        stack = [(factor, base)]
        for _ in range(times):
            stack = [piece
                     for fac, order in stack
                     for piece in ((c_diff(fac), order), (fac, order + 1))]
        for fac, order in stack:
            coeffs[order] = c_add(coeffs[order], c_scale(fac, weight))

    for k in range(m + 1):
        sign = -1.0 if k % 2 else 1.0
        add_term(sign, list(p[k]), k, k)
        if k >= 1:
            add_term(-sign, list(q[k]), k, k - 1)
            add_term(-sign, list(r[k]), k - 1, k)
    return coeffs


# ---------------------------------------------------------------------------
# The split quadratic form, one product per term
# ---------------------------------------------------------------------------

def pairwise_split_form(spec, dim):
    """``quasiform.split_form`` summed term by term on the jets
    J_k = D_k Q of the constrained basis Q: J_k^H (p_k J_k), J_{k-1}^H
    (q_k J_k) and -J_k^H (r_k J_{k-1}) for every nonzero coefficient,
    each by ``legendre.multiplication`` and one product, and the boundary
    term (A y_wedge, y_wedge), or (y_vee, y_wedge) when the splitting is
    not completely regular, added first."""
    report = check_completely_regular(spec)
    form = report.spec.form
    jets, wedge, vee = split_jets(report, dim)

    def term(poly, left, right):
        if poly.degree == 0:
            return poly.coeffs[0] * (left.conj().T @ right)
        return left.conj().T @ multiplication(poly, right)

    out = wedge.conj().T @ (vee if report.A is None else report.A @ wedge)
    for k in range(form.m + 1):
        if form.p[k]:
            out = out + term(form.p[k], jets[k], jets[k])
        if form.q[k]:
            out = out + term(form.q[k], jets[k - 1], jets[k])
        if form.r[k]:
            out = out - term(form.r[k], jets[k], jets[k - 1])
    return out


# ---------------------------------------------------------------------------
# The characteristic determinant, one convolution per product
# ---------------------------------------------------------------------------

def pairwise_determinant_terms(n, rows):
    """``birkhoff.determinant_terms`` expanded row by row over dict
    states (used, S), with one ``np.convolve`` per (state, column, alpha
    or beta) and the products added into each state in the order they
    are made: the same sums as the library's array passes, in another
    rounding order.  A zero row entry adds nothing."""
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
                sign = -1 if (used >> k).bit_count() % 2 else 1  # used columns above k
                for entry, taken in zip(entries[k], (0, bit)):
                    if entry.any():
                        key = (used | bit, subset | taken)
                        p, m = reached.get(key, (0, 0))
                        reached[key] = (p + sign * np.convolve(poly, entry),
                                        m + np.convolve(moduli, np.abs(entry)))
        states = reached
    return {subset: (_snap(sum(eps[k] for k in range(n) if subset >> k & 1)), poly, moduli)
            for (_, subset), (poly, moduli) in states.items()}


def pairwise_origin_order(rows):
    """The order of Delta's zero at 0 from :func:`pairwise_determinant_terms`,
    its frequencies merged by sorting the subsets and summing, in subset
    order, each term into the first whose frequency lies within 1e-12,
    then read by ``birkhoff._origin_order``."""
    terms = [term for _, term in sorted(pairwise_determinant_terms(
        len(rows), [(row.a, row.b) for row in rows]).items())]
    freqs = np.array([freq for freq, _, _ in terms])
    group = [int(np.argmax(np.abs(freqs - freq) <= 1e-12)) for freq in freqs]
    firsts = sorted(set(group))
    coeffs, moduli = (np.array([sum(term[part] for term, g in zip(terms, group) if g == first)
                                for first in firsts]) for part in (1, 2))
    coeffs[_negligible(coeffs, moduli)] = 0.0
    kept = coeffs.any(axis=1)
    return _origin_order(freqs[firsts][kept], coeffs[kept], moduli[kept])


# ---------------------------------------------------------------------------
# Random boundary rows of full rank
# ---------------------------------------------------------------------------

def random_rows(rng, n, max_tries=50):
    """Random complex boundary rows, resampled until they have rank n."""
    for _ in range(max_tries):
        mat = rng.normal(size=(n, 2 * n)) + 1j * rng.normal(size=(n, 2 * n))
        # sparsify a little so varied leading orders occur
        mask = rng.random(size=(n, 2 * n)) < 0.35
        mat[mask] = 0.0
        if np.linalg.matrix_rank(mat) < n:
            continue
        rows = tuple(BoundaryRow(tuple(row[:n]), tuple(row[n:])) for row in mat)
        return rows
    raise RuntimeError("could not draw full-rank rows")


def random_mix(rng, rows):
    """Recombine rows by a random invertible matrix."""
    n = len(rows)
    while True:
        t = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        if abs(np.linalg.det(t)) > 1e-3:
            break
    vecs = np.array([row.as_vector() for row in rows])
    mixed = t @ vecs
    return tuple(BoundaryRow(tuple(v[:n]), tuple(v[n:])) for v in mixed)


def remix_spec(rng, spec):
    """The same operator with recombined boundary rows."""
    return OperatorSpec(spec.order, spec.form, random_mix(rng, spec.rows))


# ---------------------------------------------------------------------------
# The random operators of the roots-random benchmark workload
# ---------------------------------------------------------------------------

# (order, coupled rows) of the six operators of one round
ROOTS_RANDOM_STRATA = ((2, False), (2, True), (4, False), (2, True), (2, False), (4, True))


def roots_random_rows(seed, count):
    """The boundary rows of the first ``count`` operators that the
    roots-random workload of ``perfbench/workloads.py`` draws from
    ``random.Random(seed)``, drawn the same way: complex N(0, 1)
    coefficients on y^(0..k).  Separated rows take n/2 distinct orders k
    at each end; coupled row j involves both ends, with k drawn from
    floor(j/2)..n-1."""
    rng = random.Random(seed)
    operators = []
    while len(operators) < count:
        for n, coupled in ROOTS_RANDOM_STRATA:
            if coupled:
                shape = [(rng.randrange(j // 2, n), "ab") for j in range(n)]
            else:
                shape = ([(k, "a") for k in rng.sample(range(n), n // 2)]
                         + [(k, "b") for k in rng.sample(range(n), n // 2)])
            rows = []
            for k, sides in shape:
                coeffs = {"a": [0j] * n, "b": [0j] * n}
                for side in sides:
                    for s in range(k + 1):
                        coeffs[side][s] = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
                rows.append(BoundaryRow(tuple(coeffs["a"]), tuple(coeffs["b"])))
            operators.append(tuple(rows))
    return operators[:count]
