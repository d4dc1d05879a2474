"""Operator specifications for two-point boundary value problems on [0, 1].

An operator of order ``n`` is given by a differential expression together
with ``n`` boundary rows.  Three input forms are supported:

* ``model``       -- the pure expression ``(-i)^n y^(n)``;
* ``classical``   -- ``(-i)^n y^(n) + p_2 y^(n-2) + ... + p_n y``;
* ``divergence``  -- an even-order expression assembled from coefficient
  triples ``(p_k, q_k, r_k)``, see :func:`expand_divergence`.

All coefficients are polynomials with complex coefficients.  Polynomial
arithmetic here is exact for integer inputs (no divisions are performed),
which the classification routines rely on.
"""

import cmath
import json
import math
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

__all__ = [
    "SpecError",
    "RankError",
    "Poly",
    "BoundaryRow",
    "ModelForm",
    "ClassicalForm",
    "DivergenceForm",
    "OperatorSpec",
    "parse_spec",
    "load_spec",
    "spec_to_document",
    "expand_divergence",
    "operator_coefficients",
    "as_divergence",
]


class SpecError(ValueError):
    """Malformed or inconsistent operator specification."""


class RankError(SpecError):
    """Boundary rows are linearly dependent."""


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------

def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(complex(c) for c in coeffs)


@dataclass(frozen=True)
class Poly:
    """Polynomial with complex coefficients, ascending powers.

    The zero polynomial is represented by an empty coefficient tuple;
    trailing zero coefficients are always trimmed so that equality of
    tuples is equality of polynomials.
    """

    coeffs: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim(self.coeffs))
        for c in self.coeffs:
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise SpecError("non-finite polynomial coefficient")

    @staticmethod
    def constant(value):
        return Poly((complex(value),))

    @property
    def degree(self):
        """Degree, with the convention degree(0) == -1."""
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            if self.is_zero() or other.is_zero():
                return Poly()
            out = [0j] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Poly(out)
        return Poly(tuple(complex(other) * c for c in self.coeffs))

    __rmul__ = __mul__

    def derivative(self, times=1):
        coeffs = self.coeffs
        for _ in range(times):
            coeffs = tuple(k * c for k, c in enumerate(coeffs))[1:]
        return Poly(coeffs)

    def __call__(self, x):
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc


ZERO = Poly()
ONE = Poly.constant(1)


# ---------------------------------------------------------------------------
# Boundary rows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryRow:
    """A single condition sum_s a_s y^(s)(0) + b_s y^(s)(1) = 0.

    ``a`` and ``b`` have length ``n``, indexed by the derivative order.
    """

    a: tuple
    b: tuple

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(complex(c) for c in self.a))
        object.__setattr__(self, "b", tuple(complex(c) for c in self.b))
        if len(self.a) != len(self.b):
            raise SpecError("boundary row endpoint blocks differ in length")

    @property
    def n(self):
        return len(self.a)

    def order(self):
        """Largest derivative order with a nonzero coefficient pair."""
        for s in range(self.n - 1, -1, -1):
            if max(abs(self.a[s]), abs(self.b[s])) > 0.0:
                return s
        return -1

    def as_vector(self):
        """Concatenated coefficient vector (a_0..a_{n-1}, b_0..b_{n-1})."""
        return np.array(self.a + self.b, dtype=complex)

    @staticmethod
    def from_vector(vec):
        vec = np.asarray(vec, dtype=complex)
        n = vec.size // 2
        return BoundaryRow(tuple(vec[:n]), tuple(vec[n:]))


# ---------------------------------------------------------------------------
# Differential expression forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelForm:
    """The pure expression (-i)^n y^(n)."""


@dataclass(frozen=True)
class ClassicalForm:
    """(-i)^n y^(n) + p_2 y^(n-2) + ... + p_n y; ``p`` keyed by j, read-only."""

    p: MappingProxyType = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "p", MappingProxyType(dict(self.p)))


@dataclass(frozen=True)
class DivergenceForm:
    """Even-order expression built from coefficient triples.

    The expression of order ``2m`` is

        sum_{k=0}^{m} (-1)^k { (p_k y^(k))^(k)
                               - [ (q_k y^(k))^(k-1) + (r_k y^(k-1))^(k) ] }

    with ``p_m = 1`` and ``r_0 = 0``; brackets whose derivative order index
    is negative (the k = 0 bracket) are absent.  Coefficient tuples are
    indexed by k and have length m + 1.
    """

    m: int
    p: tuple
    q: tuple
    r: tuple

    def __post_init__(self):
        m = self.m
        for name in ("p", "q", "r"):
            val = tuple(getattr(self, name))
            if len(val) != m + 1:
                raise SpecError(f"divergence coefficient block '{name}' must have {m + 1} entries")
            object.__setattr__(self, name, val)
        if self.p[m] != ONE:
            raise SpecError("divergence form requires p_m = 1")
        if not self.r[0].is_zero():
            raise SpecError("divergence form requires r_0 = 0")
        if not self.q[0].is_zero():
            raise SpecError("divergence form has no q_0 coefficient")

    @staticmethod
    def model(m):
        """The divergence form of the model expression of order 2m."""
        p = [ZERO] * (m + 1)
        p[m] = ONE
        zeros = tuple([ZERO] * (m + 1))
        return DivergenceForm(m, tuple(p), zeros, zeros)


@dataclass(frozen=True)
class OperatorSpec:
    """A differential expression of order ``n`` plus ``n`` boundary rows."""

    order: int
    form: object
    rows: tuple

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        n = self.order
        if not (isinstance(n, int) and n >= 1):
            raise SpecError("order must be a positive integer")
        if isinstance(self.form, DivergenceForm):
            if n != 2 * self.form.m:
                raise SpecError("divergence form order mismatch")
        elif not isinstance(self.form, (ModelForm, ClassicalForm)):
            raise SpecError(f"unknown form {self.form!r}")
        if isinstance(self.form, ClassicalForm):
            for j in self.form.p:
                if not (isinstance(j, int) and 2 <= j <= n):
                    raise SpecError(f"classical coefficient index {j} outside 2..{n}")
        if len(self.rows) != n:
            raise SpecError(f"expected {n} boundary rows, got {len(self.rows)}")
        for row in self.rows:
            if row.n != n:
                raise SpecError("boundary row length does not match the order")
        _check_row_rank(self.rows)


def _check_row_rank(rows):
    mat = np.array([row.as_vector() for row in rows])
    if mat.size == 0:
        raise SpecError("no boundary rows")
    scale = max(np.abs(mat).max(), 1.0)
    rank = np.linalg.matrix_rank(mat, tol=1e-12 * scale * max(mat.shape))
    if rank < len(rows):
        raise RankError(f"boundary rows have rank {rank} < {len(rows)}")


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

def _parse_complex(value, what):
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)):
        raise SpecError(f"{what}: expected a [re, im] pair, got {value!r}")
    z = complex(value[0], value[1])
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise SpecError(f"{what}: non-finite component")
    return z


def _parse_poly(value, what):
    if not isinstance(value, list):
        raise SpecError(f"{what}: expected a list of [re, im] pairs")
    return Poly(tuple(_parse_complex(entry, what) for entry in value))


def _parse_indexed_polys(block, what, lo, hi):
    """Parse {"<k>": poly} with integer keys in [lo, hi] into a dict."""
    if block is None:
        return {}
    if not isinstance(block, dict):
        raise SpecError(f"{what}: expected an object keyed by integer strings")
    out = {}
    for key, value in block.items():
        try:
            k = int(key)
        except (TypeError, ValueError):
            raise SpecError(f"{what}: bad index {key!r}") from None
        if not lo <= k <= hi:
            raise SpecError(f"{what}: index {k} outside {lo}..{hi}")
        out[k] = _parse_poly(value, f"{what}[{k}]")
    return out


def parse_spec(document) -> OperatorSpec:
    """Build an :class:`OperatorSpec` from a JSON-style document."""
    if not isinstance(document, dict):
        raise SpecError("input document must be a JSON object")
    unknown = set(document) - {"order", "form", "boundary_conditions"}
    if unknown:
        raise SpecError(f"unknown top-level keys {sorted(unknown)}")
    n = document.get("order")
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise SpecError("'order' must be a positive integer")

    form_doc = document.get("form")
    if not isinstance(form_doc, dict) or "type" not in form_doc:
        raise SpecError("'form' must be an object with a 'type'")
    ftype = form_doc["type"]
    if ftype == "model":
        form = ModelForm()
    elif ftype == "classical":
        p = _parse_indexed_polys(form_doc.get("p"), "form.p", 2, n)
        form = ClassicalForm(p)
    elif ftype == "divergence":
        if n % 2:
            raise SpecError("divergence form requires an even order")
        m = n // 2
        p = _parse_indexed_polys(form_doc.get("p"), "form.p", 0, m)
        q = _parse_indexed_polys(form_doc.get("q"), "form.q", 1, m)
        r = _parse_indexed_polys(form_doc.get("r"), "form.r", 1, m)
        form = DivergenceForm(
            m,
            tuple(p.get(k, ONE if k == m else ZERO) for k in range(m + 1)),
            tuple(q.get(k, ZERO) for k in range(m + 1)),
            tuple(r.get(k, ZERO) for k in range(m + 1)),
        )
    else:
        raise SpecError(f"unknown form type {ftype!r}")

    rows_doc = document.get("boundary_conditions")
    if not isinstance(rows_doc, list):
        raise SpecError("'boundary_conditions' must be a list")
    rows = []
    for idx, row_doc in enumerate(rows_doc):
        if not isinstance(row_doc, dict) or set(row_doc) - {"a", "b"}:
            raise SpecError(f"boundary row {idx}: expected an object with keys 'a', 'b'")
        coeffs = {"a": [0j] * n, "b": [0j] * n}
        for side in ("a", "b"):
            block = row_doc.get(side, {})
            if not isinstance(block, dict):
                raise SpecError(f"boundary row {idx}.{side}: expected an object")
            for key, value in block.items():
                try:
                    s = int(key)
                except (TypeError, ValueError):
                    raise SpecError(f"boundary row {idx}.{side}: bad index {key!r}") from None
                if not 0 <= s <= n - 1:
                    raise SpecError(f"boundary row {idx}.{side}: derivative order {s} outside 0..{n - 1}")
                coeffs[side][s] = _parse_complex(value, f"boundary row {idx}.{side}[{s}]")
        row = BoundaryRow(tuple(coeffs["a"]), tuple(coeffs["b"]))
        if row.order() < 0:
            raise SpecError(f"boundary row {idx} is identically zero")
        rows.append(row)

    return OperatorSpec(n, form, tuple(rows))


def load_spec(path) -> OperatorSpec:
    """Parse an operator specification from a JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecError(f"cannot read specification {path}: {exc}") from exc
    return parse_spec(document)


def _complex_pair(z):
    return [float(z.real), float(z.imag)]


def _poly_doc(p: Poly):
    return [_complex_pair(c) for c in p.coeffs]


def spec_to_document(spec: OperatorSpec) -> dict:
    """Serialize back to the JSON wire format (parse/serialize round-trips)."""
    form = spec.form
    if isinstance(form, ModelForm):
        form_doc = {"type": "model"}
    elif isinstance(form, ClassicalForm):
        form_doc = {
            "type": "classical",
            "p": {str(j): _poly_doc(p) for j, p in sorted(form.p.items()) if p},
        }
    else:
        form_doc = {"type": "divergence"}
        for name in ("p", "q", "r"):
            block = {str(k): _poly_doc(c) for k, c in enumerate(getattr(form, name)) if c}
            if block:
                form_doc[name] = block
    rows_doc = []
    for row in spec.rows:
        row_doc = {"a": {}, "b": {}}
        for side in ("a", "b"):
            for s, c in enumerate(getattr(row, side)):
                if c != 0:
                    row_doc[side][str(s)] = _complex_pair(c)
        rows_doc.append(row_doc)
    return {"order": spec.order, "form": form_doc, "boundary_conditions": rows_doc}


# ---------------------------------------------------------------------------
# Expression expansion
# ---------------------------------------------------------------------------

def _iter_term(coeff: Poly, base: int, times: int):
    """Expand (coeff * y^(base))^(times) into {derivative order: Poly}."""
    terms = {base: coeff}
    for _ in range(times):
        new = {}
        for s, c in terms.items():
            dc = c.derivative()
            if dc:
                new[s] = new.get(s, ZERO) + dc
            new[s + 1] = new.get(s + 1, ZERO) + c
        terms = new
    return terms


def expand_divergence(form: DivergenceForm):
    """Expand a divergence form into classical coefficients.

    Returns the tuple ``(c_0, ..., c_n)`` of polynomials with
    ``l(y) = sum_j c_j y^(j)``; the leading coefficient is ``(-1)^m``.
    """
    m = form.m
    n = 2 * m
    acc = {j: ZERO for j in range(n + 1)}

    def add(terms, sign):
        for s, c in terms.items():
            acc[s] = acc[s] + sign * c

    for k in range(m + 1):
        sign = (-1) ** k
        if form.p[k]:
            add(_iter_term(form.p[k], k, k), sign)
        if k >= 1 and form.q[k]:
            add(_iter_term(form.q[k], k, k - 1), -sign)
        if k >= 1 and form.r[k]:
            add(_iter_term(form.r[k], k - 1, k), -sign)
    return tuple(acc[j] for j in range(n + 1))


def operator_coefficients(spec: OperatorSpec):
    """Classical coefficients ``(c_0, ..., c_n)`` of the expression, any form."""
    n = spec.order
    form = spec.form
    if isinstance(form, DivergenceForm):
        return expand_divergence(form)
    coeffs = [ZERO] * (n + 1)
    coeffs[n] = Poly.constant((-1j) ** n)
    if isinstance(form, ClassicalForm):
        for j, p in form.p.items():
            coeffs[n - j] = coeffs[n - j] + p
    return tuple(coeffs)


def as_divergence(spec: OperatorSpec) -> OperatorSpec:
    """Rewrite a model-form spec of even order in divergence form.

    Note (-i)^n = (-1)^m for n = 2m, so the model expression is the
    divergence form with p_m = 1 and all other coefficients zero.
    """
    if isinstance(spec.form, DivergenceForm):
        return spec
    if not isinstance(spec.form, ModelForm):
        raise SpecError("only model-form specs can be rewritten in divergence form")
    if spec.order % 2:
        raise SpecError("divergence form requires an even order")
    return OperatorSpec(spec.order, DivergenceForm.model(spec.order // 2), spec.rows)
