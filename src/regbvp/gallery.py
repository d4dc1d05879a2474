"""Built-in example operators used by the command line tools and tests.

All expressions are constant-coefficient divergence forms (so every other
module applies to them); the variety is in the boundary rows: separated,
periodic, initial-value (degenerate), and a mixed set whose quadratic form
is unbounded in every direction.
"""

from .model import BoundaryRow, DivergenceForm, OperatorSpec

__all__ = [
    "dirichlet2",
    "dirichlet4",
    "neumann2",
    "neumann4",
    "periodic2",
    "cauchy2",
    "mixed4",
    "robin2",
    "EXAMPLES",
    "build",
]


def _row(n, a=(), b=()):
    av = [0j] * n
    bv = [0j] * n
    for s, v in a:
        av[s] = complex(v)
    for s, v in b:
        bv[s] = complex(v)
    return BoundaryRow(tuple(av), tuple(bv))


def dirichlet2():
    """-y'' with y(0) = y(1) = 0."""
    return OperatorSpec(2, DivergenceForm.model(1), [
        _row(2, a=[(0, 1)]),
        _row(2, b=[(0, 1)]),
    ])


def dirichlet4():
    """y'''' with y = y' = 0 at both ends (clamped)."""
    return OperatorSpec(4, DivergenceForm.model(2), [
        _row(4, a=[(0, 1)]),
        _row(4, a=[(1, 1)]),
        _row(4, b=[(0, 1)]),
        _row(4, b=[(1, 1)]),
    ])


def neumann2():
    """-y'' with y'(0) = y'(1) = 0."""
    return OperatorSpec(2, DivergenceForm.model(1), [
        _row(2, a=[(1, 1)]),
        _row(2, b=[(1, 1)]),
    ])


def neumann4():
    """y'''' with y'' = y''' = 0 at both ends (free)."""
    return OperatorSpec(4, DivergenceForm.model(2), [
        _row(4, a=[(2, 1)]),
        _row(4, a=[(3, 1)]),
        _row(4, b=[(2, 1)]),
        _row(4, b=[(3, 1)]),
    ])


def periodic2():
    """-y'' with y(0) = y(1), y'(0) = y'(1); all eigenvalues double."""
    return OperatorSpec(2, DivergenceForm.model(1), [
        _row(2, a=[(1, 1)], b=[(1, -1)]),
        _row(2, a=[(0, 1)], b=[(0, -1)]),
    ])


def cauchy2():
    """-y'' with y(0) = y'(0) = 0: an initial-value problem with empty
    spectrum, the standard non-regular control case."""
    return OperatorSpec(2, DivergenceForm.model(1), [
        _row(2, a=[(0, 1)]),
        _row(2, a=[(1, 1)]),
    ])


def mixed4():
    """y'''' with -y'''(0) + y''(0) + y(0) = 0, y'''(1) + y(1) = 0,
    y'(0) = 0, y'(1) = 0: regular in the determinant sense, but the
    quadratic form values fill the whole plane."""
    return OperatorSpec(4, DivergenceForm.model(2), [
        _row(4, a=[(3, -1), (2, 1), (0, 1)]),
        _row(4, b=[(3, 1), (0, 1)]),
        _row(4, a=[(1, 1)]),
        _row(4, b=[(1, 1)]),
    ])


def robin2():
    """-y'' with y'(0) - y(0) = 0, y'(1) + 2 y(1) = 0: separated rows
    with a nonzero boundary contribution to the quadratic form."""
    return OperatorSpec(2, DivergenceForm.model(1), [
        _row(2, a=[(1, 1), (0, -1)]),
        _row(2, b=[(1, 1), (0, 2)]),
    ])


EXAMPLES = {
    "dirichlet2": dirichlet2,
    "dirichlet4": dirichlet4,
    "neumann2": neumann2,
    "neumann4": neumann4,
    "periodic2": periodic2,
    "cauchy2": cauchy2,
    "mixed4": mixed4,
    "robin2": robin2,
}


def build(name: str) -> OperatorSpec:
    """Look up a named example; raises KeyError with the known names."""
    try:
        factory = EXAMPLES[name]
    except KeyError:
        known = ", ".join(sorted(EXAMPLES))
        raise KeyError(f"unknown example {name!r}; known examples: {known}") from None
    return factory()
