"""Shared fixtures: gallery access, a boundary-row builder, and the roots
a ray scan reads."""

import numpy as np
import pytest

from regbvp import gallery
from regbvp.model import BoundaryRow
from regbvp.spectral import clearance_region, find_roots


REGULAR_GALLERY = ("dirichlet2", "dirichlet4", "neumann2", "neumann4",
                   "periodic2", "robin2", "mixed4")


def make_row(n, a=(), b=()):
    """Row from (derivative order, coefficient) pairs at each endpoint."""
    left, right = [0j] * n, [0j] * n
    for s, v in a:
        left[s] = complex(v)
    for s, v in b:
        right[s] = complex(v)
    return BoundaryRow(tuple(left), tuple(right))


def clearance_roots(nbc, ray, r_min, r_max, delta=0.5):
    """The zeros a scan along ``ray`` checks its clearance against."""
    return find_roots(nbc, *clearance_region(ray, r_min, r_max, delta))


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture(params=sorted(gallery.EXAMPLES))
def gallery_spec(request):
    return request.param, gallery.build(request.param)
