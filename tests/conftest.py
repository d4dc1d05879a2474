"""Shared fixtures: gallery access, a boundary-row builder, the roots a
ray scan reads, and a call counter."""

import sys

import numpy as np
import pytest

from regbvp import gallery
from regbvp.model import BoundaryRow
from regbvp.spectral import clearance_annulus, find_roots


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


def clearance_roots(nbc, ray, r_min, r_max):
    """The zeros a scan along ``ray`` checks its clearance against: those
    of the clearance annulus, the same for every ray."""
    return find_roots(nbc, clearance_annulus(r_min, r_max))


def count_calls(monkeypatch, module, name):
    """Record every call of ``module.name``, under each regbvp module's
    binding of it."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for loaded in list(sys.modules.values()):
        if (getattr(loaded, "__name__", "").startswith("regbvp")
                and getattr(loaded, name, None) is original):
            monkeypatch.setattr(loaded, name, counted)
    return calls


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture(params=sorted(gallery.EXAMPLES))
def gallery_spec(request):
    return request.param, gallery.build(request.param)
