"""Correctness checks on the outputs of the benchmark operations.

A problem is an output that the mathematics contradicts; any problem
makes the run incorrect.  A shortfall (forms-random only) is an answer
that the theory predicts and the program did not reach; it counts the
operation as failed.  No check compares printed digits with a golden
file: the last digits of some report fields move with the BLAS thread
count, so the checks use closed-form values, verdicts, flags and
independent winding counts.
"""

import cmath
import math

import numpy as np

from regbvp import numrange, spectral

# (Birkhoff regular, completely regular, numerical-range verdict)
GALLERY_VERDICTS = {
    "dirichlet2": (True, True, "half_plane"),
    "neumann2": (True, True, "half_plane"),
    "periodic2": (True, True, "half_plane"),
    "cauchy2": (False, False, "whole_plane"),
    "robin2": (True, True, "half_plane"),
    "dirichlet4": (True, True, "half_plane"),
    "neumann4": (True, True, "half_plane"),
    "mixed4": (True, False, "whole_plane"),
}

# The one report section allowed to carry an "error" field: cauchy2 has
# no eigenfunctions, so its Gram conditioning cannot be computed.
ALLOWED_ERRORS = {("cauchy2", "basis_conditioning")}

# Annulus of the report's spectrum section: 0.5 < |rho| < 20.
SPECTRUM_RHO_MAX = 20.0
EIGEN_RTOL = 1e-9


def _clamped_beam_roots(rho_max):
    """beta > 0 with cos(beta) cosh(beta) = 1, by bisection.

    One root lies near each (k + 1/2) pi, k >= 1; f = cos - 1/cosh
    changes sign on [(k + 1/2) pi - 0.3, (k + 1/2) pi + 0.3].
    """
    def f(beta):
        return math.cos(beta) - 1.0 / math.cosh(beta)

    out = []
    k = 1
    while (k + 0.5) * math.pi - 0.3 < rho_max:
        lo, hi = (k + 0.5) * math.pi - 0.3, (k + 0.5) * math.pi + 0.3
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if (f(lo) < 0) == (f(mid) < 0):
                lo = mid
            else:
                hi = mid
        beta = 0.5 * (lo + hi)
        if beta < rho_max:
            out.append(beta)
        k += 1
    return out


def _closed_form_spectra(rho_max):
    """Distinct eigenvalues (lambda, multiplicity) with 0.5 < rho < rho_max."""
    pi = math.pi
    string = [((k * pi) ** 2, 1) for k in range(1, int(rho_max / pi) + 1)]
    return {
        "dirichlet2": string,
        "neumann2": string,
        "periodic2": [((2 * k * pi) ** 2, 2) for k in range(1, int(rho_max / (2 * pi)) + 1)],
        "dirichlet4": [(beta ** 4, 1) for beta in _clamped_beam_roots(rho_max)],
    }


CLOSED_FORM = _closed_form_spectra(SPECTRUM_RHO_MAX)


def _error_paths(node, path=()):
    if isinstance(node, dict):
        if "error" in node:
            yield path
        for key, value in node.items():
            yield from _error_paths(value, path + (key,))


def _distinct_lambdas(roots):
    """(lambda, multiplicity) per distinct eigenvalue of a report's roots."""
    out = []
    for root in sorted(roots, key=lambda r: r["lambda"][0]):
        lam = complex(*root["lambda"])
        for i, (seen, mult) in enumerate(out):
            if abs(lam - seen) <= EIGEN_RTOL * abs(lam):
                out[i] = (seen, max(mult, root["multiplicity"]))
                break
        else:
            out.append((lam, root["multiplicity"]))
    return out


def check_report(name, document):
    """Problems in one gallery report document."""
    problems = []
    regular, complete, nr_verdict = GALLERY_VERDICTS[name]
    for path in _error_paths(document):
        if path and (name, path[0]) not in ALLOWED_ERRORS:
            problems.append(f"{name}: error field in {'.'.join(path)}")
    try:
        classification = document["classification"]
        got = (classification["birkhoff"]["regular"],
               classification["complete_regularity"]["verdict"],
               document["numerical_range"]["verdict"])
        if got != (regular, complete, nr_verdict):
            problems.append(f"{name}: verdicts {got} != {(regular, complete, nr_verdict)}")
        if regular:
            for section in ("green_decay", "resolvent_decay"):
                if document[section]["decay_bound_satisfied"] is not True:
                    problems.append(f"{name}: {section} bound not satisfied")
        expected = CLOSED_FORM.get(name)
        if expected is not None:
            spectrum = document["spectrum"]
            got_eigs = _distinct_lambdas(spectrum["roots"])
            if len(got_eigs) != len(expected) or spectrum["distinct_eigenvalues"] != len(expected):
                problems.append(f"{name}: {len(got_eigs)} distinct eigenvalues, "
                                f"expected {len(expected)}")
            else:
                for (lam, mult), (want, want_mult) in zip(got_eigs, expected):
                    if abs(lam - want) > EIGEN_RTOL * want or mult != want_mult:
                        problems.append(f"{name}: eigenvalue {lam} (x{mult}), "
                                        f"expected {want} (x{want_mult})")
    except (KeyError, TypeError) as exc:
        problems.append(f"{name}: report lacks {exc!r}")
    return problems


def winding_number(nbc, center, radius):
    """Zero count of the public ``char_det`` inside a small circle.

    The circle is sampled until no phase step exceeds pi/2, so the summed
    steps are the change of argument.
    """
    count = 16
    while True:
        points = center + radius * np.exp(2j * np.pi * np.arange(count + 1) / count)
        phases = np.array([cmath.phase(spectral.char_det(nbc, p).mantissa) for p in points])
        steps = np.angle(np.exp(1j * np.diff(phases)))
        if np.all(np.abs(steps) < 0.5 * math.pi) or count >= 4096:
            return float(steps.sum()) / (2 * math.pi)
        count *= 2


def check_roots(nbc, roots, annulus):
    """Each root lies in the annulus and its own small circle winds
    exactly ``multiplicity`` times; the residual field alone is not
    trusted (exact zeros are reported with residual = inf)."""
    problems = []
    r_min, r_max = annulus
    for i, root in enumerate(roots):
        rho = root.rho
        if not r_min * (1 - 1e-9) <= abs(rho) <= r_max * (1 + 1e-9):
            problems.append(f"root {rho} outside the annulus {annulus}")
            continue
        radius = 1e-3 * (1.0 + abs(rho))
        for j, other in enumerate(roots):
            if j != i:
                radius = min(radius, 0.4 * abs(rho - other.rho))
        winding = winding_number(nbc, rho, radius)
        if abs(winding - root.multiplicity) > 0.25:
            problems.append(f"root {rho}: winding {winding:.3f} != "
                            f"multiplicity {root.multiplicity}")
    return problems


def check_form(spec, completely_regular, residual, report):
    """Problems and shortfalls of one forms-random operation.

    A problem is an output the mathematics contradicts: a form-identity
    residual above 1e-10, or a completely regular splitting whose values
    fill the whole plane.  A shortfall is an answer the theory predicts
    but the program did not reach: "undetermined" for a completely
    regular splitting, or minima that decrease with the dimension by more
    than the Weyl bound eps * ||F_N|| of the largest Galerkin matrix
    (every smaller one is a compression of it, so its norm bounds
    theirs).  Shortfalls count the operation as failed.
    """
    problems, shortfalls = [], []
    if residual is not None and not residual <= 1e-10:
        problems.append(f"form identity residual {residual:.3e} > 1e-10")
    if report is None:
        return problems, shortfalls
    if completely_regular and report.verdict == "whole_plane":
        problems.append("completely regular but the numerical range fills the plane")
    elif completely_regular and report.verdict != "half_plane":
        shortfalls.append(f"completely regular but numerical range {report.verdict}: "
                          f"minima {report.minima}")
    form = numrange.galerkin_form(spec, report.dimensions[-1])
    bound = np.finfo(float).eps * np.linalg.norm(form, 2)
    for (d0, m0), (d1, m1) in zip(zip(report.dimensions, report.minima),
                                  zip(report.dimensions[1:], report.minima[1:])):
        if m1 < m0 - bound:
            shortfalls.append(f"minimum drops from {m0!r} (N={d0}) to {m1!r} (N={d1}), "
                              f"beyond the Weyl bound {bound:.3e}")
    return problems, shortfalls
