"""Command line front end.

Subcommands: ``classify``, ``spectrum``, ``scan``, ``numrange``, ``report``.
Inputs are operator-spec JSON files or names of built-in examples.  All
output is deterministic: floating-point values are rounded to 12
significant digits (numerical-range minima and the support values
``numrange -o`` writes, spectrum roots, the resolvent scan's exponent,
fit residual and sample ratio, and the resolvent samples ``scan -o``
writes, to the power of ten their error estimates allow; residuals and
error estimates to the power of ten at or above them), keys are sorted,
no random numbers are drawn, and nothing time- or machine-dependent is
emitted unless ``--timings`` is given.

Exit codes: 0 success (``classify``: regular), 3 not regular
(``classify`` only), 4 invalid input (including out-of-range flag
values), 1 runtime failure.
"""

import argparse
import cmath
import json
import math
import os
import sys
import time

from . import __version__
from . import birkhoff
from . import gallery
from . import geometry
from . import numrange
from . import quasiform
from . import spectral
from .model import (
    DivergenceForm,
    ModelForm,
    OperatorSpec,
    SpecError,
    as_divergence,
    load_spec,
    spec_to_document,
)
from .normalize import reduce_total_order

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_NOT_REGULAR = 3
EXIT_INVALID = 4

SPECTRUM_RMIN = 0.5
DEFAULT_RMAX = 20.0
DEFAULT_SCAN = {"rmin": 5.0, "rmax": 60.0, "samples": 24, "grid": 48}
DECAY_SLACK = 0.5
RARITY_MAX_LAG = 4
NUMRANGE_MIN_DIM = numrange.DEFAULT_DIMENSIONS[0]
GRAM_COUNT = 16
# ``report`` searches once, out to the clearance annulus of its scans
# (66.5); that covers the spectrum section and Gram conditioning too.
REPORT_RADIUS = max(DEFAULT_RMAX, spectral.clearance_annulus(
    DEFAULT_SCAN["rmin"], DEFAULT_SCAN["rmax"])[1])


# ---------------------------------------------------------------------------
# Deterministic JSON
# ---------------------------------------------------------------------------

def _sig(x):
    """Round to 12 significant digits; normalizes -0.0 and non-finite values."""
    x = float(x)
    if not math.isfinite(x):
        return repr(x)
    if x == 0.0:
        return 0.0
    return float("%.11e" % x)


def _round_to_bound(value, bound):
    """``value`` rounded to the power of ten at or above 10 * ``bound``.

    A quantum finer than 12 significant digits is left to :func:`_sig`,
    so that the value is rounded once.
    """
    value = float(value)
    if value == 0.0 or not math.isfinite(value) or not 0.0 < bound < math.inf:
        return value
    digits = -math.ceil(math.log10(10.0 * bound))
    if digits > 11 - math.floor(math.log10(abs(value))):
        return value
    return round(value, digits)


def _decade_above(bound):
    """The smallest power of ten at or above ``bound``; 0 and non-finite
    bounds pass through."""
    return 10.0 ** math.ceil(math.log10(bound)) if 0.0 < bound < math.inf else bound


def _root_document(root, n):
    """A root printed to the digits its error bound backs.

    The computed rho is within about eps (1 + |rho|) of the true zero,
    which the Newton residual can understate, so the bound on rho is
    max(residual, n eps) (1 + |rho|) and on lambda = rho^n it is
    n |rho|^(n-1) times that.  The residual itself is printed as the
    power of ten at or above max(residual, eps).
    """
    eps = sys.float_info.epsilon
    bound = max(root.residual, n * eps) * (1.0 + abs(root.rho))
    lam_bound = n * abs(root.rho) ** (n - 1) * bound
    return {
        "rho": complex(_round_to_bound(root.rho.real, bound),
                       _round_to_bound(root.rho.imag, bound)),
        "lambda": complex(_round_to_bound(root.lam.real, lam_bound),
                          _round_to_bound(root.lam.imag, lam_bound)),
        "multiplicity": root.multiplicity,
        "residual": _decade_above(max(root.residual, eps)),
    }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, complex):
        return [_sig(obj.real), _sig(obj.imag)]
    if isinstance(obj, float):
        return _sig(obj)
    if hasattr(obj, "item"):           # numpy scalars
        return _jsonable(obj.item())
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit_json(document, path=None):
    text = json.dumps(_jsonable(document), indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Input resolution
# ---------------------------------------------------------------------------

def _load_input(source) -> OperatorSpec:
    if source in gallery.EXAMPLES:
        return gallery.build(source)
    if not os.path.exists(source):
        raise SpecError(
            f"input {source!r} is neither a file nor a known example "
            f"({', '.join(sorted(gallery.EXAMPLES))})")
    return load_spec(source)


def _require(valid, flag, requirement):
    """Reject an out-of-range flag value as invalid input."""
    if not valid:
        raise SpecError(f"{flag} must be {requirement}")


def _form_kind(spec):
    if isinstance(spec.form, DivergenceForm):
        return "divergence"
    if isinstance(spec.form, ModelForm):
        return "model"
    return "classical"


# The complete-regularity and numerical-range sections of a spec that
# ``_complete_regularity`` cannot split.
_NOT_APPLICABLE = {"applicable": False,
                   "reason": "requires an even-order divergence or model form"}


def _complete_regularity(spec):
    """The one splitting a command reads: the complete-regularity report,
    or None when ``spec`` has no even-order divergence or model form."""
    try:
        as_divergence(spec)
    except SpecError:
        return None
    return quasiform.check_completely_regular(spec)


# ---------------------------------------------------------------------------
# Document builders (shared between single commands and report)
# ---------------------------------------------------------------------------

def classification_document(spec, nbc, report, tol=None):
    verdict = birkhoff.classify_regularity(nbc, tol=tol)
    doc = {
        "order": spec.order,
        "form": _form_kind(spec),
        "normalized": {
            "kappa": nbc.kappa,
            "orders": list(nbc.orders),
        },
        "birkhoff": {
            "theta0": complex(verdict.theta0),
            "theta1": complex(verdict.theta1) if verdict.theta1 is not None else None,
            "regular": verdict.regular,
            "tolerance": verdict.tol,
        },
    }
    if report is None:
        doc["complete_regularity"] = dict(_NOT_APPLICABLE)
        return doc
    fragment = {
        "applicable": True,
        "verdict": report.completely_regular,
        "max_principal_angle": float(report.max_angle),
        "angle_tolerance": quasiform.ANGLE_TOL,
        "preimage_dimension": int(report.preimage_basis.shape[1]),
        "complement_dimension": int(report.complement_basis.shape[1]),
    }
    if report.completely_regular:
        fragment["boundary_form"] = [list(row) for row in report.A]
        # the (N + n) eps rounding model of numrange, N the trial dimension
        floor = (quasiform.FORM_IDENTITY_DIMENSION + spec.order) * sys.float_info.epsilon
        residual = quasiform.verify_form_identity(report.spec)
        fragment["form_identity_residual"] = _decade_above(max(residual, floor))
        fragment["form_identity_dimension"] = quasiform.FORM_IDENTITY_DIMENSION
    else:
        fragment["boundary_form"] = None
    doc["complete_regularity"] = fragment
    return doc


def _sector_opening(n):
    """The opening epsilon = pi / (4 n) of the sectors removed around the
    critical rays; the bisectors of the omega-sectors that remain are the
    candidate scan rays."""
    return math.pi / (4 * n)


def spectrum_document(nbc, roots, rmax=DEFAULT_RMAX, sector=None):
    """The spectrum section, from those ``roots`` that lie in the annulus
    SPECTRUM_RMIN <= |rho| <= ``rmax`` and in ``sector``."""
    n = nbc.n
    r_min = SPECTRUM_RMIN
    roots = spectral.roots_in(roots, (r_min, rmax), sector)
    reps = spectral.distinct_eigenvalues(roots)
    groups = spectral.bracket_groups(reps)
    sizes = [sum(r.multiplicity for r in g) for g in groups]

    epsilon = _sector_opening(n)
    sectors = geometry.omega_sectors(n, epsilon)
    rarity = []
    for lo, hi in sectors:
        moduli = sorted(abs(r.rho) for r in spectral.roots_in(reps, (0.0, math.inf), (lo, hi)))
        rarity.append({
            "sector": [lo, hi],
            "count": len(moduli),
            "lag": geometry.is_rare(moduli, RARITY_MAX_LAG),
        })

    delta = spectral.CLEARANCE_DELTA
    centers = [r.rho for r in roots]
    r_probe = max(rmax - 2 * delta, r_min)
    rays = []
    for angle in geometry.critical_rays(n):
        rays.append({"angle": angle, "kind": "critical",
                     "exit": geometry.ray_clearance(angle, centers, delta, r_probe)})
    for lo, hi in sectors:
        mid = 0.5 * (lo + hi)
        rays.append({"angle": mid, "kind": "bisector",
                     "exit": geometry.ray_clearance(mid, centers, delta, r_probe)})
    rays.sort(key=lambda item: item["angle"])

    return {
        "annulus": [r_min, rmax],
        "sector": list(sector) if sector is not None else None,
        "roots": [_root_document(r, n) for r in roots],
        "distinct_eigenvalues": len(reps),
        "brackets": {
            "tau": spectral.BRACKET_TAU,
            "sizes": sizes,
            "max_size": max(sizes) if sizes else 0,
            "oversized": any(s > 2 for s in sizes),
        },
        "rarity": {"epsilon": epsilon, "max_lag": RARITY_MAX_LAG, "sectors": rarity},
        "clearance": {"delta": delta, "r_probe": r_probe, "rays": rays},
        "note": "spectral quantities refer to the leading-order model expression",
    }


def _choose_ray(nbc, rmin, rmax, roots):
    """First omega-sector bisector whose ray passes the clearance check
    against ``roots``."""
    errors = []
    for lo, hi in geometry.omega_sectors(nbc.n, _sector_opening(nbc.n)):
        mid = 0.5 * (lo + hi)
        try:
            spectral.ray_clearance_check(roots, mid, rmin, rmax)
        except ValueError as exc:
            errors.append(f"{mid:.3f}: {exc}")
            continue
        return mid
    raise RuntimeError("no usable scan ray found: " + "; ".join(errors))


def scan_to_csv(scan, path):
    """Write scan samples as CSV with log columns for decay fitting.

    A sample with a relative error estimate e (the resolvent's) writes
    its quantity and log quantity rounded by :func:`_round_to_bound` with
    the bounds e * quantity and e; every other column, and every column
    of a kernel scan, which carries no estimate, is written to 13
    significant digits.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("abs_rho,arg_rho,quantity,log_abs_rho,log_quantity\n")
        for i, (rho, value) in enumerate(scan.samples):
            columns = ["%.12e" % x for x in (abs(rho), cmath.phase(rho), value,
                                             math.log(abs(rho)), math.log(value))]
            if scan.errors is not None:
                error = scan.errors[i]
                columns[2] = str(_sig(_round_to_bound(value, error * value)))
                columns[4] = str(_sig(_round_to_bound(math.log(value), error)))
            handle.write(",".join(columns) + "\n")


def profiles_to_csv(profiles, path):
    """Write support profiles as ``N, theta, sigma`` CSV rows, each sigma
    rounded by :func:`_round_to_bound` with its profile's bound.

    On the eigenvalue path that bound holds for every value of the
    profile.  On the factored path it covers the side of the minimum;
    the other side's values, cos(theta) s^2, err by at most
    2 (N + n) eps relative, below the 12 significant digits kept.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("N,theta,sigma\n")
        for profile in profiles:
            for theta, sigma in zip(profile.angles, profile.values):
                handle.write("%d,%.12e,%s\n" % (profile.dimension, theta,
                                                 _sig(_round_to_bound(sigma, profile.bound))))


def scan_document(nbc, kind, ray, roots, rmin, rmax, samples, grid, csv_path=None):
    n = nbc.n
    if kind == "green":
        scan = spectral.green_sup_scan(nbc, ray, roots, r_min=rmin, r_max=rmax,
                                       samples=samples, grid=grid)
        expected = -(n - 1)
    elif kind == "resolvent":
        scan = spectral.resolvent_scan(nbc, ray, roots, r_min=rmin, r_max=rmax,
                                       samples=samples)
        expected = -n
    else:
        raise ValueError(f"unknown scan kind {kind!r}")
    if csv_path:
        scan_to_csv(scan, csv_path)
    values = [value * abs(rho) ** (-expected) for rho, value in scan.samples]
    ranked = sorted(values)
    median = ranked[len(ranked) // 2]
    doc = {
        "kind": kind,
        "ray": scan.ray_angle,
        "rmin": rmin,
        "rmax": rmax,
        "samples": len(scan.samples),
        "exponent": scan.exponent,
        "fit_residual": scan.fit_residual,
        "expected_exponent": float(expected),
        "slack": DECAY_SLACK,
        "decay_bound_satisfied": bool(scan.exponent <= expected + DECAY_SLACK),
        "compensated_max_over_median": float(max(values) / median) if median > 0 else None,
        "clearance": scan.clearance,
    }
    if scan.errors is not None:
        # to first order, a sample error e moves log(value) by e, the fit
        # residual by at most the largest e, and a ratio of two samples
        # by twice the largest e, relative
        worst = max(scan.errors)
        ratio = doc["compensated_max_over_median"]
        doc.update(exponent=_round_to_bound(scan.exponent, scan.exponent_error),
                   fit_residual=_round_to_bound(scan.fit_residual, worst),
                   sample_error=_decade_above(worst),
                   fallback_samples=len(scan.fallbacks))
        if ratio is not None:
            doc["compensated_max_over_median"] = _round_to_bound(ratio, 2.0 * worst * ratio)
    return doc


def numrange_document(report, max_dim=numrange.DEFAULT_DIMENSIONS[-1],
                      angles=numrange.DEFAULT_ANGLES, csv_path=None):
    if report is None:
        return dict(_NOT_APPLICABLE)
    dims = []
    d = NUMRANGE_MIN_DIM
    while d < max_dim:
        dims.append(d)
        d *= 2
    dims.append(max_dim)
    if csv_path:
        # the CSV needs every angle, so the verdict reads the full profiles
        profiles = numrange.support_profiles(report.spec, dims, angles)
        profiles_to_csv(profiles, csv_path)
        verdict = numrange.HalfPlaneReport.from_minima(
            dims, [p.minimum for p in profiles], [p.bound for p in profiles])
    else:
        verdict = numrange.half_plane_verdict(report.spec, dimensions=dims, num_angles=angles)
    return {
        "applicable": True,
        "verdict": verdict.verdict,
        "dimensions": list(verdict.dimensions),
        "evidence": [[d, _round_to_bound(m, b)] for d, m, b
                     in zip(verdict.dimensions, verdict.minima, verdict.bounds)],
        "error_bounds": [[d, _decade_above(b)] for d, b
                         in zip(verdict.dimensions, verdict.bounds)],
        "angles": angles,
        "growth_factor": numrange.GROWTH_FACTOR,
        "slack": numrange.SLACK,
    }


def gram_document(nbc, roots, radius):
    conditions = spectral.gram_condition(nbc, roots, GRAM_COUNT, radius)
    return {"count": GRAM_COUNT, "conditions": [[size, cond] for size, cond in conditions]}


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_classify(args):
    _require(args.tol is None or 0.0 <= args.tol < math.inf, "--tol", "finite and nonnegative")
    spec = _load_input(args.input)
    doc = classification_document(spec, reduce_total_order(spec.rows),
                                  _complete_regularity(spec), tol=args.tol)
    doc["input"] = args.input
    _emit_json(doc, args.output)
    return EXIT_OK if doc["birkhoff"]["regular"] else EXIT_NOT_REGULAR


def cmd_spectrum(args):
    _require(SPECTRUM_RMIN < args.rmax < math.inf, "--rmax", f"finite and above {SPECTRUM_RMIN}")
    sector = tuple(args.sector) if args.sector else None
    _require(sector is None or sector[0] < sector[1] <= sector[0] + 2 * math.pi, "--sector",
             "LO HI with LO < HI <= LO + 2 pi")
    spec = _load_input(args.input)
    nbc = reduce_total_order(spec.rows)
    roots = spectral.find_roots(nbc, (SPECTRUM_RMIN, args.rmax))
    doc = spectrum_document(nbc, roots, rmax=args.rmax, sector=sector)
    doc["input"] = args.input
    _emit_json(doc, args.output)
    return EXIT_OK


def cmd_scan(args):
    _require(0.0 < args.rmin < args.rmax < math.inf, "--rmin/--rmax", "finite with 0 < rmin < rmax")
    _require(args.ray is None or math.isfinite(args.ray), "--ray", "finite")
    _require(args.samples >= 2, "--samples", "at least 2 for a power-law fit")
    _require(args.grid >= 1, "--grid", "at least 1")
    spec = _load_input(args.input)
    nbc = reduce_total_order(spec.rows)
    roots = spectral.find_roots(nbc, spectral.clearance_annulus(args.rmin, args.rmax))
    ray = _choose_ray(nbc, args.rmin, args.rmax, roots) if args.ray is None else args.ray
    doc = scan_document(nbc, args.kind, ray, roots, args.rmin, args.rmax,
                        args.samples, args.grid, csv_path=args.output)
    doc["input"] = args.input
    _emit_json(doc)
    return EXIT_OK


def cmd_numrange(args):
    _require(args.max_dim > NUMRANGE_MIN_DIM, "--max-dim", f"above {NUMRANGE_MIN_DIM}")
    _require(args.angles >= 1, "--angles", "at least 1")
    spec = _load_input(args.input)
    doc = numrange_document(_complete_regularity(spec), max_dim=args.max_dim,
                            angles=args.angles, csv_path=args.output)
    doc["input"] = args.input
    _emit_json(doc)
    if not doc["applicable"]:
        return EXIT_INVALID
    return EXIT_OK


def cmd_report(args):
    _require(args.tol is None or 0.0 <= args.tol < math.inf, "--tol", "finite and nonnegative")
    spec = _load_input(args.input)
    nbc = reduce_total_order(spec.rows)
    scan = [DEFAULT_SCAN[key] for key in ("rmin", "rmax", "samples", "grid")]
    timings = {}

    def run(name, build, *inputs):
        """``build(*inputs)``, timed under ``name``.  A failed input, or a
        failure of ``build``, is returned as the exception itself."""
        start = time.perf_counter()
        failed = [value for value in inputs if isinstance(value, Exception)]
        try:
            result = failed[0] if failed else build(*inputs)
        except Exception as exc:        # keep partial results
            result = exc
        timings[name] = time.perf_counter() - start
        return result

    # One root search, one splitting and one scan ray serve every section
    # that reads them; if one fails, each section that reads it carries
    # its error.
    roots = run("roots", spectral.find_roots, nbc, (SPECTRUM_RMIN, REPORT_RADIUS))
    report = run("complete_regularity", _complete_regularity, spec)
    ray = run("ray", _choose_ray, nbc, *scan[:2], roots)
    sections = {
        "classification": run("classification", classification_document,
                              spec, nbc, report, args.tol),
        "spectrum": run("spectrum", spectrum_document, nbc, roots),
        "basis_conditioning": run("basis_conditioning", gram_document,
                                  nbc, roots, REPORT_RADIUS),
        "numerical_range": run("numerical_range", numrange_document, report),
        "green_decay": run("green_decay", scan_document, nbc, "green", ray, roots, *scan),
        "resolvent_decay": run("resolvent_decay", scan_document,
                               nbc, "resolvent", ray, roots, *scan),
    }
    doc = {"tool": {"name": "regbvp", "version": __version__},
           "input": args.input,
           "spec": spec_to_document(spec)}
    for name, section in sections.items():
        doc[name] = ({"error": f"{type(section).__name__}: {section}"}
                     if isinstance(section, Exception) else section)
    if args.timings:
        doc["timings"] = dict(sorted(timings.items()))
    _emit_json(doc, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="regbvp",
        description="Classify two-point boundary operators and check the "
                    "spectral properties that regularity predicts.",
        epilog="Exit codes: 0 success/regular, 3 not regular (classify), "
               "4 invalid input, 1 runtime failure.")
    parser.add_argument("--version", action="version", version=__version__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("input", help="spec JSON file or example name "
                        f"({', '.join(sorted(gallery.EXAMPLES))})")
    common.add_argument("-o", "--output", default=None,
                        help="output path (JSON; CSV for scan/numrange)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[common],
                       help="regularity and complete-regularity verdicts")
    p.add_argument("--tol", type=float, default=None, help="regularity tolerance override")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("spectrum", parents=[common],
                       help="determinant zeros, brackets, rarity, ray clearance")
    p.add_argument("--rmax", type=float, default=DEFAULT_RMAX)
    p.add_argument("--sector", type=float, nargs=2, metavar=("LO", "HI"),
                   default=None, help="keep the roots with LO <= arg(rho) <= HI (radians)")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("scan", parents=[common],
                       help="kernel or resolvent decay along a ray")
    p.add_argument("kind", choices=("green", "resolvent"))
    p.add_argument("--ray", type=float, default=None,
                   help="ray angle in radians (default: first clear bisector)")
    p.add_argument("--rmin", type=float, default=DEFAULT_SCAN["rmin"])
    p.add_argument("--rmax", type=float, default=DEFAULT_SCAN["rmax"])
    p.add_argument("--samples", type=int, default=DEFAULT_SCAN["samples"])
    p.add_argument("--grid", type=int, default=DEFAULT_SCAN["grid"])
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("numrange", parents=[common],
                       help="support function of the quadratic form")
    p.add_argument("--max-dim", type=int, default=numrange.DEFAULT_DIMENSIONS[-1])
    p.add_argument("--angles", type=int, default=numrange.DEFAULT_ANGLES)
    p.set_defaults(func=cmd_numrange)

    p = sub.add_parser("report", parents=[common],
                       help="run all applicable analyses into one document")
    p.add_argument("--tol", type=float, default=None, help="regularity tolerance override")
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock timings (breaks byte determinism)")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SpecError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
