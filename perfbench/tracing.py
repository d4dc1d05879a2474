"""Span tracing around the public functions of the regbvp layers.

A :class:`Tracer` rebinds every public function of each layer module to a
wrapper that records one span per call: ``[id, parent, name, start, end,
failed, extra]``.  The rebinding happens in every ``regbvp`` module that
holds the function (``cli`` binds ``reduce_total_order``, ``spectral``
binds the ``geometry`` helpers, the package re-exports everything), so
calls between layers are traced as well as calls from the benchmark.
Private helpers are not wrapped: their time is the self time of the
public function that calls them.

Spans stay in memory; :func:`summarize` turns them into per-layer totals.
"""

import functools
import importlib
import inspect
import json
import math
import subprocess
import sys
import time
from collections import defaultdict

from regbvp import spectral

LAYERS = ("cli", "model", "normalize", "birkhoff", "quasiform", "spectral",
          "numrange", "geometry", "gallery")


def _public_functions(layer, module):
    """(span name, function) for each function the layer exposes.

    Library modules list their public names in ``__all__``.  ``cli`` has
    no ``__all__``; its public surface is its ``cmd_<name>`` commands,
    traced as ``cli.<name>``.
    """
    if hasattr(module, "__all__"):
        names = [(name, name) for name in module.__all__]
    else:
        names = [(name, name[len("cmd_"):]) for name in vars(module)
                 if name.startswith("cmd_")]
    out = []
    for attr, label in names:
        obj = getattr(module, attr)
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            out.append((f"{layer}.{label}", obj))
    return out


def _find_roots_extra(arguments, roots):
    r0, r1 = arguments["annulus"]
    sector = arguments.get("sector")
    a0, a1 = sector if sector is not None else (0.0, 2 * math.pi)
    return {
        "area": 0.5 * (r1 * r1 - r0 * r0) * (a1 - a0),
        "roots": sum(root.multiplicity for root in roots),
        "bad_residual": sum(1 for root in roots
                            if not root.residual <= spectral.RESIDUAL_TOL),
        "rho": [[root.rho.real, root.rho.imag] for root in roots],
    }


def _galerkin_form_extra(arguments, _form):
    return {"dim": int(arguments["dim"])}


EXTRAS = {
    "spectral.find_roots": _find_roots_extra,
    "numrange.galerkin_form": _galerkin_form_extra,
}


class Tracer:
    """Records spans for the calls made while it is installed."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn):
        extra = EXTRAS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [len(self.spans), self._stack[-1] if self._stack else -1,
                    name, time.perf_counter(), 0.0, False, None]
            self.spans.append(span)
            self._stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[4] = time.perf_counter()
                self._stack.pop()
            if extra is not None:
                span[6] = extra(signature.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def install(self):
        """Rebind every public layer function in every regbvp module."""
        modules = {layer: importlib.import_module(f"regbvp.{layer}") for layer in LAYERS}
        holders = [mod for name, mod in sorted(sys.modules.items())
                   if name == "regbvp" or name.startswith("regbvp.")]
        for layer, module in modules.items():
            for name, fn in _public_functions(layer, module):
                wrapper = self._wrap(name, fn)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, attr, wrapper)
                            self._patches.append((holder, attr, fn))

    def uninstall(self):
        for holder, attr, fn in reversed(self._patches):
            setattr(holder, attr, fn)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def _distinct(points, rel=1e-7):
    reps = []
    for re, im in points:
        z = complex(re, im)
        if not any(abs(z - w) <= rel * (1.0 + abs(z)) for w in reps):
            reps.append(z)
    return len(reps)


def summarize(spans):
    """Totals over the spans of one operation.

    For each span name: ``.calls``, ``.s`` (inclusive), ``.self_s`` (minus
    the time covered by child spans) and ``.failed``.  ``find_roots`` adds
    ``.roots`` (sum of multiplicities), ``.area`` (polar area searched),
    ``.bad_residual``, and ``.returned``/``.distinct`` root counts over all
    its calls; ``galerkin_form`` adds ``.d<N>.s`` per dimension.
    """
    covered = defaultdict(float)
    for span_id, parent, name, start, end, failed, extra in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals = defaultdict(float)
    rhos = []
    for span_id, parent, name, start, end, failed, extra in spans:
        elapsed = end - start
        totals[name + ".calls"] += 1
        totals[name + ".s"] += elapsed
        totals[name + ".self_s"] += elapsed - covered[span_id]
        totals[name + ".failed"] += bool(failed)
        if extra is None:
            continue
        if name == "spectral.find_roots":
            for key in ("roots", "area", "bad_residual"):
                totals[f"{name}.{key}"] += extra[key]
            totals[name + ".returned"] += len(extra["rho"])
            rhos.extend(extra["rho"])
        elif name == "numrange.galerkin_form":
            totals[f"{name}.d{extra['dim']}.s"] += elapsed
    if rhos:
        totals["spectral.find_roots.distinct"] += _distinct(rhos)
    return totals


def import_profile(python, env):
    """Seconds spent importing ``regbvp.cli`` and, within it, scipy.

    Parses ``python -X importtime`` output: the cumulative time of the
    ``regbvp.cli`` entry, and the sum of the cumulative times of the
    outermost ``scipy`` entries.  Entries are printed children first, so
    they are walked in reverse to see each entry's ancestors.
    """
    proc = subprocess.run([python, "-X", "importtime", "-c", "import regbvp.cli"],
                          env=env, capture_output=True, text=True, check=True,
                          timeout=120)
    entries = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        name = fields[2].rstrip()
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(fields[1]) * 1e-6))
    total = scipy = 0.0
    ancestors = []
    for depth, name, cumulative in reversed(entries):
        del ancestors[depth:]
        if name == "regbvp.cli" and depth == 0:
            total = cumulative
        if name.split(".")[0] == "scipy" and not any(a.split(".")[0] == "scipy"
                                                     for a in ancestors):
            scipy += cumulative
        ancestors.append(name)
    return total, scipy
