"""The three benchmark workloads and the closed loop that runs them.

Every workload turns the seed into a stream of rounds.  A round has a
fixed composition (the eight gallery examples; random operators of
fixed (order, row structure) strata), so the number of rounds that fit in
the time budget changes the sample count but not the mix of cheap and
expensive operations, which is what keeps medians and throughput steady
from seed to seed.  One client runs the operations back to back: the next
one starts when the previous one has ended and its output was checked.
"""

import json
import random
import resource
import statistics
import subprocess
import time
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from regbvp import birkhoff, gallery, model, normalize, numrange, quasiform, spectral

import checks
from refclock import ReferenceClock
from tracing import Tracer, summarize

HERE = Path(__file__).resolve().parent
OP_TIMEOUT = 60.0

# (order, coupled rows) of the six operators of one round of
# roots-random.  Order 2 is two thirds of the mix, so the median falls
# inside the order-2 cost cluster and the tail inside the order-4 one,
# instead of on the gap between them.
RANDOM_STRATA = ((2, False), (2, True), (4, False), (2, True), (2, False), (4, True))
# The two operators of one round of forms-random, which has order 2
# only: on random order-4 forms the program fails about one operation in
# three (an exact float comparison in quasiform.quasi_transition raises
# AssertionError), and a workload must be one on which no operation fails.
FORM_STRATA = ((2, False), (2, True))
ROOTS_ANNULUS = (0.5, 20.0)
LADDER = (8, 16, 32, 64, 128)


@dataclass
class Outcome:
    """One operation: its timed seconds, the failure (if the program
    raised or exited non-zero) and what the checks need."""

    seconds: float
    error: str | None = None
    output: dict = field(default_factory=dict)
    spans: list | None = None


def _complex(rng):
    return [rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)]


def random_rows(rng, n, coupled, same_ends=False):
    """n boundary rows with complex N(0,1) coefficients on y^(0..k).

    Separated: n/2 rows at each end, with distinct derivative orders k at
    one end; with ``same_ends`` both ends get the same orders.  Coupled:
    every row involves both ends, row j has an order k drawn from
    floor(j/2)..n-1, so that at most 2(t+1) rows have order <= t and the
    rows can be independent.
    """
    if coupled:
        shape = [(rng.randrange(j // 2, n), ("a", "b")) for j in range(n)]
    else:
        half = n // 2
        a_orders = rng.sample(range(n), half)
        b_orders = a_orders if same_ends else rng.sample(range(n), half)
        shape = [(k, ("a",)) for k in a_orders] + [(k, ("b",)) for k in b_orders]
    return [{side: {str(s): _complex(rng) for s in range(k + 1)} for side in sides}
            for k, sides in shape]


def random_poly(rng):
    """Complex polynomial of degree uniform in -1..2 (-1: the zero polynomial)."""
    return [_complex(rng) for _ in range(rng.randrange(0, 4))]


def random_operator(rng, n, coupled):
    return {"order": n, "form": {"type": "model"},
            "boundary_conditions": random_rows(rng, n, coupled)}


def random_form(rng, n, coupled):
    """Separated rows have the same derivative orders at both ends.  With
    y at one end and y' at the other, the numerical-range minima of about
    one completely regular form in twenty still rise by 12-26% from N=8
    to N=128, half_plane_verdict answers "undetermined" and the operation
    fails; on every other row shape those minima stay flat."""
    m = n // 2
    form = {"type": "divergence",
            "p": {str(k): random_poly(rng) for k in range(m)},
            "q": {str(k): random_poly(rng) for k in range(1, m + 1)},
            "r": {str(k): random_poly(rng) for k in range(1, m + 1)}}
    return {"order": n, "form": form,
            "boundary_conditions": random_rows(rng, n, coupled, same_ends=True)}


class GalleryReports:
    """report-gallery: one fresh ``regbvp report <name> -o <file>`` process
    per operation, the eight examples in a seed-shuffled order per round."""

    def __init__(self, python, env, scratch):
        self.python = python
        self.env = env
        self.scratch = scratch
        self.first_bytes = {}

    def rounds(self, rng):
        while True:
            names = sorted(gallery.EXAMPLES)
            rng.shuffle(names)
            yield names

    def label(self, item):
        return item

    def run(self, item, traced):
        out = self.scratch / f"report-{item}{'-traced' if traced else ''}.json"
        spans_path = self.scratch / f"spans-{item}.json"
        command = ["report", item, "-o", str(out)]
        if traced:
            argv = [self.python, str(HERE / "traced_cli.py"), str(spans_path)] + command
        else:
            argv = [self.python, "-m", "regbvp.cli"] + command
        for path in (out, spans_path):
            path.unlink(missing_ok=True)
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, env=self.env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, timeout=OP_TIMEOUT)
        except subprocess.TimeoutExpired:
            return Outcome(time.perf_counter() - start, error="timeout")
        seconds = time.perf_counter() - start
        if proc.returncode != 0:
            last_line = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
            return Outcome(seconds, error=f"exit {proc.returncode} {' '.join(last_line)}")
        spans = json.loads(spans_path.read_text()) if traced else None
        return Outcome(seconds, output={"bytes": out.read_bytes()}, spans=spans)

    def check(self, item, outcome):
        data = outcome.output["bytes"]
        first = self.first_bytes.setdefault(item, data)
        problems = [] if data == first else [f"{item}: report bytes differ between repeats"]
        return problems + checks.check_report(item, json.loads(data)), []


def _in_process(op, traced):
    """Time ``op()`` in this process, under a Tracer when traced.

    Returns (seconds, error, spans); ``op`` returns an error string or
    None, and an exception it raises is the operation's failure.
    """
    tracer = Tracer() if traced else None
    with tracer or nullcontext():
        start = time.perf_counter()
        try:
            error = op()
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    return seconds, error, tracer.spans if traced else None


def _roots_op(spec, output):
    output["nbc"] = nbc = normalize.reduce_total_order(spec.rows)
    output["roots"] = roots = spectral.find_roots(nbc, ROOTS_ANNULUS)
    reps = spectral.distinct_eigenvalues(roots)
    spectral.bracket_groups(reps)
    for root in reps:
        spectral.eigenfunction(nbc, root)


def _forms_op(document, output):
    output["spec"] = spec = model.parse_spec(document)
    nbc = normalize.reduce_total_order(spec.rows)
    birkhoff.classify_regularity(nbc)
    error = None
    try:
        report = quasiform.check_completely_regular(spec)
    except Exception as exc:    # the op fails, but numrange is still timed
        error = f"check_completely_regular: {type(exc).__name__}: {exc}"
    else:
        output["completely_regular"] = report.completely_regular
        if report.completely_regular:
            output["residual"] = quasiform.verify_form_identity(spec, report.A)
    output["numrange"] = numrange.half_plane_verdict(spec, dimensions=LADDER)
    return error


class RandomRoots:
    """roots-random: one seeded random model operator per operation, run
    in process: one full-annulus find_roots, then the distinct
    eigenvalues, their brackets and one eigenfunction per eigenvalue."""

    def rounds(self, rng):
        while True:
            yield [random_operator(rng, n, coupled) for n, coupled in RANDOM_STRATA]

    def label(self, item):
        return f"order {item['order']}"

    def run(self, item, traced):
        try:
            spec = model.parse_spec(item)
        except Exception as exc:    # a rejected input is a failed operation
            return Outcome(0.0, error=f"parse_spec: {type(exc).__name__}: {exc}")
        output = {}
        seconds, error, spans = _in_process(lambda: _roots_op(spec, output), traced)
        return Outcome(seconds, error, output, spans)

    def check(self, item, outcome):
        output = outcome.output
        if "roots" not in output:
            return [], []
        return checks.check_roots(output["nbc"], output["roots"], ROOTS_ANNULUS), []


class RandomForms:
    """forms-random: one seeded random divergence form per operation, run
    in process: parse, classify, complete regularity, the form identity
    when completely regular, and the numerical range up to dimension 128."""

    def rounds(self, rng):
        while True:
            yield [random_form(rng, n, coupled) for n, coupled in FORM_STRATA]

    def label(self, item):
        return f"order {item['order']}"

    def run(self, item, traced):
        output = {}
        seconds, error, spans = _in_process(lambda: _forms_op(item, output), traced)
        return Outcome(seconds, error, output, spans)

    def check(self, item, outcome):
        output = outcome.output
        if "spec" not in output:
            return [], []
        return checks.check_form(output["spec"], output.get("completely_regular"),
                                 output.get("residual"), output.get("numrange"))


@dataclass
class Run:
    """What one measured run collected.  ``durations`` are operation
    seconds at the reference speed, ``measured`` the seconds as timed."""

    durations: list = field(default_factory=list)
    measured: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    rounds: int = 0
    overheads: list = field(default_factory=list)
    per_op: list = field(default_factory=list)
    spans: list = field(default_factory=list)


def measure(workload, seed, seconds, traced):
    """Run whole rounds while the next one, at the pace of those before
    it, still ends within ``seconds`` (at least one round).  The budget is
    counted in reference seconds (refclock.py), so that how many rounds
    fit does not depend on how busy the machine happens to be.

    Untraced, each operation runs once.  Traced, each runs both untraced
    and traced on the same input, the two in alternating order so that
    what the first leaves warm does not bias the difference: the traced
    run gives the spans, the difference is the tracing overhead.
    """
    rng = random.Random(seed)
    run = Run()
    clock = ReferenceClock()
    start = time.perf_counter()
    for items in workload.rounds(rng):
        for item in items:
            label = workload.label(item)
            modes = (False,)
            if traced:
                modes = (False, True) if len(run.measured) % 2 == 0 else (True, False)
            outcomes = {}
            for mode in modes:
                outcomes[mode] = workload.run(item, traced=mode)
                if not mode:
                    clock.record(outcomes[mode].seconds)
            for outcome in outcomes.values():
                if outcome.output:
                    problems, shortfalls = workload.check(item, outcome)
                    run.problems.extend(problems)
                    if shortfalls and outcome.error is None:
                        outcome.error = "; ".join(shortfalls)
            outcome = outcomes[False]
            run.measured.append(outcome.seconds)
            if outcome.error is not None:
                run.failures.append(f"{label}: {outcome.error}")
            if traced:
                traced_outcome = outcomes[True]
                run.overheads.append(traced_outcome.seconds - outcome.seconds)
                totals = summarize(traced_outcome.spans or [])
                run.per_op.append((label, traced_outcome.seconds, totals))
                run.spans.append((label, traced_outcome.spans))
        run.rounds += 1
        elapsed = (time.perf_counter() - start) * clock.scale()
        if elapsed * (run.rounds + 1) / run.rounds > seconds:
            run.durations = clock.reference_seconds()
            return run


def tail(durations):
    """(value, percentile, samples beyond it): the highest percentile with
    at least ten samples above it."""
    ranked = sorted(durations)
    index = max(len(ranked) - 11, 0)
    return ranked[index], 100.0 * index / len(ranked), len(ranked) - 1 - index


def end_to_end(run, peak_rss_kb, setup_s):
    """The end-to-end metrics.  Throughput counts the operations that did
    not fail, over the time of all of them."""
    return {
        "setup_s": setup_s,
        "ops_per_s": (len(run.durations) - len(run.failures)) / sum(run.durations),
        "op_p50_s": statistics.median(run.durations),
        "op_tail_s": tail(run.durations)[0],
        "peak_rss_mb": peak_rss_kb / 1024.0,
    }


def per_layer(run, names, import_s, import_scipy_s):
    """Per-operation means of the traced span totals for the given metric
    names (``<layer>.<function>.<stat>``), plus the import times, the
    tracing overhead and the distinct share of the roots found."""
    layers = defaultdict(float)
    for _, _, totals in run.per_op:
        for key, value in totals.items():
            layers[key] += value
    special = {
        "cli.import_s": import_s,
        "cli.import.scipy_s": import_scipy_s,
        "trace.overhead_s": statistics.mean(run.overheads),
    }
    returned = layers["spectral.find_roots.returned"]
    # 0 when no roots were returned at all (no find_roots call succeeded)
    special["spectral.find_roots.unique_ratio"] = (
        layers["spectral.find_roots.distinct"] / returned if returned else 0.0)
    ops = len(run.per_op)
    return {name: special[name] if name in special else layers[name] / ops
            for name in names}


def peak_rss_kb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss


def describe_ops(run, limit=3):
    """One line per traced operation: find_roots calls and the functions
    with the most self time."""
    lines = []
    for label, seconds, totals in run.per_op:
        selfs = sorted(((v, k[:-len(".self_s")]) for k, v in totals.items()
                        if k.endswith(".self_s")), reverse=True)[:limit]
        top = ", ".join(f"{k} {v:.3f}s" for v, k in selfs)
        calls = int(totals.get("spectral.find_roots.calls", 0))
        lines.append(f"  {label}: {seconds:.3f}s traced, find_roots calls {calls}; "
                     f"most self time: {top}")
    return lines
