"""Span recorder and per-layer metrics for the traced benchmark run.

The recorder wraps the public functions that `degex.cli` calls, both where
the CLI looks them up and in their defining module, so calls made inside a
module through its own globals (min_degree -> degree_table, dump ->
serialize) are recorded too.  Each call becomes a span: name, start, end,
parent span and job.  Work counts are derived from the arguments and return
values.  Spans stay in memory; run.py writes them out when the run ends.

`combinatorics` is called per subset from inside `extraction` and
`generators`, too finely to wrap, so its cost is part of their rates.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from dataclasses import asdict, dataclass
from fractions import Fraction

SETUP_JOB = -1  # job id of spans recorded during set-up


@dataclass
class Span:
    name: str  # "<module>.<function>"
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the root
    job: int  # execution index, SETUP_JOB during set-up
    units: dict

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]


class Recorder:
    """Collects spans from the wrappers it makes; one job at a time."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.job = SETUP_JOB
        self._stack: list[int] = []

    def wrap(self, name: str, fn, units=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            done = False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                counts = units(args, kwargs, result) if done and units else {}
                self.spans[index] = Span(name, start, end, parent, self.job, counts)

        return wrapper

    def to_jsonable(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


# ---------------------------------------------------------------------------
# wrapped functions and their work counts


def _den(p) -> int:
    return Fraction(p).denominator


def _states_12(args, kwargs, rep):
    # big-int jobs are the ones whose p has a denominator of more than 32 bits
    return {"states": 2 ** args[0].n, "bigint": _den(args[1]).bit_length() > 32}


WRAPPED = {
    "hypergraph.load": lambda a, k, G: {"edges": G.edge_count},
    "hypergraph.dump": lambda a, k, _: {"edges": a[0].edge_count},
    "hypergraph.serialize": lambda a, k, _: {"edges": a[0].edge_count},
    "degree.degree_table": lambda a, k, _: {"increments": a[0].edge_count * math.comb(a[0].r, a[1])},
    "degree.min_degree": None,
    "degree.eps_min_degree": None,
    "degree.poor_sets": None,
    "extraction.extract_random": lambda a, k, rep: {
        "attempts": rep.attempts, "successes": int(rep.success)},
    "extraction.extract_exhaustive": lambda a, k, rep: {
        "subsets": math.comb(a[0].n, a[2]), "good": rep.count},
    "extraction.audit_eq3": lambda a, k, _: {"subsets": math.comb(a[0].n, a[2])},
    "extraction.audit_eq2_phi": None,
    "extraction.audit_bad_total": lambda a, k, rep: {
        "extensions": rep.context["rich_count"] * math.comb(a[0].n - a[1], a[2] - a[1])},
    "quasirandomness.deviation_12_exact": _states_12,
    "quasirandomness.deviation_111_exact": lambda a, k, _: {"states": 4 ** a[0].n},
    "quasirandomness.deviation_12_sampled": lambda a, k, _: {"trials": a[2]},
    "generators.erdos_renyi": lambda a, k, _: {"draws": math.comb(a[0], a[1])},
    "jsonio.dumps": lambda a, k, text: {"bytes": len(text)},
}


def instrument(rec: Recorder) -> list[tuple]:
    """Replace each WRAPPED function by a recording wrapper; returns the undo list."""
    cli = importlib.import_module("degex.cli")
    patched = []
    for name, units in WRAPPED.items():
        modname, attr = name.split(".")
        module = importlib.import_module(f"degex.{modname}")
        original = getattr(module, attr)
        wrapper = rec.wrap(name, original, units)
        for target in (module, cli):
            if getattr(target, attr, None) is original:
                patched.append((target, attr, original))
                setattr(target, attr, wrapper)
    return patched


def uninstrument(patched: list[tuple]) -> None:
    for target, attr, original in patched:
        setattr(target, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics

MODULES = ("cli", "hypergraph", "degree", "extraction", "quasirandomness", "generators", "jsonio")


def _rate(spans, name, unit_key, scale, where=lambda s: True) -> float:
    """Inclusive seconds per unit, times `scale`, over spans of `name`."""
    chosen = [s for s in spans if s.name == name and unit_key in s.units and where(s)]
    units = sum(s.units[unit_key] for s in chosen)
    if not units:
        return 0.0
    return scale * sum(s.end - s.start for s in chosen) / units


def _ratio(spans, name, top, bottom) -> float:
    chosen = [s for s in spans if s.name == name and bottom in s.units]
    den = sum(s.units[bottom] for s in chosen)
    return sum(s.units[top] for s in chosen) / den if den else 0.0


def layer_metrics(spans: list[Span], executions: int, overhead_ratio: float) -> dict:
    """Per-layer metrics, as {name: (value, unit)}, from the spans of a traced run.

    Rates use inclusive span time and include set-up spans (load, dump and
    erdos_renyi run there); shares and per-job figures use job spans only.
    """
    self_time = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            self_time[s.parent] -= s.end - s.start
    job_spans = [s for s in spans if s.job != SETUP_JOB]
    roots = [i for i, s in enumerate(spans) if s.job != SETUP_JOB and s.parent < 0]
    job_time = sum(spans[i].end - spans[i].start for i in roots)
    module_self = dict.fromkeys(MODULES, 0.0)
    for i, s in enumerate(spans):
        if s.job != SETUP_JOB:
            module_self[s.module] += self_time[i]

    def per_job(total: float) -> float:
        return total / executions if executions else 0.0

    qr = "quasirandomness."
    ex = "extraction."
    m = {
        qr + "deviation_12_exact.us_per_state": (
            _rate(spans, qr + "deviation_12_exact", "states", 1e6, lambda s: not s.units["bigint"]),
            "us/state"),
        qr + "deviation_12_exact.bigint_us_per_state": (
            _rate(spans, qr + "deviation_12_exact", "states", 1e6, lambda s: s.units["bigint"]),
            "us/state"),
        qr + "deviation_111_exact.us_per_state": (
            _rate(spans, qr + "deviation_111_exact", "states", 1e6), "us/state"),
        qr + "deviation_12_sampled.us_per_trial": (
            _rate(spans, qr + "deviation_12_sampled", "trials", 1e6), "us/trial"),
        ex + "extract_exhaustive.us_per_subset": (
            _rate(spans, ex + "extract_exhaustive", "subsets", 1e6), "us/subset"),
        ex + "extract_exhaustive.good_ratio": (
            _ratio(spans, ex + "extract_exhaustive", "good", "subsets"), "ratio"),
        ex + "audit_eq3.us_per_subset": (_rate(spans, ex + "audit_eq3", "subsets", 1e6), "us/subset"),
        ex + "audit_bad_total.us_per_extension": (
            _rate(spans, ex + "audit_bad_total", "extensions", 1e6), "us/extension"),
        ex + "extract_random.ms_per_attempt": (
            _rate(spans, ex + "extract_random", "attempts", 1e3), "ms/attempt"),
        ex + "extract_random.success_ratio": (
            _ratio(spans, ex + "extract_random", "successes", "attempts"), "ratio"),
        "hypergraph.load.us_per_edge": (_rate(spans, "hypergraph.load", "edges", 1e6), "us/edge"),
        "hypergraph.dump.us_per_edge": (_rate(spans, "hypergraph.dump", "edges", 1e6), "us/edge"),
        "degree.degree_table.us_per_increment": (
            _rate(spans, "degree.degree_table", "increments", 1e6), "us/increment"),
        "degree.degree_table.calls_per_job": (
            per_job(sum(1 for s in job_spans if s.name == "degree.degree_table")), "calls/job"),
        "generators.erdos_renyi.us_per_draw": (
            _rate(spans, "generators.erdos_renyi", "draws", 1e6), "us/draw"),
        "jsonio.dumps.ms_per_job": (
            per_job(1e3 * sum(s.end - s.start for s in job_spans if s.name == "jsonio.dumps")),
            "ms/job"),
        "cli.self_ms_per_job": (per_job(1e3 * sum(self_time[i] for i in roots)), "ms/job"),
    }
    for module in MODULES:
        m[f"{module}.share"] = (module_self[module] / job_time if job_time else 0.0, "ratio")
    m["trace.overhead_ratio"] = (overhead_ratio, "ratio")
    return m
