"""Seeded job mixes for the degex benchmark.

A mix is a set of Erdos-Renyi instances, which set-up generates and writes as
.hg files, and a list of `degex` CLI jobs that read them.  A mix is a pure
function of (workload, seed).  Each workload has a fixed template of job
classes (command, n, m, density, p, counts), so the cost of a pass over the
list is about the same for every seed; the seed picks the instance edges, the
extraction and sampling seeds, the big-int p values and the job order.

All paths in a job's argv are relative to the run's work directory.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("qr-exact", "enum-audit", "large-io")

DENSITIES = (Fraction(3, 10), Fraction(1, 2), Fraction(7, 10))
QUERY_PS = (Fraction(1, 2), Fraction(7, 10), Fraction(1, 3))


@dataclass(frozen=True)
class Instance:
    """An Erdos-Renyi r-graph that set-up generates and writes to `file`."""

    file: str
    n: int
    r: int
    p: Fraction
    seed: int


@dataclass(frozen=True)
class Job:
    """One CLI call: `argv` reads `instance` (if any) and writes `out` (if any)."""

    id: str
    label: str
    argv: tuple[str, ...]
    instance: Instance | None = None
    out: str | None = None


@dataclass(frozen=True)
class Mix:
    workload: str
    seed: int
    instances: tuple[Instance, ...]
    jobs: tuple[Job, ...]


class _MixDraft:
    def __init__(self, workload: str, seed: int):
        self.rng = random.Random(f"degex-bench:{workload}:{seed}")
        self.workload = workload
        self.seed = seed
        self.instances: list[Instance] = []
        self.jobs: list[Job] = []

    def instance(self, n: int, r: int, p: Fraction) -> Instance:
        inst = Instance(
            f"inst/i{len(self.instances):02d}.hg", n, r, p, self.rng.randrange(2**31)
        )
        self.instances.append(inst)
        return inst

    def job(self, label, argv, instance=None, out=None) -> None:
        args = [str(a) for a in argv]
        if instance is not None:
            args += ["--in", instance.file]
        if out is not None:
            args += ["--out", out]
        jid = f"j{len(self.jobs):02d}"
        self.jobs.append(Job(jid, label, tuple(args), instance, out))

    def out_path(self, ext: str) -> str:
        return f"out/j{len(self.jobs):02d}.{ext}"

    def finish(self) -> Mix:
        order = list(self.jobs)
        self.rng.shuffle(order)
        return Mix(self.workload, self.seed, tuple(self.instances), tuple(order))


def _bigint_p(rng: random.Random) -> Fraction:
    """A p in [1/4, 3/4] with a denominator near 2^55, so weights need Python ints."""
    den = 2**55 + 2 * rng.randrange(2**20) + 1
    return Fraction(rng.randrange(den // 4, 3 * den // 4), den)


# ---------------------------------------------------------------------------
# workload templates.  Counts are per pass; they place the median and the
# 90th percentile inside groups of jobs of equal cost (see README.md).


def _qr_exact(b: _MixDraft) -> None:
    # (kind, n, count, bigint p)
    template = (
        ("12", 10, 6, False), ("12", 11, 4, False), ("12", 10, 2, True),
        ("111", 6, 4, False),
        ("12", 12, 8, False), ("12", 11, 1, True),
        ("12", 13, 4, False), ("12", 12, 1, True), ("111", 7, 3, False),
        ("12", 14, 6, False),
        ("12", 15, 1, False), ("111", 8, 1, False), ("12", 16, 1, False),
    )
    k = 0
    for kind, n, count, bigint in template:
        for _ in range(count):
            g = b.instance(n, 3, DENSITIES[k % 3])
            p = _bigint_p(b.rng) if bigint else QUERY_PS[k // 3 % 3]
            k += 1
            label = f"qr{kind}-bigint" if bigint else f"qr{kind}"
            b.job(label, ("qr", "--kind", kind, "--p", p), g)


def _enum_audit(b: _MixDraft) -> None:
    half = Fraction(1, 2)
    delta = Fraction(1, 4)
    lo, mid, hi = DENSITIES

    def exhaustive(n, m, d, r=3):
        g = b.instance(n, r, d)
        b.job(f"extract-exhaustive-r{r}",
              ("extract", "--mode", "exhaustive", "--ell", 2, "--m", m,
               "--p", d, "--delta", delta), g)

    def eq3(n, m, d):
        g = b.instance(n, 3, d)
        b.job("audit-eq3", ("audit", "--which", "eq3", "--ell", 2, "--m", m, "--p", d), g)

    def bad_total(n, m, d):
        g = b.instance(n, 3, d)
        b.job("audit-bad-total",
              ("audit", "--which", "bad-total", "--ell", 2, "--m", m,
               "--p", d, "--delta", delta), g)

    # 14 short audits, below the median
    for d in (lo, mid, hi, mid):
        bad_total(13, 6, d)
        eq3(15, 7, d)
    for d in (lo, mid, hi, lo, mid, hi):
        bad_total(14, 6, d)
    # 12 audits of one cost, around the median
    for _ in range(6):
        eq3(16, 8, mid)
        bad_total(14, 7, mid)
    # 7 exhaustive extractions of middling size
    exhaustive(15, 7, lo)
    exhaustive(16, 7, mid)
    exhaustive(16, 8, lo)
    exhaustive(17, 7, mid)
    exhaustive(12, 5, half, r=4)  # r=4: the per-subset Hypergraph fallback
    exhaustive(12, 6, half, r=4)
    eq3(17, 8, mid)
    # 7 extractions of one cost, around the 90th percentile
    for _ in range(4):
        exhaustive(17, 8, mid)
    for _ in range(3):
        exhaustive(13, 6, half, r=4)


def _large_io(b: _MixDraft) -> None:
    low, half = DENSITIES[0], DENSITIES[1]
    graphs = [b.instance(n, 3, d) for n, d in ((44, half), (48, low), (52, half), (56, low), (60, low))]
    for n, d in ((44, half), (52, low), (60, low)):
        b.job("gen-er", ("gen", "er", "--n", n, "--r", 3, "--p", d,
                         "--seed", b.rng.randrange(2**31)), out=b.out_path("hg"))
    for g in graphs:
        b.job("stats-json", ("stats", "--ell", 2, "--eps", Fraction(1, 100), "--p", g.p), g)
    for g, ell in ((graphs[0], 2), (graphs[2], 2), (graphs[3], 1), (graphs[4], 2)):
        b.job("stats-csv", ("stats", "--ell", ell, "--format", "csv"), g, out=b.out_path("csv"))
    for g, m in zip(graphs, (8, 10, 12, 10, 8)):
        b.job("extract-random-l2",
              ("extract", "--mode", "random", "--ell", 2, "--m", m, "--p", g.p,
               "--delta", Fraction(1, 5), "--budget", 100,
               "--seed", b.rng.randrange(2**31)), g)
    for g in graphs[:3]:
        b.job("extract-random-l1",
              ("extract", "--mode", "random", "--ell", 1, "--m", 10, "--p", g.p,
               "--delta", Fraction(1, 20), "--budget", 20,
               "--seed", b.rng.randrange(2**31)), g)
    for g in graphs[1::2]:
        b.job("qr12-sampled",
              ("qr", "--kind", "12", "--mode", "sampled", "--trials", 200,
               "--p", b.rng.choice(QUERY_PS), "--seed", b.rng.randrange(2**31)), g)


_TEMPLATES = {"qr-exact": _qr_exact, "enum-audit": _enum_audit, "large-io": _large_io}


def build_mix(workload: str, seed: int) -> Mix:
    """The instances and jobs of `workload` at `seed`."""
    if workload not in _TEMPLATES:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    b = _MixDraft(workload, seed)
    _TEMPLATES[workload](b)
    return b.finish()
