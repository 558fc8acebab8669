"""degex benchmark: seeded CLI job mixes run in a closed loop.

    python3 bench/run.py --workload qr-exact --seed 1 --seconds 30 --trace 0

One client in one process runs one job at a time: each job is
`degex.cli.main(argv)` called in-process with stdout captured, reading a .hg
file that set-up wrote.  With --trace 0 the last stdout line holds the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a traced
run (see README.md).  Earlier lines hold provenance and per-class latencies,
and the full result is also written under .bench_out/ in the checkout.
Run from a checkout of the repository: the program is imported from src/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import mixes

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN_PATH = BENCH_DIR / "golden.json"
DEFAULT_SEED = 1
SETUP_REPS = 5  # set-ups per run; setup_s is their median
MIN_EXECUTIONS = 100  # so that ten timed jobs lie beyond the 90th percentile


@dataclass
class Execution:
    job: mixes.Job
    seconds: float
    rc: int | None
    digest: str  # sha256 of stdout
    error: str | None = None


# ---------------------------------------------------------------------------
# set-up


def _import_degex() -> None:
    """Import degex afresh from the checkout's src/ (numpy stays imported)."""
    for name in [m for m in sys.modules if m == "degex" or m.startswith("degex.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    cli = importlib.import_module("degex.cli")
    src = (ROOT / "src").resolve()
    if Path(cli.__file__).resolve().parents[1] != src:
        raise ImportError(f"degex was imported from {cli.__file__}, not from {src}")


def write_instances(mix: mixes.Mix, dest: Path) -> None:
    """Generate every instance of the mix with degex.generators and write it as .hg."""
    generators = sys.modules["degex.generators"]
    hypergraph = sys.modules["degex.hypergraph"]
    (dest / "inst").mkdir(parents=True)
    (dest / "out").mkdir()
    for inst in mix.instances:
        G = generators.erdos_renyi(inst.n, inst.r, inst.p, inst.seed)
        hypergraph.dump(G, dest / inst.file, header_comment=f"seed={inst.seed}")


def setup(workload: str, seed: int, dest: Path) -> float:
    """Import degex, build the mix and write its instances; returns seconds."""
    start = time.perf_counter()
    _import_degex()
    write_instances(mixes.build_mix(workload, seed), dest)
    return time.perf_counter() - start


def _tree_bytes(path: Path) -> dict[str, bytes]:
    return {str(p.relative_to(path)): p.read_bytes() for p in sorted(path.rglob("*")) if p.is_file()}


# ---------------------------------------------------------------------------
# the closed loop


def execute(main, job: mixes.Job) -> tuple[Execution, str]:
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(job.argv))
    except SystemExit as exc:  # argparse rejects an argv
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a job that raises is a failed job, not a failed run
        rc, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    text = out.getvalue()
    if rc not in (0, None) and error is None:
        error = f"exit {rc}: {err.getvalue().strip()}"
    digest = hashlib.sha256(text.encode()).hexdigest()
    return Execution(job, seconds, rc, digest, error), text


def run_pass(main, jobs, first: dict, on_job=None) -> tuple[list[Execution], float]:
    """One pass: each job of the list once, in order; returns its executions and wall time.

    The first execution of each job, with its stdout, is kept in `first`.
    """
    executions = []
    start = time.perf_counter()
    for job in jobs:
        if on_job is not None:
            on_job(len(executions))
        execution, stdout = execute(main, job)
        first.setdefault(job.id, (execution, stdout))
        executions.append(execution)
    return executions, time.perf_counter() - start


# ---------------------------------------------------------------------------
# checks and accounting


def job_digest(stdout_digest: str, out_bytes: bytes | None) -> str:
    h = hashlib.sha256(stdout_digest.encode())
    if out_bytes is not None:
        h.update(out_bytes)
    return h.hexdigest()


def check_jobs(mix, first: dict, workdir: Path, golden: dict | None) -> tuple[dict, dict]:
    """Check each job's first output; returns ({job id: reason or None}, {job id: digest})."""
    import checks  # binds to the degex that set-up imported

    hypergraph = sys.modules["degex.hypergraph"]
    graphs = {inst.file: hypergraph.load(workdir / inst.file) for inst in mix.instances}
    verdicts, digests = {}, {}
    for job in mix.jobs:
        execution, stdout = first[job.id]
        out_path = workdir / job.out if job.out else None
        out_bytes = out_path.read_bytes() if out_path and out_path.exists() else None
        digests[job.id] = job_digest(execution.digest, out_bytes)
        if execution.error is not None or execution.rc != 0:
            verdicts[job.id] = execution.error or f"exit {execution.rc}"
        elif job.out and out_bytes is None:
            verdicts[job.id] = f"{job.out} was not written"
        elif golden is not None and golden.get(job.id) != digests[job.id]:
            verdicts[job.id] = "output differs from the golden digest"
        else:
            G = graphs[job.instance.file] if job.instance else None
            out_text = out_bytes.decode() if out_bytes is not None else None
            verdicts[job.id] = checks.check_job(job, stdout, out_text, G)
    return verdicts, digests


def count_failures(executions, verdicts: dict, first: dict) -> tuple[int, list[str]]:
    """An execution fails on an error, a failed check, or stdout unlike the job's first."""
    failed, reasons = 0, []
    for ex in executions:
        reason = ex.error or verdicts.get(ex.job.id)
        if reason is None and ex.digest != first[ex.job.id][0].digest:
            reason = "stdout differs between repeats"
        if reason is not None:
            failed += 1
            reasons.append(f"{ex.job.id} ({ex.job.label}): {reason}")
    return failed, reasons


# ---------------------------------------------------------------------------
# provenance


def _steal_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies from the first line of /proc/stat, read only."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
    except OSError:
        return None
    ticks = [int(v) for v in fields[1:]]
    return ticks[7] if len(ticks) > 7 else 0, sum(ticks)


def host_loop_ms(reps: int = 20) -> dict:
    """Min and median time of a fixed pure-Python loop: how fast the host ran then."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        acc = 0
        for i in range(50_000):
            acc += i * i % 7
        times.append(1e3 * (time.perf_counter() - start))
    return {"min": min(times), "median": statistics.median(times)}


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    path = ROOT / ".git" / name
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(steal_start, loop_start) -> dict:
    import numpy

    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "degex").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    steal_end = _steal_ticks()
    steal = None
    if steal_start and steal_end:
        d_steal, d_total = steal_end[0] - steal_start[0], steal_end[1] - steal_start[1]
        steal = {"ticks": d_steal, "share": d_steal / d_total if d_total else 0.0}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": src.hexdigest(),
        "steal": steal,
        "host_loop_ms": {"start": loop_start, "end": host_loop_ms()},
    }


# ---------------------------------------------------------------------------
# main


def _percentile_ms(values, q: int) -> float:
    return 1e3 * statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _class_latencies(executions) -> dict:
    by = defaultdict(list)
    for ex in executions:
        by[ex.job.label].append(ex.seconds)
    return {k: {"n": len(v), "p50_ms": 1e3 * statistics.median(v)} for k, v in sorted(by.items())}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=mixes.WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true",
                    help=f"record this run's output digests as the golden ones (seed {DEFAULT_SEED})")
    return ap.parse_args(argv)


def timed_run(cli, mix, seconds: float, first: dict, setup_times) -> tuple[list, dict, dict]:
    """The untraced run: end-to-end metrics.

    One untimed warm-up pass, then whole timed passes until `seconds` have
    passed and enough jobs ran.
    """
    warm, _ = run_pass(cli.main, mix.jobs, first)
    timed, pass_s = [], []
    while sum(pass_s) < seconds or len(timed) < MIN_EXECUTIONS:
        executions, elapsed = run_pass(cli.main, mix.jobs, first)
        timed += executions
        pass_s.append(elapsed)
    lat = [ex.seconds for ex in timed]
    metrics = {
        "jobs_per_s": (len(timed) / sum(pass_s), "jobs/s"),
        "job_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "job_p90_ms": (_percentile_ms(lat, 90), "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    extra = {"timed_passes": len(pass_s), "timed_jobs": len(timed), "timed_s": sum(pass_s),
             "pass_s": pass_s, "setup_runs_s": setup_times, "classes": _class_latencies(timed)}
    return warm + timed, metrics, extra


def traced_run(cli, mix, seconds: float, first: dict, work: Path, label: str):
    """Untraced and traced passes in turn: per-layer metrics and tracing overhead.

    Alternating the passes keeps a slow spell of the host from landing on one
    side of the overhead ratio only.
    """
    import tracing

    rec = tracing.Recorder()
    patched = tracing.instrument(rec)
    try:
        write_instances(mix, work / "traced-setup")  # spans of set-up, job SETUP_JOB
    finally:
        tracing.uninstrument(patched)
    traced_main = rec.wrap("cli.main", cli.main)
    warm, _ = run_pass(cli.main, mix.jobs, first)
    plain, traced = [], []
    plain_s = traced_s = 0.0
    while plain_s + traced_s < seconds:
        executions, elapsed = run_pass(cli.main, mix.jobs, first)
        plain += executions
        plain_s += elapsed
        offset = len(traced)
        patched = tracing.instrument(rec)
        try:
            executions, elapsed = run_pass(
                traced_main, mix.jobs, first, on_job=lambda i: setattr(rec, "job", offset + i))
        finally:
            tracing.uninstrument(patched)
        traced += executions
        traced_s += elapsed
    overhead = (len(traced) / traced_s) / (len(plain) / plain_s)
    metrics = tracing.layer_metrics(rec.spans, len(traced), overhead)
    spans_path = ROOT / ".bench_out" / f"{label}-spans.json"
    spans_path.parent.mkdir(exist_ok=True)
    spans_path.write_text(json.dumps(rec.to_jsonable()))
    extra = {"untraced_jobs": len(plain), "traced_jobs": len(traced), "spans": len(rec.spans),
             "spans_file": str(spans_path.relative_to(ROOT))}
    return warm + plain + traced, metrics, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "degex" / "__init__.py").is_file():
        print(f"error: no degex sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    if args.write_golden and args.seed != DEFAULT_SEED:
        print(f"error: golden digests are recorded at seed {DEFAULT_SEED}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy  # noqa: F401  (imported once, before the timed set-ups)

    label = f"{args.workload}-seed{args.seed}"
    steal_start, loop_start = _steal_ticks(), host_loop_ms()
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    cwd = os.getcwd()
    try:
        setup_times = [setup(args.workload, args.seed, work / f"setup{i}") for i in range(SETUP_REPS)]
        trees = [_tree_bytes(work / f"setup{i}") for i in range(SETUP_REPS)]
        setup_identical = all(t == trees[0] for t in trees)
        workdir = work / f"setup{SETUP_REPS - 1}"
        mix = mixes.build_mix(args.workload, args.seed)
        cli = sys.modules["degex.cli"]
        os.chdir(workdir)
        first = {}  # job id -> (first execution, its stdout): the outputs checked in full
        if args.trace == 0:
            executions, metrics, extra = timed_run(cli, mix, args.seconds, first, setup_times)
        else:
            executions, metrics, extra = traced_run(cli, mix, args.seconds, first, work, label)

        # checks, outside every timed region
        golden_all = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.is_file() else {}
        golden = None
        if args.seed == golden_all.get("seed") and not args.write_golden:
            golden = golden_all.get("digests", {}).get(args.workload)
        verdicts, digests = check_jobs(mix, first, workdir, golden)
        failed, reasons = count_failures(executions, verdicts, first)
        if not setup_identical:
            reasons.append("set-up runs wrote different instance bytes")
        if args.write_golden:
            golden_all = {"seed": DEFAULT_SEED, "digests": golden_all.get("digests", {})}
            golden_all["digests"][args.workload] = digests
            GOLDEN_PATH.write_text(json.dumps(golden_all, indent=1, sort_keys=True) + "\n")
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(executions)
    if args.trace == 0:
        metrics["ok_frac"] = ((attempted - failed) / attempted, "ratio")
    result = {
        "correct": failed == 0 and setup_identical,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "golden_checked": golden is not None, "failures": reasons[:20],
        "provenance": provenance(steal_start, loop_start), **extra,
    }
    out = {**info, **result}
    if args.trace == 0:
        out["latencies"] = [[ex.job.id, ex.seconds] for ex in executions]
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{label}-trace{args.trace}.json").write_text(json.dumps(out, indent=1) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
