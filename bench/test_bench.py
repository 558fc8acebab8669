"""Tests of the benchmark itself:  python3 -m pytest -q bench

They check that mixes are pure functions of the seed, that the work counts
the traced run divides by match brute-force counts, and that a corrupted
output is counted as a failed job.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import degex  # noqa: E402
import checks  # noqa: E402
import mixes  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


@pytest.mark.parametrize("workload", mixes.WORKLOADS)
def test_mix_and_instance_bytes_are_a_function_of_the_seed(workload, tmp_path):
    a, b = mixes.build_mix(workload, 7), mixes.build_mix(workload, 7)
    assert a == b
    other = mixes.build_mix(workload, 8)
    assert [j.argv for j in other.jobs] != [j.argv for j in a.jobs]
    assert [i.seed for i in other.instances] != [i.seed for i in a.instances]
    # set-up writes the same bytes every time, and every job reads one of them
    run.write_instances(a, tmp_path / "a")
    run.write_instances(b, tmp_path / "b")
    assert run._tree_bytes(tmp_path / "a") == run._tree_bytes(tmp_path / "b")
    files = {i.file for i in a.instances}
    assert all(j.instance is None or j.instance.file in files for j in a.jobs)
    assert all("--threads" not in j.argv for j in a.jobs)


def _traced(argv_list, workdir, monkeypatch):
    """Run CLI argvs under the recorder, from `workdir`; returns the spans."""
    monkeypatch.chdir(workdir)
    rec = tracing.Recorder()
    patched = tracing.instrument(rec)
    try:
        for i, argv in enumerate(argv_list):
            rec.job = i
            rc, _ = checks.run_cli(argv)
            assert rc == 0, argv
    finally:
        tracing.uninstrument(patched)
    return rec.spans


def _units(spans, name):
    return [s.units for s in spans if s.name == name]


def test_work_counts_match_brute_force(tmp_path, monkeypatch):
    G3 = degex.erdos_renyi(7, 3, Fraction(1, 2), seed=4)
    degex.dump(G3, tmp_path / "g3.hg")
    degex.dump(degex.erdos_renyi(4, 3, Fraction(1, 2), seed=5), tmp_path / "g4.hg")
    spans = _traced([
        ["qr", "--kind", "12", "--p", "1/2", "--in", "g3.hg"],
        ["qr", "--kind", "111", "--p", "1/3", "--in", "g4.hg"],
        ["extract", "--mode", "exhaustive", "--ell", "2", "--m", "4", "--p", "1/2",
         "--delta", "1/4", "--in", "g3.hg"],
        ["audit", "--which", "eq3", "--ell", "2", "--m", "4", "--p", "1/2", "--in", "g3.hg"],
        ["audit", "--which", "bad-total", "--ell", "2", "--m", "4", "--p", "1/2",
         "--delta", "1/4", "--in", "g3.hg"],
        ["gen", "er", "--n", "6", "--p", "1/2", "--seed", "3", "--out", "e.hg"],
    ], tmp_path, monkeypatch)
    n = 7
    masks = list(itertools.product((0, 1), repeat=n))
    assert _units(spans, "quasirandomness.deviation_12_exact") == [
        {"states": len(masks), "bigint": False}]
    pairs = list(itertools.product(itertools.product((0, 1), repeat=4), repeat=2))
    assert _units(spans, "quasirandomness.deviation_111_exact") == [{"states": len(pairs)}]

    subsets = list(itertools.combinations(range(n), 4))
    need = math.floor((Fraction(1, 2) - Fraction(1, 4)) * math.comb(2, 1)) + 1
    good = sum(1 for X in subsets if degex.min_degree(G3.induced(X)[0], 2) >= need)
    assert _units(spans, "extraction.extract_exhaustive") == [{"subsets": len(subsets), "good": good}]
    assert _units(spans, "extraction.audit_eq3") == [{"subsets": len(subsets)}]

    deg = checks.reference_degrees(G3, 2)
    rich = [S for S, d in deg.items() if d >= Fraction(1, 2) * (n - 2)]
    extensions = sum(
        len(list(itertools.combinations([v for v in range(n) if v not in S], 2))) for S in rich
    )
    assert _units(spans, "extraction.audit_bad_total") == [{"extensions": extensions}]

    increments = sum(1 for e in G3.edges for _ in itertools.combinations(e, 2))
    assert {"increments": increments} in _units(spans, "degree.degree_table")
    assert _units(spans, "hypergraph.load")[0] == {"edges": G3.edge_count}


def test_erdos_renyi_draws_match_the_random_calls(tmp_path, monkeypatch):
    calls = []

    class CountingRandom(random.Random):
        def random(self):
            calls.append(1)
            return super().random()

    monkeypatch.setattr(sys.modules["degex.generators"].random, "Random", CountingRandom)
    spans = _traced([["gen", "er", "--n", "6", "--r", "3", "--p", "1/2", "--seed", "3"]],
                    tmp_path, monkeypatch)
    assert _units(spans, "generators.erdos_renyi") == [{"draws": len(calls)}]
    assert len(calls) == len(list(itertools.combinations(range(6), 3)))


def test_spans_nest_and_layer_metrics_cover_benchmark_json(tmp_path, monkeypatch):
    degex.dump(degex.erdos_renyi(9, 3, Fraction(1, 2), seed=1), tmp_path / "g.hg")
    spans = _traced([["stats", "--ell", "2", "--eps", "1/10", "--p", "1/2", "--in", "g.hg"]],
                    tmp_path, monkeypatch)
    # stats recomputes the table inside min_degree, eps_min_degree and poor_sets
    tables = [s for s in spans if s.name == "degree.degree_table"]
    assert len(tables) == 4
    assert {spans[s.parent].name for s in tables if s.parent >= 0} == {
        "degree.min_degree", "degree.eps_min_degree", "degree.poor_sets"}
    metrics = tracing.layer_metrics(spans, 1, 1.0)
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == {
        k: unit for k, (_, unit) in metrics.items()}
    shares = sum(v for k, (v, _) in metrics.items() if k.endswith(".share"))
    assert shares == pytest.approx(1.0)  # self times partition the root spans


def _one_job_mix(workdir, argv, out=None):
    G = degex.erdos_renyi(8, 3, Fraction(1, 2), seed=2)
    (workdir / "inst").mkdir(parents=True)
    (workdir / "out").mkdir()
    degex.dump(G, workdir / "inst" / "i00.hg")
    inst = mixes.Instance("inst/i00.hg", 8, 3, Fraction(1, 2), 2)
    job = mixes.Job("j00", "test", tuple(argv) + ("--in", inst.file) + (("--out", out) if out else ()),
                    inst, out)
    return mixes.Mix("test", 0, (inst,), (job,)), job


@pytest.mark.parametrize("corrupt", [None, "stdout", "repeat"])
def test_corrupted_qr_output_counts_as_failed(tmp_path, monkeypatch, corrupt):
    mix, job = _one_job_mix(tmp_path, ["qr", "--kind", "12", "--p", "1/2"])
    monkeypatch.chdir(tmp_path)
    first_ex, text = run.execute(degex.cli.main, job)
    second_ex, _ = run.execute(degex.cli.main, job)
    if corrupt == "stdout":
        rep = json.loads(text)
        rep["D"]["num"] += 1
        text = json.dumps(rep)
        first_ex.digest = second_ex.digest = "corrupted"
    elif corrupt == "repeat":
        second_ex.digest = "different"
    first = {job.id: (first_ex, text)}
    verdicts, _ = run.check_jobs(mix, first, tmp_path, None)
    failed, reasons = run.count_failures([first_ex, second_ex], verdicts, first)
    assert failed == {None: 0, "stdout": 2, "repeat": 1}[corrupt], reasons


def test_corrupted_csv_and_golden_mismatch_count_as_failed(tmp_path, monkeypatch):
    mix, job = _one_job_mix(tmp_path, ["stats", "--ell", "2", "--format", "csv"], out="out/j00.csv")
    monkeypatch.chdir(tmp_path)
    first = {job.id: run.execute(degex.cli.main, job)}
    verdicts, digests = run.check_jobs(mix, first, tmp_path, None)
    assert verdicts == {"j00": None}
    assert run.check_jobs(mix, first, tmp_path, digests)[0] == {"j00": None}
    assert run.check_jobs(mix, first, tmp_path, {"j00": "0" * 64})[0]["j00"] is not None

    path = tmp_path / "out" / "j00.csv"
    lines = path.read_text().split("\n")
    rank, subset, d = lines[1].split(",")
    lines[1] = f"{rank},{subset},{int(d) + 1}"
    path.write_text("\n".join(lines))
    verdicts, _ = run.check_jobs(mix, first, tmp_path, None)
    assert verdicts["j00"] is not None
    assert run.count_failures([first["j00"][0]], verdicts, first)[0] == 1
