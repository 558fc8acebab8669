"""Output checks for benchmark jobs, run outside the timed region.

`check_job` returns None when a job's output is right and a one-line reason
when it is not.  Each check recomputes what it can with independent code or
with the public verification functions of `degex` (e12, e111, induced,
min_degree); the exact maxima themselves are covered by the golden digests
that run.py compares at the default seed.

Import this module only after set-up has imported `degex`.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction

import degex
from degex import cli

CHECK_SAMPLES = 12  # ranks rechecked per exhaustive extraction, each side


class CheckFailed(Exception):
    pass


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def flags(argv) -> dict[str, str]:
    """The --flag value pairs of an argv."""
    out = {}
    for i, tok in enumerate(argv):
        if tok.startswith("--"):
            out[tok] = argv[i + 1]
    return out


def run_cli(argv) -> tuple[int, str]:
    """Run the CLI in-process, returning (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        rc = cli.main(list(argv))
    return rc, buf.getvalue()


def _frac(obj) -> Fraction:
    return Fraction(obj["num"], obj["den"])


def _good_threshold(p: Fraction, delta: Fraction, m: int, ell: int, r: int) -> int:
    return math.floor((p - delta) * math.comb(m - ell, r - ell)) + 1


def reference_degrees(G, ell: int) -> dict[tuple[int, ...], int]:
    """deg(S) for every l-subset S, counted independently of degex.degree."""
    deg = dict.fromkeys(itertools.combinations(range(G.n), ell), 0)
    for e in G.edges:
        for S in itertools.combinations(e, ell):
            deg[S] += 1
    return deg


def _poor_count(G, ell: int, p: Fraction, deg) -> int:
    threshold = p * math.comb(G.n - ell, G.r - ell)
    return sum(1 for d in deg.values() if d < threshold)


def reference_erdos_renyi(n: int, r: int, p: Fraction, seed: int) -> list[tuple[int, ...]]:
    """The documented seeding: one Random(seed).random() draw per r-subset, in colex order."""
    rng = random.Random(seed)
    subsets = sorted(itertools.combinations(range(n), r), key=lambda e: e[::-1])
    return [e for e in subsets if rng.random() < p]


# ---------------------------------------------------------------------------
# per-command checks


def _check_qr(f, G, rep) -> None:
    p = Fraction(f["--p"])
    kind = f["--kind"]
    mode = f.get("--mode", "exact")
    _require(rep["kind"] == kind and rep["mode"] == mode, "kind or mode differs")
    _require(_frac(rep["p"]) == p, "p differs")
    D = _frac(rep["D"])
    _require(D >= 0 and _frac(rep["eps_star"]) == D / G.n**3, "eps_star != D/n^3")
    sets = rep["witness"]
    for S in sets[:-1] if kind == "12" else sets:
        _require(list(S) == sorted(set(S)) and all(0 <= v < G.n for v in S), "bad witness set")
    if kind == "12":
        X, P = sets
        P = [tuple(pair) for pair in P]
        _require(all(0 <= u < v < G.n for u, v in P), "bad witness pair")
        e = degex.e12(G, X, P)
        dev = abs(e - p * len(X) * len(P))
    else:
        X, Y, Z = sets
        e = degex.e111(G, X, Y, Z)
        dev = abs(e - p * len(X) * len(Y) * len(Z))
    _require(dev == D, f"witness deviation {dev} != D {D}")
    if mode == "sampled":
        _require(
            rep["trials"] == int(f["--trials"]) and rep["seed"] == int(f["--seed"]),
            "trials or seed differs",
        )


def _check_extract(f, G, rep) -> None:
    ell, m = int(f["--ell"]), int(f["--m"])
    need = _good_threshold(Fraction(f["--p"]), Fraction(f["--delta"]), m, ell, G.r)
    _require(rep["threshold"] == need, "threshold differs")

    def is_good(X) -> bool:
        H, _ = G.induced(X)
        return degex.min_degree(H, ell) >= need

    if f["--mode"] == "random":
        X = rep["subset"]
        _require(len(X) == m and list(X) == sorted(set(X)), "subset is not an m-set")
        _require(all(0 <= v < G.n for v in X), "subset vertex out of range")
        H, _ = G.induced(X)
        achieved = degex.min_degree(H, ell)
        _require(rep["achieved_min_degree"] == achieved, "achieved degree differs on recheck")
        budget = int(f["--budget"])
        _require(rep["seed"] == int(f["--seed"]), "seed differs")
        if rep["success"]:
            _require(achieved >= need and 1 <= rep["attempts"] <= budget, "claimed success fails recheck")
        else:
            _require(achieved < need and rep["attempts"] == budget, "failure before the budget ran out")
        return
    _require(rep["m"] == m and rep["ell"] == ell, "m or ell differs")
    ranks = rep["good_ranks"]
    total = math.comb(G.n, m)
    _require(all(a < b for a, b in zip(ranks, ranks[1:])), "good ranks not increasing")
    _require(not ranks or (ranks[0] >= 0 and ranks[-1] < total), "good rank out of range")
    rng = random.Random(f"{G.n}:{m}:{len(ranks)}")
    good = set(ranks)
    sample = rng.sample(ranks, min(CHECK_SAMPLES, len(ranks)))
    sample += [rng.randrange(total) for _ in range(CHECK_SAMPLES)]
    for rank in sample:
        X = degex.colex_unrank(rank, m, G.n)
        _require(is_good(X) == (rank in good), f"subset rank {rank} misclassified")


def _check_audit(f, G, rep) -> None:
    ell, m = int(f["--ell"]), int(f["--m"])
    p = Fraction(f["--p"])
    ctx = rep["context"]
    poor = _poor_count(G, ell, p, reference_degrees(G, ell))
    _require(ctx["poor_count"] == poor, "poor count differs")
    total = math.comb(G.n, m)
    lhs = rep["lhs"]
    if f["--which"] == "eq3":
        _require(rep["inequality_id"] == "eq3_rich_count", "wrong inequality")
        _require(rep["holds"] is True, "eq3 does not hold")
        eps_eff = Fraction(poor, math.comb(G.n, ell))
        _require(_frac(rep["rhs"]) == (1 - eps_eff * m**ell) * total, "rhs differs")
        _require(isinstance(lhs, int) and _frac(rep["rhs"]) <= lhs <= total, "lhs out of range")
    else:
        _require(rep["inequality_id"] == "bad_total_bound", "wrong inequality")
        rich = ctx["rich_count"]
        _require(rich + poor == math.comb(G.n, ell), "rich + poor != C(n, l)")
        _require(_frac(rep["rhs"]) == Fraction(total, 2), "rhs differs")
        cap = rich * math.comb(G.n - ell, m - ell)
        _require(isinstance(lhs, int) and 0 <= lhs <= cap, "lhs out of range")
        _require(rep["holds"] == (lhs <= Fraction(total, 2)), "holds flag differs")


def _check_stats_json(f, G, rep) -> None:
    ell = int(f["--ell"])
    deg = reference_degrees(G, ell)
    values = sorted(deg.values())
    _require((rep["n"], rep["r"], rep["ell"]) == (G.n, G.r, ell), "n, r or ell differs")
    _require(rep["edge_count"] == G.edge_count, "edge count differs")
    _require(rep["min_degree"] == values[0], "min degree differs")
    _require(rep["max_possible_degree"] == math.comb(G.n - ell, G.r - ell), "max degree differs")
    _require(rep["histogram"] == {str(d): c for d, c in sorted(Counter(values).items())},
             "histogram differs")
    if "--eps" in f:
        k = math.floor(Fraction(f["--eps"]) * len(values))
        expect = values[k] if k < len(values) else rep["max_possible_degree"]
        _require(rep["eps_min_degree"] == expect, "eps min degree differs")
    if "--p" in f:
        poor = _poor_count(G, ell, Fraction(f["--p"]), deg)
        _require(rep["poor_count"] == poor, "poor count differs")
        _require(_frac(rep["poor_fraction"]) == Fraction(poor, len(values)), "poor fraction differs")


def _check_stats_csv(f, G, text: str) -> None:
    ell = int(f["--ell"])
    rows = list(csv.reader(io.StringIO(text)))
    _require(rows[0] == ["rank", "subset", "degree"], "bad csv header")
    body = rows[1:]
    _require(len(body) == math.comb(G.n, ell), "row count != C(n, l)")
    deg = reference_degrees(G, ell)
    degrees = []
    for i, (rank, subset, d) in enumerate(body):
        S = tuple(int(v) for v in subset.split())
        _require(int(rank) == i and degex.colex_rank(S).rank == i, "rows not in colex order")
        _require(int(d) == deg[S], f"degree of {S} differs")
        degrees.append(int(d))
    # handshake: every edge contributes to C(r, l) of the l-subsets
    _require(sum(degrees) == G.edge_count * math.comb(G.r, ell), "handshake sum fails")
    rc, summary = run_cli(["stats", "--ell", str(ell), "--in", f["--in"]])
    _require(rc == 0 and json.loads(summary)["min_degree"] == min(degrees),
             "csv minimum differs from the json summary")


def _check_gen(f, text: str) -> None:
    n, r, seed = int(f["--n"]), int(f["--r"]), int(f["--seed"])
    p = Fraction(f["--p"])
    lines = text.split("\n")
    _require(lines[0] == f"# er n={n} r={r} p={p} seed={seed}", "bad header comment")
    _require(lines[1] == f"{r} {n}" and lines[-1] == "", "bad header line")
    edges = [tuple(int(v) for v in line.split()) for line in lines[2:-1]]
    _require(edges == reference_erdos_renyi(n, r, p, seed), "edges differ from the seeded draw")


def check_job(job, stdout: str, out_text: str | None, G) -> str | None:
    """None when the job's output is right, else the reason it is not.

    `out_text` is the content of the job's --out file; `G` the instance it read.
    """
    f = flags(job.argv)
    try:
        command = job.argv[0]
        if command == "gen":
            _check_gen(f, out_text)
        elif command == "stats" and f.get("--format") == "csv":
            _check_stats_csv(f, G, out_text)
        else:
            rep = json.loads(stdout)
            check = {"qr": _check_qr, "extract": _check_extract, "audit": _check_audit,
                     "stats": _check_stats_json}[command]
            check(f, G, rep)
    except CheckFailed as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    return None
