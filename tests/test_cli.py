import contextlib
import io
import itertools
import json
import math
import pathlib
import random
import sys
import time
import tracemalloc
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import degex.cli
from degex.cli import build_parser, main
from degex.combinatorics import BLOCK_BYTES, binom, random_ksubset
from degex.degree import degree_of
from degex.errors import LimitExceeded, ValidationError, refuse_above
from degex.extraction import _attempt_seed
from degex.hypergraph import build, load, parse
from degex.quasirandomness import e111, e12

from oracles import (
    brute_bad_total,
    brute_dev111,
    brute_dev12,
    brute_min_induced_degree,
    brute_phi,
    brute_poor_free,
    brute_poor_pairs,
    brute_rich_sets,
    counter_degree_table,
    naive_eps_min,
    subset_degrees,
)


def run(capsys, *argv):
    """Invoke the CLI, returning (exit_code, stdout, stderr)."""
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse's own validation path
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGen:
    def test_complete_writes_ten_edges(self, capsys, tmp_path):
        out = tmp_path / "k5.hg"
        code, _, _ = run(capsys, "gen", "complete", "--n", "5", "--r", "3", "--out", str(out))
        assert code == 0
        assert load(out).edge_count == 10

    def test_er_is_reproducible(self, capsys, tmp_path):
        a, b = tmp_path / "a.hg", tmp_path / "b.hg"
        for path in (a, b):
            code, _, _ = run(
                capsys, "gen", "er", "--n", "20", "--r", "3",
                "--p", "1/2", "--seed", "7", "--out", str(path),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        assert b"seed=7" in a.read_bytes()  # the run records its seed

    def test_er_to_stdout(self, capsys):
        code, out, _ = run(capsys, "gen", "er", "--n", "6", "--r", "3", "--p", "0", "--seed", "1")
        assert code == 0
        assert parse(out).edge_count == 0

    def test_huge_generation_is_exit_3_at_once(self, capsys):
        # C(10^9, 3) subsets: refused before the first draw
        for argv in (("er", "--p", "1/2", "--seed", "1"), ("complete",)):
            start = time.perf_counter()
            code, out, err = run(capsys, "gen", *argv, "--n", "1000000000", "--r", "3")
            assert time.perf_counter() - start < 5
            assert code == 3
            assert out == ""
            assert err.startswith("error: generating over C(1000000000, 3)")
            assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [("er", "--p", "1/2", "--seed", "1"), ("complete",)],
                             ids=["er", "complete"])
    def test_negative_vertex_count_is_exit_2(self, capsys, argv):
        code, out, err = run(capsys, "gen", *argv, "--n", "-1", "--r", "3")
        assert (code, out, err) == (2, "", "error: vertex count must be nonnegative, got -1\n")

    def test_partition_del(self, capsys, tmp_path):
        k6 = tmp_path / "k6.hg"
        run(capsys, "gen", "complete", "--n", "6", "--r", "3", "--out", str(k6))
        out = tmp_path / "k6del.hg"
        code, _, _ = run(
            capsys, "gen", "partition-del", "--in", str(k6), "--N", "3", "--out", str(out)
        )
        assert code == 0
        assert load(out).edge_count == 8
        sidecar = json.loads((tmp_path / "k6del.hg.partition.json").read_text())
        assert sidecar["N"] == 3
        assert sidecar["parts"] == [[0, 2], [2, 4], [4, 6]]
        assert sidecar["deleted_edges"] == 12

    @pytest.mark.parametrize("argv", [("er", "--p", "1/2", "--seed", "1"), ("complete",)],
                             ids=["er", "complete"])
    def test_in_is_not_a_flag_of_a_generator_that_reads_nothing(self, capsys, tmp_path, argv):
        # only partition-del reads a graph
        missing = tmp_path / "missing.hg"
        code, out, err = run(capsys, "gen", *argv, "--n", "5", "--r", "3", "--in", str(missing))
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].endswith(f"unrecognized arguments: --in {missing}")

    def test_missing_input_is_validation_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "gen", "partition-del", "--in", str(tmp_path / "nope.hg"),
            "--N", "2", "--out", str(tmp_path / "x.hg"),
        )
        assert code == 2
        assert "error" in err


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "g.hg"
    path.write_text("3 5\n0 1 2\n0 1 3\n0 1 4\n2 3 4\n", encoding="utf-8")
    return str(path)


class TestStats:
    def test_summary_json(self, capsys, example_file):
        code, out, _ = run(
            capsys, "stats", "--in", example_file, "--ell", "2",
            "--eps", "95/100", "--p", "1/2",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["min_degree"] == 1
        assert payload["eps_min_degree"] == 3
        assert payload["eps_min_degree_capped"] is False
        assert payload["poor_count"] == 9
        assert payload["poor_fraction"] == {"num": 9, "den": 10}
        assert payload["histogram"] == {"1": 9, "3": 1}

    def test_summary_builds_one_degree_table(self, capsys, example_file, monkeypatch):
        import degex.cli
        import degex.degree

        calls = []
        original = degex.degree.degree_table

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(degex.degree, "degree_table", counting)
        monkeypatch.setattr(degex.cli, "degree_table", counting)
        code, _, _ = run(
            capsys, "stats", "--in", example_file, "--ell", "2",
            "--eps", "95/100", "--p", "1/2",
        )
        assert code == 0
        assert len(calls) == 1

    def test_oversized_header_is_exit_3(self, capsys, tmp_path):
        # C(10^9, 2) subsets: refused before the table is built
        path = tmp_path / "huge.hg"
        path.write_text("3 1000000000\n")
        for fmt in ("json", "csv"):
            code, out, err = run(
                capsys, "stats", "--in", str(path), "--ell", "2", "--format", fmt
            )
            assert code == 3
            assert out == ""
            assert err.startswith("error: the degree table") and err.count("\n") == 1

    def test_eps_cap_flagged(self, capsys, example_file):
        code, out, _ = run(
            capsys, "stats", "--in", example_file, "--ell", "2", "--eps", "1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["eps_min_degree"] == 3  # max possible degree
        assert payload["eps_min_degree_capped"] is True

    def test_degree_table_csv(self, capsys, example_file):
        code, out, _ = run(capsys, "stats", "--in", example_file, "--ell", "2", "--format", "csv")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "rank,subset,degree"
        assert lines[1] == "0,0 1,3"
        assert len(lines) == 11

    @pytest.mark.parametrize("flags", [("--eps", "1/2"), ("--p", "1/2"), ("--eps", "1/2", "--p", "1/2")])
    def test_csv_refuses_json_only_flags(self, capsys, example_file, tmp_path, flags):
        out_path = tmp_path / "t.csv"
        code, out, err = run(
            capsys, "stats", "--in", example_file, "--ell", "2", *flags,
            "--format", "csv", "--out", str(out_path),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: --eps and --p") and err.count("\n") == 1
        assert not out_path.exists()

    def test_complete_graph_single_bar(self, capsys, tmp_path):
        k6 = tmp_path / "k6.hg"
        run(capsys, "gen", "complete", "--n", "6", "--r", "3", "--out", str(k6))
        code, out, _ = run(capsys, "stats", "--in", str(k6), "--ell", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["min_degree"] == 4
        assert payload["histogram"] == {"4": 15}

    def test_one_subset_of_degree_zero(self, capsys, tmp_path):
        # n = 2, l = 2: the table is one subset of degree 0, and 0 is not null
        path = tmp_path / "g.hg"
        path.write_text("3 2\n")
        code, out, _ = run(capsys, "stats", "--in", str(path), "--ell", "2")
        assert code == 0
        assert '"min_degree": 0,' in out
        assert json.loads(out)["histogram"] == {"0": 1}

    def test_bad_ell_is_validation_error(self, capsys, example_file):
        code, _, err = run(capsys, "stats", "--in", example_file, "--ell", "5")
        assert code == 2

    def test_requires_input(self, capsys):
        code, _, err = run(capsys, "stats", "--ell", "2")
        assert code == 2


class TestExtract:
    def test_random_mode(self, capsys, tmp_path):
        k8 = tmp_path / "k8.hg"
        run(capsys, "gen", "complete", "--n", "8", "--r", "3", "--out", str(k8))
        code, out, _ = run(
            capsys, "extract", "--in", str(k8), "--ell", "2", "--m", "4",
            "--p", "1", "--delta", "1/10", "--mode", "random",
            "--budget", "5", "--seed", "3",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["success"] is True
        assert payload["attempts"] == 1
        assert payload["achieved_min_degree"] == 2
        assert payload["seed"] == 3

    def test_exhaustive_mode(self, capsys, tmp_path):
        k5 = tmp_path / "k5.hg"
        run(capsys, "gen", "complete", "--n", "5", "--r", "3", "--out", str(k5))
        code, out, _ = run(
            capsys, "extract", "--in", str(k5), "--ell", "2", "--m", "4",
            "--p", "1", "--delta", "1/100", "--mode", "exhaustive",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["good_ranks"] == [0, 1, 2, 3, 4]
        assert payload["threshold"] == 2

    def test_enum_budget_refusal_is_exit_3(self, capsys, tmp_path):
        g = tmp_path / "big.hg"
        run(capsys, "gen", "er", "--n", "12", "--r", "3", "--p", "1/2", "--seed", "1", "--out", str(g))
        code, _, err = run(
            capsys, "extract", "--in", str(g), "--ell", "2", "--m", "6",
            "--p", "1/2", "--delta", "1/10", "--mode", "exhaustive",
            "--enum-budget", "10",
        )
        assert code == 3
        assert "budget" in err

    def test_failed_recheck_prints_internal_error_once(self, capsys, monkeypatch, tmp_path):
        import degex.extraction

        k8 = tmp_path / "k8.hg"
        run(capsys, "gen", "complete", "--n", "8", "--r", "3", "--out", str(k8))
        monkeypatch.setattr(degex.extraction, "min_degree", lambda sub, ell: -1)
        code, out, err = run(
            capsys, "extract", "--in", str(k8), "--ell", "2", "--m", "4",
            "--p", "1", "--delta", "1/10", "--mode", "random",
            "--budget", "5", "--seed", "3",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("internal error: subset")
        assert err.count("internal error") == 1

    def test_recheck_table_refused_before_the_first_draw(self, capsys, monkeypatch, tmp_path):
        # the final recheck builds a C(400, 3) degree table, above the limit
        import degex.extraction

        draws = []
        monkeypatch.setattr(degex.extraction, "random_ksubset", lambda *a: draws.append(a))
        path = tmp_path / "wide.hg"
        path.write_text("4 400\n")
        code, out, err = run(
            capsys, "extract", "--in", str(path), "--ell", "3", "--m", "400",
            "--p", "1/2", "--delta", "1/4", "--budget", "1",
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error: the degree table over C(400, 3)") and err.count("\n") == 1
        assert draws == []

    def test_attempt_walks_refused_before_the_first_draw(self, capsys, monkeypatch, tmp_path):
        # each attempt walks the C(200, 3) 3-subsets of its X: 1000 attempts
        # are 1.3 * 10^9 subsets, above the default enumeration budget
        import degex.extraction

        draws = []
        monkeypatch.setattr(degex.extraction, "random_ksubset", lambda *a: draws.append(a))
        path = tmp_path / "wide.hg"
        path.write_text("4 3000\n")
        code, out, err = run(
            capsys, "extract", "--in", str(path), "--ell", "1", "--m", "200",
            "--p", "1/2", "--delta", "1/4",
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error: extract_random with 1000 attempts of C(200, 3)")
        assert err.count("\n") == 1
        assert draws == []

    def test_reproducible_output(self, capsys, tmp_path):
        g = tmp_path / "g.hg"
        run(capsys, "gen", "er", "--n", "14", "--r", "3", "--p", "3/5", "--seed", "5", "--out", str(g))
        outputs = []
        for _ in range(2):
            code, out, _ = run(
                capsys, "extract", "--in", str(g), "--ell", "2", "--m", "6",
                "--p", "1/2", "--delta", "1/5", "--budget", "20", "--seed", "11",
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1]

    def test_thread_flag_rejected_outside_qr(self, capsys, tmp_path):
        g = tmp_path / "g.hg"
        code, _, _ = run(
            capsys, "gen", "er", "--n", "12", "--r", "3", "--p", "1/2", "--seed", "2",
            "--out", str(g), "--threads", "8",
        )
        assert code == 2
        assert not g.exists()
        run(capsys, "gen", "er", "--n", "12", "--r", "3", "--p", "1/2", "--seed", "2", "--out", str(g))
        common = ("--in", str(g), "--ell", "2", "--m", "5", "--p", "1/2", "--threads", "8")
        for argv in (
            ("stats", "--in", str(g), "--ell", "2", "--threads", "8"),
            ("extract", *common, "--delta", "1/5", "--budget", "10", "--seed", "1"),
            ("audit", "--which", "eq3", *common),
        ):
            code, out, err = run(capsys, *argv)
            assert code == 2
            assert out == ""
            assert "--threads" in err

    def test_random_link_masks_skip_empty_words(self, capsys, tmp_path):
        # 156250 words to a vertex set, of which 2 edges fill a handful; the
        # masks are over the 6 vertices on an edge
        path = tmp_path / "wide.hg"
        path.write_text("3 10000000\n0 1 2\n5 9999990 9999999\n")
        start = time.perf_counter()
        code, out, err = run(
            capsys, "extract", "--in", str(path), "--ell", "1", "--m", "3",
            "--p", "1/2", "--delta", "1/2", "--budget", "20",
        )
        assert time.perf_counter() - start < 0.5
        assert (code, err) == (0, "")
        assert json.loads(out) == {
            "success": False, "subset": [1619619, 4325282, 5892764],
            "achieved_min_degree": 0, "threshold": 1, "attempts": 20, "seed": 0,
        }

    def test_random_at_10_to_the_8_vertices_is_fast_and_small(self, capsys, tmp_path):
        # 2 edges: the link masks and each draw's mask are over the 6 vertices
        # on an edge, not 1562500 words of the vertex set
        path = tmp_path / "huge.hg"
        path.write_text("3 100000000\n0 1 2\n3 4 5\n")
        argv = ("extract", "--in", str(path), "--ell", "1", "--m", "3", "--p", "1/2",
                "--delta", "1/2", "--budget", "1000")
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 0.5
        assert (code, err) == (0, "")
        assert out == (
            '{\n  "success": false,\n  "subset": [\n    27054039,\n    33911631,\n'
            '    58586370\n  ],\n  "achieved_min_degree": 0,\n  "threshold": 1,\n'
            '  "attempts": 1000,\n  "seed": 0\n}\n'
        )
        tracemalloc.start()
        try:
            assert run(capsys, *argv)[1] == out
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()


class TestAudit:
    def test_eq3(self, capsys, example_file):
        code, out, _ = run(
            capsys, "audit", "--in", example_file, "--which", "eq3",
            "--ell", "2", "--m", "4", "--p", "1/2",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["inequality_id"] == "eq3_rich_count"
        assert payload["holds"] is True

    def test_eq2_requires_subset(self, capsys, example_file):
        code, _, err = run(
            capsys, "audit", "--in", example_file, "--which", "eq2",
            "--m", "4", "--p", "1/2", "--delta", "1/10",
        )
        assert code == 2
        assert "subset" in err

    @pytest.mark.parametrize("which, flags, named, readers", [
        ("eq2", ("--subset", "0,1", "--delta", "1/4", "--ell", "3"), "--ell", "eq3 and bad-total"),
        ("eq3", ("--ell", "2", "--delta", "1/4"), "--delta", "eq2 and bad-total"),
        ("bad-total", ("--ell", "2", "--delta", "1/4", "--subset", "0,1"), "--subset", "eq2"),
    ], ids=["ell", "delta", "subset"])
    def test_a_flag_the_audit_never_reads_is_exit_2(self, capsys, example_file, tmp_path, which,
                                                     flags, named, readers):
        for path in (example_file, tmp_path / "missing.hg"):  # refused before the input is read
            code, out, err = run(capsys, "audit", "--which", which, *flags, "--m", "4",
                                 "--p", "1/2", "--in", str(path))
            assert (code, out) == (2, "")
            assert err == f"error: {named} applies only to {readers} audits\n"

    def test_eq2(self, capsys, example_file):
        code, out, _ = run(
            capsys, "audit", "--in", example_file, "--which", "eq2",
            "--m", "4", "--p", "1/2", "--delta", "1/10", "--subset", "0,1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["inequality_id"] == "eq2_phi_bound"
        assert payload["context"]["S"] == [0, 1]

    def test_bad_total(self, capsys, example_file):
        code, out, _ = run(
            capsys, "audit", "--in", example_file, "--which", "bad-total",
            "--ell", "2", "--m", "4", "--p", "1/2", "--delta", "1/10",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["inequality_id"] == "bad_total_bound"
        assert payload["rhs"] == {"num": 5, "den": 2}


    @pytest.mark.parametrize("which", ["eq2", "bad-total"])
    def test_delta_past_float_range(self, capsys, tmp_path, which):
        # delta = 10^200, where exp(-delta^2 m / 2) would underflow, lies
        # outside (0, 1) and is refused before any counting
        g = tmp_path / "g.hg"
        run(capsys, "gen", "er", "--n", "12", "--r", "3", "--p", "1/2", "--seed", "1", "--out", str(g))
        G = load(g)
        S = max(itertools.combinations(range(12), 2), key=lambda s: degree_of(G, s))
        flags = {"eq2": ("--subset", ",".join(map(str, S))), "bad-total": ("--ell", "2")}[which]
        code, out, err = run(
            capsys, "audit", "--in", str(g), "--which", which, *flags,
            "--m", "6", "--p", "1/2", "--delta", "1" + "0" * 200,
        )
        assert code == 2
        assert out == ""
        assert err == f"error: need 0 < delta < 1, got 1{'0' * 200}\n"

    @pytest.mark.parametrize("which, flag", [("eq2", ("--subset", "0,1")),
                                             ("bad-total", ("--ell", "2"))], ids=["eq2", "bad-total"])
    @pytest.mark.parametrize("degree, p, delta", [(2, "0", "1/2"), (600, "1/2", "1/4")],
                             ids=["finite", "infinite"])
    def test_bound_past_the_float_range_at_l_r_minus_1(self, capsys, tmp_path, which, flag, degree, p, delta):
        # n = 1100, m = 600: C(1098, 598) and C(1100, 600) are past the float
        # range, and at l = r-1 nothing is enumerated to refuse first.  The
        # shown bounds are floats, inf past the float range; holds is exact.
        path = tmp_path / "g.hg"
        path.write_text("3 1100\n" + "".join(f"0 1 {v}\n" for v in range(2, 2 + degree)))
        code, out, err = run(capsys, "audit", "--in", str(path), "--which", which, *flag,
                             "--m", "600", "--p", p, "--delta", delta)
        assert (code, err) == (0, "")
        payload = json.loads(out)  # one JSON report
        # every pair but S = {0, 1} has degree at most 1, poor at p = 1/2, and
        # S is bad in S + T when T holds at most floor((p - delta) 598) of
        # its link vertices: never at p = 0, and at most 149 of 600 at p = 1/2
        cap = math.floor((Fraction(p) - Fraction(delta)) * 598)
        phi = sum(math.comb(degree, j) * math.comb(1098 - degree, 598 - j) for j in range(cap + 1))
        assert payload["lhs"] == phi
        with localcontext() as ctx:
            ctx.prec = 60
            x = Fraction(delta) ** 2 * 600 / 2
            decay = (-Decimal(x.numerator) / x.denominator).exp()
            if which == "eq2":
                bound = math.comb(1098, 598) * decay
                assert payload["holds"] is (phi <= bound)
                shown = payload["rhs"]
            else:
                half = Fraction(math.comb(1100, 600), 2)
                assert payload["rhs"] == {"num": half.numerator, "den": half.denominator}
                assert payload["holds"] is (2 * phi <= math.comb(1100, 600))
                bound = math.comb(1100, 600) * math.comb(600, 2) * decay
                shown = payload["context"]["intermediate_bound"]
        if bound < Decimal(sys.float_info.max):
            assert math.isclose(shown, float(bound), rel_tol=1e-12)
        else:
            assert shown == math.inf and '": Infinity' in out

    @pytest.mark.parametrize("delta", ["0", "1", "-1/2", "2"])
    @pytest.mark.parametrize(
        "argv",
        [("extract", "--mode", "random", "--ell", "2"),
         ("extract", "--mode", "exhaustive", "--ell", "2"),
         ("audit", "--which", "eq2", "--subset", "0,1"),
         ("audit", "--which", "bad-total", "--ell", "2")],
        ids=["extract-random", "extract-exhaustive", "eq2", "bad-total"],
    )
    def test_delta_outside_0_1_is_exit_2(self, capsys, example_file, argv, delta):
        code, out, err = run(
            capsys, *argv, "--in", example_file, "--m", "4", "--p", "1/2", f"--delta={delta}"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: need 0 < delta < 1") and err.count("\n") == 1

    @pytest.mark.parametrize("which", ["eq2", "bad-total"])
    def test_enum_budget_only_where_subsets_are_enumerated(self, capsys, tmp_path, which):
        # C(40, 30) m-subsets, above the default budget: for l = r-1 phi_S is a
        # closed form in deg(S) and enumerates nothing; for l < r-1 it is refused
        g = tmp_path / "g.hg"
        run(capsys, "gen", "er", "--n", "40", "--r", "3", "--p", "1/2", "--seed", "1", "--out", str(g))
        G = load(g)
        for ell, expected in ((2, 0), (1, 3)):
            S = max(itertools.combinations(range(40), ell), key=lambda s: degree_of(G, s))
            flags = {"eq2": ("--subset", ",".join(map(str, S))), "bad-total": ("--ell", str(ell))}
            code, out, err = run(
                capsys, "audit", "--in", str(g), "--which", which, *flags[which],
                "--m", "30", "--p", "1/2", "--delta", "1/4",
            )
            assert code == expected
            if expected:
                assert out == ""
                count = {"eq2": math.comb(39, 29), "bad-total": 40 * math.comb(39, 29)}[which]
                assert f"= {count} exceeds the limit of 100000000; raise the budget" in err
                assert err.count("\n") == 1
            else:
                assert err == ""
                assert json.loads(out)["context"]["ell"] == ell

    @pytest.mark.parametrize("which, flag", [("eq2", ("--subset", "0,1")),
                                             ("bad-total", ("--ell", "2"))], ids=["eq2", "bad-total"])
    def test_negative_enum_budget_is_exit_2_in_closed_form(self, capsys, tmp_path, which, flag):
        # at l = r-1 phi_S is a closed form that enumerates nothing, and the
        # budget is still a flag to check
        g = tmp_path / "k6.hg"
        run(capsys, "gen", "complete", "--n", "6", "--r", "3", "--out", str(g))
        argv = ("audit", "--in", str(g), "--which", which, *flag, "--m", "4", "--p", "1/2",
                "--delta", "1/10", "--enum-budget")
        code, out, err = run(capsys, *argv, "-1")
        assert (code, out) == (2, "")
        assert err.startswith("error: the limit on ") and err.count("\n") == 1
        assert err.endswith(" must be at least 0, got -1\n")
        code, out, err = run(capsys, *argv, "0")
        assert (code, err) == (0, "")
        assert json.loads(out)["context"]["ell"] == 2

    @pytest.mark.parametrize(
        "argv",
        [("extract", "--mode", "exhaustive", "--ell", "2", "--delta", "1/4", "--p", "1/2"),
         ("audit", "--which", "bad-total", "--ell", "1", "--delta", "1/4", "--p", "0")],
        ids=["extract", "bad-total"],
    )
    def test_huge_link_table_is_exit_3_at_once(self, capsys, tmp_path, argv):
        # C(5000, 2) pairs of 79 words each: refused before the table is built
        path = tmp_path / "wide.hg"
        path.write_text("3 5000\n")
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, "--m", "2", "--in", str(path))
        assert time.perf_counter() - start < 5
        assert code == 3
        assert out == ""
        assert err.startswith("error: the link table over C(5000, 2)") and err.count("\n") == 1


class TestQr:
    def test_exact_12(self, capsys, tmp_path):
        k4 = tmp_path / "k4.hg"
        run(capsys, "gen", "complete", "--n", "4", "--r", "3", "--out", str(k4))
        code, out, _ = run(capsys, "qr", "--in", str(k4), "--kind", "12", "--p", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["D"] == {"num": 12, "den": 1}
        assert payload["mode"] == "exact"

    def test_exact_111(self, capsys, tmp_path):
        g = tmp_path / "e.hg"
        g.write_text("3 3\n0 1 2\n", encoding="utf-8")
        code, out, _ = run(capsys, "qr", "--in", str(g), "--kind", "111", "--p", "0")
        assert code == 0
        assert json.loads(out)["D"] == {"num": 6, "den": 1}

    def test_sampled_records_seed(self, capsys, tmp_path):
        g = tmp_path / "g.hg"
        run(capsys, "gen", "er", "--n", "10", "--r", "3", "--p", "1/2", "--seed", "2", "--out", str(g))
        code, out, _ = run(
            capsys, "qr", "--in", str(g), "--kind", "12", "--p", "1/2",
            "--mode", "sampled", "--trials", "64", "--seed", "17",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mode"] == "sampled"
        assert payload["seed"] == 17
        assert payload["trials"] == 64

    def test_limit_refusal_exit_3(self, capsys, tmp_path):
        g = tmp_path / "g.hg"
        run(capsys, "gen", "er", "--n", "12", "--r", "3", "--p", "1/2", "--seed", "2", "--out", str(g))
        code, _, err = run(
            capsys, "qr", "--in", str(g), "--kind", "12", "--p", "1/2",
            "--exact-limit", "10",
        )
        assert code == 3
        assert "sampled" in err

    def test_sampled_huge_header_is_exit_3(self, capsys, tmp_path):
        # C(10^9, 2) pairs per trial: refused before any trial runs
        path = tmp_path / "huge.hg"
        path.write_text("3 1000000000\n")
        start = time.perf_counter()
        code, out, err = run(
            capsys, "qr", "--in", str(path), "--kind", "12", "--mode", "sampled",
            "--p", "1/2", "--trials", "10",
        )
        assert time.perf_counter() - start < 5
        assert code == 3
        assert out == ""
        assert err.startswith("error: sampled (1,2) scoring") and err.count("\n") == 1

    @pytest.mark.parametrize("n, trials", [(10, 10**7 + 1), (65, 5 * 10**6 + 1)])
    def test_sampled_trials_past_the_limit_is_exit_3(self, capsys, tmp_path, n, trials):
        # trials x ceil(n / 64) words just above 10^7: refused before any draw
        g = tmp_path / "g.hg"
        run(capsys, "gen", "er", "--n", str(n), "--r", "3", "--p", "1/2", "--seed", "2", "--out", str(g))
        start = time.perf_counter()
        code, out, err = run(
            capsys, "qr", "--in", str(g), "--kind", "12", "--mode", "sampled",
            "--p", "1/2", "--trials", str(trials),
        )
        assert time.perf_counter() - start < 5
        assert code == 3
        assert out == ""
        assert err.startswith("error: sampled (1,2) scoring") and err.count("\n") == 1
        w = -(-n // 64)
        assert f"{trials} trials * {w} words = {trials * w} exceeds the limit of 10000000" in err

    def test_exact_limit_flag(self, capsys, tmp_path):
        g = tmp_path / "g.hg"
        run(capsys, "gen", "er", "--n", "12", "--r", "3", "--p", "1/2", "--seed", "2", "--out", str(g))
        qr = ("qr", "--in", str(g), "--kind", "12", "--p", "1/2", "--exact-limit")
        code, _, _ = run(capsys, *qr, "10")
        assert code == 3
        code, _, _ = run(capsys, *qr, "12")
        assert code == 0

    @pytest.mark.parametrize("kind, n, what, count", [
        ("12", 272, "exact (1,2) rows over 272 * C(272, 2) entries", 272 * math.comb(272, 2)),
        # 2^31 sets Y in blocks of 2^7, one task each on one thread
        ("111", 31, "exact sweep tasks over 16777216 blocks of Y * 1 of X", 2**24),
    ], ids=["12", "111"])
    def test_a_raised_limit_is_refused_past_the_entry_cap(self, capsys, tmp_path, kind, n, what,
                                                         count):
        # the vertex limit lets these through, but the (1,2) rows or the task
        # list alone would pass MAX_ENTRIES, and no sweep of 2^n sets ends
        path = tmp_path / "g.hg"
        path.write_text(f"3 {n}\n0 1 2\n3 4 5\n")
        tracemalloc.start()
        try:
            start = time.perf_counter()
            code, out, err = run(capsys, "qr", "--in", str(path), "--kind", kind, "--p", "1/2",
                                 "--exact-limit", str(n))
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (3, "")
        assert err == f"error: {what} = {count} exceeds the limit of 10000000\n"
        assert elapsed < 5
        assert peak < 4 * BLOCK_BYTES

    def test_threads_flag_identical_output(self, capsys, tmp_path):
        g = tmp_path / "g.hg"
        run(capsys, "gen", "er", "--n", "11", "--r", "3", "--p", "1/2", "--seed", "4", "--out", str(g))
        _, out1, _ = run(capsys, "qr", "--in", str(g), "--kind", "12", "--p", "1/2", "--threads", "1")
        _, out8, _ = run(capsys, "qr", "--in", str(g), "--kind", "12", "--p", "1/2", "--threads", "8")
        assert out1 == out8

    def test_p_out_of_range_is_exit_2(self, capsys, tmp_path):
        g = tmp_path / "g.hg"
        run(capsys, "gen", "er", "--n", "6", "--r", "3", "--p", "1/2", "--seed", "1", "--out", str(g))
        code, out, err = run(
            capsys, "qr", "--in", str(g), "--kind", "12", "--p=-1000000000000000000"
        )
        assert code == 2
        assert out == ""
        assert "[0, 1]" in err

    def test_sampled_111_unsupported(self, capsys, tmp_path):
        g = tmp_path / "e.hg"
        g.write_text("3 3\n0 1 2\n", encoding="utf-8")
        code, _, _ = run(
            capsys, "qr", "--in", str(g), "--kind", "111", "--p", "0", "--mode", "sampled"
        )
        assert code == 2

    def test_sampled_111_refused_before_the_input_is_read(self, capsys, tmp_path):
        missing = tmp_path / "missing.hg"
        code, out, err = run(
            capsys, "qr", "--in", str(missing), "--kind", "111", "--p", "0", "--mode", "sampled"
        )
        assert code == 2
        assert out == ""
        assert err == "error: sampled mode is only available for --kind 12\n"

    @pytest.mark.parametrize("flags, named, mode", [
        (("--trials", "0", "--seed", "5"), "--trials", "sampled"),
        (("--trials", "10"), "--trials", "sampled"),
        (("--seed", "0"), "--seed", "sampled"),
        (("--mode", "sampled", "--exact-limit", "2"), "--exact-limit", "exact"),
        (("--mode", "sampled", "--threads", "2"), "--threads", "exact"),
    ])
    def test_options_of_the_other_mode_are_exit_2(self, capsys, tmp_path, flags, named, mode):
        g = tmp_path / "g.hg"
        run(capsys, "gen", "er", "--n", "6", "--r", "3", "--p", "1/2", "--seed", "3", "--out", str(g))
        for path in (g, tmp_path / "missing.hg"):  # refused before the input is read
            code, out, err = run(capsys, "qr", "--kind", "12", "--p", "1/2", "--in", str(path), *flags)
            assert code == 2
            assert out == ""
            assert err == f"error: {named} applies only to {mode} mode\n"

    def test_sampled_defaults_apply_when_unset(self, capsys, tmp_path):
        g = tmp_path / "g.hg"
        run(capsys, "gen", "er", "--n", "6", "--r", "3", "--p", "1/2", "--seed", "3", "--out", str(g))
        flags = ("--kind", "12", "--p", "1/2", "--mode", "sampled")
        _, implicit, _ = run(capsys, "qr", "--in", str(g), *flags)
        _, explicit, _ = run(capsys, "qr", "--in", str(g), *flags, "--trials", "10000", "--seed", "0")
        assert implicit == explicit
        assert json.loads(implicit)["trials"] == 10000 and json.loads(implicit)["seed"] == 0

    def test_threads_rejected_in_sampled_mode(self, capsys, tmp_path):
        g = tmp_path / "g.hg"
        run(capsys, "gen", "er", "--n", "6", "--r", "3", "--p", "1/2", "--seed", "3", "--out", str(g))
        flags = ("--kind", "12", "--p", "1/2", "--mode", "sampled")
        code, out, err = run(capsys, "qr", "--in", str(g), *flags, "--threads", "8")
        assert code == 2
        assert out == ""
        assert "--threads" in err and err.count("\n") == 1
        code, out, _ = run(capsys, "qr", "--in", str(g), *flags, "--threads", "1")
        assert code == 0
        assert json.loads(out)["D"]

    def test_threads_split_111_with_identical_output(self, capsys, tmp_path):
        g = tmp_path / "g.hg"
        run(capsys, "gen", "er", "--n", "6", "--r", "3", "--p", "1/2", "--seed", "3", "--out", str(g))
        code1, out1, err1 = run(capsys, "qr", "--in", str(g), "--kind", "111", "--p", "0", "--threads", "1")
        code8, out8, err8 = run(capsys, "qr", "--in", str(g), "--kind", "111", "--p", "0", "--threads", "8")
        assert code1 == code8 == 0
        assert err1 == err8 == ""
        assert out1 == out8
        assert json.loads(out1)["D"]

    @pytest.mark.parametrize(
        "exc", [ZeroDivisionError("division by zero"), OverflowError("too large"), MemoryError()],
        ids=lambda e: type(e).__name__,
    )
    def test_arithmetic_and_memory_errors_exit_1(self, capsys, monkeypatch, exc):
        import degex.cli

        def handler(args):
            raise exc

        monkeypatch.setitem(degex.cli._HANDLERS, "qr", handler)
        code, out, err = run(capsys, "qr", "--kind", "12", "--p", "1/2")
        assert code == 1
        assert out == ""
        assert err.startswith("internal error: " + type(exc).__name__)
        assert err.count("\n") == 1

    def test_other_exceptions_exit_1_without_traceback(self, capsys, monkeypatch):
        import numpy as np

        def handler(args):  # a numpy scalar that reaches the report encoder: TypeError
            return degex.cli.jsonio.dumps(np.int64(1))

        monkeypatch.setitem(degex.cli._HANDLERS, "qr", handler)
        code, out, err = run(capsys, "qr", "--kind", "12", "--p", "1/2")
        assert code == 1
        assert out == ""
        assert err.startswith("internal error: TypeError")
        assert err.count("\n") == 1


# One refusal site each: (.hg text, or None for an er graph on 10 vertices,
# argv, the count refused, and the flag that sets its limit, or None for the
# fixed cap of 10^7 entries)
REFUSALS = {
    "degree-table": ("3 4473\n", ("stats", "--ell", "2"), math.comb(4473, 2), None),
    "link-table": ("3 1086\n", ("extract", "--mode", "exhaustive", "--ell", "2", "--m", "2",
                                "--p", "1/2", "--delta", "1/4"), math.comb(1086, 2) * 17, None),
    # 8434 disjoint edges among 10^12 vertices: masks of ceil(25302 / 64) words, over the
    # 25302 vertices on an edge, for each of the 25302 incidences
    "link-masks": ("3 1000000000000\n" + "".join(f"{3 * i} {3 * i + 1} {3 * i + 2}\n" for i in range(8434)),
                   ("extract", "--ell", "1", "--m", "3", "--p", "1/2", "--delta", "1/2"),
                   25302 * 396, None),
    "gen-er": (None, ("gen", "er", "--n", "393", "--r", "3", "--p", "1/2", "--seed", "1"),
               math.comb(393, 3), None),
    "gen-complete": (None, ("gen", "complete", "--n", "393", "--r", "3"), math.comb(393, 3), None),
    "sampled-pairs": ("3 4473\n", ("qr", "--kind", "12", "--mode", "sampled", "--p", "1/2",
                                   "--trials", "1"), math.comb(4473, 2), None),
    "exhaustive": (None, ("extract", "--mode", "exhaustive", "--ell", "2", "--m", "4", "--p",
                          "1/2", "--delta", "1/4"), math.comb(10, 4), "--enum-budget"),
    "random": (None, ("extract", "--ell", "2", "--m", "4", "--p", "1/2", "--delta", "1/4",
                      "--budget", "7"), 7 * math.comb(4, 2), "--enum-budget"),
    "eq3": (None, ("audit", "--which", "eq3", "--ell", "2", "--m", "4", "--p", "1/2"),
            math.comb(10, 4), "--enum-budget"),
    # l = 1 counts C(rich, m) in closed form, and is refused alike
    "eq3-l1": (None, ("audit", "--which", "eq3", "--ell", "1", "--m", "4", "--p", "1/2"),
               math.comb(10, 4), "--enum-budget"),
    "eq2": (None, ("audit", "--which", "eq2", "--subset", "0", "--m", "4", "--p", "0",
                   "--delta", "1/4"), math.comb(9, 3), "--enum-budget"),
    "bad-total": (None, ("audit", "--which", "bad-total", "--ell", "1", "--m", "4", "--p", "1/2",
                         "--delta", "1/4"), 10 * math.comb(9, 3), "--enum-budget"),
    "exact-12": (None, ("qr", "--kind", "12", "--p", "1/2"), 10, "--exact-limit"),
    "exact-111": (None, ("qr", "--kind", "111", "--p", "1/2"), 10, "--exact-limit"),
}


class TestRefusals:
    @pytest.mark.parametrize("text, argv, count, flag", REFUSALS.values(), ids=REFUSALS.keys())
    def test_one_past_the_limit_is_exit_3(self, capsys, tmp_path, text, argv, count, flag):
        path = tmp_path / "g.hg"
        if text is None:
            run(capsys, "gen", "er", "--n", "10", "--r", "3", "--p", "1/2", "--seed", "1",
                "--out", str(path))
        else:
            path.write_text(text)
        reads = () if argv[0] == "gen" else ("--in", str(path))
        limit = 10**7 if flag is None else count - 1
        past = () if flag is None else (flag, str(limit))
        code, out, err = run(capsys, *argv, *reads, *past)
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"= {count} exceeds the limit of {limit}" in err
        if flag is not None:  # the count itself is within the limit
            code, out, err = run(capsys, *argv, *reads, flag, str(count))
            assert (code, err) == (0, "")
            assert json.loads(out)

    @pytest.mark.parametrize("text, argv, count, flag",
                             [args for args in REFUSALS.values() if args[3]],
                             ids=[key for key, args in REFUSALS.items() if args[3]])
    def test_a_negative_limit_is_exit_2(self, capsys, tmp_path, text, argv, count, flag):
        # a bad flag, not a refusal: it used to exit 3, "exceeds the limit of -1"
        path = tmp_path / "g.hg"
        run(capsys, "gen", "er", "--n", "10", "--r", "3", "--p", "1/2", "--seed", "1",
            "--out", str(path))
        code, out, err = run(capsys, *argv, "--in", str(path), flag, "-1")
        assert (code, out) == (2, "")
        assert err.startswith("error: the limit on ") and err.count("\n") == 1
        assert err.endswith(" must be at least 0, got -1\n")
        code, out, err = run(capsys, *argv, "--in", str(path), flag, str(count))
        assert (code, err) == (0, "")
        assert json.loads(out)

    def test_refuse_above_checks_the_limit_first(self):
        for count in (0, 5):
            with pytest.raises(ValidationError, match="the limit on things must be at least 0"):
                refuse_above(count, "things", -1)
        refuse_above(0, "things", 0)
        with pytest.raises(LimitExceeded, match="things = 1 exceeds the limit of 0"):
            refuse_above(1, "things", 0)

    @pytest.mark.parametrize("n", [2**40, 2**64 + 5])
    @pytest.mark.parametrize("argv, what, count", [
        # phi_S for S = {0} at m = 1 scores the one empty extension on the pair links
        (("audit", "--which", "eq2", "--subset", "0", "--m", "1", "--p", "0", "--delta", "1/2"),
         "the link table over C(", lambda n: (n - 1) * -(-(n - 1) // 64)),
    ], ids=["eq2"])
    def test_links_at_huge_n_are_exit_3(self, capsys, tmp_path, n, argv, what, count):
        path = tmp_path / "wide.hg"
        path.write_text(f"3 {n}\n0 1 2\n3 4 5\n")
        code, out, err = run(capsys, *argv, "--in", str(path))
        assert code == 3
        assert out == ""
        assert err.startswith(f"error: {what}")
        assert f"= {count(n)} exceeds the limit of 10000000" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("n", [2**40, 2**64 + 5])
    def test_random_link_masks_at_huge_n_run(self, capsys, tmp_path, n):
        # the masks are over the 6 vertices on an edge, so n sets no size; at
        # 2^64 + 5 the edge array holds Python ints
        path = tmp_path / "wide.hg"
        path.write_text(f"3 {n}\n0 1 2\n3 4 5\n")
        assert (load(path).edge_array.dtype == object) == (n > 2**64)
        code, out, err = run(capsys, "extract", "--ell", "1", "--m", "3", "--p", "1/2",
                             "--delta", "1/2", "--in", str(path))
        assert (code, err) == (0, "")
        # G[X] has minimum degree 1 only when the 3-set X is an edge; no draw
        # is, so the first draw is the best
        draws = [random_ksubset(n, 3, random.Random(_attempt_seed(0, a))) for a in range(1, 1001)]
        assert not {(0, 1, 2), (3, 4, 5)} & set(draws)
        assert json.loads(out) == {
            "success": False, "subset": list(draws[0]), "achieved_min_degree": 0,
            "threshold": 1, "attempts": 1000, "seed": 0,
        }

    def test_one_raise_site(self):
        # every refusal goes through errors.refuse_above
        sources = pathlib.Path(degex.cli.__file__).parent.glob("*.py")
        assert sum(path.read_text().count("raise LimitExceeded") for path in sources) == 1


class TestParserReuse:
    def test_parser_is_built_once_per_process(self, capsys, monkeypatch, example_file):
        built = []

        def counting_build_parser():
            built.append(1)
            return build_parser()

        monkeypatch.setattr(degex.cli, "build_parser", counting_build_parser)
        degex.cli._parser.cache_clear()
        try:
            for argv in (("stats", "--ell", "1", "--in", example_file),
                         ("qr", "--kind", "12", "--p", "1/2", "--in", example_file),
                         ("stats", "--ell", "2", "--in", example_file)):
                assert run(capsys, *argv)[0] == 0
            assert len(built) == 1
        finally:
            degex.cli._parser.cache_clear()

    def test_reused_parser_prints_what_a_fresh_one_prints(self, capsys, example_file):
        # consecutive subcommands, with and without options, on one parser;
        # each must print what it prints on a freshly built one
        argvs = [
            ("stats", "--ell", "1", "--eps", "1/10", "--p", "1/2", "--in", example_file),
            ("qr", "--kind", "12", "--p", "1/3", "--mode", "sampled", "--trials", "7",
             "--seed", "4", "--in", example_file),
            ("stats", "--ell", "2", "--in", example_file),
            ("extract", "--ell", "1", "--m", "3", "--p", "1/2", "--delta", "1/5",
             "--in", example_file),
            ("audit", "--which", "eq3", "--ell", "1", "--m", "3", "--p", "1/2",
             "--in", example_file),
            ("qr", "--kind", "111", "--p", "1/2", "--in", example_file),
            ("gen", "er", "--n", "6", "--p", "1/2", "--seed", "2"),
            ("stats", "--ell", "1", "--in", example_file),
        ]
        reused = [run(capsys, *argv) for argv in argvs]
        fresh = []
        for argv in argvs:
            degex.cli._parser.cache_clear()
            fresh.append(run(capsys, *argv))
        assert reused == fresh
        assert all(code == 0 for code, _, _ in reused)

    def test_argparse_errors_exit_2_on_the_current_stderr(self, capsys):
        run(capsys, "gen", "complete", "--n", "4")  # the shared parser exists from here
        for argv in (("stats",), ("qr", "--kind", "13", "--p", "1/2"), ("nope",)):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
                main(list(argv))
            assert exc.value.code == 2
            assert err.getvalue().startswith("usage: degex") and "error:" in err.getvalue()
            assert capsys.readouterr() == ("", "")


class TestNonUtf8Input:
    @pytest.mark.parametrize("argv", [
        ("stats", "--ell", "1"),
        ("extract", "--ell", "1", "--m", "2", "--p", "1/2", "--delta", "1/5"),
        ("audit", "--which", "eq3", "--ell", "1", "--m", "2", "--p", "1/2"),
        ("qr", "--kind", "12", "--p", "1/2"),
    ], ids=lambda argv: argv[0])
    def test_bad_byte_is_one_line_exit_2(self, capsys, tmp_path, argv):
        bad = tmp_path / "bad.hg"
        bad.write_bytes(b"3 5\n0 1 \xff\n")
        code, out, err = run(capsys, *argv, "--in", str(bad))
        assert code == 2
        assert out == ""
        assert err == "error: line 2: text is not UTF-8: byte 0xff cannot be decoded\n"


# flag values at the edges of their domains: 0, 1, negative and past range,
# and rationals outside [0, 1]; None leaves an optional flag unset.  Values
# inside the domain are listed twice, so that more runs get past validation.
COUNTS = ["0", "1", "2", "3", "1", "2", "3", "-1", "9"]
FRACTIONS = ["0", "1", "1/2", "1/3", "1/2", "1/3", "0.25", "-1/2", "3/2"]
BUDGETS = [None, "0", "1", "-1", "5"]
SEEDS = [None, "0", "-1", "7"]
COMMANDS = {  # argv head, whether it reads --in, and each flag's values
    ("gen", "er"): (False, {"--n": COUNTS + ["1000000000"], "--r": [None, *COUNTS],
                            "--p": FRACTIONS, "--seed": SEEDS[1:]}),
    ("gen", "complete"): (False, {"--n": COUNTS + ["1000000000"], "--r": [None, *COUNTS]}),
    ("gen", "partition-del"): (True, {"--N": COUNTS}),
    ("stats",): (True, {"--ell": COUNTS, "--eps": [None, *FRACTIONS], "--p": [None, *FRACTIONS],
                        "--format": [None, "json", "csv"]}),
    ("extract",): (True, {"--ell": COUNTS, "--m": COUNTS, "--p": FRACTIONS, "--delta": FRACTIONS,
                          "--mode": [None, "random", "exhaustive"], "--budget": BUDGETS,
                          "--seed": SEEDS, "--enum-budget": BUDGETS}),
    ("audit",): (True, {"--which": ["eq3", "eq2", "bad-total"], "--ell": [None, *COUNTS],
                        "--m": COUNTS, "--p": FRACTIONS, "--delta": [None, *FRACTIONS],
                        "--subset": [None, "0,1", "2", "", "0,0", "-1,9"],
                        "--enum-budget": BUDGETS}),
    # --threads stays 1 or unset, so no process is started
    ("qr", "--mode=exact"): (True, {"--kind": ["12", "111"], "--p": FRACTIONS,
                                    "--exact-limit": [None, "0", "-1", "3", "30"],
                                    "--threads": [None, "1"]}),
    ("qr", "--mode=sampled"): (True, {"--kind": ["12", "111"], "--p": FRACTIONS,
                                      "--trials": BUDGETS + ["100000000"], "--seed": SEEDS}),
}


@st.composite
def hg_texts(draw):
    """A small .hg text, valid or with one fault: its header, an edge's field
    count, a vertex out of range, a repeated vertex or a byte that is not
    UTF-8; or a valid one whose header claims 10^8 vertices, past the limits
    of every table over pairs; or None, for a file that does not exist."""
    r = draw(st.sampled_from([3, 3, 3, 2, 4]))
    n = draw(st.sampled_from([0, 1, 2, *[3, 4, 5, 6, 7] * 2]))
    subsets = list(itertools.combinations(range(n), r))
    keep = draw(st.integers(0, 2 ** len(subsets) - 1))
    lines = [f"{r} {n}", *(" ".join(map(str, e)) for i, e in enumerate(subsets) if keep >> i & 1)]
    fault = draw(st.sampled_from(
        [None] * 6 + ["huge"] * 2 + ["header", "fields", "vertex", "repeat", "byte", "missing"]))
    if fault == "missing":
        return None
    if fault == "huge":
        lines[0] = f"{r} 100000000"
    elif fault == "header":
        lines[0] = draw(st.sampled_from(["", "3", "3 x", "0 5", "3 -1", "3 5 7"]))
    elif fault == "fields":
        lines.append(" ".join(map(str, range(r + draw(st.sampled_from([-1, 1]))))))
    elif fault == "vertex":
        lines.append(" ".join(map(str, [*range(r - 1), draw(st.sampled_from([n + r, -1]))])))
    elif fault == "repeat":
        lines.append(" ".join(["0"] * r))
    text = ("\n".join(lines) + "\n").encode()
    if fault == "byte":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + b"\xff" + text[at:]
    return text


@st.composite
def invocations(draw):
    """A subcommand, each of its flags at a drawn value or unset, and its input."""
    head = draw(st.sampled_from(sorted(COMMANDS)))
    reads, flags = COMMANDS[head]
    argv = list(head)
    for flag, values in flags.items():
        value = draw(st.sampled_from(values))
        if value is not None:
            argv.append(f"{flag}={value}")  # "=" keeps a leading "-" a value
    # one run in eight fails in argparse: a flag missing, or a value it cannot convert
    if len(argv) > len(head) and draw(st.integers(0, 7)) == 0:
        i = draw(st.integers(len(head), len(argv) - 1))
        flag = argv.pop(i).partition("=")[0]
        garbled = draw(st.sampled_from([None, "x", "1/0", ""]))
        if garbled is not None:
            argv.append(f"{flag}={garbled}")
    return argv, reads, draw(hg_texts()) if reads else None


class TestExitContract:
    """Every run exits 0, 2 or 3; a failed run writes one stderr line and no
    stdout, a refusal (exit 3) comes before a large allocation, and a
    successful run repeats byte for byte."""

    @staticmethod
    def call(argv, outputs):
        for path in outputs:
            path.unlink(missing_ok=True)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's own usage error
                assert exc.code == 2
                code = "usage"
        written = [path.read_bytes() if path.exists() else None for path in outputs]
        return code, out.getvalue(), err.getvalue(), written

    @given(invocations())
    @example((["stats", "--ell=1", "--p=1/2"], True, b"3 0\n"))  # a poor share of no subsets
    # one refusal of each limit kind: instance size, table size, pair count, enumeration
    @example((["gen", "er", "--n=1000000000", "--p=1/2", "--seed=1"], False, None))
    @example((["stats", "--ell=2"], True, b"3 100000000\n0 1 2\n"))
    @example((["qr", "--mode=sampled", "--kind=12", "--p=1/2"], True, b"3 100000000\n0 1 2\n"))
    @example((["audit", "--which=eq3", "--ell=1", "--m=3", "--p=1/2"], True, b"3 100000000\n0 1 2\n"))
    # a bound past the float range, where nothing is enumerated to refuse first
    @example((["audit", "--which=bad-total", "--ell=2", "--m=600", "--p=0", "--delta=1/2"], True,
              b"3 1100\n0 1 2\n0 1 3\n"))
    @settings(max_examples=250, deadline=None)
    def test_exits_are_0_2_or_3_and_failures_write_one_line(self, tmp_path_factory, drawn):
        argv, reads, text = drawn
        base = tmp_path_factory.getbasetemp()
        src, out = base / "contract.hg", base / "contract_out.hg"
        outputs = [out, base / "contract_out.hg.partition.json"]
        src.unlink(missing_ok=True)
        if reads:
            if text is not None:
                src.write_bytes(text)
            argv += ["--in", str(src)]
        if argv[:2] == ["gen", "partition-del"]:
            argv += ["--out", str(out)]
        code, stdout, stderr, written = self.call(argv, outputs)
        if code == "usage":
            assert stdout == ""
            assert stderr.startswith("usage: degex")
            assert ": error: " in stderr.splitlines()[-1]
        elif code:
            assert code in (2, 3)
            assert stdout == ""
            assert stderr.endswith("\n") and stderr.count("\n") == 1
            if code == 3:  # refused before anything of the size it refuses is allocated
                tracemalloc.start()
                try:
                    assert self.call(argv, outputs)[0] == 3
                    assert tracemalloc.get_traced_memory()[1] < 4 * BLOCK_BYTES
                finally:
                    tracemalloc.stop()
        else:
            assert stderr == ""
            assert self.call(argv, outputs) == (code, stdout, stderr, written)


# ---------------------------------------------------------------------------
# the whole CLI against the brute-force references

# the argv head of each command that the differential draws
ORACLE_COMMANDS = {
    "stats": ["stats"],
    "exhaustive": ["extract", "--mode=exhaustive"],
    "random": ["extract", "--mode=random"],
    "eq3": ["audit", "--which=eq3"],
    "eq2": ["audit", "--which=eq2"],
    "bad-total": ["audit", "--which=bad-total"],
    "12": ["qr", "--kind=12"],
    "111": ["qr", "--kind=111"],
}


@st.composite
def oracle_runs(draw):
    """A tiny graph, a command whose every number the references in
    oracles.py recompute, and its flags, all valid: n <= 6 and r = 2-4, or
    for qr a 3-graph on n <= 5 for (1,2) and n <= 4 for (1,1,1)."""
    command = draw(st.sampled_from(sorted(ORACLE_COMMANDS)))
    r = 3 if command in ("12", "111") else draw(st.integers(2, 4))
    n = draw(st.integers(r, {"12": 5, "111": 4}.get(command, 6)))
    subsets = list(itertools.combinations(range(n), r))
    keep = draw(st.integers(0, 2 ** len(subsets) - 1))
    G = build(n, r, [e for i, e in enumerate(subsets) if keep >> i & 1])
    unit = st.fractions(0, 1, max_denominator=6)
    ell = draw(st.integers(1, r - 1))
    p, m, delta = draw(unit), draw(st.integers(ell, n)), draw(unit.filter(lambda d: 0 < d < 1))
    if command == "stats":
        return G, command, {"ell": ell, "eps": draw(st.fractions(0, 2, max_denominator=6)), "p": p}
    if command in ("12", "111"):
        return G, command, {"p": p}
    if command == "eq3":
        return G, command, {"ell": ell, "m": m, "p": p}
    if command == "eq2":
        # p at most deg(S) / C(n - l, r - l) keeps S rich
        S = draw(st.sampled_from(list(itertools.combinations(range(n), ell))))
        p = Fraction(draw(st.integers(0, subset_degrees(G, ell)[S])), binom(n - ell, r - ell))
        return G, command, {"subset": S, "m": m, "p": p, "delta": delta}
    flags = {"ell": ell, "m": m, "p": p, "delta": delta}
    if command == "random":
        flags.update(budget=draw(st.integers(1, 5)), seed=draw(st.integers(0, 99)))
    return G, command, flags


def oracle_report(G, command, flags, got):
    """The report the references give for command on G with flags.  The
    subset of a random extraction and a deviation's witness come from got,
    the printed report, and are checked here."""
    n, r, p = G.n, G.r, flags["p"]
    if command in ("12", "111"):
        D, count = (brute_dev12(G, p), e12) if command == "12" else (brute_dev111(G, p), e111)
        witness = got["witness"]
        assert witness[0] == sorted(set(witness[0]))
        assert abs(count(G, *witness) - p * math.prod(map(len, witness))) == D
        return {"kind": command, "p": p, "D": D, "eps_star": D / n**3, "witness": witness,
                "mode": "exact", "trials": None, "seed": None}
    ell = len(flags["subset"]) if command == "eq2" else flags["ell"]
    total = binom(n, ell)
    if command == "stats":
        degrees, cap = counter_degree_table(G, ell), binom(n - ell, r - ell)
        exceptions = math.floor(flags["eps"] * total)
        poor = len(brute_poor_pairs(G, ell, p))
        return {
            "n": n, "r": r, "ell": ell, "edge_count": len(G.edges), "min_degree": min(degrees),
            "max_possible_degree": cap, "eps": flags["eps"],
            "eps_min_degree": naive_eps_min(degrees, exceptions, cap),
            "eps_min_degree_capped": exceptions >= total, "p": p,
            "histogram": {str(d): c for d, c in sorted(Counter(degrees).items())},
            "poor_count": poor, "poor_fraction": Fraction(poor, total),
            "poor_fraction_float": poor / total,
        }
    m, delta = flags["m"], flags.get("delta", 0)
    boundary = (p - delta) * binom(m - ell, r - ell)
    need = math.floor(boundary) + 1
    if command == "exhaustive":
        colex = sorted(itertools.combinations(range(n), m), key=lambda X: X[::-1])
        good = [rank for rank, X in enumerate(colex) if brute_min_induced_degree(G, X, ell) >= need]
        return {"m": m, "ell": ell, "threshold": need, "good_ranks": good}
    if command == "random":
        X, attempts = got["subset"], got["attempts"]
        assert len(X) == m and X == sorted(set(X)) and set(X) <= set(range(n))
        achieved = brute_min_induced_degree(G, X, ell)
        assert 1 <= attempts <= flags["budget"]
        assert achieved >= need or attempts == flags["budget"]
        return {"success": achieved >= need, "subset": X, "achieved_min_degree": achieved,
                "threshold": need, "attempts": attempts, "seed": flags["seed"]}
    context = {"n": n, "r": r, "ell": ell, "m": m, "p": p}
    if command == "eq3":
        poor = brute_poor_pairs(G, ell, p)
        lhs = brute_poor_free(n, m, ell, poor)
        eps_eff = Fraction(len(poor), total)
        rhs = (1 - eps_eff * m**ell) * binom(n, m)
        return {"inequality_id": "eq3_rich_count", "lhs": lhs, "rhs": rhs, "holds": lhs >= rhs,
                "context": {**context, "poor_count": len(poor), "eps_eff": eps_eff}}
    # total exp(-x), as a float and, for holds, at 60 digits
    x = delta * delta * m / (2 * (r - ell) ** 2)
    with localcontext() as ctx:
        ctx.prec = 60
        shrink = (-Decimal(x.numerator) / x.denominator).exp()
    if command == "eq2":
        S, extensions = flags["subset"], binom(n - ell, m - ell)
        lhs = brute_phi(G, S, m, boundary)
        return {"inequality_id": "eq2_phi_bound", "lhs": lhs,
                "rhs": pytest.approx(extensions * math.exp(-float(x)), rel=1e-12),
                "holds": lhs <= extensions * shrink,
                "context": {**context, "delta": delta, "S": list(S),
                            "deg_S": subset_degrees(G, ell)[S], "boundary": boundary}}
    lhs, rhs = brute_bad_total(G, ell, m, p, delta), Fraction(binom(n, m), 2)
    rich = len(brute_rich_sets(G, ell, p))
    bound = binom(n, m) * binom(m, ell) * math.exp(-float(x))
    return {"inequality_id": "bad_total_bound", "lhs": lhs, "rhs": rhs, "holds": lhs <= rhs,
            "context": {**context, "delta": delta, "rich_count": rich, "poor_count": total - rich,
                        "intermediate_bound": pytest.approx(bound, rel=1e-12)}}


def as_fraction(obj):
    """A {"num", "den"} object of the JSON reports as a Fraction."""
    return Fraction(obj["num"], obj["den"]) if obj.keys() == {"num", "den"} else obj


class TestOracleDifferential:
    """Every number a command prints equals the brute-force references'."""

    @given(oracle_runs())
    @settings(max_examples=300, deadline=None)
    def test_every_number_matches_the_oracles(self, tmp_path_factory, run):
        G, command, flags = run
        src = tmp_path_factory.getbasetemp() / "oracle.hg"
        src.write_text(f"{G.r} {G.n}\n" + "".join(" ".join(map(str, e)) + "\n" for e in G.edges))
        argv = [*ORACLE_COMMANDS[command], "--in", str(src)]
        for flag, value in flags.items():
            argv.append(f"--{flag}={','.join(map(str, value)) if flag == 'subset' else value}")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(argv) == 0
        assert err.getvalue() == ""
        got = json.loads(out.getvalue(), object_hook=as_fraction)
        assert got == oracle_report(G, command, flags, got)
