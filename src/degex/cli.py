"""Command-line front end: gen, stats, extract, audit, qr.

Exit codes: 0 success, 2 validation error, 3 enumeration budget or exact
limit refusal, 1 internal error.  Probabilities and densities are rationals
("1/2"; decimal strings are converted exactly).  Every randomized command
records its seed in the output, and rerunning with the same flags
reproduces the output byte for byte.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

from . import generators, jsonio
from .degree import degree_table, eps_exceptions, kth_min_degree, table_poor_sets
from .errors import DegexError, LimitExceeded, ValidationError
from .extraction import (
    DEFAULT_ENUM_BUDGET,
    audit_bad_total,
    audit_eq2_phi,
    audit_eq3,
    extract_exhaustive,
    extract_random,
)
from .hypergraph import dump, load, serialize
from .quasirandomness import (
    deviation_111_exact,
    deviation_12_exact,
    deviation_12_sampled,
)
from .rational import to_fraction


def _fraction_arg(text: str) -> Fraction:
    return to_fraction(text, "probability")


def _subset_arg(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(f) for f in text.replace(",", " ").split())
    except ValueError:
        raise ValidationError(f"subset must be comma-separated integers, got {text!r}")


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _load_input(path: str | None):
    if path is None:
        raise ValidationError("an input file is required (--in PATH)")
    return load(path)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="degex",
        description="l-degree statistics, extraction and quasirandomness for r-graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, out_required=False, reads=True):
        if reads:
            p.add_argument("--in", dest="input", metavar="PATH", help=".hg input file")
        p.add_argument(
            "--out", dest="output", metavar="PATH", required=out_required,
            help="output file (default: stdout)",
        )

    # gen ------------------------------------------------------------------
    gen = sub.add_parser("gen", help="generate instances")
    gen_sub = gen.add_subparsers(dest="kind", required=True)

    gen_er = gen_sub.add_parser("er", help="Erdos-Renyi random r-graph")
    gen_er.add_argument("--n", type=int, required=True)
    gen_er.add_argument("--r", type=int, default=3)
    gen_er.add_argument("--p", type=_fraction_arg, required=True)
    gen_er.add_argument("--seed", type=int, required=True)
    add_io(gen_er, reads=False)

    gen_complete = gen_sub.add_parser("complete", help="complete r-graph")
    gen_complete.add_argument("--n", type=int, required=True)
    gen_complete.add_argument("--r", type=int, default=3)
    add_io(gen_complete, reads=False)

    gen_pd = gen_sub.add_parser(
        "partition-del", help="delete edges doubling up inside a balanced partition"
    )
    gen_pd.add_argument("--N", type=int, required=True, help="number of parts")
    add_io(gen_pd, out_required=True)

    # stats ------------------------------------------------------------------
    stats = sub.add_parser("stats", help="degree summary for an l")
    stats.add_argument("--ell", type=int, required=True)
    stats.add_argument("--eps", type=_fraction_arg, help="relaxation for delta_l^eps")
    stats.add_argument("--p", type=_fraction_arg, help="poor/rich density threshold")
    stats.add_argument(
        "--format", choices=("json", "csv"), default="json",
        help="json summary or the full degree table as csv",
    )
    add_io(stats)

    # extract ------------------------------------------------------------------
    extract = sub.add_parser("extract", help="find m-subsets with high min l-degree")
    extract.add_argument("--ell", type=int, required=True)
    extract.add_argument("--m", type=int, required=True)
    extract.add_argument("--p", type=_fraction_arg, required=True)
    extract.add_argument("--delta", type=_fraction_arg, required=True)
    extract.add_argument("--mode", choices=("random", "exhaustive"), default="random")
    extract.add_argument("--budget", type=int, default=1000, help="sampling attempts")
    extract.add_argument("--seed", type=int, default=0)
    extract.add_argument(
        "--enum-budget", type=int, default=DEFAULT_ENUM_BUDGET,
        help="refuse above this many subsets: C(n, m) exhaustive, "
        "budget x C(m, r-1) random",
    )
    add_io(extract)

    # audit ------------------------------------------------------------------
    audit = sub.add_parser("audit", help="exact counting audits of the extraction bounds")
    audit.add_argument("--which", choices=("eq3", "eq2", "bad-total"), required=True)
    audit.add_argument("--ell", type=int, help="subset size (eq3, bad-total)")
    audit.add_argument("--m", type=int, required=True)
    audit.add_argument("--p", type=_fraction_arg, required=True)
    audit.add_argument("--delta", type=_fraction_arg, help="margin (eq2, bad-total)")
    audit.add_argument(
        "--subset", type=_subset_arg, help="the rich l-subset S for eq2, e.g. '0,1'"
    )
    audit.add_argument("--enum-budget", type=int, default=DEFAULT_ENUM_BUDGET)
    add_io(audit)

    # qr ------------------------------------------------------------------
    qr = sub.add_parser("qr", help="quasirandomness deviation of a 3-graph")
    qr.add_argument("--kind", choices=("12", "111"), required=True)
    qr.add_argument("--p", type=_fraction_arg, required=True)
    qr.add_argument("--mode", choices=("exact", "sampled"), default="exact")
    qr.add_argument("--trials", type=int, help="sampled mode only (default 10000)")
    qr.add_argument("--seed", type=int, help="sampled mode only (default 0)")
    qr.add_argument("--exact-limit", type=int, help="override the exact-mode vertex limit")
    add_io(qr)
    # worker cap; outputs are identical for every K, and serial runs are
    # always a valid schedule
    qr.add_argument("--threads", type=int, default=1, metavar="K",
                    help="cap on worker processes (exact mode only)")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser that main reuses: building one takes about 2 ms."""
    return build_parser()


def _refuse_unread(flags: dict, chosen: str, kind: str) -> None:
    """Refuse a flag that is set but that the chosen mode or audit never reads,
    before any input is read: flags maps each flag to (its value, the choices
    that read it)."""
    for flag, (value, readers) in flags.items():
        if value is not None and chosen not in readers:
            raise ValidationError(f"{flag} applies only to {' and '.join(readers)} {kind}")


def _cmd_gen(args) -> None:
    if args.kind == "er":
        G = generators.erdos_renyi(args.n, args.r, args.p, args.seed)
        comment = f"er n={args.n} r={args.r} p={args.p} seed={args.seed}"
    elif args.kind == "complete":
        G = generators.complete(args.n, args.r)
        comment = f"complete n={args.n} r={args.r}"
    else:  # partition-del
        G0 = _load_input(args.input)
        G, spec = generators.partition_deletion(G0, args.N)
        comment = f"partition-del N={args.N} deleted={G0.edge_count - G.edge_count}"
        sidecar = {
            "N": spec.N,
            "parts": [list(part) for part in spec.parts],
            "sizes": list(spec.sizes),
            "deleted_edges": G0.edge_count - G.edge_count,
        }
        _write_text(args.output + ".partition.json", jsonio.dumps(sidecar))
    if args.output is None or args.output == "-":
        sys.stdout.write(f"# {comment}\n" + serialize(G))
    else:
        dump(G, args.output, header_comment=comment)


def _cmd_stats(args) -> None:
    if args.format == "csv" and (args.eps is not None or args.p is not None):
        raise ValidationError("--eps and --p apply only to --format json")
    G = _load_input(args.input)
    table = degree_table(G, args.ell)
    if args.format == "csv":
        _write_text(args.output, table.csv())
        return
    exceptions = eps_exceptions(table, args.eps) if args.eps is not None else None
    summary = {
        "n": G.n,
        "r": G.r,
        "ell": args.ell,
        "edge_count": G.edge_count,
        "min_degree": int(table.degrees.min()) if len(table.degrees) else None,
        "max_possible_degree": table.max_possible,
        "eps": args.eps,
        "eps_min_degree": (
            kth_min_degree(table, exceptions) if exceptions is not None else None
        ),
        # capped: every subset may be an exception, so the value is the
        # maximum possible degree rather than an order statistic
        "eps_min_degree_capped": (
            exceptions >= len(table.degrees) if exceptions is not None else None
        ),
        "p": args.p,
        "histogram": {str(d): c for d, c in table.histogram().items()},
    }
    if args.p is not None:
        report = table_poor_sets(table, args.p)
        summary["poor_count"] = len(report.poor)
        summary["poor_fraction"] = report.fraction
        summary["poor_fraction_float"] = report.fraction_float
    _write_text(args.output, jsonio.dumps(summary))


def _cmd_extract(args) -> None:
    G = _load_input(args.input)
    if args.mode == "random":
        report = extract_random(
            G, args.ell, args.m, args.p, args.delta, args.budget, args.seed, args.enum_budget
        )
    else:
        report = extract_exhaustive(
            G, args.ell, args.m, args.p, args.delta, enum_budget=args.enum_budget
        )
    _write_text(args.output, jsonio.dumps(report))


def _cmd_audit(args) -> None:
    _refuse_unread({"--ell": (args.ell, ("eq3", "bad-total")),
                    "--delta": (args.delta, ("eq2", "bad-total")),
                    "--subset": (args.subset, ("eq2",))}, args.which, "audits")
    G = _load_input(args.input)
    if args.which == "eq3":
        if args.ell is None:
            raise ValidationError("audit eq3 requires --ell")
        report = audit_eq3(G, args.ell, args.m, args.p, enum_budget=args.enum_budget)
    elif args.which == "eq2":
        if args.subset is None:
            raise ValidationError("audit eq2 requires --subset S")
        if args.delta is None:
            raise ValidationError("audit eq2 requires --delta")
        report = audit_eq2_phi(
            G, args.subset, args.m, args.p, args.delta, enum_budget=args.enum_budget
        )
    else:  # bad-total
        if args.ell is None or args.delta is None:
            raise ValidationError("audit bad-total requires --ell and --delta")
        report = audit_bad_total(
            G, args.ell, args.m, args.p, args.delta, enum_budget=args.enum_budget
        )
    _write_text(args.output, jsonio.dumps(report))


def _cmd_qr(args) -> None:
    if args.mode == "sampled" and args.kind == "111":
        raise ValidationError("sampled mode is only available for --kind 12")
    threads = None if args.threads == 1 else args.threads
    _refuse_unread({"--trials": (args.trials, ("sampled",)), "--seed": (args.seed, ("sampled",)),
                    "--exact-limit": (args.exact_limit, ("exact",)),
                    "--threads": (threads, ("exact",))}, args.mode, "mode")
    G = _load_input(args.input)
    if args.mode == "exact":
        exact = deviation_12_exact if args.kind == "12" else deviation_111_exact
        report = exact(G, args.p, exact_limit=args.exact_limit, threads=args.threads)
    else:
        trials = 10000 if args.trials is None else args.trials
        report = deviation_12_sampled(G, args.p, trials, args.seed or 0)
    _write_text(args.output, jsonio.dumps(report))


_HANDLERS = {
    "gen": _cmd_gen,
    "stats": _cmd_stats,
    "extract": _cmd_extract,
    "audit": _cmd_audit,
    "qr": _cmd_qr,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        _HANDLERS[args.command](args)
        return 0
    except LimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # no traceback: an internal error is one stderr line
        message = str(exc) if isinstance(exc, DegexError) else f"{type(exc).__name__}: {exc}"
        if not message.startswith("internal error:"):
            message = f"internal error: {message}"
        print(message, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
