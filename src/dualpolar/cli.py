"""Command-line front end: build/export spaces and graphs, run statement
verifications, count objects.

Exit codes: 0 verified / success, 1 counterexample found, 2 budget exhausted
before completion, 64 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from . import apartments, export, graphs, morphisms, polar, reporting
from .polar import PolarSpace

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_BUDGET = 2
EXIT_USAGE = 64

VERIFY_STATEMENTS = ("lemma1", "lemma2", "theorem2", "lemma5", "theorem3", "chow")
COUNT_KINDS = ("points", "singular", "frames", "apartments", "embeddings")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="dualpolar", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_m=False, with_nprime=False):
        p.add_argument("--p", type=int, default=2, help="field prime (2, 3 or 5)")
        p.add_argument("--n", type=int, default=2, help="polar space rank (2..4)")
        if with_nprime:
            p.add_argument("--n-prime", type=int, default=None, help="target rank (n..4)")
        if with_m:
            p.add_argument("--m", type=int, default=None, help="hypercube dimension (1..n)")
        p.add_argument("--mode", choices=("exhaustive", "sample"), default="exhaustive")
        p.add_argument("--budget", type=int, default=apartments.DEFAULT_BUDGET,
                       help="node-expansion budget")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--workers", type=int, default=1,
                       help="above 1, run the embedding search of `verify` in one forked "
                            "process beside the checks; the report is the same for any count")
        p.add_argument("--output", type=str, default=None,
                       help="output file/directory (default: $DUALPOLAR_OUTPUT_DIR or cwd)")
        p.add_argument("--format", choices=("json", "dot"), default="json")

    build = sub.add_parser("build", help="write space and graph exports")
    common(build)

    verify = sub.add_parser("verify", help="run a statement verifier")
    verify.add_argument("statement", choices=VERIFY_STATEMENTS)
    common(verify, with_m=True, with_nprime=True)

    count = sub.add_parser("count", help="count objects")
    count.add_argument("what", choices=COUNT_KINDS)
    common(count, with_m=True)

    return parser


def _validate(args) -> None:
    if args.p not in polar.SUPPORTED_PRIMES:
        raise UsageError(f"--p must be one of {polar.SUPPORTED_PRIMES}")
    if not 2 <= args.n <= 4:
        raise UsageError("--n must be between 2 and 4")
    n_prime = getattr(args, "n_prime", None)
    if n_prime is not None and not args.n <= n_prime <= 4:
        raise UsageError("--n-prime must be between n and 4")
    m = getattr(args, "m", None)
    if m is not None:
        # lemma2 is a hypercube-only check, not tied to a polar space rank
        if getattr(args, "statement", None) == "lemma2":
            if not 1 <= m <= 10:
                raise UsageError("--m must be between 1 and 10 for lemma2")
        elif not 1 <= m <= args.n:
            raise UsageError("--m must be between 1 and n")
    if args.budget <= 0:
        raise UsageError("--budget must be positive")
    if args.workers < 1:
        raise UsageError("--workers must be at least 1")


def _out_dir(args) -> Path:
    if args.output is not None:
        return Path(args.output)
    return Path(os.environ.get("DUALPOLAR_OUTPUT_DIR", "."))


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    print(f"wrote {path}")


def cmd_build(args) -> int:
    space = PolarSpace(args.n, args.p)
    graph = graphs.dual_polar_graph(space)
    out = _out_dir(args)
    stem = f"sp_p{args.p}_n{args.n}"
    _write(out / f"{stem}.space.json", export.dump_json(export.space_to_json(space)))
    if args.format == "dot":
        _write(out / f"{stem}.graph.dot", export.graph_to_dot(graph))
    else:
        _write(out / f"{stem}.graph.json", export.dump_json(export.graph_to_json(graph)))
    return EXIT_OK


def _require_m(args) -> int:
    if args.m is None:
        raise UsageError("--m is required for this command")
    return args.m


def cmd_verify(args) -> int:
    statement = args.statement
    space = None if statement == "lemma2" else PolarSpace(args.n, args.p)
    if statement == "lemma2":
        report = graphs.verify_lemma2(m_max=args.m if args.m is not None else 8)
    elif statement == "lemma1":
        report = apartments.verify_lemma1(
            space, mode=args.mode, budget=args.budget, seed=args.seed
        )
    elif statement == "theorem2":
        report = apartments.verify_theorem2(
            space, _require_m(args), mode=args.mode, budget=args.budget,
            seed=args.seed, workers=args.workers,
        )
    elif statement in ("lemma5", "theorem3"):
        target = PolarSpace(args.n_prime if args.n_prime is not None else args.n, args.p)
        run = morphisms.verify_lemma5_bulk if statement == "lemma5" else morphisms.verify_theorem3
        report = run(
            space, target, mode=args.mode, budget=args.budget,
            seed=args.seed, workers=args.workers,
        )
    else:
        report = morphisms.verify_chow(space, budget=args.budget, workers=args.workers)
    out = _out_dir(args)
    name = f"report_{statement}_p{args.p}_n{args.n}"
    if statement in ("lemma5", "theorem3"):
        name += f"_np{target.n}"
    if args.m is not None:
        name += f"_m{args.m}"
    _write(out / f"{name}.json", reporting.report_json(report))
    code = reporting.exit_code_for(report)
    print(f"{statement}: {'ok' if code == 0 else 'FAILED' if code == 1 else 'incomplete'} "
          f"(counts={report['counts']})")
    return code


def cmd_count(args) -> int:
    """Count one kind of object in this process: a count has no checks to
    run beside a forked search.  Every kind but ``embeddings`` is enumerated
    exhaustively within the budget, whatever ``--mode`` and ``--seed`` say."""
    start = time.perf_counter()
    space = PolarSpace(args.n, args.p)
    complete = True
    violations: list[dict] = []
    search = None
    if args.what == "points":
        counts = {"points": len(space.points)}
    elif args.what == "singular":
        counts = {
            "singular_by_dim": [len(polar.enumerate_singular(space, k)) for k in range(space.n)]
        }
    elif args.what == "frames":
        frames = 0

        def visit(frame):
            nonlocal frames
            frames += 1

        _, complete = polar.enumerate_frames(space, budget=args.budget, visit=visit)
        counts = {"frames": frames}
    elif args.what == "apartments":
        try:
            count, complete = apartments.count_apartments(space, args.budget)
        except reporting.CounterexampleError as exc:
            count, complete = None, False
            violations.append(exc.as_violation())
        counts = {"apartments": count}
    else:
        _, search = apartments.search_isometric_embeddings(
            graphs.hypercube(_require_m(args)), graphs.dual_polar_graph(space),
            mode=args.mode, budget=args.budget, seed=args.seed,
            visit=lambda assignment, new: None,
        )
        counts = {}
    report = reporting.make_report(
        f"count_{args.what}", {"p": args.p, "n": args.n, "m": args.m},
        start, counts, violations=violations, complete=complete, mode="exhaustive",
        budget=args.budget, search=search,
    )
    out = _out_dir(args)
    _write(out / f"count_{args.what}_p{args.p}_n{args.n}.json", reporting.report_json(report))
    print(f"count {args.what}: {report['counts']}")
    return reporting.exit_code_for(report)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _validate(args)
        handler = {"build": cmd_build, "verify": cmd_verify, "count": cmd_count}[args.command]
        return handler(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
