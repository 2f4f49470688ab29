"""Command-line front end: build/export spaces and graphs, run statement
verifications, count objects.

Exit codes: 0 verified / success, 1 counterexample found, 2 budget exhausted
before completion, 64 usage error.
"""

from __future__ import annotations

import argparse
import atexit
import gc
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
# The largest rank, per prime, whose dual polar graph (or list of maximals)
# a command may build.  Sp(6,5)'s graph, 19 656 maximals, takes about 2.6 s
# and 246 MB; Sp(8,3)'s 91 840 maximals would need about 5.3 GB of distance
# masks alone, and Sp(8,5) has 12 304 656 maximals.
MAX_GRAPH_RANK = {2: 4, 3: 3, 5: 3}


def _point_count(p: int, n: int) -> int:
    return (p ** (2 * n) - 1) // (p - 1)


# The most points whose collinearity masks, one bitmask over the points per
# point, a command may build: Sp(6,5)'s 3 906, the most of a space whose
# graph is built.  Sp(8,3)'s 3 280 points take 1.3 MB of masks; Sp(8,5)'s
# 97 656 would take about 1.2 GB.
MAX_POINTS = max(_point_count(p, rank) for p, rank in MAX_GRAPH_RANK.items())


# set once ``main`` has registered ``gc.freeze`` with ``atexit``:
# ``atexit.unregister`` leaves a slot behind, so re-registering on every call
# would grow the handler table of an in-process caller
_freeze_at_exit = False


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
                       help="node-expansion budget; an embedding search splits it evenly "
                            "over its root branches, so a budget under roots x source "
                            "vertices may place nothing")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--workers", type=int, default=1,
                       help="above 1, split the embedding search of `verify` over "
                            "min(W, usable CPUs) forked processes beside the checks; the "
                            "report is the same for any count apart from its `workers` field")
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
    if n_prime is not None and args.statement not in ("lemma5", "theorem3"):
        raise UsageError("--n-prime applies only to lemma5 and theorem3")
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
    if args.seed < 0:
        raise UsageError("--seed must be non-negative")
    rank = _largest_graph_rank(args)
    if rank is not None and rank > MAX_GRAPH_RANK[args.p]:
        raise UsageError(
            f"the dual polar graph of Sp({2 * rank},{args.p}) is too large to build; "
            f"at p = {args.p} the rank is at most {MAX_GRAPH_RANK[args.p]}"
        )
    points = _point_count(args.p, args.n)
    if args.command == "count" and args.what in ("frames", "apartments") and points > MAX_POINTS:
        raise UsageError(f"the collinearity masks of Sp({2 * args.n},{args.p})'s {points} points "
                         f"are too large to build; at most {MAX_POINTS} points are allowed")


def _largest_graph_rank(args) -> int | None:
    """The largest rank whose dual polar graph or maximals the command
    builds, or None when it builds neither: ``count points`` reads only the
    points, ``frames`` and ``apartments`` the collinearity masks too, and
    ``lemma2`` no space."""
    if args.command == "count" and args.what not in ("singular", "embeddings"):
        return None
    if args.command == "verify" and args.statement == "lemma2":
        return None
    if args.command == "verify" and args.statement in ("lemma5", "theorem3"):
        return args.n_prime or args.n
    return args.n


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
        # a target of the source's rank is the source: its graph is built once
        target = space if args.n_prime in (None, args.n) else PolarSpace(args.n_prime, args.p)
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
    run beside a forked search.  ``embeddings`` asks the search for its
    stats alone (``visit=None``), so no embedding is materialised, and in
    exhaustive mode each image is counted at its canonical embedding, with
    no image key kept while every root branch completes; every other kind
    is enumerated exhaustively within the budget, whatever ``--mode`` and
    ``--seed`` say."""
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
            mode=args.mode, budget=args.budget, seed=args.seed, visit=None,
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
    """Run one command and return its exit code.

    Registers ``gc.freeze`` with ``atexit`` once per process, however often
    ``main`` runs, so that at interpreter shutdown every live object sits in
    the permanent generation and the final collections do not walk the
    heap: a run then exits in 3-6 ms instead of 11-15 ms.  The collector
    keeps running until then, so an in-process caller still frees the
    cyclic garbage of each call.  Skipping the final collection only skips
    the finalizers of cyclic garbage, and the program relies on none:
    report and export files are closed by ``write_text``, the interpreter
    flushes stdout and stderr itself, and forked children leave through
    ``os._exit``, which runs no ``atexit`` handler.
    """
    global _freeze_at_exit
    if not _freeze_at_exit:
        atexit.register(gc.freeze)
        _freeze_at_exit = True
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
