"""Verification reports and counterexample signalling.

Reports are plain dicts with a fixed key set so that identical runs give
byte-identical canonical JSON; ``timestamp`` and ``elapsed`` are the only
volatile fields and are excluded from determinism comparisons.
"""

from __future__ import annotations

import json
import time
from datetime import datetime, timezone

VOLATILE_KEYS = ("timestamp", "elapsed")


class CounterexampleError(Exception):
    """A checked postcondition failed on a concrete instance.

    Carries a JSON-able payload describing the witness; any such payload is
    a counterexample to the statement named in it.
    """

    def __init__(self, statement: str, details: dict):
        super().__init__(f"counterexample to {statement}: {details}")
        self.statement = statement
        self.details = details

    def as_violation(self) -> dict:
        return {"statement": self.statement, **self.details}


def make_report(
    statement: str,
    instance: dict,
    start: float,
    counts: dict,
    *,
    violations=(),
    complete: bool = True,
    expansions: int = 0,
    mode: str | None = None,
    budget: int | None = None,
    seed: int | None = None,
    search: dict | None = None,
) -> dict:
    """The report of a run that began at ``start`` (a ``time.perf_counter``
    reading).

    A run that made one embedding search passes its stats as ``search``
    (see ``apartments.search_stats``): they give the report's mode, budget,
    seed, workers and expansions, its ``embeddings`` and ``distinct_images``
    counts ahead of ``counts``, and the completeness it ANDs with
    ``complete``.  Any other run is one process: its ``workers`` is 1.
    """
    workers = 1
    if search is not None:
        mode, budget, seed = search["mode"], search["budget"], search["seed"]
        workers, expansions = search["workers"], search["expansions"]
        complete = complete and search["complete"]
        counts = {"embeddings": search["embeddings"],
                  "distinct_images": search["distinct_images"], **counts}
    return {
        "statement": statement,
        "instance": instance,
        "mode": mode,
        "budget": budget,
        "seed": seed,
        "workers": workers,
        "counts": counts,
        "violations": list(violations),
        "complete": complete,
        "expansions": expansions,
        "elapsed": time.perf_counter() - start,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def report_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def strip_volatile(report: dict) -> dict:
    return {k: v for k, v in report.items() if k not in VOLATILE_KEYS}


def exit_code_for(report: dict) -> int:
    """0 = verified within mode/budget, 1 = counterexample, 2 = budget ran out."""
    if report["violations"]:
        return 1
    if not report["complete"]:
        return 2
    return 0


def subspace_json(sub) -> list[list[int]]:
    return [list(row) for row in sub.rows]
