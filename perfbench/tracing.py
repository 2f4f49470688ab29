"""Spans around the calls into each dualpolar layer, recorded from outside.

The modules import each other's functions by name (``from .linalg import
intersect``), so a function is replaced at every module attribute that holds
it, not only in the module that defines it. Spans are folded into one record
per (function, parent function) as they close, which keeps memory bounded
for runs with about a million calls.
"""

from __future__ import annotations

import functools
import sys
import threading
from time import perf_counter

# The public functions whose calls the per-layer metrics count and time.
TRACED = {
    "linalg": ("rref", "intersect", "sum_span", "contains_subspace"),
    "polar": ("enumerate_singular", "enumerate_frames", "apartment_of_frame", "residue_collinear"),
    "graphs": ("dual_polar_graph", "all_pairs_distances"),
    "apartments": ("search_isometric_embeddings", "is_apartment", "verify_theorem2"),
    "morphisms": ("verify_lemma5", "induced_point_map", "verify_theorem3"),
    "export": ("dump_json",),
    "reporting": ("report_json",),
    "cli": ("main",),
}
PACKAGE = "dualpolar"
SEARCH = "apartments.search_isometric_embeddings"
SEARCH_STATS = ("expansions", "embeddings", "distinct_images")


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Installs wrappers on ``install`` and puts every original back on ``restore``.

    ``records`` maps (function, parent function or None) to
    [calls, total_s, self_s, outer_s, expansions, embeddings, distinct_images];
    outer_s only counts calls not nested inside the same function, and the
    search counters come from the stats each search call returns.
    """

    def __init__(self):
        self._local = threading.local()
        self._tables: list[dict] = []
        self._patched: list[tuple[object, str, object]] = []

    def _state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], {}, {})  # open spans, records, open count by name
            self._tables.append(state[1])
        return state

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, table, open_by_name = tracer._state()
            parent = stack[-1] if stack else None
            span = [name, 0.0]  # name, time covered by child spans
            stack.append(span)
            depth = open_by_name.get(name, 0)
            open_by_name[name] = depth + 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                open_by_name[name] = depth
                stack.pop()
                key = (name, parent[0] if parent else None)
                rec = table.get(key)
                if rec is None:
                    rec = table[key] = [0, 0.0, 0.0, 0.0, 0, 0, 0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - span[1]
                if depth == 0:
                    rec[3] += elapsed
                if parent is not None:
                    parent[1] += elapsed
            if name == SEARCH:
                stats = result[1]
                for k, field in enumerate(SEARCH_STATS, start=4):
                    rec[k] += stats[field]
            return result

        traced.__perfbench_traced__ = True
        return traced

    def install(self) -> None:
        modules = _package_modules()
        for short, names in TRACED.items():
            home = sys.modules.get(f"{PACKAGE}.{short}")
            for fname in names:
                orig = getattr(home, fname, None)
                if orig is None:
                    continue  # gone from the program: its metrics read 0
                wrapper = self._wrap(f"{short}.{fname}", orig)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is orig:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, orig))

    def restore(self) -> bool:
        """Put every original back; True when no wrapper is left anywhere."""
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        ok = all(getattr(module, attr) is orig for module, attr, orig in self._patched)
        leftovers = [
            attr for module in _package_modules()
            for attr, value in vars(module).items()
            if getattr(value, "__perfbench_traced__", False)
        ]
        return ok and not leftovers

    def records(self) -> list[dict]:
        merged: dict[tuple, list] = {}
        for table in self._tables:
            for key, rec in table.items():
                acc = merged.setdefault(key, [0] * len(rec))
                for k, value in enumerate(rec):
                    acc[k] += value
        return [
            {"name": name, "parent": parent,
             **dict(zip(("calls", "total_s", "self_s", "outer_s", *SEARCH_STATS), rec))}
            for (name, parent), rec in sorted(merged.items(), key=lambda kv: (kv[0][0], str(kv[0][1])))
        ]
