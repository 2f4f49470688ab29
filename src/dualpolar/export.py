"""JSON and DOT serialization of spaces and graphs (integers only, canonical
ordering).

The JSON payloads hold the program's own tuples (points, RREF rows, edges)
rather than list copies of them: ``json`` writes a tuple as an array, so the
bytes are the same.  ``label_to_json`` still returns lists, since
``label_name`` hashes its ``repr`` into the DOT vertex names.
"""

from __future__ import annotations

import json

from . import polar
from .graphs import DenseGraph, HypercubeVertex
from .linalg import Subspace
from .polar import PolarSpace


def space_to_json(space: PolarSpace) -> dict:
    return {
        "p": space.p,
        "n": space.n,
        "points": space.points,
        "singular_subspaces_by_dim": [
            [sub.rows for sub in polar.enumerate_singular(space, k)] for k in range(space.n)
        ],
    }


def label_to_json(label):
    if isinstance(label, Subspace):
        return [list(row) for row in label.rows]
    if isinstance(label, HypercubeVertex):
        return list(label.members())
    raise TypeError(f"unknown vertex label type {type(label)!r}")


def label_text(label) -> str:
    if isinstance(label, Subspace):
        return " | ".join("".join(str(x) for x in row) for row in label.rows)
    if isinstance(label, HypercubeVertex):
        return "{" + ",".join(str(s) for s in label.members()) + "}"
    raise TypeError(f"unknown vertex label type {type(label)!r}")


def label_name(label) -> str:
    import hashlib  # only the DOT vertex names need it

    digest = hashlib.sha1(repr(label_to_json(label)).encode()).hexdigest()[:12]
    return f"n{digest}"


def graph_to_json(graph: DenseGraph) -> dict:
    return {
        "vertices": [lab.rows if isinstance(lab, Subspace) else label_to_json(lab)
                     for lab in graph.labels],
        "edges": graph.edges(),
    }


def graph_to_dot(graph: DenseGraph) -> str:
    lines = ["graph g {"]
    names = [label_name(lab) for lab in graph.labels]
    for name, lab in zip(names, graph.labels):
        text = label_text(lab)
        lines.append(f'  {name} [label="{text}", tooltip="{text}"];')
    for i, j in graph.edges():
        lines.append(f"  {names[i]} -- {names[j]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dump_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
