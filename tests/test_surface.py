"""The public surface of the package: exactly the names ``dualpolar`` exports,
no module-level memo behind them, and no hook on the caller's collector or
exit outside the CLI."""

import ast
import importlib
import pkgutil
from pathlib import Path

import dualpolar

NAMES = {
    # polar spaces, subspaces and frames
    "GF", "rref", "Subspace", "PolarSpace", "ResidueSpace", "Frame",
    "projdim", "form_value", "perp_subspace", "star", "check_polar_axioms",
    "enumerate_singular", "enumerate_frames", "sample_frames", "is_frame",
    "apartment_of_frame",
    # graphs and the embedding searches
    "DenseGraph", "HypercubeVertex", "hypercube",
    "dual_polar_graph", "search_isometric_embeddings", "search_dualpolar_embeddings",
    # decompositions and maps
    "ApartmentWitness", "is_apartment", "GraphEmbedding", "InducedPointMap", "LiftError",
    "induced_point_map", "lift_frame_preserving_map", "shifted_point_injection",
    "check_frames_preserving", "CounterexampleError",
    # the statement verifiers
    "verify_lemma1", "verify_lemma2", "verify_theorem2", "verify_lemma5",
    "verify_lemma5_bulk", "verify_theorem3", "verify_chow",
}


def test_public_names_are_the_listed_ones():
    # a new public name needs a line here as well as its export
    assert set(dualpolar.__all__) == NAMES


# The one memo left: perfbench's smoke test pins morphisms.cache_entries > 0,
# which only _opposite_pairs' lru_cache(maxsize=1) satisfies, so it stays
# until the benchmark reads the opposite pairs as a per-call value.
PINNED_MEMOS = {("dualpolar.morphisms", "_opposite_pairs")}


def test_no_module_holds_a_memo():
    # a module-level memo outlives every call and keeps its keys (spaces,
    # graphs) alive for the whole process; state belongs to the objects and
    # the calls that use it
    memos = set()
    for info in pkgutil.iter_modules(dualpolar.__path__):
        module = importlib.import_module(f"dualpolar.{info.name}")
        for name, value in vars(module).items():
            if isinstance(value, dict) and name.endswith("_cache"):
                memos.add((module.__name__, name))
            elif (callable(getattr(value, "cache_info", None))
                  and value.__module__ == module.__name__):
                memos.add((module.__name__, name))
    assert memos <= PINNED_MEMOS


def process_hooks(source: str) -> set[str]:
    """The calls of ``gc.freeze`` and ``gc.disable`` and the uses of
    ``atexit`` in ``source``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {f"import {a.name}" for a in node.names if a.name == "atexit"}
        elif isinstance(node, ast.ImportFrom) and node.module in ("atexit", "gc"):
            found |= {f"from {node.module} import {a.name}" for a in node.names
                      if node.module == "atexit" or a.name in ("freeze", "disable")}
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "atexit" or (
                    node.value.id == "gc" and node.attr in ("freeze", "disable")):
                found.add(f"{node.value.id}.{node.attr}")
    return found


def test_only_the_cli_hooks_the_collector_or_the_exit():
    # the CLI owns its process and freezes the heap at exit; a library
    # module that did so would change how its caller's interpreter collects
    # and exits
    package = Path(dualpolar.__file__).parent
    hooks = {path.name: process_hooks(path.read_text()) for path in package.glob("*.py")}
    assert {"import atexit", "gc.freeze", "atexit.register"} <= hooks.pop("cli.py")
    assert hooks and not any(hooks.values()), hooks
