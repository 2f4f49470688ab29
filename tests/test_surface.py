"""The public surface of the package: exactly the names ``dualpolar`` exports,
and no module-level memo behind them."""

import importlib
import pkgutil

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
