"""Finite symplectic polar spaces, their dual polar graphs, and the metric
recognition of apartments via isometric hypercube embeddings."""

from types import ModuleType as _ModuleType

from .apartments import (
    ApartmentWitness,
    is_apartment,
    search_isometric_embeddings,
    verify_lemma1,
    verify_theorem2,
)
from .graphs import (
    DenseGraph,
    HypercubeVertex,
    dual_polar_graph,
    hypercube,
    verify_lemma2,
)
from .linalg import GF, Subspace, rref
from .morphisms import (
    GraphEmbedding,
    InducedPointMap,
    LiftError,
    check_frames_preserving,
    induced_point_map,
    lift_frame_preserving_map,
    search_dualpolar_embeddings,
    shifted_point_injection,
    verify_chow,
    verify_lemma5,
    verify_lemma5_bulk,
    verify_theorem3,
)
from .polar import (
    Frame,
    PolarSpace,
    ResidueSpace,
    apartment_of_frame,
    check_polar_axioms,
    enumerate_frames,
    enumerate_singular,
    form_value,
    is_frame,
    perp_subspace,
    projdim,
    sample_frames,
    star,
)
from .reporting import CounterexampleError

__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
__version__ = "0.1.0"
