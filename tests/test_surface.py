"""The public surface of the package: exactly the names ``dualpolar`` exports."""

import dualpolar

NAMES = {
    # polar spaces, subspaces and frames
    "GF", "gf", "rref", "Subspace", "PolarSpace", "ResidueSpace", "Frame",
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
