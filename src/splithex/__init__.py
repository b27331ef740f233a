"""splithex: the split Cayley hexagon of order 2, built and verified.

The library constructs a 63-point, 63-line incidence structure from the
unitary plane over GF(4), checks that it is a generalized hexagon of order
(2, 2), computes its automorphism group of order 12096 from scratch, and
certifies that the induced degree-63 actions on points and on lines are
non-equivalent permutation representations.
"""

__version__ = "0.1.0"

from .algebra import (  # noqa: F401
    f4_add,
    f4_conj,
    f4_inv,
    f4_mul,
    f4_trace,
    hermitian,
    norm,
    symplectic,
    to_gf2,
    v_add,
    v_scale,
)
from .geometry import (  # noqa: F401
    HyperovalPartition,
    Strata,
    enumerate_strata,
    exterior_points,
    hyperoval_partitions,
    nonzero_vectors,
    projective_points,
    self_polar_triangles,
    strata_for,
    ti_lines,
    ti_planes,
    unital_points,
)
from .groups import (  # noqa: F401
    Automorphisms,
    CharacterWitness,
    PermutationGroup,
    automorphism_generators,
    character_witness,
    induced_actions,
    nonequivalence_certificate,
    refine,
)
from .hexagon import (  # noqa: F401
    Graph,
    HexLine,
    IncidenceStructure,
    Report,
    build,
    concurrency_graph,
    diameter,
    distance_distribution,
    dual,
    girth,
    incidence_graph,
    oval_line,
    point_graph,
    scalar_line,
    twin_line,
    verify_classification_hypotheses,
    verify_concurrency_witnesses,
    verify_generalized_hexagon,
    verify_partial_linear_space,
    verify_plane_property,
)
from .cli import run_verify  # noqa: F401
