"""reflekt: extended formulations of reflection-orbit polytopes.

Build compact inequality descriptions of permutahedra, signed and
even-signed permutahedra, regular m-gons, parity polytopes, Huffman
polytopes, and completion-time polytopes by chaining reflection relations
over a small base polytope -- then certify each one at desk scale against
brute-force vertex enumeration with an exact rational LP solver.
"""

from .constructions import (
    a_permutahedron_ef,
    b_permutahedron_ef,
    build_recipe,
    completion_time_ef,
    d_permutahedron_ef,
    expected_ledger,
    huffman_ef_nlogn,
    huffman_ef_quadratic,
    i2_permutahedron_ef,
    make_network,
    mgon_ef,
    parity_polytope_ef,
    signing_ef,
)
from .networks import (
    ComparatorSeq,
    apply_comparators,
    batcher,
    double_bubble_seq,
    insertion_network,
    is_sorting_network,
    stride_seq,
)
from .numeric import EXACT, FLOAT, BackendError, kernel_dim, orthogonal_complement_basis, rref
from .oracles import (
    VertexSet,
    completion_time_vertices,
    even_signed_orbit,
    huffman_vectors,
    mgon_orbit,
    parity_vertices,
    permutation_orbit,
    sign_flip_orbit,
    signed_orbit,
)
from .polyhedra import (
    AffineMap,
    ExtendedFormulation,
    HPolyhedron,
    PolyhedralRelation,
    SizeLedger,
    compose_extension,
    deltas,
    eliminate_equations,
    graph_relation,
    point_in_projection,
)
from .reflections import (
    ReflectionSpec,
    apply_preimage_chain,
    canonical_preimage,
    reflect_point,
    reflection_relation,
)
from .verify import (
    VerificationReport,
    check_affine_generators,
    check_chain_conditions,
    size_report,
    verify_projection_equality,
)
from . import lp

__version__ = "0.1.0"
