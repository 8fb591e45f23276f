"""Homological invariants of toric ideals of connected bipartite graphs.

The pipeline: even cycles give binomial generators of the toric ideal; they
form a universal Groebner basis, so a cycle search that grows only the
cycles whose leading half no kept leading half divides gives the degrevlex
initial ideal as int edge masks (the full cycle enumeration and Buchberger's
algorithm are kept as oracles); the Hilbert series of the initial ideal
gives the h-polynomial, and the order of its pole at t = 1 gives the Krull
dimension (the minimal transversal `krull_dimension` is kept as an oracle);
Cohen-Macaulayness of bipartite edge rings turns those into the full tuple
(regularity, deg h, projective dimension, depth, dimension).
The atlas enumerates all connected bipartite graphs on n vertices up to
isomorphism, runs the pipeline on every graph and on its edge list rotated
(the two h-polynomials must agree), and verifies the realized (regularity,
pdim) pairs against their closed-form characterization.
"""

from .graphs import (
    Bipartition,
    Cycle,
    DisconnectedError,
    Graph,
    GraphFormatError,
    NotBipartiteError,
    SizeGuardExceededError,
    bipartition,
    canonical_form,
    complete_bipartite,
    complete_core_graph,
    cycle_core_graph,
    cycle_graph,
    enumerate_cycles,
    graph_to_json,
    is_connected,
    jackson_min_edges,
    matching_number,
    max_edges_for_reg,
    parse_graph,
    parse_graph_json,
    path_graph,
    realizing_graph,
    star,
)
from .toric import (
    Binomial,
    EmptyEdgeSetError,
    Monomial,
    ToricPresentation,
    binomial_str,
    cycle_binomial,
    leading_cycles,
    monomial_str,
    toric_generators,
    validate_kernel_membership,
    vertex_degree_vector,
)
from .groebner import (
    MonomialIdeal,
    ReducedGB,
    buchberger,
    initial_ideal,
    normal_form,
)
from .hilbert import (
    HilbertData,
    InexactDivisionError,
    InvariantTuple,
    a_invariant,
    codegree,
    edge_ring_gb,
    edge_ring_hilbert,
    h_polynomial,
    hilbert_numerator,
    invariant_tuple,
    krull_dimension,
)
from .betti import (
    BettiTable,
    betti_table,
    euler_numerator,
    invariants_from_betti,
    koszul_homology_dim,
)
from .atlas import (
    AtlasRecord,
    VerificationReport,
    cache_load,
    cache_store,
    cardinality_formula,
    enumerate_connected_bipartite,
    property_sweep,
    theoretical_pairs,
    verify,
)

__version__ = "0.1.0"
