"""Random graphs with dependent edges and a robustness floor.

The floor is a probability p such that every edge is present with
probability at least p no matter how the other edges turned out. Any such
graph contains an independent Bernoulli(p) graph as a coupled subgraph
(:mod:`probust.coupling`), so for monotone properties the classical
independent-graph results transfer as lower bounds. The exact engine
(:mod:`probust.exact`) verifies this by enumeration at tiny sizes; the Monte
Carlo layer (:mod:`probust.montecarlo`) checks it statistically at desk
scale.
"""

from .coupling import (
    CouplingParams,
    CouplingTriple,
    coupled_stream,
    generate_coupled,
    p_prime,
    patch_probability,
    union_probability_identity,
)
from .errors import (
    CertificationError,
    DomainError,
    ModelContractError,
    PairedViolationError,
    ProbustError,
    RobustnessViolationError,
    SamplingFailureError,
    UnsupportedScaleError,
)
from .exact import (
    ExactCouplingJoint,
    ExactDistribution,
    condition_min_adjacent,
    exact_coupling_joint,
    exact_domination_check,
    exact_joint,
    exact_probability,
    min_full_conditional,
    sequential_conditional,
    tv_distance,
)
from .graphs import (
    EdgeSpace,
    Realization,
    SuffixHistory,
    adjacent_present_count,
    degree_histogram,
    edge_index,
    index_to_edge,
    union,
)
from .models import (
    ConditionedAdjacencyModel,
    EdgeModel,
    ModelDescriptor,
    adjacency_count_model,
    conditioned_adjacency_model,
    er_model,
    global_count_model,
    robustness_floor_check,
    sample_direct,
)
from .montecarlo import (
    FORMULAS,
    AsymptoticFormula,
    ChiSquareReport,
    DominationReport,
    EstimateResult,
    PairedReport,
    asymptotic_report,
    coupled_domination_test,
    degree_count_formula,
    degree_distribution_test,
    domination_test,
    er_realization,
    estimate_property,
)
from .properties import (
    PropertyOracle,
    certify_monotone,
    chromatic_number,
    decide_bits,
    diameter,
    has_hamiltonian_cycle,
    is_connected,
    longest_cycle_length,
    max_clique_size,
    max_independent_set_size,
    max_matching_size,
    min_dominating_set_size,
    parse_property,
)
from .rngstreams import derive_rng

__version__ = "0.3.0"
