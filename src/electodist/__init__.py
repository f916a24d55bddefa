"""Distances between ordinal elections: metrics, cultures, and analysis."""

from .elections import (
    COMPASS_KINDS,
    Election,
    all_orders,
    apply_matchings,
    borda_vector,
    canonical_anec_key,
    compass_election,
    compass_matrix,
    frequency_matrix,
    majority_matrix,
    parse_election,
    position_matrix,
    position_of,
    serialize_election,
)
from .metrics import (
    METRIC_KINDS,
    DistanceOutcome,
    distance,
    emd,
    l1,
    pairwise_cost_at,
    pairwise_distance,
    positionwise_distance,
    solve_assignment,
    vote_discrete_distance,
    vote_swap_distance,
)
from .cultures import (
    DEFAULT_CULTURES,
    EUCLIDEAN_SHAPES,
    GROUP_SEPARABLE_TREES,
    CultureSpec,
    is_single_crossing,
    is_single_peaked,
    is_spoc_vote,
    mallows_phi_from_norm,
    sample,
    sample_many,
)
from .analysis import (
    CensusReport,
    CorrelationReport,
    IntrinsicPath,
    borda_realizable,
    check_diameter,
    compass_distance_formula,
    correlation,
    count_equivalence_classes,
    emdpos_intrinsic_path,
    enumerate_anecs,
    l1pos_intrinsic_path,
    majority_realizable_bruteforce,
    matrix_correlation,
    recover_election,
)

from .mapping import (
    PALETTE,
    DistanceMatrix,
    EmbedConfig,
    Embedding,
    distance_matrix,
    embed,
    embed_all,
    embedding_stress,
    export_map,
)

__version__ = "0.1.0"
