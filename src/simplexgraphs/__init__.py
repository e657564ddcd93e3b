"""Random graphs from thresholded logconcave edge weights.

A weight vector X is drawn from a distribution on the positive orthant
(uniform over a weighted simplex, independent exponentials, or the orthant
part of a ball); thresholding at p keeps the edges {e : X_e <= p}.  The
package provides the samplers, exact closed-form probabilities for the
simplex family, graph predicates, an assignment-plus-patching ATSP heuristic,
and a reproducible Monte Carlo harness tying them together.
"""

from .atsp import (
    AssignmentResult,
    CostMatrix,
    Tour,
    held_karp,
    hungarian,
    patch,
    row_symmetric_model,
    sample_row_symmetric,
    tour_cost,
)
from .errors import CapacityError, ConfigError
from .experiments import (
    ExperimentConfig,
    SweepResult,
    TrialRecord,
    atsp_experiment,
    load_config,
    mst_experiment,
    parse_config,
    run_sweep,
    wilson_interval,
)
from .graphs import (
    ComponentSummary,
    bipartite_perfect_matching,
    components,
    diameter,
    is_connected,
    is_hamiltonian,
    mst_weight,
)
from .model import (
    DecomposableWeights,
    EdgeSpace,
    SimplexModel,
    ThresholdGraph,
    WeightVector,
    threshold,
)
from .oracle import (
    AbsencePresenceEstimate,
    BoundCheck,
    IsolationProfile,
    check_basic_bounds,
    edge_count_variance_bound,
    edge_prob_q,
    expected_edge_count,
    mst_series,
    prob_absent_present,
    prob_all_absent,
    sigma_simplex,
    solve_p0,
)
from .samplers import (
    DensityModel,
    SeededRng,
    marginal_cdf,
    sample_simplex,
    sample_simplex_batch,
)

__version__ = "0.1.0"

__all__ = [
    "AbsencePresenceEstimate",
    "AssignmentResult",
    "BoundCheck",
    "CapacityError",
    "ComponentSummary",
    "ConfigError",
    "CostMatrix",
    "DecomposableWeights",
    "DensityModel",
    "EdgeSpace",
    "ExperimentConfig",
    "IsolationProfile",
    "SeededRng",
    "SimplexModel",
    "SweepResult",
    "ThresholdGraph",
    "Tour",
    "TrialRecord",
    "WeightVector",
    "atsp_experiment",
    "bipartite_perfect_matching",
    "check_basic_bounds",
    "components",
    "diameter",
    "edge_count_variance_bound",
    "edge_prob_q",
    "expected_edge_count",
    "held_karp",
    "hungarian",
    "is_connected",
    "is_hamiltonian",
    "load_config",
    "marginal_cdf",
    "mst_experiment",
    "mst_series",
    "mst_weight",
    "parse_config",
    "patch",
    "prob_absent_present",
    "prob_all_absent",
    "row_symmetric_model",
    "run_sweep",
    "sample_row_symmetric",
    "sample_simplex",
    "sample_simplex_batch",
    "sigma_simplex",
    "solve_p0",
    "threshold",
    "tour_cost",
    "wilson_interval",
]
