"""Hierarchical Bayesian aerosol optical depth retrieval on a lattice.

Joint posterior over per-region AOD and aerosol composition with a GMRF
smoothness prior, solved by coordinate-wise stochastic-search MAP, with an
MCMC baseline, an operational-style grid-search baseline, patch-parallel
execution, a scene simulator and an evaluation harness.
"""

__version__ = "0.1.0"

from .model import (
    ConfigurationError,
    HyperParams,
    InitializationError,
    LatticeTopology,
    RetrievalState,
    Scene,
    build_lattice,
    delta_log_posterior_tau,
    delta_log_posterior_theta,
    log_posterior,
    log_posterior_terms,
    validate_state,
)
from .forward import (
    AerosolComponent,
    ComponentLibrary,
    DomainError,
    RadianceTable,
    build_synthetic_table,
    default_library,
)
from .map_solver import (
    SolverConfig,
    StabilityResult,
    SweepTrace,
    init_state,
    run_map,
    stability_bounds,
    update_kappa,
    update_sigma,
)
from .mcmc import McmcConfig, mh_sweep, run_mcmc
from .parallel import PatchPartition, partition, run_map_parallel
from .simulate import SimScene, add_noise, gen_truth, make_sim_scene
from .baselines import (
    GridSearchConfig,
    MetricsReport,
    compute_metrics,
    dominance_map,
    grid_search_retrieve,
)

__all__ = [
    "AerosolComponent",
    "ComponentLibrary",
    "ConfigurationError",
    "DomainError",
    "GridSearchConfig",
    "HyperParams",
    "InitializationError",
    "LatticeTopology",
    "McmcConfig",
    "MetricsReport",
    "PatchPartition",
    "RadianceTable",
    "RetrievalState",
    "Scene",
    "SimScene",
    "SolverConfig",
    "StabilityResult",
    "SweepTrace",
    "add_noise",
    "build_lattice",
    "build_synthetic_table",
    "compute_metrics",
    "default_library",
    "delta_log_posterior_tau",
    "delta_log_posterior_theta",
    "dominance_map",
    "gen_truth",
    "grid_search_retrieve",
    "init_state",
    "log_posterior",
    "log_posterior_terms",
    "make_sim_scene",
    "mh_sweep",
    "partition",
    "run_map",
    "run_map_parallel",
    "run_mcmc",
    "stability_bounds",
    "update_kappa",
    "update_sigma",
    "validate_state",
]
