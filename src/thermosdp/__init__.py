"""Constrained energy minimization and SDP solving via thermal-state duality.

The minimum energy of a d-dimensional system under expectation-value
constraints on non-commuting charges is approximated by minimizing free
energy at low temperature, whose dual is a smooth concave maximization
over chemical potentials.  This package provides exact, stochastic
(shot-simulated), and Kubo-Mori second-order solvers for that dual,
reductions mapping standard-form SDPs onto it, and independent brute-force
oracles used throughout the test suite.
"""

__version__ = "0.1.0"

from .operators import (
    Density,
    PauliSum,
    RepresentationError,
    ResourceError,
    SpectralHermitian,
    expectation,
    materialize,
    one_norm,
)
from .thermal import (
    EnergyProblem,
    ThermalModel,
    dual_objective,
    effective_hamiltonian,
    entropy,
    exact_gradient,
    free_energy_primal,
    hessian,
    kubo_mori,
    log_partition,
    relative_entropy,
    thermal_state,
)
from .optimize import (
    GdSchedule,
    NewtonSchedule,
    NumericError,
    SgaSchedule,
    SolveReport,
    gradient_ascent,
    natural_gradient_ascent,
    project_ball,
    replicate_sga,
    schedule_gd,
    schedule_sga,
    sga,
    smoothness,
)
from .sampling import (
    TentSampler,
    estimate_anticommutator,
    estimate_obs,
    hadamard_test_distribution,
    hessian_estimate,
    hoeffding_count,
    sample_tent,
    tent_density,
)
from .sdp import SdpProblem, reduce_direct_sum, reduce_qubit_embed, solve_sdp
from . import oracle

__all__ = [
    "Density",
    "EnergyProblem",
    "GdSchedule",
    "NewtonSchedule",
    "NumericError",
    "PauliSum",
    "RepresentationError",
    "ResourceError",
    "SdpProblem",
    "SgaSchedule",
    "SolveReport",
    "SpectralHermitian",
    "TentSampler",
    "ThermalModel",
    "dual_objective",
    "effective_hamiltonian",
    "entropy",
    "estimate_anticommutator",
    "estimate_obs",
    "exact_gradient",
    "expectation",
    "free_energy_primal",
    "gradient_ascent",
    "hadamard_test_distribution",
    "hessian",
    "hessian_estimate",
    "hoeffding_count",
    "kubo_mori",
    "log_partition",
    "materialize",
    "natural_gradient_ascent",
    "one_norm",
    "oracle",
    "project_ball",
    "reduce_direct_sum",
    "reduce_qubit_embed",
    "relative_entropy",
    "replicate_sga",
    "sample_tent",
    "schedule_gd",
    "schedule_sga",
    "sdp",
    "sga",
    "smoothness",
    "solve_sdp",
    "tent_density",
    "thermal_state",
]
