"""Constrained energy minimization and SDP solving via thermal-state duality.

The minimum energy of a d-dimensional system under expectation-value
constraints on non-commuting charges is approximated by minimizing free
energy at low temperature, whose dual is a smooth concave maximization
over chemical potentials.  This package provides exact, stochastic
(shot-simulated), and Kubo-Mori second-order solvers for that dual,
reductions mapping standard-form SDPs onto it, and independent brute-force
oracles used throughout the test suite.

scipy is imported only by ``thermosdp.oracle`` (``from thermosdp import oracle``;
a bare ``import thermosdp`` skips it) and ``thermosdp verify``.
"""

__version__ = "0.1.0"

from .operators import (
    Density,
    PauliSum,
    ResourceError,
    SpectralHermitian,
    expectation,
    materialize,
    one_norm,
)
from .thermal import (
    EnergyProblem,
    ThermalModel,
    effective_hamiltonian,
    entropy,
    free_energy_primal,
)
from .optimize import (
    GdSchedule,
    NewtonSchedule,
    NumericError,
    SgaSchedule,
    SolveReport,
    gradient_ascent,
    natural_gradient_ascent,
    replicate_sga,
    schedule_gd,
    schedule_sga,
    sga,
    smoothness,
)
from .sampling import (
    estimate_anticommutator,
    estimate_obs,
    hessian_estimate,
    hoeffding_count,
    sample_tent,
    tent_density,
)
from .sdp import SdpProblem, reduce_direct_sum, reduce_qubit_embed, solve_sdp

__all__ = [
    "Density",
    "EnergyProblem",
    "GdSchedule",
    "NewtonSchedule",
    "NumericError",
    "PauliSum",
    "ResourceError",
    "SdpProblem",
    "SgaSchedule",
    "SolveReport",
    "SpectralHermitian",
    "ThermalModel",
    "effective_hamiltonian",
    "entropy",
    "estimate_anticommutator",
    "estimate_obs",
    "expectation",
    "free_energy_primal",
    "gradient_ascent",
    "hessian_estimate",
    "hoeffding_count",
    "materialize",
    "natural_gradient_ascent",
    "one_norm",
    "oracle",
    "reduce_direct_sum",
    "reduce_qubit_embed",
    "replicate_sga",
    "sample_tent",
    "schedule_gd",
    "schedule_sga",
    "sdp",
    "sga",
    "smoothness",
    "solve_sdp",
    "tent_density",
]
