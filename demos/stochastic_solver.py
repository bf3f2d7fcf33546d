"""Shot-based solving: the stochastic gradient route end to end.

Instead of exact expectation values, each gradient component comes from a
finite number of simulated Pauli measurements on the thermal state.  The
estimator is unbiased, its shot count follows the Hoeffding budget, and
averaged over replicates the final energy estimate lands within epsilon
of the truth.
"""

import math

import numpy as np

from thermosdp import (
    EnergyProblem,
    PauliSum,
    ThermalModel,
    estimate_obs,
    hoeffding_count,
    replicate_sga,
    schedule_sga,
)

problem = EnergyProblem(PauliSum(1, [("Z", 1.0)]), [PauliSum(1, [("X", 1.0)])], [0.6])

epsilon, delta, radius = 0.2, 0.1, 2.0
sched = schedule_sga(problem, epsilon, delta, radius)
print("sigma^2 = %.4f, M = %d, eta = %.6f, T = %.6f"
      % (sched.variance_bound, sched.iterations, sched.step_size, sched.temperature))
print("shots per gradient component:", hoeffding_count(2.0, epsilon, delta))

# unbiasedness: the shot estimator of <X> averages to the exact value
model = ThermalModel(problem, [0.3], sched.temperature)
rng = np.random.default_rng(1)
draws = np.array([
    estimate_obs(model, problem.charges[0], epsilon, delta, rng) for _ in range(2000)
])
exact_mean = model.charge_expectations()[0]
print("estimator mean %.5f vs exact %.5f (se %.5f)"
      % (draws.mean(), exact_mean, draws.std() / math.sqrt(len(draws))))

# a handful of replicates of the full algorithm
reports = replicate_sga(problem, epsilon, delta, radius, seed=42, replicates=10)
estimates = np.array([r.estimate for r in reports])
print("replicate estimates:", np.round(estimates, 4))
print("replicate mean %.4f (true energy -0.8, epsilon %.1f)"
      % (estimates.mean(), epsilon))
print("thermal-state samples per replicate:", reports[0].sample_count)
