"""Estimating Hessian elements from single-shot interferometry.

Each Hessian entry of the dual objective splits into a product of charge
means and an anticommutator term.  The latter is estimated one +-1 shot
at a time: sample two Pauli strings and a random evolution time from the
high-peak-tent density, then run the two-outcome interference circuit.
The simulation draws only the parity of the circuit's two outcomes, which
is all the estimate reads; the oracle gives their full joint law.  This
demo ties the shot estimates back to the closed-form Kubo-Mori matrix.
"""

import math

import numpy as np
from scipy.integrate import quad

from thermosdp import (
    EnergyProblem,
    PauliSum,
    ThermalModel,
    estimate_anticommutator,
    hessian_estimate,
    sample_tent,
    tent_density,
)
from thermosdp.oracle import hadamard_test_distribution

# the evolution-time density: normalized, symmetric, exponential tails
mass, _ = quad(lambda t: tent_density(t), 0, 60, points=[0], limit=400)
print("tent density total mass: %.9f" % (2 * mass))
rng = np.random.default_rng(2)
times = sample_tent(rng, size=200_000)
print("sampled times: mean %.4f, E|t| %.4f, max |t| %.2f"
      % (times.mean(), np.abs(times).mean(), np.abs(times).max()))

# a non-commuting instance: H = Z, charge Q = X, so evolution matters
problem = EnergyProblem(PauliSum(1, [("Z", 1.0)]), [PauliSum(1, [("X", 1.0)])], [0.0])
model = ThermalModel(problem, [0.0], 1.0)

# one circuit run: exact joint law over (control, system) outcomes
probs = hadamard_test_distribution(model, "X", "X", t=0.8)
print("circuit outcome law at t=0.8:")
print(np.round(probs, 6), " (sums to %.12f)" % probs.sum())

exact = -model.kubo_mori()[0, 0]  # the Hessian is minus the Kubo-Mori matrix
anti = [
    estimate_anticommutator(model, problem.charges[0], problem.charges[0], 0.05, 0.05, rng)
]
print("anticommutator estimate %.4f" % anti[0])

reps = 200
vals = np.array([hessian_estimate(model, 0, 0, 0.2, 0.1, rng) for _ in range(reps)])
stderr = vals.std() / math.sqrt(reps)
print("hessian[0,0]: shot mean %.4f +- %.4f  vs exact %.4f"
      % (vals.mean(), stderr, exact))
