"""Classical simulation of the shot-based quantum estimators.

Covers three subroutines: Hoeffding-budgeted observable estimation on
thermal states, sampling of Hamiltonian-evolution times from the
high-peak-tent density

    p(t) = (2/pi) ln|coth(pi t / 2)|,

and the interferometric (Hadamard-test) estimator of the anticommutator
term in the dual objective's Hessian.  Every draw comes from its exact
law: tent times from their exponential mixture, measurement outcomes from
the outcome distribution of the corresponding circuit, so the simulated
estimators have precisely the statistics the shot-complexity analysis
assumes.  The Hadamard-test estimator reads only the parity of its two
outcomes, so it draws each shot's parity from its exact law given the
shot's time.  It works in the eigenbasis of G and reads each Pauli string
through its action (a permutation and a phase), so its signal needs
O(shots * d) memory.  ``thermosdp.oracle.hadamard_test_distribution``
gives the circuit's full joint outcome law from dense matrices.

Preparation noise is not modeled: an imperfect thermal source would bias
the measurement laws and enters the convergence analysis as an additive
term on the gradient-variance bound.  Simulation here always measures
the exact thermal state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import PauliSum, _pauli_action, one_norm
from .thermal import ThermalModel, _positive_finite


def hoeffding_count(width: float, epsilon: float, delta: float) -> int:
    """Minimal shot count n >= width^2 ln(2/delta) / (2 eps^2), at least 1."""
    width = _positive_finite("width", width)
    epsilon = _positive_finite("epsilon", epsilon)
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    n = width * width * math.log(2.0 / delta) / (2.0 * epsilon * epsilon)
    return max(1, int(math.ceil(n)))


def obs_shots(norm: float, epsilon: float, delta: float) -> int:
    """Shots :func:`estimate_obs` draws for a Pauli sum of one-norm ``norm``:
    the Hoeffding count for outcomes in [-norm, norm], or 0 for the empty
    sum (the only one with norm 0)."""
    return hoeffding_count(2.0 * norm, epsilon, delta) if norm else 0


@dataclass(frozen=True, eq=False)
class _TermTable:
    """What the shot estimators need of one Pauli sum, in O(terms * d).

    ``norm`` is ||a||_1, ``weights`` and ``signs`` are |a_j| / ||a||_1 and
    sign(a_j), by which both estimators draw terms.  Each string's action gives Tr[sigma_j rho] =
    sum_m phases[j, m] rho[m, perm_j(m)], and ``flat[j, m]`` is the flat
    position m * d + perm_j(m) of that entry of rho.
    """

    norm: float
    weights: np.ndarray
    signs: np.ndarray
    flat: np.ndarray
    phases: np.ndarray

    def traces(self, rho: np.ndarray) -> np.ndarray:
        """Tr[sigma_j rho] for every term, clipped to [-1, 1]."""
        return (self.phases * rho.take(self.flat)).sum(axis=1).real.clip(-1.0, 1.0)


def _term_table(coeffs: PauliSum) -> _TermTable:
    """The table of one Pauli sum, built on its first use and then held by
    the sum, which is immutable, so every later estimate reads it as is."""
    if coeffs._table is not None:
        return coeffs._table
    a = coeffs.coefficients()
    norm = one_norm(coeffs)
    rows = np.arange(coeffs.dim) * coeffs.dim
    actions = [_pauli_action(index) for index in coeffs.indices()]
    shape = (len(a), coeffs.dim)
    flat = np.array([rows + perm for perm, _ in actions], dtype=np.intp).reshape(shape)
    phases = np.array([phase for _, phase in actions], dtype=complex).reshape(shape)
    weights = np.abs(a) / norm if norm else a
    for arr in (weights, flat, phases):
        arr.setflags(write=False)
    table = _TermTable(norm, weights, np.sign(a), flat, phases)
    object.__setattr__(coeffs, "_table", table)
    return table


_HALF_PLUS_MINUS = np.array([0.5, -0.5])


def _draw_counts(weights: np.ndarray, traces: np.ndarray, shots: int, rng) -> np.ndarray:
    """Shot counts per (term, outcome) cell, one row per term, columns for
    the +1 and -1 outcomes.

    Drawing term j with probability w_j and then measuring it (mean t_j)
    puts each shot in cell (j, +-1) with probability w_j (1 +- t_j) / 2,
    so one multinomial draw over those cells gives the counts.
    """
    cells = weights[:, None] * (0.5 + traces[:, None] * _HALF_PLUS_MINUS)
    return rng.multinomial(shots, cells.ravel()).reshape(-1, 2)


def estimate_obs(
    model: ThermalModel, coeffs: PauliSum, epsilon: float, delta: float, rng
) -> float:
    """Shot-based estimate of Tr[Q rho_T(mu)] for Q = sum_j a_j sigma_j.

    Per shot: a term index is drawn with probability |a_j| / ||a||_1, the
    Pauli string is measured on the thermal state, and the +-1 outcome is
    scaled by ||a||_1 and the coefficient's sign.  The estimate is the mean
    over shots, so it depends only on how many shots land in each
    (term, outcome) cell; those counts are drawn at once, as one multinomial
    over the cells |a_j| / ||a||_1 * (1 +- Tr[sigma_j rho]) / 2, which has
    the law of the per-shot draws at O(terms) cost.  The estimate

        ||a||_1 * sum_j sign(a_j) (n_j+ - n_j-) / shots

    is unbiased, epsilon-accurate with probability >= 1 - delta.  Returns 0,
    drawing nothing, for an empty sum.
    """
    table = _term_table(coeffs)
    return _estimate(table, obs_shots(table.norm, epsilon, delta), model.rho, rng)


def _estimate(table: _TermTable, shots: int, rho: np.ndarray, rng) -> float:
    """:func:`estimate_obs` from a sum's table, shot budget and rho: the one
    sampling path, which SGA also calls with its hoisted tables and budgets."""
    if not shots:
        return 0.0
    counts = _draw_counts(table.weights, table.traces(rho), shots, rng)
    return table.norm * float(table.signs @ (counts[:, 0] - counts[:, 1])) / shots


def tent_density(t) -> np.ndarray:
    """High-peak-tent density p(t) = (2/pi) ln|coth(pi t / 2)|, p(0) = inf.

    Computed as (2/pi) log1p(2 / expm1(pi |t|)), which keeps full relative
    accuracy in the tail, where tanh(pi t / 2) rounds to 1."""
    t = np.abs(np.asarray(t, dtype=float))
    with np.errstate(divide="ignore", over="ignore"):
        return (2.0 / math.pi) * np.log1p(2.0 / np.expm1(math.pi * t))


def sample_tent(rng, size):
    """Draw ``size`` evolution times from the high-peak-tent density, exactly.

    As ln coth x = 2 sum_{k odd} e^{-2kx} / k, |t| is exponential with rate
    pi k, k odd with probability 8 / (pi^2 k^2).  k = 1 has mass 8 / pi^2;
    otherwise k = 2 floor(1/V) + 1, V uniform on (0, 1], has
    P(k >= 2m + 1) = 1/m and is accepted with probability 1 - 1/k^2 (at
    least 8/9), which leaves the law of k >= 3 proportional to 1/k^2.  The
    sign is a fair coin.
    """
    k = np.ones(size)
    rest = np.flatnonzero(rng.random(size) >= 8.0 / math.pi**2)
    while rest.size:
        proposal = 2.0 * np.floor(1.0 / (1.0 - rng.random(rest.size))) + 1.0
        accept = rng.random(rest.size) < 1.0 - 1.0 / proposal**2
        k[rest[accept]] = proposal[accept]
        rest = rest[~accept]
    t = rng.standard_exponential(size) / (math.pi * k)
    return np.where(rng.random(size) < 0.5, -t, t)


def _rotated_pauli(model: ThermalModel, index: str) -> np.ndarray:
    """V^dag sigma V for one Pauli string, in the eigenbasis V of G.

    sigma V is V's rows permuted and phased by the string's action
    (sigma is an involution, so row r of sigma V is phase[perm[r]] times
    row perm[r] of V), so no dense sigma is built.
    """
    perm, phase = _pauli_action(index)
    V = model.eigenvectors
    return V.conj().T @ (phase[perm][:, None] * V[perm])


def _parity_block(model: ThermalModel, k_index: str) -> np.ndarray:
    """B0 - B1 in the eigenbasis of G, where B_lam = Pi_lam rho Pi_lam and
    Pi_lam = (I - (-1)^lam sigma_k)/2 is the branch the control outcome lam
    selects.  With rho = diag(p) and s = V^dag sigma_k V the difference is
    -(s p + p s)/2, that is -s_mn (p_m + p_n)/2.
    """
    p = model.probs
    return _rotated_pauli(model, k_index) * (-0.5 * (p[:, None] + p))


def _system_signal(model: ThermalModel, l_index: str, block, ts: np.ndarray) -> np.ndarray:
    """Re Tr[sigma_l U_t B U_t^dag] for the block B and each time t.

    In the eigenbasis of G, with sig = V^dag sigma_l V and
    a = exp(-i t lam / T), the trace is Re a^H (B * sig^T) a, so a batch of
    times needs one shots x d exponential: O(shots * d) memory.  For
    B = :func:`_parity_block` it is the mean of the circuit's outcome parity
    (-1)^(lam + gamma) at time t.
    """
    kernel = block * _rotated_pauli(model, l_index).T
    a = np.exp(np.outer(ts, model.eigenvalues) * (-1j / model.temperature))
    return ((a.conj() @ kernel) * a).sum(axis=1).real


def estimate_anticommutator(
    model: ThermalModel,
    a_i: PauliSum,
    a_j: PauliSum,
    epsilon: float,
    delta: float,
    rng,
) -> float:
    """Shot estimate of -1/2 <{Phi_mu(Q_i), Q_j}> on the thermal state.

    Per shot: sigma_l ~ a_i, sigma_k ~ a_j (by absolute coefficient, signs
    carried), t ~ high-peak-tent, then one run of the interferometric
    circuit; the +-1 products average to the target divided by the one-norm
    product.  Bounded by ||a_i||_1 ||a_j||_1 in magnitude.

    The shot counts of the (sigma_l, sigma_k) pairs are drawn at once, as
    one multinomial over the products of the two term weights, which has
    the law of the per-shot term draws; each drawn pair then runs its
    shots as one batch in G's eigenbasis, at O(shots * d) memory for the
    signal.  A shot draws its time and one uniform: the outcome parity
    (-1)^(lam + gamma), the only thing the estimate reads, is +1 with
    probability (1 + m(t))/2, where m(t) is its mean at time t.
    """
    ti, tj = _term_table(a_i), _term_table(a_j)
    if ti.norm == 0.0 or tj.norm == 0.0:
        raise ValueError("both Pauli sums must have positive one-norm")
    shots = hoeffding_count(2.0 * ti.norm * tj.norm, epsilon, delta)
    counts = rng.multinomial(shots, np.outer(ti.weights, tj.weights).ravel())
    counts = counts.reshape(len(ti.weights), len(tj.weights))

    idx_i, idx_j = a_i.indices(), a_j.indices()
    total = 0
    for jj in np.flatnonzero(counts.any(axis=0)):
        block = _parity_block(model, idx_j[jj])
        for ii in np.flatnonzero(counts[:, jj]):
            n = counts[ii, jj]
            mean = _system_signal(model, idx_i[ii], block, sample_tent(rng, size=n))
            odd = int(np.count_nonzero(rng.random(n) >= np.clip(0.5 + 0.5 * mean, 0.0, 1.0)))
            total += ti.signs[ii] * tj.signs[jj] * (n - 2 * odd)
    return float(ti.norm * tj.norm * (total / shots))


def hessian_estimate(
    model: ThermalModel, i: int, j: int, epsilon: float, delta: float, rng
) -> float:
    """Shot estimate of one Hessian element of the dual objective.

    Combines two independent observable estimates with the anticommutator
    estimate as (1/T)(<Q_i><Q_j> - 1/2 <{Phi(Q_i), Q_j}>); the product of
    independent unbiased factors keeps the first term unbiased.
    """
    charges = model.problem.charges
    if not (0 <= i < len(charges) and 0 <= j < len(charges)):
        raise ValueError("charge index out of range")
    a_i, a_j = charges[i], charges[j]
    first = estimate_obs(model, a_i, epsilon, delta, rng) * estimate_obs(
        model, a_j, epsilon, delta, rng
    )
    second = estimate_anticommutator(model, a_i, a_j, epsilon, delta, rng)
    return float((first + second) / model.temperature)
