"""Classical simulation of the shot-based quantum estimators.

Covers three subroutines: Hoeffding-budgeted observable estimation on
thermal states, sampling of Hamiltonian-evolution times from the
high-peak-tent density

    p(t) = (2/pi) ln|coth(pi t / 2)|,

and the interferometric (Hadamard-test) estimator of the anticommutator
term in the dual objective's Hessian.  Every measurement draw comes from
the exact outcome distribution of the corresponding circuit, so the
simulated estimators have precisely the statistics the shot-complexity
analysis assumes.  The Hadamard-test path works in the eigenbasis of G and
reads each Pauli string through its action (a permutation and a phase),
so its signal needs O(shots * d) memory.

Preparation noise is not modeled: an imperfect thermal source would bias
the measurement laws and enters the convergence analysis as an additive
term on the gradient-variance bound.  Simulation here always measures
the exact thermal state.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .operators import PauliSum, _pauli_action, one_norm
from .thermal import ThermalModel, _positive_finite

TENT_T_MAX = 12.0
TENT_KNOTS = 4096


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
    """The table of one Pauli sum; SGA builds each charge's once per solve."""
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
    return _TermTable(norm, weights, np.sign(a), flat, phases)


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
    """High-peak-tent density p(t) = (2/pi) ln|coth(pi t / 2)|, p(0) = inf."""
    t = np.abs(np.asarray(t, dtype=float))
    with np.errstate(divide="ignore", over="ignore"):
        arg = np.tanh(math.pi * t / 2.0)
        out = np.where(arg > 0, -np.log(np.where(arg > 0, arg, 1.0)), np.inf)
    return (2.0 / math.pi) * out


@functools.cache
def _tent_table():
    """(grid, cdf, head_mass) of the half-density 2 p(t), built on the first
    draw: trapezoid sums on log-spaced knots over [t0, t_max], t0 = 1e-9.
    As 2 p(t) = (4/pi)(-ln(pi t / 2)) + O(t^2) near 0, the head mass is
    (4/pi) t0 (1 - ln(pi t0 / 2)) up to O(t0^3).  The tail beyond
    t_max = 12 has mass (8/pi^2) e^{-pi t_max} = 3.5e-17, below half an ulp
    of the total, so normalizing by cdf[-1] drops it and cdf ends at 1."""
    t0 = 1e-9
    grid = np.geomspace(t0, TENT_T_MAX, TENT_KNOTS)
    vals = 2.0 * tent_density(grid)
    head_mass = (4.0 / math.pi) * t0 * (1.0 - math.log(math.pi * t0 / 2.0))
    seg = np.cumsum(np.diff(grid) * (vals[1:] + vals[:-1]) / 2.0)
    cdf = head_mass + np.concatenate([[0.0], seg])
    total = cdf[-1]
    cdf /= total
    for arr in (grid, cdf):
        arr.setflags(write=False)
    return grid, cdf, head_mass / total


def sample_tent(rng, size):
    """Draw ``size`` evolution times from the high-peak-tent density: |t| by
    inverse CDF on :func:`_tent_table` (uniform in the head), the sign by a
    fair coin."""
    grid, cdf, head_mass = _tent_table()
    u = rng.random(size)
    head = u < head_mass
    t = np.interp(u, cdf, grid)
    t[head] = grid[0] * u[head] / head_mass
    signs = np.where(rng.random(size) < 0.5, -1.0, 1.0)
    return signs * t


def _rotated_pauli(model: ThermalModel, index: str) -> np.ndarray:
    """V^dag sigma V for one Pauli string, in the eigenbasis V of G.

    sigma V is V's rows permuted and phased by the string's action
    (sigma is an involution, so row r of sigma V is phase[perm[r]] times
    row perm[r] of V), so no dense sigma is built.
    """
    perm, phase = _pauli_action(index)
    V = model.eigenvectors
    return V.conj().T @ (phase[perm][:, None] * V[perm])


def _control_blocks(model: ThermalModel, k_index: str):
    """Per-control-outcome ingredients of the interferometric circuit.

    Returns ([B0~, B1~], [trB0, trB1]) with B_lam = Pi_lam rho Pi_lam
    rotated into the eigenbasis of the effective Hamiltonian, where
    Pi_lam = (I - (-1)^lam sigma_k)/2 is the branch operator selected by
    the control measurement.  In that basis rho is diag(p), so with
    s = V^dag sigma_k V the blocks are (diag(p) -+ (s p + p s) + s p s) / 4
    and, as s^2 = I, their traces are (1 -+ sum_m p_m s_mm) / 2.
    """
    s = _rotated_pauli(model, k_index)
    p = model.probs
    sp = s * p
    cross = sp + sp.conj().T
    even = np.diag(p) + sp @ s
    blocks = [(even - cross) / 4.0, (even + cross) / 4.0]
    mean = float(p @ s.diagonal().real)
    return blocks, np.clip(np.array([1.0 - mean, 1.0 + mean]) / 2.0, 0.0, 1.0)


def _system_signal(model: ThermalModel, l_index: str, blocks, ts: np.ndarray) -> np.ndarray:
    """Re Tr[sigma_l U_t B U_t^dag] for each block B (rows) and time t (columns).

    In the eigenbasis of G, with sig = V^dag sigma_l V and
    a = exp(-i t lam / T), the trace is Re a^H (B * sig^T) a, so a batch of
    times needs one shots x d exponential: O(shots * d) memory.
    """
    sig_t = _rotated_pauli(model, l_index).T
    a = np.exp(np.outer(ts, model.eigenvalues) * (-1j / model.temperature))
    return np.array([((a.conj() @ (B * sig_t)) * a).sum(axis=1).real for B in blocks])


def hadamard_test_distribution(
    model: ThermalModel, k_index: str, l_index: str, t: float
) -> np.ndarray:
    """Exact joint outcome law probs[lambda, gamma] of the Hessian circuit.

    Control prepared in |1>, Hadamard, controlled-sigma_k on the thermal
    state, evolution exp(i G t / T), Hadamard, control measured in Z
    (outcome lambda) and system measured in the sigma_l eigenbasis
    (outcome gamma).  The signed expectation satisfies

        sum (-1)^{lambda+gamma} probs = -1/2 Tr[{U_t^dag sigma_l U_t, sigma_k} rho].

    Computed in G's eigenbasis from the strings' actions.
    """
    blocks, tr = _control_blocks(model, k_index)
    s = _system_signal(model, l_index, blocks, np.array([t]))
    return np.clip(tr[:, None] / 2.0 + s * _HALF_PLUS_MINUS, 0.0, 1.0)


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
    shots' times and outcomes as one batch in G's eigenbasis, at
    O(shots * d) memory for the signal.
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
        blocks, tr = _control_blocks(model, idx_j[jj])
        for ii in np.flatnonzero(counts[:, jj]):
            n = counts[ii, jj]
            ts = sample_tent(rng, size=n)
            u_lam = rng.random(n)
            u_gam = rng.random(n)
            s = _system_signal(model, idx_i[ii], blocks, ts)
            lam_out = (u_lam < tr[1]).astype(np.intp)  # P(lam=1) = tr[B_1]
            tr_sel = tr[lam_out]
            # P(gamma=0 | lam) = (1 + s_lam / tr_lam) / 2, or 1/2 on an empty branch
            ratio = np.divide(
                s[lam_out, np.arange(n)], tr_sel, out=np.zeros(n), where=tr_sel > 0
            )
            p_plus = np.clip(0.5 + 0.5 * ratio, 0.0, 1.0)
            gam_out = (u_gam >= p_plus).astype(np.intp)
            odd = int(np.count_nonzero(lam_out ^ gam_out))
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
