"""Classical simulation of the shot-based quantum estimators.

Covers three subroutines: Hoeffding-budgeted observable estimation on
thermal states, sampling of Hamiltonian-evolution times from the
high-peak-tent density

    p(t) = (2/pi) ln|coth(pi t / 2)|,

and the interferometric (Hadamard-test) estimator of the anticommutator
term in the dual objective's Hessian.  Every measurement draw comes from
the exact outcome distribution of the corresponding circuit, so the
simulated estimators have precisely the statistics the shot-complexity
analysis assumes.

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
from scipy.integrate import quad

from .operators import PauliSum, one_norm, pauli_matrix
from .thermal import ThermalModel

TENT_T_MAX = 12.0
TENT_KNOTS = 4096
TENT_TAIL_RATE = math.pi


def hoeffding_count(width: float, epsilon: float, delta: float) -> int:
    """Minimal shot count n >= width^2 ln(2/delta) / (2 eps^2), at least 1."""
    if width <= 0:
        raise ValueError("width must be positive")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    n = width * width * math.log(2.0 / delta) / (2.0 * epsilon * epsilon)
    return max(1, int(math.ceil(n)))


def obs_shots(norm: float, epsilon: float, delta: float) -> int:
    """Shots :func:`estimate_obs` draws for a Pauli sum of one-norm ``norm``:
    the Hoeffding count for outcomes in [-norm, norm], or 0 for the empty
    sum (the only one with norm 0)."""
    return hoeffding_count(2.0 * norm, epsilon, delta) if norm else 0


def _draw_terms(coeffs: PauliSum, shots: int, rng):
    """Per-shot term indices drawn with probability |a_j| / ||a||_1, and the
    signs of the drawn coefficients.  A single term needs no draw."""
    a = coeffs.coefficients()
    if len(a) == 1:
        picks = np.zeros(shots, dtype=np.intp)
    else:
        w = np.abs(a)
        picks = rng.choice(len(w), size=shots, p=w / w.sum())
    return picks, np.sign(a)[picks]


def _pauli_action(index: str):
    """(perm, phase) with sigma|m> = phase[m] |perm[m]> for one Pauli string.

    X and Y flip their qubit's bit; Y contributes i (-1)^b and Z (-1)^b.
    The first letter is the most significant bit, as in :func:`pauli_matrix`.
    """
    flip = 0
    sign = np.ones(1)
    for ch in index:
        flip = 2 * flip + (ch in "XY")
        sign = np.kron(sign, (1.0, -1.0) if ch in "YZ" else (1.0, 1.0))
    perm = np.arange(len(sign)) ^ flip
    return perm, (1, 1j, -1, -1j)[index.count("Y") % 4] * sign


@dataclass(frozen=True, eq=False)
class _TermTable:
    """What :func:`estimate_obs` needs of one Pauli sum, in O(terms * d).

    ``norm`` is ||a||_1, ``weights`` and ``signs`` are |a_j| / ||a||_1 and
    sign(a_j).  Each string's action gives Tr[sigma_j rho] =
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


@functools.lru_cache(maxsize=256)
def _term_table(coeffs: PauliSum) -> _TermTable:
    """The table of one Pauli sum, built once: PauliSum is frozen and
    hashable, and SGA reads the same charges at every iteration."""
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

    is unbiased, epsilon-accurate with probability >= 1 - delta.  Returns 0
    immediately for an empty sum.
    """
    table = _term_table(coeffs)
    shots = obs_shots(table.norm, epsilon, delta)
    if not shots:
        return 0.0
    counts = _draw_counts(table.weights, table.traces(model.rho), shots, rng)
    return table.norm * float(table.signs @ (counts[:, 0] - counts[:, 1])) / shots


def tent_density(t) -> np.ndarray:
    """High-peak-tent density p(t) = (2/pi) ln|coth(pi t / 2)|, p(0) = inf."""
    t = np.abs(np.asarray(t, dtype=float))
    with np.errstate(divide="ignore", over="ignore"):
        arg = np.tanh(math.pi * t / 2.0)
        out = np.where(arg > 0, -np.log(np.where(arg > 0, arg, 1.0)), np.inf)
    return (2.0 / math.pi) * out


class TentSampler:
    """Inverse-CDF sampler for the high-peak-tent density.

    The positive half-density 2 p(t) is tabulated on log-spaced knots over
    (0, t_max]; draws below the first knot use the integrable log-singular
    head, draws beyond t_max use the exact exponential tail rate pi
    (p(t) ~ (4/pi) e^{-pi t}, total tail mass < 1e-12 at t_max = 12).
    Signs are symmetric coin flips.
    """

    def __init__(self, t_max: float = TENT_T_MAX, knots: int = TENT_KNOTS):
        self.t_max = float(t_max)
        half = lambda t: 2.0 * tent_density(t)
        t_lo = 1e-9
        grid = np.geomspace(t_lo, self.t_max, knots)
        head_mass, _ = quad(half, 0.0, t_lo, limit=200)
        vals = half(grid)
        seg = np.concatenate(
            [[0.0], np.cumsum(np.diff(grid) * (vals[1:] + vals[:-1]) / 2.0)]
        )
        cdf = head_mass + seg
        tail_mass = (8.0 / math.pi ** 2) * math.exp(-math.pi * self.t_max)
        total = cdf[-1] + tail_mass
        self._grid = grid
        self._cdf = cdf / total
        self._head_mass = head_mass / total
        self._tail_start = cdf[-1] / total
        self._total = total

    def sample(self, rng, size=None):
        scalar = size is None
        n = 1 if scalar else int(size)
        u = rng.random(n)
        t = np.empty(n)
        head = u < self._head_mass
        body = (~head) & (u <= self._tail_start)
        tail = u > self._tail_start
        if head.any():
            t[head] = self._grid[0] * u[head] / self._head_mass
        if body.any():
            t[body] = np.interp(u[body], self._cdf, self._grid)
        if tail.any():
            # residual mass decays as e^{-pi t} beyond the table
            v = rng.random(int(tail.sum()))
            t[tail] = self.t_max - np.log1p(-v) / TENT_TAIL_RATE
        signs = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        out = signs * t
        return float(out[0]) if scalar else out


_SHARED_TENT = None


def _tent() -> TentSampler:
    global _SHARED_TENT
    if _SHARED_TENT is None:
        _SHARED_TENT = TentSampler()
    return _SHARED_TENT


def sample_tent(rng, size=None):
    """Draw evolution times from the high-peak-tent density."""
    return _tent().sample(rng, size=size)


def _control_blocks(model: ThermalModel, k_index: str):
    """Per-control-outcome ingredients of the interferometric circuit.

    Returns ([B0~, B1~], [trB0, trB1]) with B_lam = Pi_lam rho Pi_lam
    rotated into the eigenbasis of the effective Hamiltonian, where
    Pi_lam = (I - (-1)^lam sigma_k)/2 is the branch operator selected by
    the control measurement.
    """
    dim = model.problem.d
    sigma_k = pauli_matrix(k_index)
    rho = model.rho
    V = model.eigenvectors
    blocks = []
    traces = []
    for lam in (0, 1):
        proj = (np.eye(dim) - (-1) ** lam * sigma_k) / 2.0
        B = proj @ rho @ proj
        traces.append(float(np.trace(B).real))
        blocks.append(V.conj().T @ B @ V)
    return blocks, np.clip(np.array(traces), 0.0, 1.0)


def _system_signal(model: ThermalModel, l_index: str, block: np.ndarray, ts: np.ndarray):
    """Re Tr[sigma_l U_t B U_t^dag] for a batch of times, in the eigenbasis."""
    V = model.eigenvectors
    sig = V.conj().T @ pauli_matrix(l_index) @ V
    lam = model.eigenvalues
    omega = (lam[:, None] - lam[None, :]) / model.temperature
    w = (sig.T * block).ravel()
    phases = np.exp(1j * np.outer(ts, omega.ravel()))
    return (phases @ w).real


def hadamard_test_distribution(
    model: ThermalModel, k_index: str, l_index: str, t: float
) -> np.ndarray:
    """Exact joint outcome law probs[lambda, gamma] of the Hessian circuit.

    Control prepared in |1>, Hadamard, controlled-sigma_k on the thermal
    state, evolution exp(i G t / T), Hadamard, control measured in Z
    (outcome lambda) and system measured in the sigma_l eigenbasis
    (outcome gamma).  The signed expectation satisfies

        sum (-1)^{lambda+gamma} probs = -1/2 Tr[{U_t^dag sigma_l U_t, sigma_k} rho].
    """
    blocks, tr = _control_blocks(model, k_index)
    probs = np.empty((2, 2))
    for lam in (0, 1):
        s = float(_system_signal(model, l_index, blocks[lam], np.array([t]))[0])
        probs[lam, 0] = (tr[lam] + s) / 2.0
        probs[lam, 1] = (tr[lam] - s) / 2.0
    probs = np.clip(probs, 0.0, 1.0)
    return probs


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
    """
    ni, nj = one_norm(a_i), one_norm(a_j)
    if ni == 0.0 or nj == 0.0:
        raise ValueError("both Pauli sums must have positive one-norm")
    shots = hoeffding_count(2.0 * ni * nj, epsilon, delta)

    picks_i, signs_i = _draw_terms(a_i, shots, rng)
    picks_j, signs_j = _draw_terms(a_j, shots, rng)
    ts = sample_tent(rng, size=shots)
    u_lam = rng.random(shots)
    u_gam = rng.random(shots)

    y = np.empty(shots)
    idx_i = a_i.indices()
    idx_j = a_j.indices()
    for ii in np.unique(picks_i):
        for jj in np.unique(picks_j):
            sel = (picks_i == ii) & (picks_j == jj)
            if not sel.any():
                continue
            blocks, tr = _control_blocks(model, idx_j[jj])
            lam_out = (u_lam[sel] < tr[1]).astype(int)  # P(lam=1) = tr[B_1]
            s0 = _system_signal(model, idx_i[ii], blocks[0], ts[sel])
            s1 = _system_signal(model, idx_i[ii], blocks[1], ts[sel])
            s = np.where(lam_out == 1, s1, s0)
            tr_sel = tr[lam_out]
            with np.errstate(invalid="ignore", divide="ignore"):
                p_plus = np.where(tr_sel > 0, (1.0 + s / np.where(tr_sel > 0, tr_sel, 1.0)) / 2.0, 0.5)
            p_plus = np.clip(p_plus, 0.0, 1.0)
            gam_out = (u_gam[sel] >= p_plus).astype(int)
            y[sel] = np.where((lam_out + gam_out) % 2 == 0, 1.0, -1.0)
    return float(ni * nj * np.mean(signs_i * signs_j * y))


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
