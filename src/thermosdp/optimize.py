"""Solver backends for the dual chemical-potential maximization.

Three routes to max_mu f(mu) = mu.q - T ln Z_T(mu):

* ``gradient_ascent`` -- exact first-order ascent with the schedule
  T = eps/(4 ln d), eta = 1/L, M = ceil(L r^2 / eps);
* ``sga`` -- projected stochastic gradient ascent driven by shot-based
  charge estimates, with the variance-aware step size and iteration count
  that guarantee convergence in expectation;
* ``natural_gradient_ascent`` -- Newton steps preconditioned by the
  Kubo-Mori metric (the negative Hessian), with backtracking so the
  objective never decreases along accepted steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .operators import combine_pauli_sums
from .thermal import EnergyProblem, ThermalModel, dual_objective


class NumericError(RuntimeError):
    """Objective became non-finite during iteration."""

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration


@dataclass(frozen=True)
class GdSchedule:
    """Exact gradient-ascent schedule constants."""

    temperature: float
    iterations: int
    step_size: float
    smoothness: float
    radius: float
    epsilon: float


@dataclass(frozen=True)
class SgaSchedule:
    """Projected-SGA schedule constants, including inner estimator settings."""

    temperature: float
    variance_bound: float
    step_size: float
    iterations: int
    radius: float
    epsilon: float
    delta: float
    inner_epsilon: float
    inner_delta: float


@dataclass(frozen=True)
class NewtonSchedule:
    """Second-order run settings; iteration count and step are caller-chosen."""

    temperature: float
    iterations: int
    step_size: float
    ridge: Optional[float]
    radius: float
    epsilon: float


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one solver run.

    ``sample_count`` counts thermal-state shots (0 in exact modes);
    ``objective_trace`` holds f at every iterate including the start.
    """

    estimate: float
    mu_final: Tuple[float, ...]
    objective_trace: Tuple[float, ...]
    schedule: object
    sample_count: int
    seed: Optional[int]
    mode: str
    reduction: Optional[str] = None
    notes: Tuple[str, ...] = ()


def norm_bounds(problem: EnergyProblem) -> np.ndarray:
    """Per-charge norm bound: ||a_i||_1 for Pauli sums, ||Q_i|| when dense."""
    if problem.is_pauli:
        return problem.pauli_one_norms()
    return np.array([Q.spectral_norm() for Q in problem.q_dense], dtype=float)


def smoothness(problem: EnergyProblem, temperature: float) -> float:
    """L = (2/T) sum_i nb_i^2 bounding the gradient's Lipschitz constant."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    nb = norm_bounds(problem)
    return float(2.0 / temperature * np.sum(nb ** 2))


def project_ball(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto the origin-centered ball of given radius."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    v = np.asarray(v, dtype=float)
    norm = float(np.linalg.norm(v))
    if norm <= radius:
        return v
    return v * (radius / norm)


def _project_feasible(v: np.ndarray, radius: float, ge_mask: np.ndarray) -> np.ndarray:
    """Projection onto {||mu|| <= r} intersected with {mu_i >= 0 : i in ge}.

    Clamping the non-negativity coordinates first and then rescaling into
    the ball is the exact Euclidean projection onto the intersection.
    """
    if ge_mask.any():
        v = np.where(ge_mask, np.maximum(v, 0.0), v)
    return project_ball(v, radius)


def schedule_gd(problem: EnergyProblem, epsilon: float, radius: float) -> GdSchedule:
    """Schedule for exact gradient ascent at target accuracy epsilon."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if radius <= 0:
        raise ValueError("radius must be positive")
    if problem.d < 2:
        raise ValueError(f"dimension must be >= 2 for ln d > 0, got {problem.d}")
    temperature = epsilon / (4.0 * math.log(problem.d))
    L = smoothness(problem, temperature)
    if L == 0.0:
        return GdSchedule(temperature, 0, 0.0, 0.0, radius, epsilon)
    iterations = int(math.ceil(L * radius * radius / epsilon))
    return GdSchedule(temperature, iterations, 1.0 / L, L, radius, epsilon)


def _finite_or_raise(value: float, iteration):
    if not math.isfinite(value):
        raise NumericError(
            f"non-finite objective at iteration {iteration}", iteration=iteration
        )


def _iterate(step, model: ThermalModel, iterations: int, trace: list, notes: list):
    """Run ``model = step(m, model)`` for m = 1..iterations; returns the last model.

    ``step`` appends f at its new iterate to ``trace`` and any notes to
    ``notes`` as ``(m, text)`` pairs, and what it does depends on
    ``model.mu`` alone.  An iterate whose bytes equal those of an iterate
    ``p`` steps back therefore starts a cycle of period ``p``: the whole
    laps left are replayed from the last ``p`` trace entries and notes
    instead of recomputed, and the remaining ``(iterations - m) % p`` steps
    run normally, so the result is exactly that of the full loop.  Repeats
    are found by comparing each iterate with the previous one and with an
    anchor saved at power-of-two iteration indices (Brent), which keeps
    memory O(1) in ``iterations``.
    """
    m = anchor_at = 0
    anchor = previous = model.mu.tobytes()
    while m < iterations:
        m += 1
        model = step(m, model)
        key = model.mu.tobytes()
        period = 1 if key == previous else m - anchor_at if key == anchor else 0
        laps = (iterations - m) // period if period else 0
        if laps:
            trace.extend(trace[-period:] * laps)
            window = [(i, text) for i, text in notes if i > m - period]
            notes.extend(
                (i + lap * period, text) for lap in range(1, laps + 1) for i, text in window
            )
            m += laps * period
        if m & (m - 1) == 0:
            anchor, anchor_at = key, m
        previous = key
    return model


def gradient_ascent(
    problem: EnergyProblem,
    epsilon: float,
    radius: float,
    schedule: Optional[GdSchedule] = None,
) -> SolveReport:
    """Exact first-order ascent from mu = 0; returns the energy estimate
    mu.q + <H - mu.Q> at the last iterate.

    With r >= ||mu*||, the result is within epsilon of the true minimum
    energy (temperature, step count, and final-readout errors combined).
    Each iterate is a function of the one before, so once an iterate
    repeats bit for bit the rest of the schedule is replayed, not
    recomputed; the report is exactly that of running every iteration.
    """
    sched = schedule or schedule_gd(problem, epsilon, radius)
    ge_mask = problem.ge_mask()
    model = ThermalModel(problem, np.zeros(problem.c), sched.temperature)
    trace = [model.dual_objective()]
    _finite_or_raise(trace[0], 0)

    def step(m, model):
        mu = model.mu + sched.step_size * model.gradient()
        if ge_mask.any():
            mu = np.where(ge_mask, np.maximum(mu, 0.0), mu)
        model = ThermalModel(problem, mu, sched.temperature)
        f = model.dual_objective()
        _finite_or_raise(f, m)
        trace.append(f)
        return model

    model = _iterate(step, model, sched.iterations, trace, [])
    estimate = float(model.mu @ problem.q + _energy_readout(model))
    return SolveReport(
        estimate=estimate,
        mu_final=tuple(model.mu),
        objective_trace=tuple(trace),
        schedule=sched,
        sample_count=0,
        seed=None,
        mode="exact",
    )


def _energy_readout(model: ThermalModel) -> float:
    """<H - mu.Q> = <G> at the model's thermal state, read off the
    eigenbasis of G as sum_k p_k lam_k."""
    return float(model.probs @ model.eigenvalues)


def schedule_sga(
    problem: EnergyProblem, epsilon: float, delta: float, radius: float
) -> SgaSchedule:
    """SGA schedule with variance bound sigma^2 = c eps^2 + delta sum ||a_i||_1^2."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    if radius <= 0:
        raise ValueError("radius must be positive")
    if not problem.is_pauli:
        raise ValueError("SGA requires Pauli-sum observables (one-norms needed)")
    if problem.d < 2:
        raise ValueError("dimension must be >= 2")
    norms_sq = float(np.sum(problem.pauli_one_norms() ** 2))
    log_d = math.log(problem.d)
    temperature = epsilon / (4.0 * log_d)
    sigma_sq = problem.c * epsilon ** 2 + delta * norms_sq
    iterations = int(
        math.ceil(16.0 * radius ** 2 / epsilon ** 2 * (2.0 * sigma_sq + 8.0 * log_d * norms_sq))
    )
    denom = 8.0 * log_d / epsilon * norms_sq + math.sqrt(sigma_sq) / radius * math.sqrt(
        iterations / 2.0
    )
    step = 1.0 / denom if denom > 0 else 0.0
    return SgaSchedule(
        temperature=temperature,
        variance_bound=sigma_sq,
        step_size=step,
        iterations=iterations,
        radius=radius,
        epsilon=epsilon,
        delta=delta,
        inner_epsilon=epsilon,
        inner_delta=delta,
    )


def sga(
    problem: EnergyProblem,
    epsilon: float,
    delta: float,
    radius: float,
    rng=None,
    seed: Optional[int] = None,
    schedule: Optional[SgaSchedule] = None,
) -> SolveReport:
    """Projected stochastic gradient ascent (shot-based gradient estimates).

    Each component of the stochastic gradient comes from an unbiased
    shot estimator of <Q_i>; iterates are projected onto the radius-r ball.
    The returned estimate is mu_bar.q + (shot estimate of <H - mu_bar.Q>)
    at the averaged iterate mu_bar, using the signed merged coefficients
    g_j = h_j - sum_i mu_bar_i a_{i,j} and accuracy epsilon/4.
    """
    from .sampling import _term_table, estimate_obs, obs_shots

    sched = schedule or schedule_sga(problem, epsilon, delta, radius)
    if rng is None:
        rng = np.random.default_rng(seed)
    ge_mask = problem.ge_mask()
    charges, q, temperature = problem.charges, problem.q, sched.temperature
    inner = (sched.inner_epsilon, sched.inner_delta)
    mu = np.zeros(problem.c)
    mu_sum = np.zeros(problem.c)
    # every iteration spends the same Hoeffding shot budget on each charge
    shots_per_iteration = sum(obs_shots(_term_table(Q).norm, *inner) for Q in charges)
    sample_count = sched.iterations * shots_per_iteration
    model = ThermalModel(problem, mu, temperature)
    trace = [model.dual_objective()]
    _finite_or_raise(trace[0], 0)
    for m in range(1, sched.iterations + 1):
        est = np.array([estimate_obs(model, Q, *inner, rng) for Q in charges])
        mu = _project_feasible(mu + sched.step_size * (q - est), sched.radius, ge_mask)
        mu_sum += mu
        model = ThermalModel(problem, mu, temperature)
        f = model.dual_objective()
        _finite_or_raise(f, m)
        trace.append(f)
    mu_bar = mu_sum / sched.iterations if sched.iterations else mu
    final_model = ThermalModel(problem, mu_bar, temperature)
    merged = combine_pauli_sums(
        [(1.0, problem.hamiltonian)]
        + [(-float(mu_bar[i]), charges[i]) for i in range(problem.c)],
        problem.hamiltonian.n,
    )
    tail = estimate_obs(final_model, merged, epsilon / 4.0, delta, rng)
    sample_count += obs_shots(_term_table(merged).norm, epsilon / 4.0, delta)
    estimate = float(mu_bar @ problem.q + tail)
    return SolveReport(
        estimate=estimate,
        mu_final=tuple(mu_bar),
        objective_trace=tuple(trace),
        schedule=sched,
        sample_count=sample_count,
        seed=seed,
        mode="sga",
    )


def replicate_sga(
    problem: EnergyProblem,
    epsilon: float,
    delta: float,
    radius: float,
    seed: int,
    replicates: int,
) -> list:
    """Independent SGA replicates, run one after another.

    Replicate k consumes the stream seeded by SeedSequence(seed, k), so its
    report does not depend on how many replicates run.
    """
    return [
        sga(
            problem, epsilon, delta, radius,
            rng=np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k,))),
            seed=seed,
        )
        for k in range(replicates)
    ]


def natural_gradient_ascent(
    problem: EnergyProblem,
    epsilon: float,
    radius: float,
    step_size: float = 1.0,
    iterations: int = 50,
    ridge: Optional[float] = None,
    temperature: Optional[float] = None,
) -> SolveReport:
    """Kubo-Mori natural-gradient (Newton) ascent.

    Each step solves (I_KM(mu) + ridge I) delta = grad f(mu) and moves along
    +delta (the ascent direction, since the Hessian equals -I_KM), projecting
    back onto the radius ball.  Backtracking halves the step while the
    objective would decrease (at most 30 halvings); a singular metric beyond
    the ridge falls back to a plain gradient step, recorded in the report.
    Near the optimum the iterates reach a fixed point or a short cycle in
    floating point; from the first bitwise repeat on, the remaining
    iterations are replayed (trace values and renumbered notes), not
    recomputed, so the report is exactly that of running them all.
    """
    if epsilon <= 0 or radius <= 0:
        raise ValueError("epsilon and radius must be positive")
    if iterations < 0:
        raise ValueError("iterations must be non-negative")
    if ridge is not None and ridge < 0:
        raise ValueError("ridge must be non-negative")
    if temperature is None:
        if problem.d < 2:
            raise ValueError("dimension must be >= 2")
        temperature = epsilon / (4.0 * math.log(problem.d))
    ge_mask = problem.ge_mask()
    mu = np.zeros(problem.c)
    model = ThermalModel(problem, mu, temperature)
    # the trace and every acceptance test use the eigenvalue-only objective,
    # so accepted values compare exactly and the trace never decreases
    trace = [dual_objective(problem, mu, temperature)]
    _finite_or_raise(trace[0], 0)
    notes = []

    def step(m, model):
        mu = model.mu
        grad = model.gradient()
        km = model.kubo_mori()
        ridge_val = ridge if ridge is not None else 1e-8 * np.trace(km) / max(problem.c, 1)
        delta = None
        try:
            delta = np.linalg.solve(km + ridge_val * np.eye(problem.c), grad)
            if not np.all(np.isfinite(delta)):
                delta = None
            # a numerically singular metric yields astronomically long steps;
            # their direction is garbage, so treat them as singular too
            elif np.linalg.norm(delta) > 1e6 * max(
                radius, float(np.linalg.norm(grad)), 1.0
            ):
                delta = None
        except np.linalg.LinAlgError:
            delta = None
        if delta is None:
            delta = grad
            notes.append((m, "singular metric, gradient fallback"))
        # f at the current iterate, so the step depends on mu alone
        f_curr = trace[-1]
        eta = step_size
        for _ in range(31):
            cand = _project_feasible(mu + eta * delta, radius, ge_mask)
            f_cand = dual_objective(problem, cand, temperature)
            if np.isfinite(f_cand) and f_cand >= f_curr:
                trace.append(f_cand)
                return ThermalModel(problem, cand, temperature)
            eta /= 2.0
        notes.append((m, "backtracking exhausted, step skipped"))
        trace.append(f_curr)
        return model

    model = _iterate(step, model, iterations, trace, notes)
    estimate = float(model.mu @ problem.q + _energy_readout(model))
    return SolveReport(
        estimate=estimate,
        mu_final=tuple(model.mu),
        objective_trace=tuple(trace),
        schedule=NewtonSchedule(temperature, iterations, step_size, ridge, radius, epsilon),
        sample_count=0,
        seed=None,
        mode="newton",
        notes=tuple(f"iteration {m}: {text}" for m, text in notes),
    )
