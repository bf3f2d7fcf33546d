"""Solver backends for the dual chemical-potential maximization.

Three routes to max_mu f(mu) = mu.q - T ln Z_T(mu):

* ``gradient_ascent`` -- exact first-order ascent with the schedule
  T = eps/(4 ln d), eta = 1/L, M = ceil(L r^2 / eps);
* ``sga`` -- projected stochastic gradient ascent driven by shot-based
  charge estimates, with the variance-aware step size and iteration count
  that guarantee convergence in expectation;
* ``natural_gradient_ascent`` -- Newton steps preconditioned by the
  Kubo-Mori metric (the negative Hessian), halved so the objective never
  decreases, and none once the Newton decrement is at f's rounding floor.
  A trial step is scored by building its thermal model, the one an
  accepted step keeps, and only when an O(c d) upper bound on f there
  (Peierls' inequality in the current eigenbasis) leaves room for it to be
  accepted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from .operators import combine_pauli_sums
from .sampling import _estimate, _term_table, obs_shots
from .thermal import EnergyProblem, ThermalModel, _positive_finite


class NumericError(RuntimeError):
    """Objective became non-finite during iteration."""

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration


# the mode names every front end accepts, one per backend
MODES = ("exact", "sga", "newton")

# Newton stops once its decrement is within this many ulps of |f|
_FLOOR_ULPS = 16


def _solve(problem: EnergyProblem, mode: str, epsilon: float, delta: float, radius: float,
           seed: Optional[int] = None, **fields) -> SolveReport:
    """One solve by the backend of ``mode``, the one map from a mode to its loop;
    ``fields`` replace schedule fields (natural_gradient_ascent's keywords)."""
    if mode == "exact":
        sched = replace(schedule_gd(problem, epsilon, radius), **fields)
        return gradient_ascent(problem, epsilon, radius, schedule=sched)
    if mode == "newton":
        return natural_gradient_ascent(problem, epsilon, radius, **fields)
    if mode == "sga":
        sched = replace(schedule_sga(problem, epsilon, delta, radius), **fields)
        return sga(problem, epsilon, delta, radius, seed=seed, schedule=sched)
    raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def _check_schedule_fields(fields: dict):
    """Check the schedule constants present in ``fields``, in the order below;
    a ValueError names the first bad field."""
    for name in ("epsilon", "radius", "temperature"):
        if name in fields:
            _positive_finite(name, fields[name])
    M = fields.get("iterations")
    if "iterations" in fields and (not isinstance(M, (int, np.integer)) or M < 0):
        raise ValueError(f"iterations must be a non-negative integer, got {M!r}")
    # the L == 0 and c == 0 schedules take no step, of size 0
    step = fields.get("step_size", 1.0)
    if not math.isfinite(step) or M != 0 and not step > 0:
        raise ValueError(f"step_size must be finite, and positive unless iterations is 0, "
                         f"got {step}")
    ridge = fields.get("ridge")
    if ridge is not None and not 0 <= ridge < math.inf:
        raise ValueError(f"ridge must be None or finite and non-negative, got {ridge}")
    for name in ("delta", "inner_delta"):
        if name in fields and not 0 < fields[name] < 1:
            raise ValueError(f"{name} must lie in (0, 1), got {fields[name]}")


class _Schedule:
    """Base of the schedules: every construction, ``dataclasses.replace``
    included, checks them, so a solver never checks its schedule again."""

    def __post_init__(self):
        _check_schedule_fields(vars(self))


@dataclass(frozen=True)
class GdSchedule(_Schedule):
    """Exact gradient-ascent schedule constants."""

    temperature: float
    iterations: int
    step_size: float
    smoothness: float
    radius: float
    epsilon: float


@dataclass(frozen=True)
class SgaSchedule(_Schedule):
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
class NewtonSchedule(_Schedule):
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
    ``dual_objective_final`` and ``constraint_residuals`` are f and
    q - <Q> read off the thermal model at ``mu_final``, the one the
    estimate comes from.
    """

    estimate: float
    mu_final: Tuple[float, ...]
    objective_trace: Tuple[float, ...]
    schedule: object
    sample_count: int
    mode: str
    dual_objective_final: float
    constraint_residuals: Tuple[float, ...]
    reduction: Optional[str] = None
    notes: Tuple[str, ...] = ()


def norm_bounds(problem: EnergyProblem) -> np.ndarray:
    """Per-charge norm bound: ||a_i||_1 for Pauli sums, else ||Q_i||: max |Q_ii|
    on a diagonal problem, else the larger |end| of ``eigh``'s spectrum
    (``eigvalsh``'s ends can differ in the last bits, which would move L)."""
    if problem.is_pauli:
        return problem.pauli_one_norms()
    if problem._diagonals is not None:
        return np.array([np.abs(q).max() for q in problem._diagonals[1:]], dtype=float)
    ends = (np.linalg.eigh(Q.entries)[0][[0, -1]] for Q in problem.q_dense)
    return np.array([np.abs(lam).max() for lam in ends], dtype=float)


def smoothness(problem: EnergyProblem, temperature: float) -> float:
    """L = (2/T) sum_i nb_i^2 bounding the gradient's Lipschitz constant."""
    _positive_finite("temperature", temperature)
    nb = norm_bounds(problem)
    return float(2.0 / temperature * np.sum(nb ** 2))


def _project_feasible(v: np.ndarray, radius: float, ge_mask) -> np.ndarray:
    """Projection onto {||mu|| <= r} intersected with {mu_i >= 0 : i in ge}.

    Clamping the non-negativity coordinates first and then rescaling into
    the ball is the exact Euclidean projection onto the intersection.
    ``ge_mask`` is None when no row is "ge"; the norm is sqrt(v.v), as
    ``np.linalg.norm`` computes it.  The schedules validate ``radius``.
    """
    if ge_mask is not None:
        v = np.where(ge_mask, np.maximum(v, 0.0), v)
    norm = math.sqrt(v.dot(v))
    return v if norm <= radius else v * (radius / norm)


def _paper_temperature(problem: EnergyProblem, epsilon: float) -> float:
    """The paper's T = eps / (4 ln d), which needs d >= 2."""
    if problem.d < 2:
        raise ValueError(f"dimension must be >= 2 for ln d > 0, got {problem.d}")
    return epsilon / (4.0 * math.log(problem.d))


def schedule_gd(problem: EnergyProblem, epsilon: float, radius: float) -> GdSchedule:
    """Schedule for exact gradient ascent at target accuracy epsilon."""
    _positive_finite("epsilon", epsilon)
    _positive_finite("radius", radius)
    temperature = _paper_temperature(problem, epsilon)
    L = smoothness(problem, temperature)
    if L == 0.0:
        return GdSchedule(temperature, 0, 0.0, 0.0, radius, epsilon)
    iterations = int(math.ceil(L * radius * radius / epsilon))
    return GdSchedule(temperature, iterations, 1.0 / L, L, radius, epsilon)


def _report(model: ThermalModel, trace: list, schedule, mode: str, readout=None,
            sample_count: int = 0, notes=()) -> SolveReport:
    """The report of a run ending at ``model``: estimate mu.q + <H - mu.Q>, the
    latter ``readout`` (sga's shot estimate) or else exact, sum_k p_k lam_k."""
    if readout is None:
        readout = float(model.probs @ model.eigenvalues)
    return SolveReport(
        estimate=float(model.mu @ model.problem.q + readout),
        mu_final=tuple(model.mu),
        objective_trace=tuple(trace),
        schedule=schedule,
        sample_count=sample_count,
        mode=mode,
        dual_objective_final=model.dual_objective(),
        constraint_residuals=tuple(model.gradient()),
        notes=tuple(notes),
    )


def _iterate(step, model: ThermalModel, f: float, iterations: int, notes: list,
             replay: bool = True):
    """Run ``model, f = step(m, model, f)`` for m = 1..iterations from ``model``
    and its objective ``f``; returns the last model and the trace of f at
    every iterate, the start included.  A non-finite f at iterate m raises
    :class:`NumericError` naming m.

    ``step`` appends any notes to ``notes`` as ``(m, text)`` pairs.  With
    ``replay`` (off for a step that draws from an rng stream), what ``step``
    does must depend on ``model.mu`` alone.  An iterate whose bytes equal
    those of an iterate ``p`` steps back then starts a cycle of period
    ``p``: the whole laps left are replayed from the last ``p`` trace
    entries and notes instead of recomputed, and the remaining
    ``(iterations - m) % p`` steps run normally, so the result is exactly
    that of the full loop.  Repeats are found by comparing each iterate
    with the previous one and with an anchor saved at power-of-two
    iteration indices (Brent), which keeps memory O(1) in ``iterations``.
    """
    trace = []
    m = anchor_at = 0
    anchor = previous = None
    while True:
        if not math.isfinite(f):
            raise NumericError(f"non-finite objective at iteration {m}", iteration=m)
        trace.append(f)
        if replay:
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
        if m >= iterations:
            return model, trace
        m += 1
        model, f = step(m, model, f)


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
    ``epsilon`` and ``radius`` only build the default schedule.
    """
    sched = schedule or schedule_gd(problem, epsilon, radius)
    step_size, temperature = sched.step_size, sched.temperature
    ge_mask = problem._ge_rows
    model = ThermalModel(problem, np.zeros(problem.c), temperature)

    def step(m, model, f):
        mu = model.mu + step_size * model.gradient()
        if ge_mask is not None:
            mu = np.where(ge_mask, np.maximum(mu, 0.0), mu)
        model = ThermalModel(problem, mu, temperature)
        return model, model.dual_objective()

    model, trace = _iterate(step, model, model.dual_objective(), sched.iterations, [])
    return _report(model, trace, sched, "exact")


def schedule_sga(
    problem: EnergyProblem, epsilon: float, delta: float, radius: float
) -> SgaSchedule:
    """SGA schedule with variance bound sigma^2 = c eps^2 + delta sum ||a_i||_1^2."""
    _positive_finite("epsilon", epsilon)
    if not 0 < delta < 1:
        raise ValueError("delta must lie in (0, 1)")
    _positive_finite("radius", radius)
    if not problem.is_pauli:
        raise ValueError("SGA requires Pauli-sum observables (one-norms needed)")
    temperature = _paper_temperature(problem, epsilon)
    norms_sq = float(np.sum(problem.pauli_one_norms() ** 2))
    log_d = math.log(problem.d)
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
    g_j = h_j - sum_i mu_bar_i a_{i,j}, accuracy epsilon/4 and confidence
    delta, both read off the schedule.  ``epsilon``, ``delta`` and
    ``radius`` only build the default schedule.  Shots are drawn from
    ``rng``, or from a generator seeded with ``seed`` when ``rng`` is None.
    """
    sched = schedule or schedule_sga(problem, epsilon, delta, radius)
    if rng is None:
        rng = np.random.default_rng(seed)
    ge_mask = problem._ge_rows
    charges, q, temperature = problem.charges, problem.q, sched.temperature
    inner = (sched.inner_epsilon, sched.inner_delta)
    mu_sum = np.zeros(problem.c)
    # every iteration spends the same Hoeffding shot budget on each charge
    budgets = [(t, obs_shots(t.norm, *inner)) for t in map(_term_table, charges)]
    sample_count = sched.iterations * sum(shots for _, shots in budgets)
    model = ThermalModel(problem, np.zeros(problem.c), temperature)

    def step(m, model, f):
        nonlocal mu_sum
        rho = model.rho
        est = np.array([_estimate(t, shots, rho, rng) for t, shots in budgets])
        mu = _project_feasible(model.mu + sched.step_size * (q - est), sched.radius, ge_mask)
        mu_sum += mu
        model = ThermalModel(problem, mu, temperature)
        return model, model.dual_objective()

    # the shots make a step depend on more than mu, so nothing is replayed
    model, trace = _iterate(step, model, model.dual_objective(), sched.iterations, [],
                            replay=False)
    mu_bar = mu_sum / sched.iterations if sched.iterations else model.mu
    final_model = ThermalModel(problem, mu_bar, temperature)
    merged = combine_pauli_sums(
        [(1.0, problem.hamiltonian)]
        + [(-float(mu_bar[i]), charges[i]) for i in range(problem.c)],
        problem.hamiltonian.n,
    )
    readout = _term_table(merged)
    shots = obs_shots(readout.norm, sched.epsilon / 4.0, sched.delta)
    tail = _estimate(readout, shots, final_model.rho, rng)
    return _report(final_model, trace, sched, "sga", tail, sample_count + shots)


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
        )
        for k in range(replicates)
    ]


def _dephased_bound(model: ThermalModel, diagonals: np.ndarray, cand: np.ndarray) -> float:
    """An upper bound on f(cand), from ``model``'s spectrum with no LAPACK call.

    In the eigenbasis V of ``model``'s G, G(cand) = G(mu) - (cand - mu).Q
    has diagonal g_k = lam_k - sum_i (cand_i - mu_i) (V^dag Q_i V)_kk, and
    ``diagonals`` holds the rows (V^dag Q_i V)_kk.  Peierls' inequality,
    Tr e^A >= sum_k e^(<v_k|A|v_k>), gives ln Z(cand) >= ln sum_k e^(-g_k/T),
    so cand.q - T ln sum_k e^(-g_k/T), the free energy of the thermal state
    dephased in V, is at least f(cand).  On a diagonal problem the two are
    equal.  The log-sum-exp is shifted to min g; a NaN in ``cand`` gives NaN.
    """
    T = model.temperature
    g = model.eigenvalues - (cand - model.mu) @ diagonals
    ground = g.min()
    with np.errstate(over="ignore"):
        total = np.exp((ground - g) / T).sum()
    return float(cand @ model.problem.q + ground - T * math.log(total))


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
    back onto the radius ball.  A Newton decrement grad.delta within 16 ulps
    of |f| ends the ascent: the iterate stays.  Otherwise the step is halved
    until eta ||delta|| <= 2r, the ball's diameter, then while f would
    decrease (at most 30 halvings in all); a singular metric beyond the
    ridge falls back to a plain gradient step, recorded in the report.
    A trial whose dephased bound (:func:`_dephased_bound`, at least f
    there) lies below the current f by more than f's rounding would be
    rejected, so it is rejected unscored; every other trial is scored by
    the f of its own :class:`ThermalModel`, which becomes the next iterate
    when the trial is accepted, so the bound changes no result and each
    accepted step costs one ``eigh``.
    Near the optimum the iterates reach a fixed point or a short cycle in
    floating point; from the first bitwise repeat on, the remaining
    iterations are replayed (trace values and renumbered notes), not
    recomputed, so the report is exactly that of running them all.
    The arguments first build the run's :class:`NewtonSchedule`, which
    checks them; ``temperature`` defaults to the paper's eps / (4 ln d).
    """
    sched = NewtonSchedule(
        _paper_temperature(problem, epsilon) if temperature is None else temperature,
        iterations, step_size, ridge, radius, epsilon,
    )
    temperature = sched.temperature
    ge_mask = problem._ge_rows
    # ||Q_i||_F bounds ||G(cand) - G(mu)|| by sum_i |cand_i - mu_i| ||Q_i||_F
    charge_norms = np.array([np.linalg.norm(Q) for Q in problem._charge_entries])
    model = ThermalModel(problem, np.zeros(problem.c), temperature)
    notes = []

    def step(m, model, f_curr):
        mu = model.mu
        grad = model.gradient()
        km = model.kubo_mori()
        ridge_val = ridge if ridge is not None else 1e-8 * np.trace(km) / max(problem.c, 1)
        bound = 1e6 * max(radius, float(np.linalg.norm(grad)), 1.0)
        try:
            delta = np.linalg.solve(km + ridge_val * np.eye(problem.c), grad)
        except np.linalg.LinAlgError:
            delta = None
        # a numerically singular metric yields astronomically long or
        # non-finite steps (whose norm fails the test); their direction is
        # garbage, so treat them as singular too
        if delta is None or not np.linalg.norm(delta) <= bound:
            delta = grad
            notes.append((m, "singular metric, gradient fallback"))
        # at a Newton decrement grad.delta within rounding of f, no step can
        # raise f: the iterate repeats and the replay fills in the rest
        if abs(grad @ delta) <= _FLOOR_ULPS * 2.0 ** -52 * max(1.0, abs(f_curr)):
            return model, f_curr
        # a step longer than the ball's diameter is projected back onto it;
        # the search starts within reach, its last and smallest trial kept
        eta, tries, length = step_size, 31, np.linalg.norm(delta)
        while tries > 1 and eta * length > 2.0 * radius:
            eta, tries = eta / 2.0, tries - 1
        diagonals = np.diagonal(model.rotated_charges(), axis1=1, axis2=2).real
        lam = model.eigenvalues
        scale = abs(f_curr) + max(abs(lam[0]), abs(lam[-1]))
        for _ in range(tries):
            cand = _project_feasible(mu + eta * delta, radius, ge_mask)
            # f(cand) <= bound, so a bound below f_curr by more than the
            # rounding of f_cand proves the trial would be rejected: skip it
            bound = _dephased_bound(model, diagonals, cand)
            margin = 2.0 ** -30 * (scale + np.abs(cand - mu) @ charge_norms)
            if not (math.isfinite(bound) and bound < f_curr - margin):
                trial = ThermalModel(problem, cand, temperature)
                f_cand = trial.dual_objective()
                if np.isfinite(f_cand) and f_cand >= f_curr:
                    return trial, f_cand
            eta /= 2.0
        notes.append((m, "backtracking exhausted, step skipped"))
        return model, f_curr

    # the trace and every acceptance test read f off the models the
    # iterates keep, so accepted values compare exactly and the trace
    # never decreases
    model, trace = _iterate(step, model, model.dual_objective(), iterations, notes)
    return _report(model, trace, sched, "newton",
                   notes=(f"iteration {m}: {text}" for m, text in notes))
