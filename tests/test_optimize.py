import dataclasses
import functools
import math

import numpy as np
import pytest

from thermosdp import (
    EnergyProblem,
    GdSchedule,
    NewtonSchedule,
    NumericError,
    PauliSum,
    SpectralHermitian,
    ThermalModel,
    estimate_obs,
    gradient_ascent,
    natural_gradient_ascent,
    one_norm,
    reduce_direct_sum,
    reduce_qubit_embed,
    schedule_gd,
    schedule_sga,
    sga,
    smoothness,
    solve_sdp,
)
from thermosdp import optimize, sampling
from thermosdp.operators import combine_pauli_sums
from thermosdp.oracle import (
    bloch_energy_problem, dual_objective, dual_scan, lp_diagonal_energy,
)
from thermosdp.sdp import SdpProblem

from conftest import random_dense_problem

Z = PauliSum(1, [("Z", 1.0)])
X = PauliSum(1, [("X", 1.0)])


def bloch_instance():
    return EnergyProblem(Z, [X], [0.6])


def scalar_instance(q=0.5):
    return EnergyProblem(PauliSum(1, []), [Z], [q])


class TestSmoothness:
    def test_unit_norm_charge_at_unit_temperature(self):
        problem = EnergyProblem(PauliSum(1, []), [Z], [0.0])
        assert smoothness(problem, 1.0) == pytest.approx(2.0)

    def test_no_charges(self):
        problem = EnergyProblem(Z, [], [])
        assert smoothness(problem, 1.0) == 0.0

    def test_low_temperature_value(self):
        problem = EnergyProblem(PauliSum(1, []), [Z], [0.0])
        T = 0.1 / (4.0 * math.log(2.0))
        assert smoothness(problem, T) == pytest.approx(55.451774444795625, rel=1e-12)


class TestScheduleGd:
    def test_golden_integers(self):
        sched = schedule_gd(bloch_instance(), 0.1, 1.0)
        assert sched.iterations == 555
        assert sched.temperature == pytest.approx(0.03606737602222409, rel=1e-12)
        assert sched.step_size == pytest.approx(1.0 / sched.smoothness)

    def test_radius_scaling(self):
        base = schedule_gd(bloch_instance(), 0.1, 1.0)
        doubled = schedule_gd(bloch_instance(), 0.1, 2.0)
        raw = base.smoothness * 1.0 / 0.1
        assert doubled.iterations == math.ceil(4.0 * raw)

    def test_no_constraints_is_immediate(self):
        problem = EnergyProblem(Z, [], [])
        sched = schedule_gd(problem, 0.1, 1.0)
        assert sched.iterations == 0
        report = gradient_ascent(problem, 0.1, 1.0)
        assert report.estimate == pytest.approx(-1.0, abs=0.1)
        assert len(report.objective_trace) == 1

    def test_dimension_guard(self):
        tiny = EnergyProblem(SpectralHermitian(np.array([[1.0]])), [], [])
        with pytest.raises(ValueError):
            schedule_gd(tiny, 0.1, 1.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            schedule_gd(bloch_instance(), -0.1, 1.0)
        with pytest.raises(ValueError):
            schedule_gd(bloch_instance(), 0.1, 0.0)


BAD_INPUT = {
    "gradient_ascent-epsilon-nan": (lambda: gradient_ascent(bloch_instance(), math.nan, 1.0), "epsilon"),
    "gradient_ascent-epsilon-inf": (lambda: gradient_ascent(bloch_instance(), math.inf, 1.0), "epsilon"),
    "gradient_ascent-radius-nan": (lambda: gradient_ascent(bloch_instance(), 0.1, math.nan), "radius"),
    "sga-epsilon-nan": (lambda: sga(bloch_instance(), math.nan, 0.1, 1.0, seed=1), "epsilon"),
    "sga-radius-nan": (lambda: sga(bloch_instance(), 0.2, 0.1, math.nan, seed=1), "radius"),
    "sga-schedule-radius-nan": (lambda: sga(
        bloch_instance(), 0.2, 0.1, 1.0, seed=1,
        schedule=dataclasses.replace(schedule_sga(bloch_instance(), 0.2, 0.1, 1.0), radius=math.nan),
    ), "radius"),
    "newton-epsilon-nan": (lambda: natural_gradient_ascent(bloch_instance(), math.nan, 1.0), "epsilon"),
    "newton-radius-nan": (lambda: natural_gradient_ascent(bloch_instance(), 0.1, math.nan), "radius"),
}


@pytest.mark.parametrize("case", BAD_INPUT)
def test_non_finite_input_names_the_field(case):
    call, field = BAD_INPUT[case]
    with pytest.raises(ValueError, match=f"^{field} must be positive and finite"):
        call()


VALID_SCHEDULES = {
    "gd": lambda: schedule_gd(bloch_instance(), 0.2, 1.0),
    "sga": lambda: schedule_sga(bloch_instance(), 0.2, 0.1, 1.0),
    "newton": lambda: NewtonSchedule(0.05, 5, 1.0, 0.1, 1.0, 0.2),
}

BAD_FIELDS = [
    ("epsilon", math.nan), ("epsilon", 0.0), ("radius", math.inf), ("radius", -1.0),
    ("temperature", 0.0), ("temperature", math.nan), ("iterations", -1),
    ("iterations", 2.0), ("step_size", math.nan), ("step_size", 0.0),
    ("step_size", -0.5), ("ridge", math.nan), ("ridge", -1.0), ("ridge", math.inf),
    ("delta", 0.0), ("delta", 1.0), ("inner_delta", math.nan), ("inner_delta", 1.5),
]

# every bad value of every field that the schedule type has
SCHEDULE_CASES = [
    (kind, field, value)
    for kind, make in VALID_SCHEDULES.items()
    for field, value in BAD_FIELDS
    if field in {f.name for f in dataclasses.fields(make())}
]

# each solver that takes a schedule, with the kind it takes
SCHEDULED_SOLVERS = {
    "gd": lambda sched: gradient_ascent(bloch_instance(), 0.2, 1.0, schedule=sched),
    "sga": lambda sched: sga(bloch_instance(), 0.2, 0.1, 1.0, seed=1, schedule=sched),
}


class TestScheduleContract:
    @pytest.mark.parametrize("kind,field,value", SCHEDULE_CASES)
    def test_bad_field_named(self, kind, field, value):
        sched = VALID_SCHEDULES[kind]()
        with pytest.raises(ValueError, match=f"^{field} must"):
            dataclasses.replace(sched, **{field: value})

    @pytest.mark.parametrize("kind", VALID_SCHEDULES)
    def test_no_iterations_allow_a_zero_step(self, kind):
        sched = dataclasses.replace(VALID_SCHEDULES[kind](), iterations=0, step_size=0.0)
        assert (sched.iterations, sched.step_size) == (0, 0.0)

    @pytest.mark.parametrize("kind", SCHEDULED_SOLVERS)
    def test_negative_iterations_rejected(self, kind):
        sched = VALID_SCHEDULES[kind]()
        with pytest.raises(ValueError, match="^iterations must"):
            SCHEDULED_SOLVERS[kind](dataclasses.replace(sched, iterations=-1))

    @pytest.mark.parametrize("field,kwargs", [
        ("ridge", {"ridge": math.nan}),
        ("step_size", {"step_size": math.nan}),
        ("step_size", {"step_size": -1.0}),
        ("iterations", {"iterations": -2}),
        ("temperature", {"temperature": 0.0}),
    ])
    def test_newton_checks_its_schedule_first(self, field, kwargs):
        with pytest.raises(ValueError, match=f"^{field} must"):
            natural_gradient_ascent(bloch_instance(), 0.1, 1.0, **kwargs)

    @pytest.mark.parametrize("mode", ["exact", "sga", "newton"])
    def test_solve_sdp_rejects_bad_epsilon(self, mode):
        sdp = SdpProblem(Z, ((X, 0.3),), 2.0)
        with pytest.raises(ValueError, match="^epsilon must be positive"):
            solve_sdp(sdp, -0.1, 1.0, mode=mode)


class TestGradientAscent:
    def test_bloch_case(self):
        report = gradient_ascent(bloch_instance(), 0.05, 2.0)
        assert -0.85 <= report.estimate <= -0.75
        assert report.sample_count == 0
        assert report.mode == "exact"

    def test_guarantee_against_bloch_oracle(self):
        problem = bloch_instance()
        true_energy = bloch_energy_problem(problem)
        assert true_energy == pytest.approx(-0.8, abs=1e-12)
        report = gradient_ascent(problem, 0.05, 2.0)
        assert abs(report.estimate - true_energy) <= 0.05

    def test_stationary_at_symmetric_instance(self):
        problem = scalar_instance(q=0.0)
        report = gradient_ascent(problem, 0.1, 1.0)
        assert report.mu_final == (0.0,)
        assert report.estimate == pytest.approx(0.0, abs=1e-12)

    def test_trace_monotone_and_sized(self, rng):
        problem = random_dense_problem(rng, 4, 2)
        report = gradient_ascent(problem, 0.2, 1.0)
        trace = np.asarray(report.objective_trace)
        assert len(trace) == report.schedule.iterations + 1
        assert np.all(np.diff(trace) >= -1e-12)

    def test_final_answer_bound_on_diagonal_instances(self, rng):
        # |E - estimate| <= epsilon whenever r >= ||mu*|| (certified by scan)
        for _ in range(3):
            d = int(rng.choice([3, 4]))
            h = np.sort(rng.uniform(-1, 1, size=d))
            g = rng.uniform(-1, 1, size=d)
            g /= np.abs(g).max()
            p = rng.dirichlet(np.ones(d)) * 0.8 + 0.2 / d
            problem = EnergyProblem(
                SpectralHermitian(np.diag(h)), [SpectralHermitian(np.diag(g))],
                [float(g @ p)],
            )
            epsilon = 0.1
            energy = lp_diagonal_energy(problem)
            T = epsilon / (4.0 * math.log(d))
            mu_star, _ = dual_scan(problem, T, np.linspace(-8, 8, 33))
            radius = max(1.0, 1.25 * abs(mu_star[0]))
            report = gradient_ascent(problem, epsilon, radius)
            assert abs(report.estimate - energy) <= epsilon + 1e-9


def project_ball(v, radius):
    """The solvers' projection with no non-negativity rows: the ball alone."""
    return optimize._project_feasible(v, radius, np.zeros(len(v), dtype=bool))


class TestProjectBall:
    def test_golden(self):
        assert np.allclose(project_ball(np.array([3.0, 4.0]), 1.0), [0.6, 0.8])

    def test_interior_unchanged(self):
        v = np.array([0.1, 0.0])
        assert np.allclose(project_ball(v, 1.0), v)

    def test_idempotent_nonexpansive(self, rng):
        for _ in range(50):
            v = rng.normal(scale=3.0, size=3)
            r = float(rng.uniform(0.5, 2.0))
            out = project_ball(v, r)
            assert np.linalg.norm(out) <= r + 1e-12
            assert np.allclose(project_ball(out, r), out)
            x = rng.normal(size=3)
            x = x / np.linalg.norm(x) * r * rng.uniform(0, 1)
            assert np.linalg.norm(out - x) <= np.linalg.norm(v - x) + 1e-12


class TestScheduleSga:
    def test_golden_constants(self):
        sched = schedule_sga(bloch_instance(), 0.1, 0.05, 1.0)
        assert sched.variance_bound == pytest.approx(0.06, abs=1e-15)
        assert sched.iterations == 9065
        assert sched.step_size == pytest.approx(0.013900, abs=1e-6)
        assert sched.temperature == pytest.approx(0.1 / (4 * math.log(2)), rel=1e-12)
        assert sched.inner_epsilon == 0.1 and sched.inner_delta == 0.05

    def test_zero_variance_limit(self):
        problem = EnergyProblem(Z, [], [])
        sched = schedule_sga(problem, 0.1, 1e-12, 1.0)
        assert sched.variance_bound == 0.0

    def test_epsilon_scaling_of_logd_term(self):
        # halving epsilon multiplies the ln-d part of the bound by 4
        problem = bloch_instance()
        for eps in (0.2, 0.1):
            sched = schedule_sga(problem, eps, 0.05, 1.0)
            lnd_term = 16.0 / eps ** 2 * 8.0 * math.log(2.0)
            assert sched.iterations == math.ceil(
                lnd_term + 16.0 / eps ** 2 * 2.0 * sched.variance_bound
            )

    def test_requires_pauli(self, rng):
        dense = random_dense_problem(rng, 4, 1)
        with pytest.raises(ValueError, match="Pauli"):
            schedule_sga(dense, 0.1, 0.05, 1.0)


class TestSga:
    def test_symmetric_instance_centers_on_zero(self):
        problem = scalar_instance(q=0.0)
        estimates = [
            sga(problem, 0.4, 0.2, 1.0, seed=s).estimate for s in range(12)
        ]
        mean = np.mean(estimates)
        stderr = np.std(estimates) / math.sqrt(len(estimates))
        assert abs(mean) <= max(4 * stderr, 0.05)

    def test_seed_determinism(self):
        problem = bloch_instance()
        a = sga(problem, 0.4, 0.2, 2.0, seed=7)
        b = sga(problem, 0.4, 0.2, 2.0, seed=7)
        assert a == b  # bit-identical report
        c = sga(problem, 0.4, 0.2, 2.0, seed=8)
        assert c.estimate != a.estimate

    @pytest.mark.parametrize("problem", [
        bloch_instance(),
        EnergyProblem(
            PauliSum(2, [("ZI", 0.7), ("XY", -0.4)]),
            [PauliSum(2, [("ZZ", 1.0), ("XX", 0.5)])],
            [0.1],
        ),
    ], ids=["one-term", "multi-term"])
    def test_sample_count_equals_shots_drawn(self, monkeypatch, problem):
        drawn = []
        draw = sampling._draw_counts

        def spy(weights, traces, shots, rng):
            counts = draw(weights, traces, shots, rng)
            drawn.append(int(counts.sum()))
            return counts

        monkeypatch.setattr(sampling, "_draw_counts", spy)
        report = sga(problem, 0.5, 0.2, 0.5, seed=3)
        assert len(drawn) == report.schedule.iterations + 1
        assert report.sample_count == sum(drawn)

    def test_iterate_stays_in_ball(self):
        problem = bloch_instance()
        report = sga(problem, 0.5, 0.2, 0.2, seed=3)
        assert np.linalg.norm(report.mu_final) <= 0.2 + 1e-12

    def test_stochastic_gradient_unbiased(self):
        # mean of q - estimate_obs over 1e5 draws matches the exact gradient
        # per component at 4 sigma
        problem = EnergyProblem(
            PauliSum(2, [("ZI", 0.7), ("XX", 0.3)]),
            [PauliSum(2, [("ZZ", 0.6), ("XI", -0.4)]), PauliSum(2, [("IZ", 1.0)])],
            [0.1, -0.2],
        )
        T = 0.8
        mu = np.array([0.3, -0.5])
        model = ThermalModel(problem, mu, T)
        grad = ThermalModel(problem, mu, T).gradient()
        rng = np.random.default_rng(17)
        draws = 100_000
        for i in range(2):
            samples = np.empty(draws)
            for k in range(draws):
                samples[k] = problem.q[i] - estimate_obs(
                    model, problem.charges[i], 0.5, 0.25, rng
                )
            stderr = samples.std() / math.sqrt(draws)
            assert abs(samples.mean() - grad[i]) <= 4 * stderr + 1e-12

    def test_variance_within_bound(self):
        # empirical E||g_bar - grad f||^2 <= sigma^2 plus statistical slack,
        # probed at 10 random chemical potentials
        problem = bloch_instance()
        sched = schedule_sga(problem, 0.3, 0.1, 1.0)
        rng = np.random.default_rng(23)
        for _ in range(10):
            mu = rng.normal(scale=0.5, size=1)
            model = ThermalModel(problem, mu, sched.temperature)
            grad = ThermalModel(problem, mu, sched.temperature).gradient()
            draws = 1500
            errs = np.empty(draws)
            for k in range(draws):
                g = problem.q[0] - estimate_obs(
                    model, problem.charges[0], sched.inner_epsilon, sched.inner_delta, rng
                )
                errs[k] = (g - grad[0]) ** 2
            slack = 3 * errs.std() / math.sqrt(draws)
            assert errs.mean() <= sched.variance_bound + slack


class TestNaturalGradientAscent:
    def test_scalar_newton_trajectory(self):
        problem = scalar_instance(q=0.5)
        mu_star = math.atanh(0.5)
        f_star = 0.5 * mu_star - math.log(2 * math.cosh(mu_star))
        report = natural_gradient_ascent(
            problem, 0.1, 2.0, step_size=1.0, iterations=5, ridge=0.0, temperature=1.0
        )
        trace = report.objective_trace
        # one step: delta = KM^{-1} g = 0.5 exactly
        assert trace[0] == pytest.approx(-math.log(2.0), abs=1e-12)
        assert abs(report.mu_final[0] - mu_star) < 1e-10
        # after three steps the objective is converged to 1e-10
        assert abs(trace[3] - f_star) < 1e-10
        assert report.sample_count == 0

    def test_first_step_is_half(self):
        problem = scalar_instance(q=0.5)
        report = natural_gradient_ascent(
            problem, 0.1, 2.0, step_size=1.0, iterations=1, ridge=0.0, temperature=1.0
        )
        assert report.mu_final[0] == pytest.approx(0.5, abs=1e-12)

    def test_first_trial_is_the_line_maximizer(self, model_calls):
        # on a diagonal problem the dephased bound is f itself, so Newton's
        # first trial is f's maximizer on the ray t delta, t in (0, eta].
        # At this T the full step (eta = 1) overshoots that peak 37-fold
        T, radius = 0.1, 20.0
        problem = EnergyProblem(SpectralHermitian(np.diag([0.0, 0.5, 1.0])),
                                [SpectralHermitian(np.diag([1.0, 0.0, -1.0]))], [-0.5])
        start = ThermalModel(problem, np.zeros(1), T)
        delta = np.linalg.solve(start.kubo_mori(), start.gradient())[0]
        assert abs(delta) <= 2.0 * radius
        report = natural_gradient_ascent(problem, 0.1, radius, iterations=1, ridge=0.0,
                                         temperature=T)
        first = np.frombuffer(model_calls[1])[0]
        assert report.mu_final == (first,)
        # a coarse scan of f on (0, 1], then a fine one around its best point
        coarse = np.linspace(0.0, 1.0, 1001)[1:]
        best = coarse[np.argmax([dual_objective(problem, [t * delta], T) for t in coarse])]
        fine = np.linspace(best - 1e-3, best + 1e-3, 2001)
        values = [dual_objective(problem, [t * delta], T) for t in fine]
        assert best < 0.5
        assert abs(first / delta - fine[np.argmax(values)]) <= fine[1] - fine[0]
        assert dual_objective(problem, [first], T) >= max(values) - 1e-15

    def test_degenerate_metric_falls_back(self):
        problem = EnergyProblem(
            SpectralHermitian(np.diag([0.4, -0.4])),
            [SpectralHermitian(np.eye(2))],
            [0.5],
        )
        report = natural_gradient_ascent(
            problem, 0.1, 1.0, iterations=3, ridge=0.0, temperature=1.0
        )
        assert any("fallback" in note or "singular" in note for note in report.notes)
        # at q = <I> = 1 the gradient is 0 as well as the metric, so the
        # trust-region solve is singular too: the plain gradient, 0, is the
        # guard's step and the iterate stays
        stationary = EnergyProblem(problem.hamiltonian, problem.charges, [1.0])
        report = natural_gradient_ascent(
            stationary, 0.1, 1.0, iterations=3, ridge=0.0, temperature=1.0
        )
        assert report.mu_final == (0.0,)
        assert report.notes == tuple(
            f"iteration {m}: singular metric, gradient fallback" for m in (1, 2, 3)
        )

    def test_matches_first_order_backend(self, rng):
        # radius certified against the scan oracle so both backends share
        # a feasible optimum; newton needs ~25 steps vs ~1e5 exact steps
        problem = random_dense_problem(rng, 4, 2)
        epsilon = 0.05
        T = epsilon / (4.0 * math.log(problem.d))
        grid = np.linspace(-12, 12, 49)
        mu_star, _ = dual_scan(problem, T, (grid, grid))
        radius = max(1.0, 1.25 * float(np.linalg.norm(mu_star)))
        exact = gradient_ascent(problem, epsilon, radius)
        newton = natural_gradient_ascent(problem, epsilon, radius, iterations=25)
        f_exact = exact.objective_trace[-1]
        f_newton = newton.objective_trace[-1]
        assert abs(f_newton - f_exact) < 1e-6
        assert newton.schedule.iterations < exact.schedule.iterations

    def test_nonfinite_start_raises(self):
        # f(0) = -T ln Z overflows to -inf at this spread and temperature
        problem = EnergyProblem(
            SpectralHermitian(np.diag([1e300, -1e300])),
            [SpectralHermitian(np.diag([1.0, -1.0]))],
            [0.0],
        )
        with np.errstate(all="ignore"):
            with pytest.raises(NumericError) as info:
                natural_gradient_ascent(problem, 0.1, 1.0, temperature=1e-10)
        assert info.value.iteration == 0

    def test_trace_never_decreases(self, rng):
        problem = random_dense_problem(rng, 6, 2)
        report = natural_gradient_ascent(problem, 0.1, 1.0, iterations=15)
        assert np.all(np.diff(report.objective_trace) >= -1e-12)

    @pytest.mark.parametrize("seed", [1, 8, 9, 12])
    def test_no_candidate_step_leaves_the_ball_s_reach(self, monkeypatch, seed):
        # from mu = 0 at the paper's T the metric is nearly singular and the
        # Newton step is long; no candidate step eta delta is longer than 2r,
        # the diameter of the ball.  Newton builds a model at the start and at
        # each accepted candidate only, so the last model is the iterate
        iterates, steps = [], []
        build, project = optimize.ThermalModel, optimize._project_feasible

        def model(problem, mu, temperature):
            iterates.append(np.array(mu))
            return build(problem, mu, temperature)

        def projected(v, radius, ge_mask):
            steps.append(float(np.linalg.norm(v - iterates[-1])))
            return project(v, radius, ge_mask)
        monkeypatch.setattr(optimize, "ThermalModel", model)
        monkeypatch.setattr(optimize, "_project_feasible", projected)
        natural_gradient_ascent(rotated_instance(seed), 0.1, 2.0)
        assert steps and max(steps) <= 4.0 * (1 + 1e-12)


def diagonal_instance(seed, d, c, senses=None):
    """Seeded diagonal instance with unit-norm charges and feasible targets."""
    rng = np.random.default_rng(seed)
    h = rng.uniform(-1.0, 1.0, size=d)
    g = rng.uniform(-1.0, 1.0, size=(c, d))
    g /= np.abs(g).max(axis=1, keepdims=True)
    p = rng.dirichlet(np.ones(d)) * 0.8 + 0.2 / d
    return EnergyProblem(
        SpectralHermitian(np.diag(h)), [SpectralHermitian(np.diag(row)) for row in g],
        g @ p, senses=senses,
    )


def rotated_instance(seed, d=8, c=3, senses=None):
    """``diagonal_instance(seed, d, c, senses)`` turned by a seeded random
    unitary: commuting complex observables, as the benchmark's Newton
    workload has."""
    diag = diagonal_instance(seed, d, c, senses)
    z = np.random.default_rng(seed).normal(size=(d, 2 * d)).view(complex)
    U = np.linalg.qr(z)[0]

    def turn(A):
        return SpectralHermitian(U @ A.entries @ U.conj().T)
    return EnergyProblem(turn(diag.h_dense), [turn(Q) for Q in diag.q_dense], diag.q,
                         senses=diag.senses)


def plain_gradient_ascent(problem, epsilon, radius):
    """Every iteration of the paper schedule, computed: (estimate, mu, trace)."""
    sched = schedule_gd(problem, epsilon, radius)
    ge_mask = np.array([s == "ge" for s in problem.senses], dtype=bool)
    mu = np.zeros(problem.c)
    model = ThermalModel(problem, mu, sched.temperature)
    trace = [model.dual_objective()]
    for _ in range(sched.iterations):
        mu = mu + sched.step_size * model.gradient()
        mu = np.where(ge_mask, np.maximum(mu, 0.0), mu)
        model = ThermalModel(problem, mu, sched.temperature)
        trace.append(model.dual_objective())
    estimate = float(mu @ problem.q + model.probs @ model.eigenvalues)
    return estimate, tuple(mu), tuple(trace)


def plain_sga(problem, epsilon, delta, sched, rng):
    """Every SGA iteration through the public estimator, nothing hoisted:
    the report fields sga computes, in SolveReport order."""
    ge_mask = np.array([s == "ge" for s in problem.senses], dtype=bool)
    inner = (sched.inner_epsilon, sched.inner_delta)
    mu = np.zeros(problem.c)
    mu_sum = np.zeros(problem.c)
    model = ThermalModel(problem, mu, sched.temperature)
    trace = [model.dual_objective()]
    for _ in range(sched.iterations):
        est = np.array([estimate_obs(model, Q, *inner, rng) for Q in problem.charges])
        mu = optimize._project_feasible(
            mu + sched.step_size * (problem.q - est), sched.radius, ge_mask
        )
        mu_sum += mu
        model = ThermalModel(problem, mu, sched.temperature)
        trace.append(model.dual_objective())
    mu_bar = mu_sum / sched.iterations
    final = ThermalModel(problem, mu_bar, sched.temperature)
    merged = combine_pauli_sums(
        [(1.0, problem.hamiltonian)] + [(-float(m), Q) for m, Q in zip(mu_bar, problem.charges)],
        problem.hamiltonian.n,
    )
    estimate = float(mu_bar @ problem.q + estimate_obs(final, merged, epsilon / 4.0, delta, rng))
    shots = sched.iterations * sum(
        sampling.obs_shots(one_norm(Q), *inner) for Q in problem.charges
    ) + sampling.obs_shots(one_norm(merged), epsilon / 4.0, delta)
    return (estimate, tuple(mu_bar), tuple(trace), shots, final.dual_objective(),
            tuple(final.gradient()))


class TestSgaLoop:
    @pytest.mark.parametrize("senses", [None, ("eq", "ge")], ids=["eq", "ge"])
    def test_sga_equals_plain_loop(self, senses):
        # one one-term and one multi-term charge; a long step against a small
        # ball makes the projection act
        problem = EnergyProblem(
            PauliSum(2, [("ZI", 0.7), ("XY", -0.4)]),
            [PauliSum(2, [("ZZ", 1.0)]), PauliSum(2, [("XX", 0.5), ("IZ", -0.3)])],
            [0.1, -0.2],
            senses=senses,
        )
        sched = dataclasses.replace(
            schedule_sga(problem, 0.5, 0.2, 0.3), iterations=6, step_size=0.5
        )
        report = sga(problem, 0.5, 0.2, 0.3, rng=np.random.default_rng(11), schedule=sched)
        expected = plain_sga(problem, 0.5, 0.2, sched, np.random.default_rng(11))
        assert (report.estimate, report.mu_final, report.objective_trace, report.sample_count,
                report.dual_objective_final, report.constraint_residuals) == expected


@pytest.fixture
def model_calls(monkeypatch):
    """The ThermalModel builds the solvers make, in order, each as the bytes
    of its mu: every point a solver scores."""
    calls = []
    build = optimize.ThermalModel

    def recorded(problem, mu, temperature):
        calls.append(np.asarray(mu, dtype=float).tobytes())
        return build(problem, mu, temperature)
    monkeypatch.setattr(optimize, "ThermalModel", recorded)
    return calls


class _Point:
    def __init__(self, value):
        self.mu = np.array([float(value)])


def plain_iterate(step, point, f, iterations, notes):
    """``optimize._iterate`` without its replay or finiteness check."""
    trace = [f]
    for m in range(1, iterations + 1):
        point, f = step(m, point, f)
        trace.append(f)
    return point, trace


def run_cycle(driver, tail, period, iterations):
    """((final point, trace, notes), steps computed) of ``driver`` on a map
    with a transient of ``tail`` steps into a cycle of ``period``, noting
    every third step."""
    steps, notes = [0], []

    def step(m, point, f):
        steps[0] += 1
        x = point.mu[0] + 1
        if x >= tail + period:
            x = tail
        if int(x) % 3 == 0:
            notes.append((m, f"at {x}"))
        return _Point(x), x * 0.5
    final, trace = driver(step, _Point(0), 0.0, iterations, notes)
    return (final.mu[0], trace, notes), steps[0]


class TestReplay:
    @pytest.mark.parametrize("tail,period,iterations", [
        (0, 1, 10), (5, 1, 64), (3, 2, 40), (7, 3, 100), (6, 5, 33), (2, 13, 200),
        (40, 6, 45), (10, 4, 10),
    ])
    def test_iterate_matches_plain_loop(self, tail, period, iterations):
        # trace, notes and final point must equal the plain loop's, with far
        # fewer steps computed
        replayed, computed = run_cycle(optimize._iterate, tail, period, iterations)
        expected, _ = run_cycle(plain_iterate, tail, period, iterations)
        assert replayed == expected
        assert len(replayed[1]) == iterations + 1
        # Brent finds the cycle within about two laps of entering it
        assert computed <= min(iterations, 2 * (tail + period) + period + 1)

    @pytest.mark.parametrize("tail,period,iterations", [(0, 1, 10), (3, 2, 40), (40, 6, 45)])
    def test_iterate_without_replay_computes_every_step(self, tail, period, iterations):
        unreplayed, computed = run_cycle(
            functools.partial(optimize._iterate, replay=False), tail, period, iterations
        )
        assert unreplayed == run_cycle(plain_iterate, tail, period, iterations)[0]
        assert computed == iterations

    @pytest.mark.parametrize("replay", [True, False])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("k", [0, 1, 4])
    def test_nonfinite_objective_names_its_iteration(self, replay, bad, k):
        # f is a function of the point, non-finite at point k; nothing past
        # iterate k is computed
        steps = []

        def objective(x):
            return bad if x == k else x * 0.5

        def step(m, point, f):
            steps.append(m)
            x = point.mu[0] + 1
            return _Point(x), objective(x)
        with pytest.raises(NumericError, match=f"^non-finite objective at iteration {k}$") as info:
            optimize._iterate(step, _Point(0), objective(0), 10, [], replay=replay)
        assert info.value.iteration == k
        assert steps == list(range(1, k + 1))

    @pytest.mark.parametrize("seed,d,c,senses,period", [
        (7, 3, 1, None, 1),
        (13, 3, 1, None, 4),
        (13, 4, 2, ("ge", "ge"), 1),
    ])
    def test_gradient_ascent_equals_plain_loop(self, model_calls, seed, d, c, senses, period):
        problem = diagonal_instance(seed, d, c, senses)
        report = gradient_ascent(problem, 0.2, 1.0)
        models = len(model_calls)
        estimate, mu, trace = plain_gradient_ascent(problem, 0.2, 1.0)
        assert report.estimate == estimate
        assert report.mu_final == mu
        assert report.objective_trace == trace
        # these instances reach a cycle of the given period before the end
        # of the schedule, so the replayed tail computes no models
        assert models < report.schedule.iterations + 1
        assert trace[-1 - period] == trace[-1]

    def test_newton_stops_at_the_decrement_floor(self, model_calls):
        # mu* lies inside the ball.  Once grad.delta is within rounding of f,
        # the step scores no candidate and returns its model, which the
        # replay then repeats: the last point scored is the final iterate,
        # scored once, and 50 or 500 iterations cost the same
        problem = random_dense_problem(np.random.default_rng(2), 4, 2)
        short = natural_gradient_ascent(problem, 0.1, 5.0, iterations=50)
        scored = list(model_calls)
        model_calls.clear()
        long = natural_gradient_ascent(problem, 0.1, 5.0, iterations=500)
        assert model_calls == scored
        assert short.notes == long.notes == ()
        assert long.mu_final == short.mu_final
        assert scored[-1] == np.array(short.mu_final).tobytes()
        assert scored.count(scored[-1]) == 1
        assert len(scored) < 20

    @pytest.mark.parametrize("problem,note", [
        # mu* lies outside the ball: a fixed point on its boundary after two
        # steps, where every projected candidate lowers f
        (random_dense_problem(np.random.default_rng(3), 4, 2),
         "backtracking exhausted, step skipped"),
        # Q = I has a zero metric: every step is a trust-region step of
        # length 2r, and the ball boundary stops the first
        (EnergyProblem(SpectralHermitian(np.diag([0.4, -0.4])),
                       [SpectralHermitian(np.eye(2))], [0.5]),
         "singular metric, trust-region step"),
    ])
    def test_newton_replays_fixed_point(self, model_calls, problem, note):
        short = natural_gradient_ascent(problem, 0.1, 1.0, iterations=50)
        short_calls = list(model_calls)
        model_calls.clear()
        long = natural_gradient_ascent(problem, 0.1, 1.0, iterations=500)
        assert model_calls == short_calls
        assert len(long.objective_trace) == 501
        assert long.objective_trace[:51] == short.objective_trace
        assert set(long.objective_trace[50:]) == {short.objective_trace[-1]}
        assert long.mu_final == short.mu_final
        assert long.estimate == short.estimate
        tail = tuple(f"iteration {m}: {note}" for m in range(51, 501))
        assert long.notes == short.notes + tail
        assert short.notes[-1] == f"iteration 50: {note}"


def test_newton_work_per_solve(model_calls):
    # a guard on work, not time: 16 seeded rotated d = 8 instances, some
    # with mu* outside the ball; the count is deterministic, one eigh per
    # model.  With the halving search alone, starting from the full step
    # (no first trial at the dephased bound's peak), they took 11.0625
    # models; with a plain gradient step where the metric is singular,
    # 11.9375; scored by eigvalsh, 11.9375 eigvalsh and 11.375 models;
    # without the dephased bound they were 35.1875 eigvalsh, and without
    # the decrement floor and the reach cap 92.8125 and 16.6875
    for seed in range(16):
        natural_gradient_ascent(rotated_instance(seed), 0.1, 2.0)
    assert len(model_calls) / 16 == 8.0625


def test_newton_trust_region_steps(model_calls, monkeypatch):
    # seed 2 of the work-guard pool starts where the metric is singular at
    # the paper's T.  Its first step is a trust-region step, and it builds
    # 7 models; with the halving search alone (no first trial at the
    # dephased bound's peak) it took four trust-region steps and 15 models,
    # and stepping along the plain gradient there, 25 models.
    # Every trust-region delta solves (I_KM + lam I) delta = grad with
    # lam = ||grad||/(2r), I_KM and grad those of the iterate's own model,
    # so ||delta|| <= 2r and delta ascends
    radius = 2.0
    metrics, solves = [], []
    kubo_mori, shifted_solve = ThermalModel.kubo_mori, optimize._shifted_solve

    def metric(model):
        km = kubo_mori(model)
        metrics.append((model.gradient(), km.copy()))
        return km

    def solve(km, diagonal, shift, grad, bound):
        delta = shifted_solve(km, diagonal, shift, grad, bound)
        solves.append((len(metrics), shift, delta))
        return delta
    monkeypatch.setattr(ThermalModel, "kubo_mori", metric)
    monkeypatch.setattr(optimize, "_shifted_solve", solve)
    report = natural_gradient_ascent(rotated_instance(2), 0.1, radius)
    assert len(model_calls) == 7
    # a step's second solve, on the metric its first one read, is the
    # trust-region solve
    trust = [(metrics[k - 1], shift, delta)
             for (j, _, _), (k, shift, delta) in zip(solves, solves[1:]) if j == k]
    notes = [note for note in report.notes if note.endswith("trust-region step")]
    assert len(trust) == len(notes) == 1
    for (grad, km), shift, delta in trust:
        assert shift == pytest.approx(np.linalg.norm(grad) / (2.0 * radius), rel=1e-15)
        system = km + shift * np.eye(len(grad))
        scale = np.abs(system).max() * np.abs(delta).max() + np.abs(grad).max()
        assert np.abs(system @ delta - grad).max() <= 1e-12 * scale
        assert np.linalg.norm(delta) <= 2.0 * radius * (1 + 1e-12)
        assert grad @ delta > 0


# (problem, radius): the work-guard pool, the instance whose every step ends
# in exhausted backtracking on the ball's boundary, and "ge" rows whose
# clamp acts on skipped trials
CERTIFICATE_CASES = [
    *((rotated_instance(seed), 2.0) for seed in range(16)),
    (random_dense_problem(np.random.default_rng(3), 4, 2), 1.0),
    (rotated_instance(8, senses=("ge", "eq", "ge")), 2.0),
]


def test_newton_certificate_changes_no_report(model_calls, monkeypatch):
    # the bound only skips trials that scoring would reject, so scoring
    # every trial (a bound of +inf skips none) gives the same bits.  The
    # first trial, the peak of the bound on the ray, is nearly always
    # accepted, so the skip saves less than it did for the halving search
    # alone: 151 models against 217 scored, where that search took 201
    # against 585
    certified = [natural_gradient_ascent(p, 0.1, r) for p, r in CERTIFICATE_CASES]
    skipping_calls = len(model_calls)
    model_calls.clear()
    monkeypatch.setattr(optimize, "_dephased_bound", lambda *args: math.inf)
    scored = [natural_gradient_ascent(p, 0.1, r) for p, r in CERTIFICATE_CASES]
    assert [repr(r) for r in certified] == [repr(r) for r in scored]
    assert (skipping_calls, len(model_calls)) == (151, 217)


def dense_problem():
    return random_dense_problem(np.random.default_rng(31), 3, 2)


def dense_sdp():
    problem = dense_problem()
    return SdpProblem(problem.hamiltonian, tuple(zip(problem.charges, (0.2, -0.1))), 2.0)


def pauli_sdp():
    return SdpProblem(Z, ((X, 0.3),), 2.0)


# (report, the energy problem it solved)
FINAL_MODEL_CASES = {
    "exact": lambda: (gradient_ascent(bloch_instance(), 0.2, 2.0), bloch_instance()),
    "newton": lambda: (natural_gradient_ascent(dense_problem(), 0.1, 2.0), dense_problem()),
    "sga": lambda: (sga(bloch_instance(), 0.5, 0.2, 2.0, seed=3), bloch_instance()),
    "sdp-exact": lambda: (solve_sdp(dense_sdp(), 0.2, 1.5), reduce_direct_sum(dense_sdp())),
    "sdp-newton": lambda: (
        solve_sdp(dense_sdp(), 0.2, 1.5, mode="newton"), reduce_direct_sum(dense_sdp())
    ),
    "sdp-sga": lambda: (
        solve_sdp(pauli_sdp(), 0.8, 2.0, mode="sga", delta=0.2, seed=4),
        reduce_qubit_embed(pauli_sdp()),
    ),
}


@pytest.mark.parametrize("case", FINAL_MODEL_CASES)
def test_diagnostics_are_those_of_the_final_model(case):
    report, problem = FINAL_MODEL_CASES[case]()
    model = ThermalModel(problem, report.mu_final, report.schedule.temperature)
    assert report.dual_objective_final == model.dual_objective()
    assert report.constraint_residuals == tuple(model.gradient())


class TestReportShape:
    def test_schedule_embedded_and_trace_sized(self):
        problem = bloch_instance()
        sched = schedule_gd(problem, 0.2, 1.0)
        report = gradient_ascent(problem, 0.2, 1.0)
        assert report.schedule == sched
        assert len(report.objective_trace) == sched.iterations + 1

    def test_custom_schedule_override(self):
        problem = scalar_instance(q=0.5)
        sched = GdSchedule(
            temperature=1.0, iterations=400, step_size=0.5,
            smoothness=2.0, radius=2.0, epsilon=0.1,
        )
        report = gradient_ascent(problem, 0.1, 2.0, schedule=sched)
        # converges to the closed-form dual optimum at T = 1
        assert report.objective_trace[-1] == pytest.approx(-0.5623351446188083, abs=1e-9)


class TestInequalitySenses:
    def test_binding_inequality_matches_equality(self):
        # <X> >= 0.6 binds (unconstrained optimum has <X> = 0), so the
        # estimate matches the equality-constrained value -0.8
        problem = EnergyProblem(Z, [X], [0.6], senses=("ge",))
        report = gradient_ascent(problem, 0.05, 2.0)
        assert abs(report.estimate - (-0.8)) <= 0.05
        assert report.mu_final[0] >= 0.0

    def test_slack_inequality_releases_constraint(self):
        # <X> >= -0.5 is already satisfied by the ground state of Z, so the
        # dual variable pins to zero and the energy approaches -1
        problem = EnergyProblem(Z, [X], [-0.5], senses=("ge",))
        report = gradient_ascent(problem, 0.05, 2.0)
        assert report.mu_final[0] == 0.0
        assert abs(report.estimate - (-1.0)) <= 0.05
        # the equality version is forced onto the constraint circle instead
        eq = gradient_ascent(EnergyProblem(Z, [X], [-0.5]), 0.05, 2.0)
        assert abs(eq.estimate - (-math.sqrt(0.75))) <= 0.05

    def test_sga_respects_nonnegative_dual(self):
        problem = EnergyProblem(Z, [X], [-0.5], senses=("ge",))
        report = sga(problem, 0.4, 0.2, 1.0, seed=2)
        assert report.mu_final[0] >= 0.0

    def test_senses_validation(self):
        with pytest.raises(ValueError):
            EnergyProblem(Z, [X], [0.5], senses=("up",))


def test_newton_respects_inequality_sense():
    problem = EnergyProblem(Z, [X], [-0.5], senses=("ge",))
    report = natural_gradient_ascent(problem, 0.05, 1.0, iterations=10)
    assert report.mu_final[0] >= 0.0
    assert abs(report.estimate - (-1.0)) <= 0.05


# the direct solver call that _solve(problem, mode, 0.5, 0.2, 2.0, 4, **fields)
# stands for, with and without one field override
DIRECT_SOLVES = {
    "exact": lambda p, **f: gradient_ascent(
        p, 0.5, 2.0, schedule=dataclasses.replace(schedule_gd(p, 0.5, 2.0), **f)
    ),
    "sga": lambda p, **f: sga(
        p, 0.5, 0.2, 2.0, seed=4,
        schedule=dataclasses.replace(schedule_sga(p, 0.5, 0.2, 2.0), **f),
    ),
    "newton": lambda p, **f: natural_gradient_ascent(p, 0.5, 2.0, **f),
}


class TestSolveDispatch:
    @pytest.mark.parametrize("mode", optimize.MODES)
    def test_matches_the_direct_call(self, mode):
        problem = bloch_instance()
        plain = {"exact": gradient_ascent(problem, 0.5, 2.0),
                 "sga": sga(problem, 0.5, 0.2, 2.0, seed=4),
                 "newton": natural_gradient_ascent(problem, 0.5, 2.0)}[mode]
        assert optimize._solve(problem, mode, 0.5, 0.2, 2.0, 4) == plain

    @pytest.mark.parametrize("mode,field", [
        ("exact", {"iterations": 3}), ("sga", {"iterations": 3}), ("newton", {"ridge": 0.1}),
    ])
    def test_override_matches_the_direct_call(self, mode, field):
        problem = bloch_instance()
        report = optimize._solve(problem, mode, 0.5, 0.2, 2.0, 4, **field)
        assert report == DIRECT_SOLVES[mode](problem, **field)
        name, value = next(iter(field.items()))
        assert getattr(report.schedule, name) == value

    @pytest.mark.parametrize("mode", optimize.MODES)
    def test_nonfinite_start_raises(self, mode):
        # f(0) = -T ln Z overflows to -inf at this spread and temperature
        problem = EnergyProblem(PauliSum(1, [("Z", 1e300)]), [X], [0.1])
        with np.errstate(all="ignore"):
            with pytest.raises(NumericError, match="non-finite objective at iteration 0") as info:
                optimize._solve(problem, mode, 1e-10, 0.1, 1.0, seed=0)
        assert info.value.iteration == 0

    def test_unknown_mode_names_the_modes(self):
        with pytest.raises(ValueError, match=r"mode must be one of \('exact', 'sga', 'newton'\)"):
            optimize._solve(bloch_instance(), "quantum", 0.5, 0.2, 2.0)
        with pytest.raises(ValueError, match="mode must be one of"):
            solve_sdp(pauli_sdp(), 0.5, 2.0, mode="quantum")
