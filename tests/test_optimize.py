import dataclasses
import math

import numpy as np
import pytest

from thermosdp import (
    EnergyProblem,
    GdSchedule,
    NumericError,
    PauliSum,
    SpectralHermitian,
    ThermalModel,
    dual_objective,
    estimate_obs,
    exact_gradient,
    gradient_ascent,
    natural_gradient_ascent,
    project_ball,
    schedule_gd,
    schedule_sga,
    sga,
    smoothness,
)
from thermosdp import optimize, sampling
from thermosdp.oracle import bloch_energy_problem, dual_scan, lp_diagonal_energy

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
        grad = exact_gradient(problem, mu, T)
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
            grad = exact_gradient(problem, mu, sched.temperature)
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


def plain_gradient_ascent(problem, epsilon, radius):
    """Every iteration of the paper schedule, computed: (estimate, mu, trace)."""
    sched = schedule_gd(problem, epsilon, radius)
    ge_mask = problem.ge_mask()
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


@pytest.fixture
def model_calls(monkeypatch):
    """Counts of the ThermalModel and dual_objective calls the solvers make."""
    counts = {"ThermalModel": 0, "dual_objective": 0}

    def counted(name):
        original = getattr(optimize, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(optimize, name, wrapper)

    counted("ThermalModel")
    counted("dual_objective")
    return counts


class _Point:
    def __init__(self, value):
        self.mu = np.array([float(value)])


class TestReplay:
    @pytest.mark.parametrize("tail,period,iterations", [
        (0, 1, 10), (5, 1, 64), (3, 2, 40), (7, 3, 100), (6, 5, 33), (2, 13, 200),
        (40, 6, 45), (10, 4, 10),
    ])
    def test_iterate_matches_plain_loop(self, tail, period, iterations):
        # a map with a transient of `tail` steps into a cycle of `period`,
        # noting every third step: trace, notes and final point must equal
        # the plain loop's, with far fewer steps computed
        def run(driver):
            steps, trace, notes = [0], [0.0], []

            def step(m, point):
                steps[0] += 1
                x = point.mu[0] + 1
                if x >= tail + period:
                    x = tail
                trace.append(x * 0.5)
                if int(x) % 3 == 0:
                    notes.append((m, f"at {x}"))
                return _Point(x)
            final = driver(step, _Point(0), iterations, trace, notes)
            return final.mu[0], trace, notes, steps[0]

        def plain(step, point, iterations, trace, notes):
            for m in range(1, iterations + 1):
                point = step(m, point)
            return point

        *replayed, computed = run(optimize._iterate)
        *expected, _ = run(plain)
        assert replayed == expected
        assert len(replayed[1]) == iterations + 1
        # Brent finds the cycle within about two laps of entering it
        assert computed <= min(iterations, 2 * (tail + period) + period + 1)

    @pytest.mark.parametrize("seed,d,c,senses,period", [
        (7, 3, 1, None, 1),
        (13, 3, 1, None, 4),
        (13, 4, 2, ("ge", "ge"), 1),
    ])
    def test_gradient_ascent_equals_plain_loop(self, model_calls, seed, d, c, senses, period):
        problem = diagonal_instance(seed, d, c, senses)
        report = gradient_ascent(problem, 0.2, 1.0)
        models = model_calls["ThermalModel"]
        estimate, mu, trace = plain_gradient_ascent(problem, 0.2, 1.0)
        assert report.estimate == estimate
        assert report.mu_final == mu
        assert report.objective_trace == trace
        # these instances reach a cycle of the given period before the end
        # of the schedule, so the replayed tail computes no models
        assert models < report.schedule.iterations + 1
        assert trace[-1 - period] == trace[-1]

    @pytest.mark.parametrize("problem,note", [
        # fixed point after three steps, then no candidate raises f
        (random_dense_problem(np.random.default_rng(2), 4, 2),
         "backtracking exhausted, step skipped"),
        # Q = I has a zero metric: every step falls back to the gradient
        # until the ball boundary stops it
        (EnergyProblem(SpectralHermitian(np.diag([0.4, -0.4])),
                       [SpectralHermitian(np.eye(2))], [0.5]),
         "singular metric, gradient fallback"),
    ])
    def test_newton_replays_fixed_point(self, model_calls, problem, note):
        short = natural_gradient_ascent(problem, 0.1, 1.0, iterations=50)
        short_calls = dict(model_calls)
        model_calls.update(ThermalModel=0, dual_objective=0)
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
