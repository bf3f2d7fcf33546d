import math
from pathlib import Path

import numpy as np
import pytest

from thermosdp import (
    EnergyProblem,
    GdSchedule,
    PauliSum,
    SpectralHermitian,
    ThermalModel,
    gradient_ascent,
)
from thermosdp.oracle import (
    Infeasible,
    bloch_energy,
    bloch_energy_problem,
    dual_scan,
    finite_diff_gradient,
    finite_diff_hessian,
    km_quadrature,
    lp_diagonal_energy,
    lp_diagonal_sdp_value,
)

from conftest import random_dense_problem


class TestFiniteDifferences:
    def test_matches_exact_gradient(self, rng):
        for _ in range(20):
            d = int(rng.choice([4, 8]))
            c = int(rng.integers(1, 4))
            problem = random_dense_problem(rng, d, c)
            mu = rng.normal(scale=0.7, size=c)
            T = float(rng.uniform(0.1, 2.0))
            grad = ThermalModel(problem, mu, T).gradient()
            fd = finite_diff_gradient(problem, mu, T)
            rel = np.abs(grad - fd).max() / max(np.abs(grad).max(), 1.0)
            assert rel <= 1e-6

    def test_zero_gradient_at_known_optimum(self, rng):
        # for H = 0, Q = Z the dual optimum is mu* = artanh(q) at T = 1
        for q in (0.2, 0.5, -0.7):
            problem = EnergyProblem(
                SpectralHermitian(np.zeros((2, 2))),
                [SpectralHermitian(np.diag([1.0, -1.0]))],
                [q],
            )
            fd = finite_diff_gradient(problem, [math.atanh(q)], 1.0)
            assert abs(fd[0]) < 1e-9

    def test_hessian_symmetric(self, rng):
        problem = random_dense_problem(rng, 4, 3)
        mu = rng.normal(size=3)
        fd = finite_diff_hessian(problem, mu, 0.8)
        assert np.abs(fd - fd.T).max() < 1e-8

    def test_step_validation(self, rng):
        problem = random_dense_problem(rng, 4, 1)
        with pytest.raises(ValueError):
            finite_diff_gradient(problem, [0.0], 1.0, h=0.0)


class TestLpDiagonalEnergy:
    def test_ground_state(self):
        problem = EnergyProblem(
            SpectralHermitian(np.diag([0.0, 1.0])), [], []
        )
        assert lp_diagonal_energy(problem) == pytest.approx(0.0, abs=1e-12)

    def test_three_level_golden(self):
        # support {0, 2}: p = (0.25, 0, 0.75) meets <Q> = -0.5 at <H> = 1.5
        problem = EnergyProblem(
            SpectralHermitian(np.diag([0.0, 1.0, 2.0])),
            [SpectralHermitian(np.diag([1.0, 0.0, -1.0]))],
            [-0.5],
        )
        assert lp_diagonal_energy(problem) == pytest.approx(1.5, abs=1e-10)

    def test_slack_ge_row(self):
        # <Q> >= -0.5 holds at the ground state |0>; as an "eq" row it would
        # force p = (0.25, 0.75) and E = 0.5
        problem = EnergyProblem(
            SpectralHermitian(np.diag([-1.0, 1.0])),
            [SpectralHermitian(np.diag([1.0, -1.0]))],
            [-0.5],
            senses=["ge"],
        )
        assert lp_diagonal_energy(problem) == pytest.approx(-1.0, abs=1e-12)

    def test_infeasible_target(self):
        problem = EnergyProblem(
            SpectralHermitian(np.diag([0.0, 1.0])),
            [SpectralHermitian(np.diag([1.0, -1.0]))],
            [1.5],
        )
        with pytest.raises(Infeasible):
            lp_diagonal_energy(problem)

    def test_rejects_noncommuting(self):
        problem = EnergyProblem(
            SpectralHermitian(np.diag([1.0, -1.0])),
            [SpectralHermitian(np.array([[0.0, 1.0], [1.0, 0.0]]))],
            [0.0],
        )
        with pytest.raises(ValueError, match="commute"):
            lp_diagonal_energy(problem)

    def test_commuting_but_rotated(self, rng):
        # a common unitary rotation leaves the LP value unchanged
        h = np.diag([0.0, 1.0, 2.0]).astype(complex)
        g = np.diag([1.0, 0.0, -1.0]).astype(complex)
        plain = EnergyProblem(SpectralHermitian(h), [SpectralHermitian(g)], [-0.5])
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        u, _ = np.linalg.qr(a)
        rotated = EnergyProblem(
            SpectralHermitian(u @ h @ u.conj().T),
            [SpectralHermitian(u @ g @ u.conj().T)],
            [-0.5],
        )
        assert lp_diagonal_energy(rotated) == pytest.approx(
            lp_diagonal_energy(plain), abs=1e-8
        )


class TestBlochEnergy:
    def test_constrained_golden(self):
        assert bloch_energy(0, 0, 1, [(1, 0, 0, 0.6)]) == pytest.approx(-0.8)

    def test_forced_pure_state(self):
        assert bloch_energy(0, 0, 1, [(1, 0, 0, 1.0)]) == pytest.approx(0.0, abs=1e-9)

    def test_infeasible_outside_ball(self):
        with pytest.raises(Infeasible):
            bloch_energy(0, 0, 1, [(1, 0, 0, 1.1)])

    def test_unconstrained_is_minus_norm(self):
        assert bloch_energy(0.3, -0.4, 1.2) == pytest.approx(
            -math.sqrt(0.09 + 0.16 + 1.44)
        )

    def test_inconsistent_constraints(self):
        with pytest.raises(Infeasible):
            bloch_energy(0, 0, 1, [(1, 0, 0, 0.5), (2, 0, 0, 0.2)])

    def test_problem_wrapper_with_identity_offsets(self):
        problem = EnergyProblem(
            PauliSum(1, [("Z", 1.0), ("I", 0.25)]),
            [PauliSum(1, [("X", 1.0), ("I", -0.1)])],
            [0.5],
        )
        # constraint becomes <X> = 0.6, objective shifted by +0.25
        assert bloch_energy_problem(problem) == pytest.approx(-0.8 + 0.25)

    def test_agrees_with_lp_on_diagonal_single_qubit(self):
        problem_pauli = EnergyProblem(
            PauliSum(1, [("Z", 1.0)]), [PauliSum(1, [("Z", 1.0)])], [0.3]
        )
        problem_diag = EnergyProblem(
            SpectralHermitian(np.diag([1.0, -1.0])),
            [SpectralHermitian(np.diag([1.0, -1.0]))],
            [0.3],
        )
        assert bloch_energy_problem(problem_pauli) == pytest.approx(
            lp_diagonal_energy(problem_diag), abs=1e-10
        )


class TestKmQuadrature:
    def test_single_qubit_canonical(self):
        problem = EnergyProblem(
            SpectralHermitian(np.zeros((2, 2))),
            [SpectralHermitian(np.diag([1.0, -1.0]))],
            [0.0],
        )
        km = km_quadrature(problem, [0.0], 1.0)
        assert km[0, 0] == pytest.approx(1.0, abs=1e-10)

    def test_identity_charge(self):
        problem = EnergyProblem(
            SpectralHermitian(np.diag([0.5, -0.5])),
            [SpectralHermitian(np.eye(2))],
            [1.0],
        )
        km = km_quadrature(problem, [0.3], 1.0)
        assert abs(km[0, 0]) < 1e-12

    def test_matches_closed_form(self, rng):
        for _ in range(4):
            problem = random_dense_problem(rng, 6, 2)
            mu = rng.normal(scale=0.5, size=2)
            T = float(rng.uniform(0.3, 1.5))
            assert np.abs(
                km_quadrature(problem, mu, T) - ThermalModel(problem, mu, T).kubo_mori()
            ).max() < 1e-8

    def test_symmetric_psd(self, rng):
        problem = random_dense_problem(rng, 4, 2)
        km = km_quadrature(problem, rng.normal(size=2), 0.7)
        assert np.abs(km - km.T).max() < 1e-10
        assert np.linalg.eigvalsh(km).min() >= -1e-10

    def test_node_floor(self, rng):
        problem = random_dense_problem(rng, 4, 1)
        with pytest.raises(ValueError):
            km_quadrature(problem, [0.0], 1.0, nodes=8)


class TestDualScan:
    def scalar_problem(self, q):
        return EnergyProblem(
            SpectralHermitian(np.zeros((2, 2))),
            [SpectralHermitian(np.diag([1.0, -1.0]))],
            [q],
        )

    def test_closed_form_optimum(self):
        mu_star, f_star = dual_scan(self.scalar_problem(0.5), 1.0, np.linspace(-3, 3, 25))
        assert mu_star[0] == pytest.approx(math.atanh(0.5), abs=1e-7)
        assert f_star == pytest.approx(-0.5623351446188083, abs=1e-10)

    def test_symmetric_instance(self):
        mu_star, _ = dual_scan(self.scalar_problem(0.0), 1.0, np.linspace(-3, 3, 25))
        assert abs(mu_star[0]) < 1e-8

    def test_agrees_with_gradient_ascent(self):
        problem = self.scalar_problem(0.5)
        sched = GdSchedule(
            temperature=1.0, iterations=500, step_size=0.5,
            smoothness=2.0, radius=2.0, epsilon=0.1,
        )
        report = gradient_ascent(problem, 0.1, 2.0, schedule=sched)
        _, f_star = dual_scan(problem, 1.0, np.linspace(-3, 3, 25))
        assert abs(report.objective_trace[-1] - f_star) < 1e-6

    def test_two_dimensional(self, rng):
        problem = random_dense_problem(rng, 4, 2)
        grid = np.linspace(-4, 4, 17)
        mu_star, f_star = dual_scan(problem, 0.8, (grid, grid))
        # stationarity at the reported maximizer
        grad = ThermalModel(problem, mu_star, 0.8).gradient()
        assert np.abs(grad).max() < 1e-5

    def test_ge_row_keeps_mu_nonnegative(self):
        # the unconstrained maximizer atanh(-0.5) < 0 is cut off; with H = 0,
        # f(0) = -T ln 2
        problem = EnergyProblem(
            SpectralHermitian(np.zeros((2, 2))),
            [SpectralHermitian(np.diag([1.0, -1.0]))],
            [-0.5],
            senses=["ge"],
        )
        mu_star, f_star = dual_scan(problem, 1.0, np.linspace(-3, 3, 25))
        assert mu_star[0] == pytest.approx(0.0, abs=1e-9)
        assert f_star == pytest.approx(-math.log(2.0), abs=1e-9)

    def test_two_dimensional_ge_row_sandwich(self):
        # row 2 is slack at the minimizer, so its dual is 0, not the
        # negative value the free scan would pick
        problem = EnergyProblem(
            SpectralHermitian(np.diag([-1.0, 0.0, 1.0, 0.5])),
            [SpectralHermitian(np.diag([1.0, -1.0, 0.0, 0.0])),
             SpectralHermitian(np.diag([1.0, -1.0, 1.0, -1.0]))],
            [0.1, -0.9],
            senses=["eq", "ge"],
        )
        T = 0.05
        grid = np.linspace(-8, 8, 33)
        mu_star, f_star = dual_scan(problem, T, (grid, grid))
        energy = lp_diagonal_energy(problem)
        assert mu_star[1] >= 0.0
        assert energy >= f_star >= energy - T * math.log(4.0)

    def test_constraint_cap(self, rng):
        problem = random_dense_problem(rng, 4, 3)
        with pytest.raises(ValueError):
            dual_scan(problem, 1.0, np.linspace(-1, 1, 5))


class TestLpDiagonalSdpValue:
    def test_simple_golden(self):
        # min x0 + 2 x1 : x0 + x1 = 1 -> put all mass on x0
        val = lp_diagonal_sdp_value([1.0, 2.0], [[1.0, 1.0]], [1.0])
        assert val == pytest.approx(1.0)

    def test_trace_bound_changes_value(self):
        # unbounded trace lets the -1 direction run to the bound
        val = lp_diagonal_sdp_value(
            [-1.0, 0.0], [[0.0, 1.0]], [0.5], trace_bound=4.0
        )
        assert val == pytest.approx(-(4.0 - 0.5))

    def test_infeasible(self):
        with pytest.raises(Infeasible):
            lp_diagonal_sdp_value([1.0], [[0.0]], [1.0])

    def test_ge_sense(self):
        val = lp_diagonal_sdp_value(
            [1.0, 3.0], [[1.0, 1.0]], [2.0], senses=["ge"]
        )
        assert val == pytest.approx(2.0)


class TestOracleIndependence:
    def test_no_solver_imports(self):
        import thermosdp.oracle as oracle_module

        source = Path(oracle_module.__file__).read_text()
        assert "from .optimize" not in source
        assert "import optimize" not in source
        assert "from .sampling" not in source
