import math

import numpy as np
import pytest

from thermosdp import (
    EnergyProblem,
    PauliSum,
    SpectralHermitian,
    gradient_ascent,
    materialize,
    reduce_direct_sum,
    reduce_qubit_embed,
    schedule_gd,
    solve_sdp,
)
from thermosdp.oracle import dual_scan, lp_diagonal_sdp_value
from thermosdp.sdp import SdpProblem


def toy_sdp(r=5.0):
    # min 2 x11  s.t.  x11 = 3,  X >= 0, Tr X <= R  (1x1 case)
    return SdpProblem(
        SpectralHermitian(np.array([[2.0]])),
        ((SpectralHermitian(np.array([[1.0]])), 3.0),),
        r,
    )


def diag_pauli_sum(n, rng, terms=2):
    """Random diagonal Pauli sum (I/Z strings only)."""
    alphabet = ["I", "Z"]
    chosen = set()
    out = []
    while len(out) < terms:
        index = "".join(rng.choice(alphabet, size=n))
        if index in chosen or index == "I" * n and len(out) == 0 and terms > 1:
            continue
        chosen.add(index)
        out.append((index, float(rng.uniform(0.2, 1.0)) * (1 if rng.random() < 0.5 else -1)))
    return PauliSum(n, out)


def random_diag_pauli_sdp(rng, n, c, R):
    C = diag_pauli_sum(n, rng, terms=2)
    constraints = []
    d = 2 ** n
    # targets from a strictly positive witness with trace inside (0, R)
    witness = rng.dirichlet(np.ones(d)) * float(rng.uniform(0.3, 0.9)) * R
    for _ in range(c):
        A = diag_pauli_sum(n, rng, terms=2)
        diag = np.real(np.diagonal(materialize(A).entries))
        constraints.append((A, float(diag @ witness)))
    return SdpProblem(C, tuple(constraints), R)


class TestReduceDirectSum:
    def test_padded_blocks_and_scaled_targets(self):
        problem = reduce_direct_sum(toy_sdp(5.0))
        assert np.allclose(problem.h_dense.entries, np.diag([2.0, 0.0]))
        assert np.allclose(problem.q_dense[0].entries, np.diag([1.0, 0.0]))
        assert problem.q[0] == 3.0 / 5.0  # bit-level equality of b/R

    def test_trace_bound_monotonicity(self):
        # the trace bound is active here: alpha_R = 0.5 - R exactly
        c_diag = np.array([-1.0, 0.0])
        a_diag = np.array([0.0, 1.0])
        epsilon = 0.25
        values = {}
        for R in (4.0, 8.0):
            sdp = SdpProblem(
                SpectralHermitian(np.diag(c_diag)),
                ((SpectralHermitian(np.diag(a_diag)), 0.5),),
                R,
            )
            problem, scale = reduce_direct_sum(sdp), sdp.trace_bound
            T = (epsilon / scale) / (4 * math.log(problem.d))
            mu_star, _ = dual_scan(problem, T, np.linspace(-6, 6, 25))
            radius = max(1.0, 1.25 * abs(float(mu_star[0])))
            report = gradient_ascent(problem, epsilon / scale, radius)
            values[R] = scale * report.estimate
            oracle = lp_diagonal_sdp_value(c_diag, [a_diag], [0.5], trace_bound=R)
            assert oracle == pytest.approx(0.5 - R, abs=1e-9)
            assert abs(values[R] - oracle) <= epsilon + 1e-9
        assert values[8.0] <= values[4.0] + 2 * epsilon

    def test_identity_constraint_matches_direct_solve(self):
        # with Tr X = 1 present and R = 1 the SDP is already an energy problem
        C = np.diag([0.5, -0.7])
        A1 = np.eye(2)
        sdp = SdpProblem(
            SpectralHermitian(C), ((SpectralHermitian(A1), 1.0),), 1.0
        )
        epsilon = 0.05
        reduced = solve_sdp(sdp, epsilon, radius=3.0, mode="exact")
        direct_problem = EnergyProblem(
            SpectralHermitian(C), [SpectralHermitian(A1)], [1.0]
        )
        direct = gradient_ascent(direct_problem, epsilon, 3.0)
        assert abs(reduced.estimate - direct.estimate) <= 2 * epsilon


class TestReduceQubitEmbed:
    def test_zero_ket_expansion(self):
        # C = Z on one qubit -> (Z(x)I + Z(x)Z)/2 = diag(1, 0, -1, 0)
        sdp = SdpProblem(PauliSum(1, [("Z", 1.0)]), (), 1.0)
        problem = reduce_qubit_embed(sdp)
        assert problem.hamiltonian.n == 2
        assert np.allclose(problem.h_dense.entries, np.diag([1.0, 0.0, -1.0, 0.0]))

    def test_qubit_increment(self, rng):
        sdp = random_diag_pauli_sdp(rng, 2, 1, 2.0)
        problem = reduce_qubit_embed(sdp)
        assert problem.hamiltonian.n == 3
        assert problem.d == 2 * 4

    def test_requires_pauli(self):
        with pytest.raises(ValueError, match="Pauli-sum"):
            reduce_qubit_embed(toy_sdp())

    def test_agrees_with_direct_sum(self, rng):
        # both reductions bound the same alpha_R; exact solves agree
        sdp = random_diag_pauli_sdp(rng, 1, 1, 2.0)
        epsilon = 0.4
        estimates = []
        for reducer in (reduce_direct_sum, reduce_qubit_embed):
            problem, scale = reducer(sdp), sdp.trace_bound
            T = (epsilon / scale) / (4 * math.log(problem.d))
            mu_star, _ = dual_scan(problem, T, np.linspace(-8, 8, 33))
            radius = max(1.0, 1.25 * abs(float(mu_star[0])))
            report = gradient_ascent(problem, epsilon / scale, radius)
            estimates.append(scale * report.estimate)
        assert abs(estimates[0] - estimates[1]) <= 2 * epsilon


class TestSolveSdp:
    def test_schedule_golden(self):
        # R=5, r=1, eps=0.1, d=1, ||A|| = 1 -> M = ceil(20000 ln 2) = 13863
        sdp = toy_sdp(5.0)
        problem, scale = reduce_direct_sum(sdp), sdp.trace_bound
        sched = schedule_gd(problem, 0.1 / scale, 1.0)
        assert sched.iterations == 13863
        assert sched.temperature == pytest.approx(
            0.1 / (5.0 * 4.0 * math.log(2.0)), rel=1e-12
        )

    def test_diagonal_matches_lp_oracle(self):
        # d = 3 diagonal SDP with generous trace bound
        c_diag = np.array([0.6, 1.1, 2.0])
        a_diag = np.array([1.0, 0.4, -0.3])
        b = 0.8
        R = 3.0
        epsilon = 0.25
        sdp = SdpProblem(
            SpectralHermitian(np.diag(c_diag)),
            ((SpectralHermitian(np.diag(a_diag)), b),),
            R,
        )
        alpha_r = lp_diagonal_sdp_value(c_diag, [a_diag], [b], trace_bound=R)
        problem, scale = reduce_direct_sum(sdp), sdp.trace_bound
        T = (epsilon / scale) / (4 * math.log(problem.d))
        mu_star, _ = dual_scan(problem, T, np.linspace(-6, 6, 25))
        radius = max(1.0, 1.25 * abs(float(mu_star[0])))
        report = solve_sdp(sdp, epsilon, radius=radius, mode="exact")
        assert abs(report.estimate - alpha_r) <= epsilon + 1e-9
        assert report.reduction == "direct_sum"

    def test_zero_objective(self):
        sdp = SdpProblem(
            SpectralHermitian(np.zeros((2, 2))),
            ((SpectralHermitian(np.eye(2)), 1.0),),
            2.0,
        )
        report = solve_sdp(sdp, 0.1, radius=2.0, mode="exact")
        assert abs(report.estimate) <= 0.1

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            solve_sdp(toy_sdp(), 0.1, 1.0, mode="quantum")

    def test_sga_mode_runs_on_pauli_input(self, rng):
        sdp = random_diag_pauli_sdp(rng, 1, 1, 2.0)
        report = solve_sdp(sdp, 0.8, radius=1.5, mode="sga", delta=0.2, seed=4)
        assert report.reduction == "qubit_embed"
        assert report.sample_count > 0
        again = solve_sdp(sdp, 0.8, radius=1.5, mode="sga", delta=0.2, seed=4)
        assert report == again

    def test_newton_mode(self):
        # min 2x : x = 1, R = 5 has alpha_R = 2; the reduced dual optimum
        # sits near mu = 2, well inside radius 6
        sdp = SdpProblem(
            SpectralHermitian(np.array([[2.0]])),
            ((SpectralHermitian(np.array([[1.0]])), 1.0),),
            5.0,
        )
        report = solve_sdp(sdp, 0.1, radius=6.0, mode="newton")
        assert report.mode == "newton"
        assert report.reduction == "direct_sum"
        assert abs(report.estimate - 2.0) <= 0.1


class TestFeasibilityTransfer:
    def test_targets_scaled_exactly(self, rng):
        for R in (2.0, 5.0, 10.0):
            sdp = random_diag_pauli_sdp(rng, 2, 2, R)
            direct = reduce_direct_sum(sdp)
            embed = reduce_qubit_embed(sdp)
            for k, (_, b) in enumerate(sdp.constraints):
                assert direct.q[k] == b / R
                assert embed.q[k] == b / R
