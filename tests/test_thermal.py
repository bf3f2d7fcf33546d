import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import softmax

from thermosdp import (
    Density,
    EnergyProblem,
    PauliSum,
    SpectralHermitian,
    ThermalModel,
    dual_objective,
    effective_hamiltonian,
    entropy,
    exact_gradient,
    free_energy_primal,
    hessian,
    kubo_mori,
    log_partition,
    materialize,
    relative_entropy,
    thermal_state,
)
from thermosdp.oracle import finite_diff_gradient, finite_diff_hessian, km_quadrature

from conftest import random_dense_problem, random_density, random_hermitian

Z = np.diag([1.0, -1.0])


def scalar_problem(h=None, q_diag=None, target=0.0):
    """Single-qubit problem from given diagonals (dense route)."""
    H = np.zeros((2, 2)) if h is None else np.diag(h).astype(float)
    charges = [] if q_diag is None else [SpectralHermitian(np.diag(q_diag))]
    targets = [] if q_diag is None else [target]
    return EnergyProblem(SpectralHermitian(H), charges, targets)


class TestEffectiveHamiltonian:
    def test_zero_mu_returns_h(self, rng):
        problem = random_dense_problem(rng, 4, 2)
        G = effective_hamiltonian(problem, [0.0, 0.0])
        assert np.allclose(G.entries, problem.h_dense.entries)

    def test_scalar_combination(self):
        problem = scalar_problem(h=[0.0, 0.0], q_diag=[1.0, -1.0])
        G = effective_hamiltonian(problem, [0.5])
        assert np.allclose(G.entries, np.diag([-0.5, 0.5]))

    def test_matches_entrywise_oracle(self, rng):
        problem = random_dense_problem(rng, 8, 3)
        mu = rng.normal(size=3)
        expected = problem.h_dense.entries.copy()
        for mi, Qd in zip(mu, problem.q_dense):
            expected = expected - mi * Qd.entries
        assert np.allclose(effective_hamiltonian(problem, mu).entries, expected)

    def test_length_mismatch(self, rng):
        problem = random_dense_problem(rng, 4, 2)
        with pytest.raises(ValueError):
            effective_hamiltonian(problem, [0.1])


class TestLogPartition:
    def test_free_spectrum(self):
        assert log_partition(scalar_problem(), [], 1.0) == pytest.approx(
            math.log(2.0), abs=1e-12
        )

    def test_scalar_diagonal_evaluation(self):
        # independent scalar oracle: ln(e^{1} + e^{-1}) = ln(2 cosh 1)
        expected = math.log(math.exp(1.0) + math.exp(-1.0))
        got = log_partition(scalar_problem(h=[1.0, -1.0]), [], 1.0)
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(1.1269280110429727, abs=1e-12)

    def test_no_overflow_at_low_temperature(self):
        got = log_partition(scalar_problem(h=[1.0, -1.0]), [], 0.01)
        assert got == 100.0  # 100 + log1p(e^{-200}) is exactly 100 in double

    def test_temperature_validation(self):
        with pytest.raises(ValueError):
            log_partition(scalar_problem(), [], 0.0)


class TestThermalState:
    def test_uniform_limit(self):
        state = thermal_state(scalar_problem(), [], 1.0)
        assert np.allclose(state.matrix, np.eye(2) / 2)

    def test_diagonal_closed_form(self):
        state = thermal_state(scalar_problem(h=[1.0, -1.0]), [], 1.0)
        t = math.tanh(1.0)
        assert np.allclose(state.matrix, np.diag([(1 - t) / 2, (1 + t) / 2]))

    def test_softmax_oracle(self, rng):
        # independent oracle: V diag(softmax(-lam/T)) V^dag
        for _ in range(5):
            problem = random_dense_problem(rng, 6, 0)
            lam, V = np.linalg.eigh(problem.h_dense.entries)
            expected = (V * softmax(-lam / 1.0)) @ V.conj().T
            state = thermal_state(problem, [], 1.0)
            assert np.abs(state.matrix - expected).max() < 1e-12

    def test_state_commutes_with_g(self, rng):
        problem = random_dense_problem(rng, 6, 2)
        mu = [0.3, -0.7]
        model = ThermalModel(problem, mu, 0.5)
        G = effective_hamiltonian(problem, mu).entries
        rho = Density(model.rho).matrix
        assert np.abs(G @ rho - rho @ G).max() < 1e-10


def real_dense_problem(rng, dim, c):
    """Random real symmetric instance (the real-storage route)."""
    def sym():
        a = rng.normal(size=(dim, dim))
        return (a + a.T) / 2.0
    charges = [sym() for _ in range(c)]
    return EnergyProblem(
        SpectralHermitian(sym()),
        [SpectralHermitian(Q) for Q in charges],
        rng.uniform(-0.3, 0.3, size=c),
    )


class TestThermalKernel:
    def test_eigh_dtype_follows_storage(self, rng, monkeypatch):
        seen = []
        eigh = np.linalg.eigh

        def spy(a, *args, **kwargs):
            seen.append(a.dtype)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spy)
        real = ThermalModel(real_dense_problem(rng, 5, 2), [0.3, -0.2], 0.5)
        cplx = ThermalModel(random_dense_problem(rng, 5, 2), [0.3, -0.2], 0.5)
        assert seen == [np.float64, np.complex128]
        assert real.eigenvectors.dtype == real.rho.dtype == np.float64
        assert cplx.eigenvectors.dtype == cplx.rho.dtype == np.complex128

    @pytest.mark.parametrize("T", [1.0, 0.1, 1e-3])
    def test_value_only_objective_matches_model(self, rng, T):
        for make in (real_dense_problem, random_dense_problem):
            for _ in range(3):
                problem = make(rng, 7, 2)
                mu = rng.normal(size=2)
                value = dual_objective(problem, mu, T)
                full = ThermalModel(problem, mu, T).dual_objective()
                assert abs(value - full) <= 1e-12 * abs(full)
                assert log_partition(problem, mu, T) == pytest.approx(
                    ThermalModel(problem, mu, T).log_partition, rel=1e-12
                )

    def test_weights_and_charges_match_expm_oracle(self, rng):
        problem = real_dense_problem(rng, 6, 2)
        mu = np.array([0.4, -0.7])
        T = 0.6
        G = problem.h_dense.entries - sum(m * Q.entries for m, Q in zip(mu, problem.q_dense))
        rho = expm(-G / T)
        rho /= np.trace(rho)
        model = ThermalModel(problem, mu, T)
        assert np.abs(model.rho - rho).max() <= 1e-12
        assert np.sort(model.probs) == pytest.approx(np.linalg.eigvalsh(rho), abs=1e-12)
        means = [np.trace(Q.entries @ rho) for Q in problem.q_dense]
        assert model.charge_expectations() == pytest.approx(means, abs=1e-12)



class TestDualObjective:
    def test_mu_zero(self):
        problem = scalar_problem(h=[0.0, 0.0], q_diag=[1.0, -1.0], target=0.5)
        assert dual_objective(problem, [0.0], 1.0) == pytest.approx(
            -math.log(2.0), abs=1e-12
        )

    def test_binary_entropy_point(self):
        problem = scalar_problem(h=[0.0, 0.0], q_diag=[1.0, -1.0], target=0.5)
        mu = math.atanh(0.5)
        expected = 0.75 * math.log(0.75) + 0.25 * math.log(0.25)
        assert dual_objective(problem, [mu], 1.0) == pytest.approx(expected, abs=1e-12)

    def test_ignores_q_at_origin(self, rng):
        problem = random_dense_problem(rng, 4, 2)
        lnz = log_partition(problem, [0.0, 0.0], 0.7)
        assert dual_objective(problem, [0.0, 0.0], 0.7) == pytest.approx(
            -0.7 * lnz, abs=1e-12
        )


class TestExactGradient:
    def test_traceless_on_mixed(self):
        problem = scalar_problem(h=[0.0, 0.0], q_diag=[1.0, -1.0], target=0.0)
        assert exact_gradient(problem, [0.0], 1.0) == pytest.approx([0.0], abs=1e-14)

    def test_tanh_closed_form(self):
        problem = scalar_problem(h=[0.0, 0.0], q_diag=[1.0, -1.0], target=0.0)
        got = exact_gradient(problem, [0.5], 1.0)
        assert got[0] == pytest.approx(-math.tanh(0.5), abs=1e-12)

    def test_finite_difference_oracle(self, rng):
        for _ in range(5):
            problem = random_dense_problem(rng, 6, 2)
            mu = rng.normal(scale=0.8, size=2)
            grad = exact_gradient(problem, mu, 0.6)
            fd = finite_diff_gradient(problem, mu, 0.6)
            rel = np.abs(grad - fd).max() / max(np.abs(grad).max(), 1.0)
            assert rel <= 1e-6


class TestKuboMori:
    def test_single_qubit_canonical(self):
        problem = scalar_problem(h=[0.0, 0.0], q_diag=[1.0, -1.0], target=0.0)
        km = kubo_mori(problem, [0.0], 1.0)
        assert km.shape == (1, 1)
        assert km[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_identity_charge_is_flat(self):
        problem = EnergyProblem(
            SpectralHermitian(np.diag([0.3, -0.3])),
            [SpectralHermitian(np.eye(2))],
            [1.0],
        )
        km = kubo_mori(problem, [0.2], 0.7)
        assert abs(km[0, 0]) < 1e-12

    def test_quadrature_oracle(self, rng):
        for _ in range(4):
            problem = random_dense_problem(rng, 6, 2)
            mu = rng.normal(scale=0.6, size=2)
            km = kubo_mori(problem, mu, 0.8)
            kq = km_quadrature(problem, mu, 0.8)
            assert np.abs(km - kq).max() < 1e-8

    def test_symmetric_psd(self, rng):
        for _ in range(5):
            problem = random_dense_problem(rng, 8, 3)
            mu = rng.normal(scale=1.0, size=3)
            km = kubo_mori(problem, mu, 0.4)
            assert np.abs(km - km.T).max() < 1e-12
            assert np.linalg.eigvalsh(km).min() >= -1e-10


class TestHessian:
    def test_single_qubit_with_bound(self):
        problem = scalar_problem(h=[0.0, 0.0], q_diag=[1.0, -1.0], target=0.0)
        h = hessian(problem, [0.0], 1.0)
        assert h[0, 0] == pytest.approx(-1.0, abs=1e-12)
        assert abs(h[0, 0]) <= 2.0 / 1.0 * 1.0 * 1.0

    def test_finite_difference_oracle(self, rng):
        for _ in range(4):
            problem = random_dense_problem(rng, 6, 2)
            mu = rng.normal(scale=0.6, size=2)
            h = hessian(problem, mu, 0.7)
            fd = finite_diff_hessian(problem, mu, 0.7)
            assert np.abs(h - fd).max() < 1e-5

    def test_concave_far_from_origin(self, rng):
        problem = random_dense_problem(rng, 4, 2)
        h = hessian(problem, [10.0, -10.0], 0.5)
        assert np.linalg.eigvalsh(h).max() <= 1e-10

    def test_entrywise_bound(self, rng):
        for _ in range(5):
            problem = random_dense_problem(rng, 6, 3)
            mu = rng.normal(scale=1.5, size=3)
            T = float(rng.uniform(0.2, 2.0))
            h = hessian(problem, mu, T)
            norms = np.array([Q.spectral_norm() for Q in problem.q_dense])
            bound = 2.0 / T * np.outer(norms, norms)
            assert np.all(np.abs(h) <= bound + 1e-12)


class TestEntropy:
    def test_pure_state(self):
        assert entropy(Density(np.diag([1.0, 0.0]))) == 0.0

    def test_maximally_mixed(self):
        for d in (2, 4, 8):
            assert entropy(Density(np.eye(d) / d)) == pytest.approx(math.log(d))

    def test_binary_entropy(self):
        got = entropy(Density(np.diag([0.75, 0.25])))
        assert got == pytest.approx(0.5623351446188083, abs=1e-12)


class TestRelativeEntropy:
    def test_self_is_zero(self, rng):
        rho = Density(random_density(rng, 4))
        assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-10)

    def test_pure_vs_mixed(self):
        pure = Density(np.diag([1.0, 0.0]))
        mixed = Density(np.eye(2) / 2)
        assert relative_entropy(pure, mixed) == pytest.approx(math.log(2.0))

    def test_disjoint_support(self):
        zero = Density(np.diag([1.0, 0.0]))
        one = Density(np.diag([0.0, 1.0]))
        assert relative_entropy(zero, one) == math.inf

    def test_nonnegative(self, rng):
        for _ in range(10):
            a = Density(random_density(rng, 4))
            b = Density(random_density(rng, 4))
            assert relative_entropy(a, b) >= -1e-10


class TestFreeEnergyPrimal:
    def test_mixed_state_golden(self):
        problem = scalar_problem(h=[1.0, -1.0])
        got = free_energy_primal(problem, Density(np.eye(2) / 2), 1.0)
        assert got == pytest.approx(-math.log(2.0), abs=1e-12)

    def test_pure_state_zero_hamiltonian(self):
        problem = scalar_problem()
        assert free_energy_primal(problem, Density(np.diag([1.0, 0.0])), 2.0) == 0.0

    def test_cross_module_identity(self, rng):
        # at rho_T(mu): F(rho) = mu.q' + f(mu) - mu.q with q' the realized means
        for _ in range(5):
            problem = random_dense_problem(rng, 6, 2)
            mu = rng.normal(scale=0.7, size=2)
            model = ThermalModel(problem, mu, 0.9)
            lhs = free_energy_primal(problem, Density(model.rho), 0.9)
            q_realized = model.charge_expectations()
            rhs = mu @ q_realized + model.dual_objective() - mu @ problem.q
            assert lhs == pytest.approx(rhs, abs=1e-9)


class TestDualityInvariants:
    def test_duality_identity(self, rng):
        # f(mu) = mu.q + <H - mu.Q> - T S(rho) at rho = rho_T(mu)
        for _ in range(10):
            d = int(rng.choice([2, 4, 8]))
            c = int(rng.integers(1, 4))
            problem = random_dense_problem(rng, d, c)
            mu = rng.normal(scale=1.0, size=c)
            T = float(rng.uniform(0.1, 2.0))
            model = ThermalModel(problem, mu, T)
            state = Density(model.rho)
            energy_part = (
                np.trace(effective_hamiltonian(problem, mu).entries @ state.matrix).real
            )
            rhs = mu @ problem.q + energy_part - T * entropy(state)
            assert model.dual_objective() == pytest.approx(rhs, abs=1e-9)

    def test_concavity(self, rng):
        problem = random_dense_problem(rng, 4, 2)
        for _ in range(10):
            mu1 = rng.normal(scale=1.5, size=2)
            mu2 = rng.normal(scale=1.5, size=2)
            lam = float(rng.uniform(0.0, 1.0))
            mix = lam * mu1 + (1 - lam) * mu2
            lhs = dual_objective(problem, mix, 0.7)
            rhs = lam * dual_objective(problem, mu1, 0.7) + (1 - lam) * dual_objective(
                problem, mu2, 0.7
            )
            assert lhs >= rhs - 1e-9

    def test_pauli_route_matches_dense_route(self, rng):
        # same physics whether observables enter as PauliSum or dense
        H = PauliSum(2, [("ZI", 0.8), ("XX", -0.4)])
        Q = PauliSum(2, [("ZZ", 1.0)])
        pauli_problem = EnergyProblem(H, [Q], [0.2])
        dense_problem = EnergyProblem(
            materialize(H), [materialize(Q)], [0.2]
        )
        mu = [0.37]
        assert dual_objective(pauli_problem, mu, 0.5) == pytest.approx(
            dual_objective(dense_problem, mu, 0.5), abs=1e-12
        )


class TestDeskScale:
    def test_moderate_qubit_count(self):
        # n = 8 (d = 256): the dense spectral route stays exact and fast
        rng = np.random.default_rng(2718)
        n = 8

        def sparse_sum(terms):
            out = []
            seen = set()
            while len(out) < terms:
                idx = "".join(rng.choice(list("IXYZ"), size=n))
                if idx in seen:
                    continue
                seen.add(idx)
                out.append((idx, float(rng.uniform(-1.0, 1.0))))
            return PauliSum(n, out)

        problem = EnergyProblem(sparse_sum(3), [sparse_sum(2), sparse_sum(2)], [0.1, -0.1])
        assert problem.d == 256
        mu = np.array([0.2, -0.3])
        T = 0.5
        model = ThermalModel(problem, mu, T)
        # duality identity and curvature sanity at scale
        state = Density(model.rho)
        readout = np.trace(effective_hamiltonian(problem, mu).entries @ state.matrix).real
        rhs = mu @ problem.q + readout - T * entropy(state)
        assert model.dual_objective() == pytest.approx(rhs, abs=1e-9)
        km = model.kubo_mori()
        assert np.linalg.eigvalsh(km).min() >= -1e-10
        grad = model.gradient()
        fd = finite_diff_gradient(problem, mu, T)
        assert np.abs(grad - fd).max() / max(np.abs(grad).max(), 1.0) <= 1e-6
