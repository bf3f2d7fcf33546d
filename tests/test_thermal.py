import copy
import math
import tracemalloc

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
    effective_hamiltonian,
    entropy,
    free_energy_primal,
    gradient_ascent,
    materialize,
    natural_gradient_ascent,
    schedule_gd,
)
from thermosdp import sdp as sdp_module
from thermosdp import thermal as thermal_module
from thermosdp.optimize import norm_bounds
from thermosdp.oracle import (
    dual_objective,
    finite_diff_gradient,
    finite_diff_hessian,
    km_quadrature,
)
from thermosdp.sdp import SdpProblem, reduce_direct_sum, solve_sdp

from conftest import (
    random_dense_problem,
    random_density,
    random_hermitian,
    random_pauli_sum,
    spectral_norm,
)

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
        assert ThermalModel(scalar_problem(), [], 1.0).log_partition == pytest.approx(
            math.log(2.0), abs=1e-12
        )

    def test_scalar_diagonal_evaluation(self):
        # independent scalar oracle: ln(e^{1} + e^{-1}) = ln(2 cosh 1)
        expected = math.log(math.exp(1.0) + math.exp(-1.0))
        got = ThermalModel(scalar_problem(h=[1.0, -1.0]), [], 1.0).log_partition
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(1.1269280110429727, abs=1e-12)

    def test_no_overflow_at_low_temperature(self):
        got = ThermalModel(scalar_problem(h=[1.0, -1.0]), [], 0.01).log_partition
        assert got == 100.0  # 100 + log1p(e^{-200}) is exactly 100 in double

    def test_temperature_validation(self):
        with pytest.raises(ValueError):
            dual_objective(scalar_problem(), [], 0.0)

    @pytest.mark.parametrize("T", [math.nan, math.inf])
    def test_non_finite_temperature_rejected(self, T):
        problem = scalar_problem(h=[1.0, -1.0], q_diag=[1.0, -1.0])
        with pytest.raises(ValueError, match="temperature"):
            ThermalModel(problem, [0.2], T)
        with pytest.raises(ValueError, match="temperature"):
            dual_objective(problem, [0.2], T)


class TestThermalState:
    def test_uniform_limit(self):
        state = Density(ThermalModel(scalar_problem(), [], 1.0).rho)
        assert np.allclose(state.entries, np.eye(2) / 2)

    def test_diagonal_closed_form(self):
        state = Density(ThermalModel(scalar_problem(h=[1.0, -1.0]), [], 1.0).rho)
        t = math.tanh(1.0)
        assert np.allclose(state.entries, np.diag([(1 - t) / 2, (1 + t) / 2]))

    def test_softmax_oracle(self, rng):
        # independent oracle: V diag(softmax(-lam/T)) V^dag
        for _ in range(5):
            problem = random_dense_problem(rng, 6, 0)
            lam, V = np.linalg.eigh(problem.h_dense.entries)
            expected = (V * softmax(-lam / 1.0)) @ V.conj().T
            state = Density(ThermalModel(problem, [], 1.0).rho)
            assert np.abs(state.entries - expected).max() < 1e-12

    def test_state_commutes_with_g(self, rng):
        problem = random_dense_problem(rng, 6, 2)
        mu = [0.3, -0.7]
        model = ThermalModel(problem, mu, 0.5)
        G = effective_hamiltonian(problem, mu).entries
        rho = Density(model.rho).entries
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
                # the ln Z inside the value-only objective
                assert (mu @ problem.q - value) / T == pytest.approx(
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

    @pytest.mark.parametrize("family", ["rotated", "pauli_xy"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nan_mu_raises_non_finite(self, rng, family, bad):
        # a dense G never reaches LAPACK with a non-finite mu
        if family == "rotated":
            problem = random_dense_problem(rng, 5, 2)
        else:
            problem = EnergyProblem(
                random_pauli_sum(rng, 2, 3),
                [PauliSum(2, [("XY", 0.5), ("ZI", -0.3)]), PauliSum(2, [("YX", 1.0)])],
                [0.1, -0.2],
            )
        assert problem._diagonals is None
        with pytest.raises(ValueError, match="mu has non-finite"):
            ThermalModel(problem, [bad, 0.1], 0.5)
        with pytest.raises(ValueError, match="mu has non-finite"):
            dual_objective(problem, [0.1, bad], 0.5)
        with pytest.raises(ValueError, match="mu has non-finite"):
            dual_objective(problem, [bad, bad], 0.5)


def diagonal_problem(rng, family, c, ties):
    """Random problem whose observables are all diagonal.

    ``family`` is "dense" (diagonal matrices), "pauli" ({I, Z} Pauli sums on
    three qubits) or "direct_sum" (a diagonal SDP padded by one zero row and
    column).  With ``ties`` the dense diagonals take few distinct values.
    """
    if family == "pauli":
        def zsum():
            terms = {"".join(rng.choice(["I", "Z"], size=3)): 0.0 for _ in range(3)}
            return PauliSum(3, [(s, float(rng.uniform(-1.0, 1.0))) for s in terms])
        return EnergyProblem(zsum(), [zsum() for _ in range(c)], rng.uniform(-0.3, 0.3, c))

    def diag(d):
        v = rng.integers(-2, 3, size=d) / 2.0 if ties else rng.uniform(-1.0, 1.0, size=d)
        return SpectralHermitian(np.diag(v))

    if family == "dense":
        return EnergyProblem(diag(6), [diag(6) for _ in range(c)], rng.uniform(-0.3, 0.3, c))
    sdp = SdpProblem(diag(5), tuple((diag(5), float(rng.uniform(0.1, 0.5))) for _ in range(c)), 2.0)
    return reduce_direct_sum(sdp)


def eigh_route(problem, mu, T):
    """The dense kernel as a reference: G entry by entry, LAPACK eigh, then
    the log-sum-exp weights, rho and Tr[Q rho]."""
    G = problem.h_dense.entries.copy()
    for m, Q in zip(mu, problem.q_dense):
        G -= m * Q.entries
    lam, V = np.linalg.eigh(G)
    shifted = (lam[0] - lam) / T
    logsum = math.log(np.exp(shifted).sum())
    probs = np.exp(shifted - logsum)
    rho = (V * probs) @ V.conj().T
    means = np.array([np.vdot(rho, Q.entries).real for Q in problem.q_dense], dtype=float)
    return {"eigenvalues": lam, "eigenvectors": V, "probs": probs,
            "log_partition": -lam[0] / T + logsum, "rho": rho, "means": means,
            "eigvalsh": np.linalg.eigvalsh(G)}


def bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestDiagonalSpectrum:
    """A problem whose observables are all diagonal skips LAPACK and must
    give exactly what the eigh route gives."""

    @pytest.mark.parametrize("family,ties", [
        ("dense", False), ("dense", True), ("pauli", False), ("direct_sum", False),
        ("direct_sum", True),
    ])
    @pytest.mark.parametrize("c", [0, 1, 2, 3])
    def test_model_equals_eigh_route_bitwise(self, rng, family, ties, c):
        for _ in range(5):
            problem = diagonal_problem(rng, family, c, ties)
            assert problem._diagonals is not None
            mu = rng.normal(size=c)
            T = float(rng.uniform(0.05, 1.0))
            model = ThermalModel(problem, mu, T)
            ref = eigh_route(problem, mu, T)
            assert bitwise_equal(model.eigenvalues, ref["eigenvalues"])
            assert bitwise_equal(model.probs, ref["probs"])
            assert model.log_partition == ref["log_partition"]
            assert bitwise_equal(model.rho, ref["rho"])
            assert bitwise_equal(model.charge_expectations(), ref["means"])
            if len(np.unique(model.eigenvalues)) == problem.d:
                # with ties LAPACK may order the unit vectors of one
                # eigenvalue differently, which leaves rho unchanged
                assert bitwise_equal(model.eigenvectors, ref["eigenvectors"])

    @pytest.mark.parametrize("family,ties", [("dense", False), ("dense", True), ("pauli", False)])
    def test_value_only_objective_is_sorted_diagonal(self, rng, family, ties):
        for _ in range(10):
            problem = diagonal_problem(rng, family, 2, ties)
            mu = rng.normal(size=2)
            T = 0.3
            g = np.diagonal(problem.h_dense.entries).copy()
            for m, Q in zip(mu, problem.q_dense):
                g -= m * np.diagonal(Q.entries)
            lam = np.sort(g)
            assert bitwise_equal(lam, eigh_route(problem, mu, T)["eigvalsh"])
            shifted = (lam[0] - lam) / T
            expected = -lam[0] / T + math.log(np.exp(shifted).sum())
            assert ThermalModel(problem, mu, T).log_partition == expected
            assert dual_objective(problem, mu, T) == float(mu @ problem.q - T * expected)
            assert dual_objective(problem, mu, T) == ThermalModel(problem, mu, T).dual_objective()

    def test_weights_and_charges_match_expm_oracle(self, rng):
        problem = diagonal_problem(rng, "dense", 2, False)
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

    def test_lapack_called_only_off_the_diagonal(self, rng, monkeypatch):
        calls = []

        def spy(name):
            original = getattr(np.linalg, name)

            def wrapper(a, *args, **kwargs):
                calls.append(name)
                return original(a, *args, **kwargs)
            return wrapper

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, spy(name))
        diag = diagonal_problem(rng, "dense", 2, False)
        mu = [0.3, -0.2]
        ThermalModel(diag, mu, 0.5)
        dual_objective(diag, mu, 0.5)
        # the schedule's norm bounds too: ||Q_i|| is read off the diagonal
        schedule_gd(diag, 0.1, 1.0)
        schedule_gd(diagonal_problem(rng, "direct_sum", 2, False), 0.1, 1.0)
        assert calls == []
        # one nonzero entry off the diagonal (with its mirror), however small
        q = np.diag(diag.q_dense[1].entries.diagonal().copy())
        q[0, 3] = q[3, 0] = 1e-300
        dense = EnergyProblem(diag.h_dense, [diag.q_dense[0], SpectralHermitian(q)], diag.q)
        assert dense._diagonals is None
        ThermalModel(dense, mu, 0.5)
        dual_objective(dense, mu, 0.5)
        assert calls == ["eigh", "eigvalsh"]

    @pytest.mark.parametrize("family", ["dense", "pauli", "zero_entries"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nan_mu_raises_non_finite(self, rng, family, bad):
        # rejected before the diagonal G can form 0 * inf where a Q vanishes
        if family == "zero_entries":
            problem = EnergyProblem(
                np.diag([1.0, 2.0, 3.0]), [np.diag([0.0, 1.0, 2.0]), np.diag([0.0, 0.0, 1.0])],
                [0.0, 0.0],
            )
        else:
            problem = diagonal_problem(rng, family, 2, False)
        with pytest.raises(ValueError, match="mu has non-finite"):
            ThermalModel(problem, [bad, 0.1], 0.5)
        with pytest.raises(ValueError, match="mu has non-finite"):
            dual_objective(problem, [0.1, bad], 0.5)
        with pytest.raises(ValueError, match="mu has non-finite"):
            dual_objective(problem, [bad, bad], 0.5)

    def test_mu_length_checked(self, rng):
        problem = diagonal_problem(rng, "dense", 2, False)
        with pytest.raises(ValueError, match="length"):
            ThermalModel(problem, [0.1], 0.5)

    @pytest.mark.parametrize("family", ["dense", "pauli", "nondiagonal"])
    def test_caller_mu_stays_writeable_and_unaliased(self, rng, family):
        if family == "nondiagonal":
            problem = random_dense_problem(rng, 4, 2)
        else:
            problem = diagonal_problem(rng, family, 2, False)
        mu = np.array([0.3, -0.2])
        model = ThermalModel(problem, mu, 0.5)
        assert mu.flags.writeable
        assert not model.mu.flags.writeable
        assert not np.shares_memory(model.mu, mu)
        mu[0] = 9.0
        assert model.mu[0] == 0.3

    @pytest.mark.parametrize("family,ties", [
        ("dense", False), ("dense", True), ("direct_sum", False), ("direct_sum", True),
        ("rotated", False),
    ])
    @pytest.mark.parametrize("c", [0, 1, 3])
    def test_norm_bounds_equal_spectral_norms_bitwise(self, rng, family, ties, c):
        # "rotated" is dense and non-diagonal: its bounds come from eigh,
        # whose extreme eigenvalues eigvalsh does not reproduce bit for bit
        for _ in range(5):
            if family == "rotated":
                problem = random_dense_problem(rng, 6, c)
                assert problem._diagonals is None
            else:
                problem = diagonal_problem(rng, family, c, ties)
                assert problem._diagonals is not None
            spectral = np.array([spectral_norm(Q) for Q in problem.q_dense], dtype=float)
            assert bitwise_equal(norm_bounds(problem), spectral)


class MatmulRotatedModel(ThermalModel):
    """The diagonal kernel with its charges rotated by the explicit
    permutation matrix, V^dag Q V, as two d x d matmuls, stacked as one
    (c, d, d) array."""

    def rotated_charges(self):
        V = self.eigenvectors
        return np.array([V.conj().T @ Q.entries @ V for Q in self.problem.q_dense])


def lapack_route(problem):
    """A copy of ``problem`` that the thermal kernel treats as dense."""
    dense = copy.copy(problem)
    dense._diagonals = None
    return dense


class TestDiagonalLazyKernel:
    """A diagonal model is O(d): no d x d array until rho or the
    eigenvectors are read, and no d^3 matmul at all."""

    @pytest.mark.parametrize("family,ties", [
        ("dense", False), ("dense", True), ("pauli", False), ("direct_sum", False),
        ("direct_sum", True),
    ])
    def test_kubo_mori_equals_permutation_matmul_route(self, rng, family, ties):
        for _ in range(5):
            problem = diagonal_problem(rng, family, 3, ties)
            mu = rng.normal(size=3)
            T = float(rng.uniform(0.05, 1.0))
            model = ThermalModel(problem, mu, T)
            ref = MatmulRotatedModel(problem, mu, T)
            for got, want in zip(model.rotated_charges(), ref.rotated_charges()):
                assert np.array_equal(got, want)
            km = model.kubo_mori()
            assert np.array_equal(km, ref.kubo_mori())
            assert np.abs(km - km_quadrature(problem, mu, T)).max() < 1e-8

    def test_eigenvectors_built_on_demand(self, rng):
        problem = diagonal_problem(rng, "dense", 2, False)
        model = ThermalModel(problem, [0.3, -0.2], 0.5)
        assert model._vectors is None
        model.gradient()
        assert model._vectors is None
        V = model.eigenvectors
        assert not V.flags.writeable and not model.rho.flags.writeable
        assert bitwise_equal(model.rho, (V * model.probs) @ V.conj().T)

    def test_memory_at_dimension_cap(self, rng):
        n = 10
        d = 2 ** n

        def zsum():
            terms = {"".join(rng.choice(["I", "Z"], size=n)) for _ in range(6)}
            return PauliSum(n, [(t, float(rng.uniform(-1.0, 1.0))) for t in sorted(terms)])

        problem = EnergyProblem(zsum(), [zsum(), zsum()], [0.1, -0.2])
        assert problem.d == d and problem._diagonals is not None
        tracemalloc.start()
        try:
            model = ThermalModel(problem, [0.4, -0.3], 0.2)
            model.dual_objective()
            construction_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            model.gradient()
            gradient_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert construction_peak < 2 ** 20
        # rho alone (d^2 float64); no permutation matrix or V diag(p)
        assert gradient_peak < 1.5 * d * d * 8

    def test_solver_reports_equal_lapack_route(self, rng, monkeypatch):
        # H with distinct diagonal entries, so LAPACK's eigenvectors are the
        # permutation the diagonal route builds, column for column
        zsum = PauliSum(3, [("ZII", 1.0), ("IZI", 0.5), ("IIZ", 0.25)])
        pauli = EnergyProblem(zsum, diagonal_problem(rng, "pauli", 2, False).charges, [0.1, -0.2])
        for problem in (diagonal_problem(rng, "dense", 2, False), pauli,
                        diagonal_problem(rng, "direct_sum", 2, False)):
            dense = lapack_route(problem)
            assert gradient_ascent(problem, 0.2, 1.5) == gradient_ascent(dense, 0.2, 1.5)
            assert natural_gradient_ascent(problem, 0.1, 1.5, iterations=12) == \
                natural_gradient_ascent(dense, 0.1, 1.5, iterations=12)

        def diag():
            return SpectralHermitian(np.diag(rng.uniform(-1.0, 1.0, size=5)))

        sdp = SdpProblem(diag(), ((diag(), 0.3), (diag(), 0.2)), 2.0)
        fast = solve_sdp(sdp, 0.3, 1.5, mode="exact")
        reduce_direct_sum = sdp_module.reduce_direct_sum

        def reduce_densely(s):
            return lapack_route(reduce_direct_sum(s))

        monkeypatch.setattr(sdp_module, "reduce_direct_sum", reduce_densely)
        assert fast == solve_sdp(sdp, 0.3, 1.5, mode="exact")


class TestNonFiniteSpectrum:
    """A finite mu whose G overflows, and every non-finite spectrum, raise
    the same ValueError on both kernel paths."""

    MESSAGE = "effective Hamiltonian has non-finite eigenvalues"

    @pytest.mark.parametrize("off_diagonal", [0.0, 1.0], ids=["diagonal", "dense"])
    def test_overflowing_effective_hamiltonian(self, off_diagonal):
        h = np.array([[8e307, off_diagonal], [off_diagonal, 0.0]])
        problem = EnergyProblem(
            SpectralHermitian(h), [SpectralHermitian(np.diag([-1.0, 0.0]))], [0.0]
        )
        assert (problem._diagonals is None) == bool(off_diagonal)
        # G_00 = 8e307 + 1e308 overflows: the diagonal spectrum is [0, inf],
        # LAPACK's is NaN
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=self.MESSAGE):
                ThermalModel(problem, [1e308], 0.5)
            with pytest.raises(ValueError, match=self.MESSAGE):
                dual_objective(problem, [1e308], 0.5)

    @pytest.mark.parametrize("lam", [
        [-math.inf, 0.0], [0.0, math.inf], [math.nan, 0.0], [0.0, math.nan],
        [0.0, math.nan, 1.0], [-math.inf, math.inf],
    ])
    def test_log_weights_rejects_without_warning(self, lam):
        # warnings are errors here, so the checks must precede inf - inf
        with pytest.raises(ValueError, match=self.MESSAGE):
            thermal_module._log_weights(np.array(lam), 0.5)

    @pytest.mark.parametrize("lam", [[0.0, 1e308], [-1e308, 0.0, 1e308]])
    def test_log_weights_of_a_width_beyond_the_range(self, lam):
        # (lam_k - ground) / T overflows, quietly: those weights are 0 anyway
        log_z, log_p = thermal_module._log_weights(np.array(lam), 0.01)
        assert log_z == -lam[0] / 0.01
        assert log_p[0] == 0.0 and np.all(log_p[1:] == -math.inf)


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
        lnz = ThermalModel(problem, [0.0, 0.0], 0.7).log_partition
        assert dual_objective(problem, [0.0, 0.0], 0.7) == pytest.approx(
            -0.7 * lnz, abs=1e-12
        )


class TestExactGradient:
    def test_traceless_on_mixed(self):
        problem = scalar_problem(h=[0.0, 0.0], q_diag=[1.0, -1.0], target=0.0)
        assert ThermalModel(problem, [0.0], 1.0).gradient() == pytest.approx([0.0], abs=1e-14)

    def test_tanh_closed_form(self):
        problem = scalar_problem(h=[0.0, 0.0], q_diag=[1.0, -1.0], target=0.0)
        got = ThermalModel(problem, [0.5], 1.0).gradient()
        assert got[0] == pytest.approx(-math.tanh(0.5), abs=1e-12)

    def test_finite_difference_oracle(self, rng):
        for _ in range(5):
            problem = random_dense_problem(rng, 6, 2)
            mu = rng.normal(scale=0.8, size=2)
            grad = ThermalModel(problem, mu, 0.6).gradient()
            fd = finite_diff_gradient(problem, mu, 0.6)
            rel = np.abs(grad - fd).max() / max(np.abs(grad).max(), 1.0)
            assert rel <= 1e-6


class TestKuboMori:
    def test_single_qubit_canonical(self):
        problem = scalar_problem(h=[0.0, 0.0], q_diag=[1.0, -1.0], target=0.0)
        km = ThermalModel(problem, [0.0], 1.0).kubo_mori()
        assert km.shape == (1, 1)
        assert km[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_identity_charge_is_flat(self):
        problem = EnergyProblem(
            SpectralHermitian(np.diag([0.3, -0.3])),
            [SpectralHermitian(np.eye(2))],
            [1.0],
        )
        km = ThermalModel(problem, [0.2], 0.7).kubo_mori()
        assert abs(km[0, 0]) < 1e-12

    def test_quadrature_oracle(self, rng):
        for _ in range(4):
            problem = random_dense_problem(rng, 6, 2)
            mu = rng.normal(scale=0.6, size=2)
            km = ThermalModel(problem, mu, 0.8).kubo_mori()
            kq = km_quadrature(problem, mu, 0.8)
            assert np.abs(km - kq).max() < 1e-8

    def test_symmetric_psd(self, rng):
        for _ in range(5):
            problem = random_dense_problem(rng, 8, 3)
            mu = rng.normal(scale=1.0, size=3)
            km = ThermalModel(problem, mu, 0.4).kubo_mori()
            assert np.abs(km - km.T).max() < 1e-12
            assert np.linalg.eigvalsh(km).min() >= -1e-10

    @pytest.mark.parametrize("kind", [complex, float])
    def test_gemm_equals_pair_loop_at_many_charges(self, rng, kind):
        # c = 24 charges on d = 16, complex or real: the one real GEMM (a
        # complex stack as interleaved real and imaginary parts) is exactly
        # symmetric, and agrees with the quadrature oracle and with the
        # c(c+1)/2 loop of sum_mn L_mn (R_i)_mn conj(R_j)_mn that it replaced
        c, d, T = 24, 16, 0.5

        def observable():
            a = random_hermitian(rng, d)
            return a if kind is complex else a.real
        problem = EnergyProblem(observable(), [observable() for _ in range(c)], np.zeros(c))
        mu = rng.normal(scale=0.1, size=c)
        model = ThermalModel(problem, mu, T)
        assert model.rotated_charges().dtype == kind
        km = model.kubo_mori()
        assert np.array_equal(km, km.T)
        assert np.abs(km - km_quadrature(problem, mu, T)).max() < 1e-8
        lp, p = model.log_probs, model.probs
        x = -np.abs(lp[:, None] - lp[None, :])
        top = np.maximum(p[:, None], p[None, :])
        L = np.where(x < 0, top * np.expm1(x) / np.where(x < 0, x, 1.0), top)
        rotated, means = model.rotated_charges(), model.charge_expectations()
        loop = np.empty((c, c))
        for i in range(c):
            for j in range(i, c):
                s = np.sum(L * rotated[i] * rotated[j].conj()).real
                loop[i, j] = loop[j, i] = (s - means[i] * means[j]) / T
        assert np.abs(km - loop).max() <= 1e-12 * np.abs(loop).max()

    def test_no_charges(self):
        # c = 0 on a dense complex G: nothing to rotate, an empty metric,
        # and Newton's estimate is the ground energy -sqrt(5)/2
        problem = EnergyProblem(SpectralHermitian([[1, .5j], [-.5j, -1]]), [], [])
        model = ThermalModel(problem, [], 0.5)
        assert model.rotated_charges().shape == (0, 2, 2)
        assert model.kubo_mori().shape == (0, 0)
        assert natural_gradient_ascent(problem, 0.1, 1.0).estimate == -1.118033988749895

    def test_underflowed_weights_have_zero_logarithmic_mean(self):
        # the two upper levels get ln p = -inf at this width over T: L = 0
        # for every pair, with no warning (warnings are errors here)
        Q = np.zeros((3, 3))
        Q[0, 1] = Q[1, 0] = Q[1, 2] = Q[2, 1] = 1.0
        problem = EnergyProblem(SpectralHermitian(np.diag([0.0, 1e300, 1e300])),
                                [SpectralHermitian(Q)], [0.0])
        model = ThermalModel(problem, [0.0], 1e-10)
        assert model.log_probs.tolist() == [0.0, -math.inf, -math.inf]
        assert model.kubo_mori().tolist() == [[0.0]]

    @pytest.mark.parametrize("gap", [1e-12, 1e-9, 1e-6])
    def test_logarithmic_mean_against_mpmath(self, gap):
        # Q couples only the levels base and base + gap T, whose log-gap is
        # about ``gap``; with <Q> = 0, I_KM = 2 L(p_1, p_2) / T, and L is
        # (a - b)/(ln a - ln b) evaluated at 50 digits from the model's own
        # log-probabilities
        import mpmath

        T = 0.1
        Q = np.zeros((3, 3))
        Q[1, 2] = Q[2, 1] = 1.0
        for base in np.linspace(0.05, 3.0, 40):
            problem = EnergyProblem(SpectralHermitian(np.diag([0.0, base, base + gap * T])),
                                    [SpectralHermitian(Q)], [0.0])
            model = ThermalModel(problem, [0.0], T)
            with mpmath.workdps(50):
                a, b = (mpmath.mpf(float(v)) for v in model.log_probs[1:])
                exact = 2 * (mpmath.exp(a) - mpmath.exp(b)) / (a - b) / T
                assert abs(model.kubo_mori()[0, 0] - exact) <= 1e-15 * exact


class TestHessian:
    def test_single_qubit_with_bound(self):
        problem = scalar_problem(h=[0.0, 0.0], q_diag=[1.0, -1.0], target=0.0)
        h = -ThermalModel(problem, [0.0], 1.0).kubo_mori()
        assert h[0, 0] == pytest.approx(-1.0, abs=1e-12)
        assert abs(h[0, 0]) <= 2.0 / 1.0 * 1.0 * 1.0

    def test_finite_difference_oracle(self, rng):
        for _ in range(4):
            problem = random_dense_problem(rng, 6, 2)
            mu = rng.normal(scale=0.6, size=2)
            h = -ThermalModel(problem, mu, 0.7).kubo_mori()
            fd = finite_diff_hessian(problem, mu, 0.7)
            assert np.abs(h - fd).max() < 1e-5

    def test_concave_far_from_origin(self, rng):
        problem = random_dense_problem(rng, 4, 2)
        h = -ThermalModel(problem, [10.0, -10.0], 0.5).kubo_mori()
        assert np.linalg.eigvalsh(h).max() <= 1e-10

    def test_entrywise_bound(self, rng):
        for _ in range(5):
            problem = random_dense_problem(rng, 6, 3)
            mu = rng.normal(scale=1.5, size=3)
            T = float(rng.uniform(0.2, 2.0))
            h = -ThermalModel(problem, mu, T).kubo_mori()
            norms = np.array([spectral_norm(Q) for Q in problem.q_dense])
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
                np.trace(effective_hamiltonian(problem, mu).entries @ state.entries).real
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
        readout = np.trace(effective_hamiltonian(problem, mu).entries @ state.entries).real
        rhs = mu @ problem.q + readout - T * entropy(state)
        assert model.dual_objective() == pytest.approx(rhs, abs=1e-9)
        km = model.kubo_mori()
        assert np.linalg.eigvalsh(km).min() >= -1e-10
        grad = model.gradient()
        fd = finite_diff_gradient(problem, mu, T)
        assert np.abs(grad - fd).max() / max(np.abs(grad).max(), 1.0) <= 1e-6
