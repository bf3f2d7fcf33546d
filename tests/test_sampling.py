import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from thermosdp import (
    Density,
    EnergyProblem,
    PauliSum,
    ThermalModel,
    estimate_anticommutator,
    effective_hamiltonian,
    estimate_obs,
    hessian_estimate,
    hoeffding_count,
    sample_tent,
    tent_density,
)
from thermosdp import sampling
from thermosdp.oracle import hadamard_test_distribution

from conftest import pauli_matrix, random_density

Z = PauliSum(1, [("Z", 1.0)])
X = PauliSum(1, [("X", 1.0)])


def model_of(h_terms, charges, T=1.0, mu=None, n=1):
    problem = EnergyProblem(PauliSum(n, h_terms), charges, [0.0] * len(charges))
    return ThermalModel(problem, mu if mu is not None else [0.0] * len(charges), T)


def log_mean_integral(model, op_a, op_b):
    """Quadrature oracle for int_0^1 Tr[rho^{1-s} A rho^s B] ds."""
    lam, V = np.linalg.eigh(Density(model.rho).entries)
    lam = np.clip(lam, 0, None)

    def integrand(s):
        r1 = (V * lam ** (1 - s)) @ V.conj().T
        r2 = (V * lam ** s) @ V.conj().T
        return np.trace(r1 @ op_a @ r2 @ op_b).real

    val, _ = quad(integrand, 0.0, 1.0, limit=200)
    return val


class TestHoeffdingCount:
    def test_golden(self):
        assert hoeffding_count(2.0, 0.1, 0.05) == 738

    def test_matches_direct_shot_formula(self, rng):
        # width 2||a||_1 reproduces N = ceil(2 ||a||_1^2 ln(2/delta) / eps^2)
        for _ in range(20):
            norm = float(rng.uniform(0.1, 5.0))
            eps = float(rng.uniform(0.01, 1.0))
            delta = float(rng.uniform(0.01, 0.5))
            direct = math.ceil(2.0 * norm ** 2 * math.log(2.0 / delta) / eps ** 2)
            assert hoeffding_count(2.0 * norm, eps, delta) == direct

    def test_floor_of_usefulness(self):
        assert hoeffding_count(2.0, 1e9, 0.05) == 1

    def test_validation(self):
        for bad in ((0, 0.1, 0.1), (1, 0, 0.1), (1, 0.1, 0), (1, 0.1, 1)):
            with pytest.raises(ValueError):
                hoeffding_count(*bad)
        # non-finite widths and accuracies name their field
        for bad, field in (
            ((2.0, math.inf, 0.1), "epsilon"),
            ((2.0, math.nan, 0.1), "epsilon"),
            ((math.nan, 0.1, 0.1), "width"),
            ((math.inf, 0.1, 0.1), "width"),
        ):
            with pytest.raises(ValueError, match=f"^{field} must be positive and finite"):
                hoeffding_count(*bad)


class TestEstimateObs:
    def test_empty_sum_short_circuits(self, rng):
        model = model_of([], [Z])
        assert estimate_obs(model, PauliSum(1, []), 0.1, 0.05, rng) == 0.0

    def test_maximally_mixed_accuracy(self):
        # exact value 0; failure fraction bounded by delta plus slack
        model = model_of([], [Z])
        rng = np.random.default_rng(31)
        eps, delta = 0.1, 0.05
        fails = sum(
            1 for _ in range(200)
            if abs(estimate_obs(model, Z, eps, delta, rng)) > eps
        )
        assert fails / 200 <= delta + 3 * math.sqrt(delta / 200)

    def test_thermal_replicate_mean(self):
        model = model_of([("Z", 1.0)], [Z])
        rng = np.random.default_rng(5)
        reps = 300
        vals = [estimate_obs(model, Z, 0.1, 0.05, rng) for _ in range(reps)]
        target = -math.tanh(1.0)
        stderr = np.std(vals) / math.sqrt(reps)
        assert abs(np.mean(vals) - target) <= 3 * stderr

    def test_sign_handling(self):
        model = model_of([("Z", 1.0)], [Z])
        rng = np.random.default_rng(6)
        neg = PauliSum(1, [("Z", -1.0)])
        vals = [estimate_obs(model, neg, 0.1, 0.05, rng) for _ in range(300)]
        stderr = np.std(vals) / math.sqrt(300)
        assert abs(np.mean(vals) - math.tanh(1.0)) <= 3 * stderr

    @pytest.mark.parametrize(
        "n, h_terms, q_terms",
        [
            (1, [("Z", 1.0), ("X", 0.5)], [("X", 0.5), ("Z", -0.5)]),
            (2, [("ZZ", 1.0), ("ZI", 0.3), ("XI", 0.5), ("XY", -0.6)],
             [("ZI", 0.4), ("XY", -0.8), ("ZZ", 0.3)]),
        ],
        ids=["one-qubit", "two-qubit"],
    )
    def test_signed_multi_term_mean(self, n, h_terms, q_terms):
        # term draws by |a_j| with signs carried keep the estimator unbiased
        psum = PauliSum(n, q_terms)
        model = model_of(h_terms, [psum], n=n)
        exact = sum(
            a * np.trace(pauli_matrix(idx) @ model.rho).real for idx, a in q_terms
        )
        rng = np.random.default_rng(41)
        reps = 300
        vals = [estimate_obs(model, psum, 0.1, 0.05, rng) for _ in range(reps)]
        stderr = np.std(vals) / math.sqrt(reps)
        assert abs(np.mean(vals) - exact) <= 4 * stderr

    def signed_two_qubit_case(self):
        """0.4 ZI - 0.8 XY + 0.3 ZZ on a non-commuting complex thermal state,
        with its coefficients and exact per-term traces."""
        terms = [("ZI", 0.4), ("XY", -0.8), ("ZZ", 0.3)]
        psum = PauliSum(2, terms)
        model = model_of(
            [("ZZ", 1.0), ("ZI", 0.3), ("XI", 0.5), ("XY", -0.6)], [psum], n=2
        )
        coeffs = np.array([a for _, a in terms])
        traces = np.array([np.trace(pauli_matrix(idx) @ model.rho).real for idx, _ in terms])
        return psum, model, coeffs, traces

    def test_term_traces_match_dense_pauli_matrices(self, rng):
        # every 3-qubit string, read through its permutation and phase
        indices = ["".join(p) for p in itertools.product("IXYZ", repeat=3)]
        table = sampling._term_table(PauliSum(3, [(idx, 1.0) for idx in indices]))
        rho = random_density(rng, 8)
        dense = [np.einsum("mn,nm->", pauli_matrix(idx), rho).real for idx in indices]
        np.testing.assert_allclose(table.traces(rho), dense, rtol=0, atol=1e-14)

    def test_sum_holds_its_table(self, monkeypatch):
        # repeated estimates on one sum build its table once and draw what
        # estimates on fresh equal sums, each building its own, draw
        psum, model, _, _ = self.signed_two_qubit_case()
        fresh = [estimate_obs(model, PauliSum(psum.n, psum.terms), 0.1, 0.05,
                              np.random.default_rng(seed)) for seed in range(3)]
        built = []
        action = sampling._pauli_action
        monkeypatch.setattr(sampling, "_pauli_action",
                            lambda index: built.append(index) or action(index))
        held = [estimate_obs(model, psum, 0.1, 0.05, np.random.default_rng(seed))
                for seed in range(3)]
        assert built == list(psum.indices())
        assert sampling._term_table(psum) is psum._table
        assert held == fresh

    def test_aggregate_draw_variance(self):
        # the count draw has the per-shot mean's law:
        # variance (||a||_1^2 - Tr[Q rho]^2) / shots
        psum, model, coeffs, traces = self.signed_two_qubit_case()
        norm = float(np.abs(coeffs).sum())
        exact = float(coeffs @ traces)
        eps, delta = 0.1, 0.05
        shots = hoeffding_count(2.0 * norm, eps, delta)
        rng = np.random.default_rng(43)
        calls = 4000
        vals = np.array([estimate_obs(model, psum, eps, delta, rng) for _ in range(calls)])
        law_var = (norm ** 2 - exact ** 2) / shots
        assert abs(vals.mean() - exact) <= 4 * math.sqrt(law_var / calls)
        assert abs(vals.var(ddof=1) / law_var - 1.0) <= 4 * math.sqrt(2.0 / (calls - 1))

    def test_one_shot_outcome_law(self, monkeypatch):
        # at a one-shot budget each call puts its shot in one (term, +-1)
        # cell, with probability w_j (1 +- t_j) / 2 for w_j = |a_j| / ||a||_1,
        # and returns ||a||_1 sign(a_j) (+-1)
        psum, model, coeffs, traces = self.signed_two_qubit_case()
        norm = float(np.abs(coeffs).sum())
        eps, delta = 10.0, 0.5
        assert hoeffding_count(2.0 * norm, eps, delta) == 1
        cells = []
        draw = sampling._draw_counts

        def spy(weights, term_traces, shots, rng):
            counts = draw(weights, term_traces, shots, rng)
            # rows are terms, columns the +1 and -1 outcomes
            cells.append(int(np.flatnonzero(counts.ravel() == 1)[0]))
            return counts

        monkeypatch.setattr(sampling, "_draw_counts", spy)
        rng = np.random.default_rng(44)
        calls = 20000
        vals = [estimate_obs(model, psum, eps, delta, rng) for _ in range(calls)]
        w = np.abs(coeffs) / norm
        law = np.column_stack([w * (1 + traces) / 2, w * (1 - traces) / 2]).ravel()
        freq = np.bincount(cells, minlength=law.size) / calls
        assert np.all(np.abs(freq - law) <= 4 * np.sqrt(law * (1 - law) / calls))
        outcome = (1.0, -1.0)
        for cell, val in zip(cells, vals):
            term, side = divmod(cell, 2)
            assert val == norm * np.sign(coeffs[term]) * outcome[side]

    def test_memory_linear_in_dimension(self):
        # 10 qubits, 20 terms: a stack of dense Pauli matrices would take
        # 20 x 16 MB; the term table and the gathered entries of rho are
        # O(terms * d), about a megabyte
        rng = np.random.default_rng(47)
        n, d = 10, 1024
        h = rng.normal(size=(d, d)) / math.sqrt(d)
        model = ThermalModel(EnergyProblem(h + h.T, [], []), [], 1.0)
        model.rho  # built before the measured call
        indices = set()
        while len(indices) < 20:
            indices.add("".join(rng.choice(list("IXYZ"), size=n)))
        psum = PauliSum(n, [(idx, float(rng.uniform(-1.0, 1.0))) for idx in sorted(indices)])
        tracemalloc.start()
        try:
            estimate_obs(model, psum, 0.1, 0.05, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_magnitude_bounded_by_one_norm(self, rng):
        psum = PauliSum(2, [("ZI", 0.4), ("XY", -0.8)])
        model = model_of([("ZZ", 1.0)], [PauliSum(2, [("XI", 1.0)])], n=2)
        for _ in range(20):
            val = estimate_obs(model, psum, 0.5, 0.2, rng)
            assert abs(val) <= 1.2 + 1e-12


def tent_cdf_half(t):
    """Closed-form CDF of |t| via dilogarithms, independent of the sampler:
    F_half(t) = 1 + (4/pi^2) [Li2(-e^{-pi t}) - Li2(e^{-pi t})]."""
    from scipy.special import spence

    e = np.exp(-math.pi * np.asarray(t, dtype=float))
    return 1.0 + (4 / math.pi ** 2) * (spence(1.0 + e) - spence(1.0 - e))


def ks_distance(draws):
    """Kolmogorov-Smirnov distance of |draws| from :func:`tent_cdf_half`."""
    emp_sorted = np.sort(np.abs(draws))
    cdf_at = tent_cdf_half(emp_sorted)
    n = len(emp_sorted)
    upper = np.abs(cdf_at - np.arange(1, n + 1) / n).max()
    lower = np.abs(cdf_at - np.arange(0, n) / n).max()
    return max(upper, lower)


class TestTentDensity:
    def test_normalization(self):
        val, err = quad(lambda t: tent_density(t), 0, 60, points=[0], limit=400)
        assert abs(2 * val - 1.0) <= 1e-6

    def test_tail_rate(self):
        # far in the tail, where tanh(pi t / 2) rounds to 1, the density
        # keeps full relative accuracy against a 200-digit reference
        import mpmath

        with mpmath.workdps(200):
            for t in (6.0, 9.0, 12.0, 20.0, 50.0):
                exact = 2 / mpmath.pi * mpmath.log(mpmath.coth(mpmath.pi * t / 2))
                assert tent_density(t) == pytest.approx(float(exact), rel=1e-13, abs=0)
        assert tent_density(0.0) == math.inf

    def test_symmetry_of_samples(self):
        rng = np.random.default_rng(8)
        draws = sample_tent(rng, size=1_000_000)
        second_moment = float(np.mean(draws ** 2))
        stderr = math.sqrt(second_moment / len(draws))
        assert abs(float(np.mean(draws))) <= 4 * stderr

    def test_ks_fit_against_numerical_cdf(self):
        # the closed-form CDF oracle, verified against adaptive quadrature
        # at spot points
        for t_spot in (0.01, 0.5, 3.0):
            num, _ = quad(lambda s: 2 * tent_density(s), 0, t_spot,
                          points=[0], limit=300)
            assert tent_cdf_half(t_spot) == pytest.approx(num, abs=1e-12)

        rng = np.random.default_rng(9)
        assert ks_distance(sample_tent(rng, size=100_000)) < 0.01

    def test_ks_million_draws(self):
        # 1.95 / sqrt(n) is the KS statistic's 99.9% level, so a 0.5% error
        # in the law would show at this size
        n = 1_000_000
        draws = sample_tent(np.random.default_rng(10), size=n)
        assert ks_distance(draws) < 1.95 / math.sqrt(n)

    def test_sampler_reproducible(self):
        a = sample_tent(np.random.default_rng(3), size=1000)
        b = sample_tent(np.random.default_rng(3), size=1000)
        assert np.array_equal(a, b)

    def test_mixture_branches(self):
        # a stub feeds the uniforms and exponentials, so each branch is hit
        # at its boundary: the rate index k is 1 for u < 8/pi^2, else the
        # proposal 2 floor(1/V) + 1 with V = 1 - uniform, accepted for a
        # uniform below 1 - 1/k^2; with E = 1 every |t| is 1/(pi k)
        class Stub:
            def __init__(self, uniforms, exponentials):
                self.uniforms, self.exponentials = list(uniforms), list(exponentials)

            def random(self, k):
                out, self.uniforms = self.uniforms[:k], self.uniforms[k:]
                return np.array(out)

            def standard_exponential(self, k):
                out, self.exponentials = self.exponentials[:k], self.exponentials[k:]
                return np.array(out)

        head = 8.0 / math.pi ** 2
        branch = [0.0, np.nextafter(head, 0.0), head, 0.99, 0.9]
        # proposals V = 1, 0.3..., 0.25: k = 3, 7, 9
        first = [0.0, 0.7, 0.75]
        accept_first = [np.nextafter(1.0 - 1.0 / 9.0, 0.0), 1.0 - 1.0 / 49.0, 0.0]
        # the rejected k = 7 proposes again: V = 0.5 gives k = 5
        second, accept_second = [0.5], [np.nextafter(1.0 - 1.0 / 25.0, 0.0)]
        signs = [0.9, 0.1, 0.9, 0.1, 0.9]
        stub = Stub(branch + first + accept_first + second + accept_second + signs, [1.0] * 5)
        draws = sample_tent(stub, size=5)
        assert stub.uniforms == [] and stub.exponentials == []
        assert np.array_equal(np.sign(draws), [1.0, -1.0, 1.0, -1.0, 1.0])
        k = np.array([1.0, 1.0, 3.0, 5.0, 9.0])
        assert np.array_equal(np.abs(draws), 1.0 / (math.pi * k))

    def test_golden_draws(self):
        draws = sample_tent(np.random.default_rng(0), size=4)
        assert draws.tolist() == [
            0.17517957715179586, 0.5188261542424689,
            0.21440811299884824, -0.24041988924386287,
        ]


class TestHadamardTestDistribution:
    def test_golden_t_zero(self):
        model = model_of([], [Z])
        probs = hadamard_test_distribution(model, "Z", "Z", 0.0)
        signed = sum(
            (-1) ** (l + g) * probs[l, g] for l in (0, 1) for g in (0, 1)
        )
        assert signed == pytest.approx(-1.0, abs=1e-12)
        assert probs[0, 1] == pytest.approx(0.5, abs=1e-12)
        assert probs[1, 0] == pytest.approx(0.5, abs=1e-12)

    def test_identity_control_reduces_to_measurement(self):
        model = model_of([], [Z])
        probs = hadamard_test_distribution(model, "I", "Z", 0.7)
        # control outcome is always 1; signed expectation is -<Z> = 0
        assert probs[0].sum() == pytest.approx(0.0, abs=1e-12)
        signed = sum((-1) ** (l + g) * probs[l, g] for l in (0, 1) for g in (0, 1))
        assert signed == pytest.approx(0.0, abs=1e-12)

    def test_identity_control_thermal(self):
        model = model_of([("Z", 1.0)], [Z])
        probs = hadamard_test_distribution(model, "I", "Z", 1.3)
        signed = sum((-1) ** (l + g) * probs[l, g] for l in (0, 1) for g in (0, 1))
        assert signed == pytest.approx(math.tanh(1.0), abs=1e-12)

    def test_distribution_axioms_random(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 3))
            terms = [("".join(rng.choice(list("IXYZ"), size=n)), 1.0)]
            problem = EnergyProblem(
                PauliSum(n, terms),
                [PauliSum(n, [("Z" * n, 1.0)])],
                [0.0],
            )
            model = ThermalModel(problem, [float(rng.normal())], float(rng.uniform(0.3, 2)))
            k = "".join(rng.choice(list("IXYZ"), size=n))
            l = "".join(rng.choice(list("IXYZ"), size=n))
            t = float(rng.normal(scale=2.0))
            probs = hadamard_test_distribution(model, k, l, t)
            assert np.all(probs >= 0.0) and np.all(probs <= 1.0)
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_parity_mean_matches_oracle_law(self, rng):
        # the estimator's parity mean at time t, from its eigenbasis block,
        # is the signed sum of the oracle's dense joint law; random multi-term
        # models include diagonal ones (permutation eigenvectors)
        for _ in range(100):
            n = int(rng.integers(1, 3))
            letters = rng.choice(list("IXYZ"), size=(3, n))
            terms = {"".join(row): float(rng.normal()) for row in letters}
            problem = EnergyProblem(
                PauliSum(n, list(terms.items())), [PauliSum(n, [("Z" * n, 1.0)])], [0.0]
            )
            model = ThermalModel(problem, [float(rng.normal())], float(rng.uniform(0.3, 2)))
            k = "".join(rng.choice(list("IXYZ"), size=n))
            l = "".join(rng.choice(list("IXYZ"), size=n))
            t = float(rng.normal(scale=2.0))
            probs = hadamard_test_distribution(model, k, l, t)
            signed = probs[0, 0] + probs[1, 1] - probs[0, 1] - probs[1, 0]
            mean = sampling._system_signal(
                model, l, sampling._parity_block(model, k), np.array([t])
            )
            assert mean.shape == (1,)
            assert mean[0] == pytest.approx(signed, abs=1e-12)

    def test_signed_expectation_matches_direct_algebra(self, rng):
        # -(1/2) Tr[{U^dag sigma_l U, sigma_k} rho] computed independently,
        # and each cell Tr[(I + (-1)^gamma U^dag sigma_l U)/2 Pi_lam rho Pi_lam]
        # with Pi_lam = (I - (-1)^lam sigma_k)/2, from dense kron matrices;
        # the oracle law and the estimator's parity mean both match
        problem = EnergyProblem(
            PauliSum(2, [("ZX", 0.8), ("YI", -0.5)]),
            [PauliSum(2, [("ZZ", 1.0)])],
            [0.0],
        )
        model = ThermalModel(problem, [0.4], 0.9)
        G = effective_hamiltonian(problem, [0.4]).entries
        rho = Density(model.rho).entries
        lam, V = np.linalg.eigh(G)
        eye = np.eye(4)

        for k, l, t in (("XI", "ZY", 0.6), ("ZZ", "XX", -1.1), ("IY", "YI", 2.3)):
            U = (V * np.exp(1j * lam * t / model.temperature)) @ V.conj().T
            sl = U.conj().T @ pauli_matrix(l) @ U
            sk = pauli_matrix(k)
            direct = -0.5 * np.trace((sl @ sk + sk @ sl) @ rho).real
            probs = hadamard_test_distribution(model, k, l, t)
            signed = sum((-1) ** (a + b) * probs[a, b] for a in (0, 1) for b in (0, 1))
            assert signed == pytest.approx(direct, abs=1e-12)
            block = sampling._parity_block(model, k)
            mean = sampling._system_signal(model, l, block, np.array([t]))[0]
            assert mean == pytest.approx(direct, abs=1e-12)
            for a, b in itertools.product((0, 1), repeat=2):
                proj = (eye - (-1) ** a * sk) / 2.0
                cell = np.trace((eye + (-1) ** b * sl) / 2.0 @ proj @ rho @ proj).real
                assert probs[a, b] == pytest.approx(cell, abs=1e-12)


class TestEstimateAnticommutator:
    def test_canonical_case_exact(self):
        # H = 0, Q_i = Q_j = Z: every shot yields -1 deterministically
        model = model_of([], [Z])
        rng = np.random.default_rng(12)
        val = estimate_anticommutator(model, Z, Z, 0.1, 0.05, rng)
        assert val == -1.0

    def test_identity_partner_reduces_to_mean(self):
        model = model_of([("Z", 1.0)], [Z])
        rng = np.random.default_rng(13)
        ident = PauliSum(1, [("I", 1.0)])
        reps = 200
        vals = [
            estimate_anticommutator(model, Z, ident, 0.3, 0.2, rng)
            for _ in range(reps)
        ]
        stderr = np.std(vals) / math.sqrt(reps)
        assert abs(np.mean(vals) - math.tanh(1.0)) <= max(4 * stderr, 1e-9)

    def test_magnitude_bound(self, rng):
        model = model_of([("Z", 1.0)], [Z])
        a = PauliSum(1, [("X", 0.7), ("Z", -0.6)])
        for _ in range(10):
            val = estimate_anticommutator(model, a, Z, 0.5, 0.2, rng)
            assert abs(val) <= 1.3 * 1.0 + 1e-12

    def test_signed_multi_term_mean(self):
        # term pairs drawn by |a_i| |a_j| with signs carried keep the
        # estimator unbiased: its mean is T H_ij - <Q_i><Q_j>
        a_i = PauliSum(2, [("ZI", 0.4), ("XY", -0.8), ("ZZ", 0.3)])
        a_j = PauliSum(2, [("YX", 0.6), ("IZ", -0.5)])
        problem = EnergyProblem(
            PauliSum(2, [("ZZ", 1.0), ("XI", 0.5), ("IY", -0.4)]), [a_i, a_j], [0.0, 0.0]
        )
        mu, T = [0.3, -0.2], 0.8
        model = ThermalModel(problem, mu, T)
        means = model.charge_expectations()
        exact = -T * model.kubo_mori()[0, 1] - means[0] * means[1]
        rng = np.random.default_rng(19)
        reps = 200
        vals = [estimate_anticommutator(model, a_i, a_j, 0.1, 0.05, rng) for _ in range(reps)]
        stderr = np.std(vals) / math.sqrt(reps)
        assert abs(np.mean(vals) - exact) <= 4 * stderr

    def test_ties_to_log_mean_oracle(self):
        # non-commuting case: H = Z, Q = X; one large-budget run vs oracle
        model = model_of([("Z", 1.0)], [X])
        oracle = -log_mean_integral(
            model, pauli_matrix("X"), pauli_matrix("X")
        )
        rng = np.random.default_rng(14)
        eps = math.sqrt(2.0 * math.log(2.0 / 0.05) / 1_000_000)  # forces ~1e6 shots
        val = estimate_anticommutator(model, X, X, eps, 0.05, rng)
        stderr = 1.0 / math.sqrt(1_000_000)
        assert abs(val - oracle) <= 4 * stderr

    def test_validation(self, rng):
        model = model_of([], [Z])
        with pytest.raises(ValueError):
            estimate_anticommutator(model, PauliSum(1, []), Z, 0.1, 0.05, rng)

    def test_memory_linear_in_dimension(self):
        # 8 qubits, 185 shots over four term pairs: a shots x d^2 phase array
        # peaks near 120 MB here and grows 4x per qubit; the eigenbasis
        # signal keeps a few d x d blocks and a shots x d exponential
        rng = np.random.default_rng(53)
        n, d = 8, 256
        h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        model = ThermalModel(EnergyProblem(h + h.conj().T, [], []), [], 1.0)
        model.rho, model.eigenvectors  # built before the measured call
        a_i = PauliSum(n, [("XYZIXYZI", 0.6), ("ZZIIXXYY", -0.4)])
        a_j = PauliSum(n, [("YIXZZXIY", 0.5), ("IZYXIZYX", 0.5)])
        assert hoeffding_count(2.0, 0.2, 0.05) == 185
        tracemalloc.start()
        try:
            estimate_anticommutator(model, a_i, a_j, 0.2, 0.05, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


class TestHessianEstimate:
    def test_canonical_single_qubit(self):
        model = model_of([], [Z])
        rng = np.random.default_rng(15)
        reps = 150
        vals = [hessian_estimate(model, 0, 0, 0.2, 0.1, rng) for _ in range(reps)]
        stderr = np.std(vals) / math.sqrt(reps)
        assert abs(np.mean(vals) - (-1.0)) <= max(4 * stderr, 1e-9)

    def test_identity_charge_vanishes(self):
        ident = PauliSum(1, [("I", 1.0)])
        problem = EnergyProblem(PauliSum(1, []), [ident], [1.0])
        model = ThermalModel(problem, [0.0], 1.0)
        rng = np.random.default_rng(16)
        assert hessian_estimate(model, 0, 0, 0.2, 0.1, rng) == 0.0

    def test_symmetric_expectations(self):
        problem = EnergyProblem(
            PauliSum(1, [("Z", 1.0)]),
            [X, PauliSum(1, [("Y", 0.8)])],
            [0.0, 0.0],
        )
        model = ThermalModel(problem, [0.1, -0.2], 1.0)
        exact = -model.kubo_mori()
        assert abs(exact[0, 1] - exact[1, 0]) < 1e-12
        rng = np.random.default_rng(18)
        reps = 150
        ij = [hessian_estimate(model, 0, 1, 0.2, 0.1, rng) for _ in range(reps)]
        ji = [hessian_estimate(model, 1, 0, 0.2, 0.1, rng) for _ in range(reps)]
        for vals in (ij, ji):
            stderr = np.std(vals) / math.sqrt(reps)
            assert abs(np.mean(vals) - exact[0, 1]) <= 4 * stderr

    def test_index_validation(self, rng):
        model = model_of([], [Z])
        with pytest.raises(ValueError):
            hessian_estimate(model, 0, 3, 0.2, 0.1, rng)


class TestKuboMoriTie:
    def test_estimator_expectation_matches_exact_hessian(self):
        # the full shot pipeline reproduces the closed-form Hessian entry
        problem = EnergyProblem(PauliSum(1, [("Z", 1.0)]), [X], [0.0])
        model = ThermalModel(problem, [0.3], 1.0)
        exact = -model.kubo_mori()[0, 0]
        rng = np.random.default_rng(21)
        reps = 200
        vals = [hessian_estimate(model, 0, 0, 0.25, 0.1, rng) for _ in range(reps)]
        stderr = np.std(vals) / math.sqrt(reps)
        assert abs(np.mean(vals) - exact) <= 4 * stderr
