"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Statistical criteria use fixed seeds, so the suite is
deterministic end to end.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from thermosdp import (
    Density,
    EnergyProblem,
    PauliSum,
    SpectralHermitian,
    ThermalModel,
    effective_hamiltonian,
    entropy,
    estimate_anticommutator,
    estimate_obs,
    gradient_ascent,
    hoeffding_count,
    materialize,
    natural_gradient_ascent,
    replicate_sga,
    sample_tent,
    schedule_gd,
    schedule_sga,
    sga,
    tent_density,
)
from thermosdp.oracle import (
    dual_scan,
    finite_diff_gradient,
    finite_diff_hessian,
    hadamard_test_distribution,
    km_quadrature,
    lp_diagonal_energy,
    lp_diagonal_sdp_value,
)
from thermosdp.sdp import SdpProblem, reduce_direct_sum, reduce_qubit_embed

from conftest import random_dense_problem, spectral_norm

Z = PauliSum(1, [("Z", 1.0)])
X = PauliSum(1, [("X", 1.0)])


def report(criterion, ok, detail, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"{status}  criterion {criterion}: {detail}  [{elapsed:.2f}s]")
    assert ok, f"criterion {criterion}: {detail}"


def certified_radius(problem, epsilon):
    """Radius r >= ||mu*|| certified by the scan oracle (c <= 2)."""
    T = epsilon / (4.0 * math.log(problem.d))
    grid = np.linspace(-8.0, 8.0, 33)
    mu_star, _ = dual_scan(problem, T, grid if problem.c == 1 else (grid, grid))
    return max(1.0, 1.25 * float(np.linalg.norm(mu_star)))


def diagonal_instance(rng, d, c):
    """Random commuting instance with an interior (hence feasible) target."""
    h = np.sort(rng.uniform(-1.0, 1.0, size=d))
    charges = []
    for _ in range(c):
        g = rng.uniform(-1.0, 1.0, size=d)
        g = g / np.abs(g).max()
        charges.append(g)
    p = rng.dirichlet(np.ones(d)) * 0.7 + 0.3 / d
    q = [float(g @ p) for g in charges]
    return EnergyProblem(
        SpectralHermitian(np.diag(h)),
        [SpectralHermitian(np.diag(g)) for g in charges],
        q,
    )


def test_criterion_1_schedule_golden_integers():
    problem = EnergyProblem(Z, [X], [0.6])
    # warm up import-time caches before timing
    schedule_gd(problem, 0.1, 1.0)

    t0 = time.perf_counter()
    gd = schedule_gd(problem, 0.1, 1.0)
    t_gd = time.perf_counter() - t0

    t0 = time.perf_counter()
    n_shots = hoeffding_count(2.0, 0.1, 0.05)
    t_h = time.perf_counter() - t0

    t0 = time.perf_counter()
    sga_sched = schedule_sga(problem, 0.1, 0.05, 1.0)
    t_sga = time.perf_counter() - t0

    sdp = SdpProblem(
        SpectralHermitian(np.array([[2.0]])),
        ((SpectralHermitian(np.array([[1.0]])), 3.0),),
        5.0,
    )
    reduced, scale = reduce_direct_sum(sdp), sdp.trace_bound
    t0 = time.perf_counter()
    sdp_sched = schedule_gd(reduced, 0.1 / scale, 1.0)
    t_sdp = time.perf_counter() - t0

    elapsed = t_gd + t_h + t_sga + t_sdp
    ok = (
        gd.iterations == 555
        and n_shots == 738
        and abs(sga_sched.variance_bound - 0.06) < 1e-15
        and sga_sched.iterations == 9065
        and abs(sga_sched.step_size - 0.013900) <= 1e-6
        and sdp_sched.iterations == 13863
        and max(t_gd, t_h, t_sga, t_sdp) < 1e-3
    )
    report(
        1,
        ok,
        f"M_gd=555({gd.iterations}) N=738({n_shots}) sigma2={sga_sched.variance_bound:.4f} "
        f"M_sga=9065({sga_sched.iterations}) eta={sga_sched.step_size:.6f} "
        f"M_sdp=13863({sdp_sched.iterations}), slowest {max(t_gd, t_h, t_sga, t_sdp)*1e3:.3f} ms",
        elapsed,
    )


def test_criterion_2_dual_closed_form():
    t0 = time.perf_counter()
    problem = EnergyProblem(PauliSum(1, []), [Z], [0.5])
    mu_star_true = math.atanh(0.5)
    f_star_true = -0.5623351446188083

    mu_scan, f_scan = dual_scan(problem, 1.0, np.linspace(-3, 3, 25))
    newton = natural_gradient_ascent(
        problem, 0.1, 2.0, step_size=1.0, iterations=5, ridge=0.0, temperature=1.0
    )
    elapsed = time.perf_counter() - t0
    mu_newton = newton.mu_final[0]
    f_newton = newton.objective_trace[-1]
    ok = (
        abs(mu_scan[0] - mu_star_true) <= 1e-6
        and abs(f_scan - f_star_true) <= 1e-6
        and abs(mu_newton - mu_star_true) <= 1e-6
        and abs(f_newton - f_star_true) <= 1e-6
        and elapsed < 0.1
    )
    report(
        2,
        ok,
        f"scan mu*={mu_scan[0]:.6f} f*={f_scan:.6f}; newton (5 steps) "
        f"mu={mu_newton:.6f} f={f_newton:.6f}",
        elapsed,
    )


def test_criterion_3_derivative_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    worst = {"grad": 0.0, "hess": 0.0, "km": 0.0, "psd": 0.0, "bound": True}
    for k in range(20):
        d = int(rng.choice([4, 8, 16]))
        c = int(rng.integers(1, 4))
        problem = random_dense_problem(rng, d, c)
        mu = rng.normal(size=c)
        norm = np.linalg.norm(mu)
        if norm > 2.0:
            mu = mu * (2.0 / norm)
        T = float(rng.uniform(0.1, 2.0))

        model = ThermalModel(problem, mu, T)
        grad = model.gradient()
        fd = finite_diff_gradient(problem, mu, T)
        worst["grad"] = max(
            worst["grad"], np.abs(grad - fd).max() / max(np.abs(grad).max(), 1.0)
        )

        hess = -model.kubo_mori()
        fdh = finite_diff_hessian(problem, mu, T)
        worst["hess"] = max(worst["hess"], np.abs(hess - fdh).max())

        km = model.kubo_mori()
        kq = km_quadrature(problem, mu, T)
        worst["km"] = max(worst["km"], np.abs(km - kq).max())
        worst["psd"] = min(worst.get("psd", 0.0), float(np.linalg.eigvalsh(km).min()))

        norms = np.array([spectral_norm(Q) for Q in problem.q_dense])
        bound = 2.0 / T * np.outer(norms, norms)
        worst["bound"] = worst["bound"] and bool(np.all(np.abs(hess) <= bound + 1e-12))
    elapsed = time.perf_counter() - t0
    ok = (
        worst["grad"] <= 1e-6
        and worst["hess"] <= 1e-5
        and worst["km"] <= 1e-8
        and worst["psd"] >= -1e-10
        and worst["bound"]
        and elapsed < 30.0
    )
    report(
        3,
        ok,
        f"grad rel {worst['grad']:.2e}, hess abs {worst['hess']:.2e}, "
        f"km {worst['km']:.2e}, km min-eig {worst['psd']:.2e}, bound ok={worst['bound']}",
        elapsed,
    )


def test_criterion_4_energy_via_exact_ascent():
    t0 = time.perf_counter()
    bloch = EnergyProblem(Z, [X], [0.6])
    rep = gradient_ascent(bloch, 0.05, 2.0)
    ok = abs(rep.estimate - (-0.8)) <= 0.05
    detail = [f"bloch estimate {rep.estimate:.4f} (true -0.8)"]

    rng = np.random.default_rng(404)
    worst_gap = 0.0
    sandwich_ok = True
    for k in range(10):
        d = int(rng.choice([3, 4, 6, 8]))
        c = int(rng.integers(1, 3))
        if c >= d:
            c = 1
        problem = diagonal_instance(rng, d, c)
        epsilon = 0.1
        energy = lp_diagonal_energy(problem)
        radius = certified_radius(problem, epsilon)
        rep_k = gradient_ascent(problem, epsilon, radius)
        worst_gap = max(worst_gap, abs(rep_k.estimate - energy))
        if c <= 2:
            T = epsilon / (4.0 * math.log(d))
            _, f_star = dual_scan(
                problem, T,
                np.linspace(-8, 8, 33) if c == 1 else (np.linspace(-8, 8, 33),) * 2,
            )
            sandwich_ok = sandwich_ok and (
                energy + 1e-9 >= f_star >= energy - T * math.log(d) - 1e-9
            )
    elapsed = time.perf_counter() - t0
    ok = ok and worst_gap <= 0.1 + 1e-9 and sandwich_ok and elapsed < 60.0
    detail.append(f"worst diagonal gap {worst_gap:.4f} (eps 0.1), sandwich ok={sandwich_ok}")
    report(4, ok, "; ".join(detail), elapsed)


def test_criterion_5_duality_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(50):
        d = int(rng.choice([2, 4, 8]))
        c = int(rng.integers(1, 4))
        problem = random_dense_problem(rng, d, c)
        mu = rng.normal(scale=1.0, size=c)
        T = float(rng.uniform(0.1, 2.0))
        model = ThermalModel(problem, mu, T)
        state = Density(model.rho)
        readout = np.trace(effective_hamiltonian(problem, mu).entries @ state.entries).real
        identity_rhs = mu @ problem.q + readout - T * entropy(state)
        worst = max(worst, abs(model.dual_objective() - identity_rhs))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 5.0
    report(5, ok, f"worst identity residual {worst:.2e} over 50 points", elapsed)


def test_criterion_6_estimator_statistics():
    t0 = time.perf_counter()
    problem = EnergyProblem(Z, [Z], [0.0])
    model = ThermalModel(problem, [0.0], 1.0)
    target = -math.tanh(1.0)
    rng = np.random.default_rng(606)
    calls = 500
    epsilon, delta = 0.1, 0.05
    estimates = np.array(
        [estimate_obs(model, Z, epsilon, delta, rng) for _ in range(calls)]
    )
    failures = float(np.mean(np.abs(estimates - target) > epsilon))
    stderr = estimates.std() / math.sqrt(calls)
    mean_gap = abs(estimates.mean() - target)
    elapsed = time.perf_counter() - t0
    ok = failures <= 0.05 + 0.03 and mean_gap <= 4 * stderr and elapsed < 120.0
    report(
        6,
        ok,
        f"failure fraction {failures:.4f} (cap 0.08), mean gap {mean_gap:.5f} "
        f"vs 4se={4 * stderr:.5f}",
        elapsed,
    )


def test_criterion_7_sga_end_to_end():
    t0 = time.perf_counter()
    problem = EnergyProblem(Z, [X], [0.6])
    reports = replicate_sga(problem, 0.2, 0.1, 2.0, seed=707, replicates=100)
    estimates = np.array([r.estimate for r in reports])
    mean = estimates.mean()
    stderr = estimates.std() / math.sqrt(len(estimates))
    elapsed = time.perf_counter() - t0
    # the guarantee is in expectation over runs: the replicate mean must
    # land within epsilon of -0.8, with a 3-sigma interval covering the claim
    ok = abs(mean - (-0.8)) <= 0.2 + 3 * stderr
    report(
        7,
        ok,
        f"replicate mean {mean:.4f} +- {stderr:.4f} vs -0.8 (eps 0.2, "
        f"M={reports[0].schedule.iterations}, samples/rep={reports[0].sample_count})",
        elapsed,
    )


def test_criterion_8_hessian_circuit_estimator():
    t0 = time.perf_counter()
    # canonical case: every circuit draw returns -1, so the estimate is exact
    problem = EnergyProblem(PauliSum(1, []), [Z], [0.0])
    model = ThermalModel(problem, [0.0], 1.0)
    rng = np.random.default_rng(808)
    eps_1e5 = math.sqrt(2.0 * math.log(2.0 / 0.05) / 100_000)  # -> 1e5 shots
    n_shots = hoeffding_count(2.0, eps_1e5, 0.05)
    est = estimate_anticommutator(model, Z, Z, eps_1e5, 0.05, rng)
    anticomm_ok = n_shots >= 100_000 and abs(est - (-1.0)) <= 1e-9

    sum_ok = True
    for _ in range(100):
        n = int(rng.integers(1, 3))
        inst = EnergyProblem(
            PauliSum(n, [("".join(rng.choice(list("IXYZ"), size=n)), 0.8)]),
            [PauliSum(n, [("Z" * n, 1.0)])],
            [0.0],
        )
        m = ThermalModel(inst, [float(rng.normal())], float(rng.uniform(0.3, 2.0)))
        k = "".join(rng.choice(list("IXYZ"), size=n))
        l = "".join(rng.choice(list("IXYZ"), size=n))
        probs = hadamard_test_distribution(m, k, l, float(rng.normal(scale=2)))
        sum_ok = sum_ok and abs(probs.sum() - 1.0) <= 1e-12

    norm_val, _ = quad(lambda s: tent_density(s), 0, 60, points=[0], limit=400)
    norm_ok = abs(2 * norm_val - 1.0) <= 1e-6

    from scipy.special import spence

    def cdf_half(t):
        e = np.exp(-math.pi * np.asarray(t, dtype=float))
        return 1.0 + (4 / math.pi ** 2) * (spence(1.0 + e) - spence(1.0 - e))

    draws = np.sort(np.abs(sample_tent(np.random.default_rng(88), size=100_000)))
    n = len(draws)
    cdf = cdf_half(draws)
    ks = max(
        np.abs(cdf - np.arange(1, n + 1) / n).max(),
        np.abs(cdf - np.arange(0, n) / n).max(),
    )
    elapsed = time.perf_counter() - t0
    ok = anticomm_ok and sum_ok and norm_ok and ks < 0.01 and elapsed < 120.0
    report(
        8,
        ok,
        f"anticommutator {est:.6f} @ {n_shots} shots (target -1), prob sums ok={sum_ok}, "
        f"tent norm err {abs(2 * norm_val - 1):.1e}, KS {ks:.4f}",
        elapsed,
    )


def test_criterion_9_reductions():
    t0 = time.perf_counter()
    rng = np.random.default_rng(909)
    agree_worst = 0.0
    alpha_ok = True
    mono_ok = True
    solver_gap_worst = 0.0
    for k in range(10):
        n = int(rng.choice([1, 2]))
        d = 2 ** n
        c = 1 if n == 1 else int(rng.integers(1, 3))
        R = float(rng.choice([2.0, 5.0, 10.0]))
        epsilon = 0.05 * R  # inner accuracy eps/R = 0.05 keeps runtimes sane

        # diagonal Pauli data with an interior witness setting the targets
        def diag_sum():
            terms = {}
            for _ in range(2):
                idx = "".join(rng.choice(["I", "Z"], size=n))
                terms[idx] = terms.get(idx, 0.0) + float(rng.uniform(-1.0, 1.0))
            return PauliSum(n, [(i, v) for i, v in terms.items() if abs(v) > 1e-9])

        C = diag_sum()
        witness = rng.dirichlet(np.ones(d)) * float(rng.uniform(0.3, 0.8)) * R
        constraints = []
        for _ in range(c):
            A = diag_sum()
            diag = np.real(np.diagonal(materialize(A).entries))
            constraints.append((A, float(diag @ witness)))
        sdp = SdpProblem(C, tuple(constraints), R)

        c_diag = np.real(np.diagonal(materialize(C).entries))
        a_rows = [np.real(np.diagonal(materialize(A).entries)) for A, _ in constraints]
        b = [t for _, t in constraints]
        alpha = lp_diagonal_sdp_value(c_diag, a_rows, b)
        alpha_r = lp_diagonal_sdp_value(c_diag, a_rows, b, trace_bound=R)
        alpha_2r = lp_diagonal_sdp_value(c_diag, a_rows, b, trace_bound=2 * R)
        alpha_ok = alpha_ok and alpha_r >= alpha - 1e-9
        mono_ok = mono_ok and alpha_2r <= alpha_r + 1e-9

        values = []
        for reducer in (reduce_direct_sum, reduce_qubit_embed):
            problem, scale = reducer(sdp), sdp.trace_bound
            radius = certified_radius(problem, epsilon / scale)
            rep = gradient_ascent(problem, epsilon / scale, radius)
            values.append(scale * rep.estimate)
        agree_worst = max(agree_worst, abs(values[0] - values[1]))
        solver_gap_worst = max(
            solver_gap_worst,
            min(abs(values[0] - alpha_r), abs(values[1] - alpha_r)),
        )
    elapsed = time.perf_counter() - t0
    ok = (
        agree_worst <= 2 * 0.05 * 10.0  # both paths epsilon-accurate at worst R
        and alpha_ok
        and mono_ok
        and elapsed < 120.0
    )
    report(
        9,
        ok,
        f"max reduction disagreement {agree_worst:.4f}, alpha_R >= alpha ok={alpha_ok}, "
        f"monotone ok={mono_ok}, worst solver gap {solver_gap_worst:.4f}",
        elapsed,
    )


def test_criterion_10_determinism():
    t0 = time.perf_counter()
    problem = EnergyProblem(Z, [X], [0.6])

    sga_reports = [sga(problem, 0.4, 0.2, 2.0, seed=1010) for _ in range(2)]
    sga_same = sga_reports[0] == sga_reports[1]

    model = ThermalModel(problem, [0.2], 0.5)
    obs_vals = [
        estimate_obs(model, X, 0.1, 0.05, np.random.default_rng(4)) for _ in range(2)
    ]
    anti_vals = [
        estimate_anticommutator(model, X, X, 0.2, 0.1, np.random.default_rng(4))
        for _ in range(2)
    ]

    # CLI report bytes identical apart from wall time
    from thermosdp.cli import ProblemFile, SolverSettings, build_report, report_to_json

    doc = {
        "kind": "energy",
        "qubits": 1,
        "H": [{"pauli": "Z", "coeff": 1.0}],
        "charges": [[{"pauli": "X", "coeff": 1.0}]],
        "q": [0.6],
    }
    parsed = ProblemFile("energy", problem, None, SolverSettings(), doc)
    blobs = []
    for _ in range(2):
        settings = SolverSettings(mode="sga", epsilon=0.4, delta=0.2, radius=2.0, seed=6)
        rep = build_report(parsed, settings)
        rep.pop("wall_time_s")
        blobs.append(report_to_json(rep).encode())
    cli_same = blobs[0] == blobs[1]

    elapsed = time.perf_counter() - t0
    ok = (
        sga_same
        and obs_vals[0] == obs_vals[1]
        and anti_vals[0] == anti_vals[1]
        and cli_same
    )
    report(
        10,
        ok,
        f"sga={sga_same}, estimate_obs={obs_vals[0] == obs_vals[1]}, "
        f"anticommutator={anti_vals[0] == anti_vals[1]}, "
        f"cli bytes={cli_same}",
        elapsed,
    )
