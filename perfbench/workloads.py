"""Seeded instance families, oracle references and solve calls.

Every workload is a pool of ``Case`` objects made from the workload seed.
A case carries a JSON-safe ``spec`` of raw data, the solver settings, and an
oracle value computed here, outside every timed region, from
``thermosdp.oracle`` LPs or a closed form.  ``raw`` turns a spec into numpy
arrays and ``build`` turns those into thermosdp problems; both run in the
set-up probe as well, so this module imports neither thermosdp nor scipy at
module level (the probe times ``import thermosdp`` itself).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class Case:
    """One solve: raw data, solver settings and the value it must reach."""

    solver: str  # "sga", "exact" or "newton"
    spec: dict
    eps: float
    radius: float
    oracle: float
    delta: Optional[float] = None


@dataclass(frozen=True)
class Workload:
    cases: tuple
    # leading solves that make up one traced cycle
    trace_cycle: int


# --- instance generation ---------------------------------------------------

def _witness(rng, d):
    """Interior probability vector: every target it sets is feasible."""
    return rng.dirichlet(np.ones(d)) * 0.7 + 0.3 / d


def _unit_rows(rng, c, d):
    """c random diagonals, each scaled to spectral norm 1."""
    g = rng.uniform(-1.0, 1.0, size=(c, d))
    return g / np.abs(g).max(axis=1, keepdims=True)


def zstring_diagonal(index: str) -> np.ndarray:
    """Diagonal of a Pauli string over {I, Z}; the first letter is the
    most significant qubit, matching Kronecker order."""
    diag = np.ones(1)
    for ch in index:
        diag = np.kron(diag, [1.0, -1.0] if ch == "Z" else [1.0, 1.0])
    return diag


def _z_terms(rng, n, count):
    """Random diagonal Pauli sum as (terms, diagonal), scaled to norm 1."""
    indices = set()
    while len(indices) < count:
        indices.add("".join(rng.choice(["I", "Z"], size=n)))
    indices = sorted(indices)
    coeffs = rng.uniform(-1.0, 1.0, size=count)
    diag = sum(a * zstring_diagonal(s) for s, a in zip(indices, coeffs))
    scale = float(np.abs(diag).max())
    return [[s, float(a / scale)] for s, a in zip(indices, coeffs)], diag / scale


def _diag_dual_argmax(h, g, q, temperature):
    """Maximiser of f(mu) = mu.q - T ln sum_k exp(-(h - g^T mu)_k / T) for
    diagonal data, by trust-region Newton on the closed form."""
    from scipy.optimize import minimize

    def parts(mu):
        x = -(h - g.T @ mu) / temperature
        top = x.max()
        w = np.exp(x - top)
        lse = top + math.log(w.sum())
        p = w / w.sum()
        mean = g @ p
        f = mu @ q - temperature * lse
        hess = -((g * p) @ g.T - np.outer(mean, mean)) / temperature
        return f, q - mean, hess

    res = minimize(
        lambda m: -parts(m)[0], np.zeros(len(q)),
        jac=lambda m: -parts(m)[1], hess=lambda m: -parts(m)[2],
        method="trust-exact", options={"gtol": 1e-10},
    )
    return np.asarray(res.x)


def _dual_norm(h, g, q, temperature):
    """||mu*|| of the thermal dual of diagonal data.  ``oracle.dual_scan``
    certifies c <= 2; larger c uses the closed-form Newton maximiser."""
    from thermosdp import EnergyProblem, SpectralHermitian
    from thermosdp.oracle import dual_scan

    if len(q) > 2:
        return float(np.linalg.norm(_diag_dual_argmax(h, g, q, temperature)))
    problem = EnergyProblem(
        SpectralHermitian(np.diag(h)), [SpectralHermitian(np.diag(row)) for row in g], q
    )
    axis = np.linspace(-4.0, 4.0, 17)
    mu_star, _ = dual_scan(problem, temperature, axis if len(q) == 1 else (axis, axis))
    return float(np.linalg.norm(mu_star))


def _rot_seed(rng, rotate):
    return int(rng.integers(2 ** 62)) if rotate else None


def energy_case(rng, d, c, eps, radius, solver, rotate):
    """Diagonal energy instance, optionally turned by a random unitary.

    Instances whose dual optimum lies outside 0.8 * radius are redrawn, so
    ``radius`` is a certified bound on ||mu*|| and the schedule is the same
    for every instance of the family.
    """
    from thermosdp.oracle import lp_diagonal_sdp_value

    temperature = eps / (4.0 * math.log(d))
    while True:
        h = rng.uniform(-1.0, 1.0, size=d)
        g = _unit_rows(rng, c, d)
        q = g @ _witness(rng, d)
        if 1.25 * _dual_norm(h, g, q, temperature) <= radius:
            break
    oracle = lp_diagonal_sdp_value(h, np.vstack([g, np.ones(d)]), [*q, 1.0])
    spec = {"kind": "energy", "h": h.tolist(), "g": g.tolist(), "q": q.tolist(),
            "rot_seed": _rot_seed(rng, rotate)}
    return Case(solver, spec, eps, radius, oracle)


def sdp_case(rng, d, c, trace_bound, eps, radius, solver, pauli):
    """Diagonal standard-form SDP with trace guess R.

    ``pauli`` gives {I, Z} Pauli-sum data on log2(d) qubits; otherwise the
    diagonals are turned by a random unitary into dense matrices.  The radius
    is certified on the direct-sum reduction (d + 1) at accuracy eps / R.
    """
    from thermosdp.oracle import lp_diagonal_sdp_value

    temperature = eps / trace_bound / (4.0 * math.log(d + 1))
    while True:
        if pauli:
            n = int(round(math.log2(d)))
            c_terms, c_diag = _z_terms(rng, n, 6)
            a_parts = [_z_terms(rng, n, 6) for _ in range(c)]
            a_terms = [t for t, _ in a_parts]
            a_rows = np.array([row for _, row in a_parts])
        else:
            c_diag = rng.uniform(-1.0, 1.0, size=d)
            a_rows = _unit_rows(rng, c, d)
        witness = trace_bound * rng.uniform(0.3, 0.8) * rng.dirichlet(np.ones(d))
        b = a_rows @ witness
        # the reduced problem is diagonal too: C (+) 0, A_i (+) 0, targets b/R
        pad = lambda v: np.append(v, 0.0)
        norm = _dual_norm(pad(c_diag), np.array([pad(r) for r in a_rows]),
                          b / trace_bound, temperature)
        if 1.25 * norm <= radius:
            break
    oracle = lp_diagonal_sdp_value(c_diag, a_rows, b, trace_bound=trace_bound)
    if pauli:
        spec = {"kind": "sdp", "n": n, "C": c_terms, "A": a_terms}
    else:
        spec = {"kind": "sdp", "c": c_diag.tolist(), "a": a_rows.tolist(),
                "rot_seed": _rot_seed(rng, True)}
    spec.update(b=b.tolist(), R=trace_bound)
    return Case(solver, spec, eps, radius, oracle)


def sga_case(eps=0.2, delta=0.1, radius=2.0, q=0.6):
    """H = Z, Q = X, target <X> = q; the minimum energy is -sqrt(1 - q^2)."""
    spec = {"kind": "sga", "H": [["Z", 1.0]], "Q": [[["X", 1.0]]], "q": [q]}
    return Case("sga", spec, eps, radius, -math.sqrt(1.0 - q * q), delta)


EXACT_D = 32
EXACT_EPS = 0.2
NEWTON_D = 32


def make_workload(name: str, seed: int) -> Workload:
    """The case pool of one workload; oracle work happens here."""
    rng = np.random.default_rng(seed)
    if name == "sga-qubit":
        return Workload((sga_case(),), trace_cycle=1)
    if name == "exact-diag":
        # eps scales as sqrt(c) and the SDP accuracy as R, which gives every
        # solve the same paper schedule M = 8 c ln(d) r^2 / eps^2 (~1.4k
        # iterations at d = 32 and 33).  SDP iterations still cost ~1.3x more,
        # so three energies per SDP keep the median inside the energy solves
        # and the tail inside the slower kind, whichever that is
        cases = []
        for _ in range(4):
            for kind in ("energy", "sdp", "energy", "energy"):
                for c in (1, 2):
                    eps = EXACT_EPS * math.sqrt(c / 2.0)
                    if kind == "energy":
                        cases.append(energy_case(rng, EXACT_D, c, eps, 1.0, "exact", False))
                    else:
                        cases.append(sdp_case(rng, EXACT_D, c, 2.0, 2.0 * eps, 1.0, "exact", True))
        return Workload(tuple(cases), trace_cycle=4)
    if name == "newton-dense":
        # past convergence the solver backtracks at the rounding floor, and
        # models per solve vary ~10x with the instance and even with the
        # rotation alone, so every solve of a run gets its own instance and d
        # stays small enough for ~100 solves per run
        cases = []
        for _ in range(75):
            cases.append(energy_case(rng, NEWTON_D, 3, 0.1, 2.0, "newton", True))
            cases.append(sdp_case(rng, NEWTON_D, 3, 2.0, 0.2, 2.0, "newton", False))
        return Workload(tuple(cases), trace_cycle=2)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("sga-qubit", "exact-diag", "newton-dense")


# --- problem construction ----------------------------------------------------

def _unitary(seed, d):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    qmat, rmat = np.linalg.qr(z)
    return qmat * (np.diagonal(rmat) / np.abs(np.diagonal(rmat)))


def _turn(diag, unitary):
    if unitary is None:
        return np.diag(diag)
    return (unitary * diag) @ unitary.conj().T


def raw(spec: dict) -> dict:
    """Numpy-only preparation of a spec: dense matrices or Pauli term lists."""
    kind = spec["kind"]
    if kind == "sga":
        return spec
    if kind == "energy":
        h = np.asarray(spec["h"])
        u = None if spec["rot_seed"] is None else _unitary(spec["rot_seed"], len(h))
        return {"kind": kind, "H": _turn(h, u),
                "Q": [_turn(np.asarray(row), u) for row in spec["g"]], "q": spec["q"]}
    if "n" in spec:
        return spec
    c_diag = np.asarray(spec["c"])
    u = _unitary(spec["rot_seed"], len(c_diag))
    return {"kind": kind, "C": _turn(c_diag, u),
            "A": [_turn(np.asarray(row), u) for row in spec["a"]],
            "b": spec["b"], "R": spec["R"]}


def build(data: dict):
    """thermosdp problem from ``raw`` output; construction validates and
    materialises the observables."""
    from thermosdp import EnergyProblem, PauliSum, SpectralHermitian
    from thermosdp.sdp import SdpProblem

    kind = data["kind"]
    if kind == "sga":
        return EnergyProblem(PauliSum(1, data["H"]),
                             [PauliSum(1, terms) for terms in data["Q"]], data["q"])
    if kind == "energy":
        return EnergyProblem(SpectralHermitian(data["H"]),
                             [SpectralHermitian(m) for m in data["Q"]], data["q"])
    if "n" in data:
        n = data["n"]
        objective = PauliSum(n, data["C"])
        constraints = [PauliSum(n, terms) for terms in data["A"]]
    else:
        objective = SpectralHermitian(data["C"])
        constraints = [SpectralHermitian(m) for m in data["A"]]
    return SdpProblem(objective, tuple(zip(constraints, data["b"])), data["R"])


# --- solving and checking -----------------------------------------------------

def solve(case: Case, problem, seed: int, k: int):
    """Run solve number ``k`` of a case through the public API.

    Solver functions are looked up on their modules at call time, so traced
    runs see the wrapped names.  SGA replicate ``k`` draws from the stream
    ``SeedSequence(seed, k)``, the stream ``replicate_sga`` gives replicate k.
    """
    from thermosdp import optimize, sdp

    if case.spec["kind"] == "sdp":
        return sdp.solve_sdp(problem, case.eps, case.radius, mode=case.solver)
    if case.solver == "exact":
        return optimize.gradient_ascent(problem, case.eps, case.radius)
    if case.solver == "newton":
        return optimize.natural_gradient_ascent(problem, case.eps, case.radius)
    stream = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(k,)))
    return optimize.sga(problem, case.eps, case.delta, case.radius, rng=stream, seed=seed)


def gap_over_eps(case: Case, estimate: float) -> float:
    """|estimate - oracle| / eps; a solve passes when this is at most 1."""
    return abs(float(estimate) - case.oracle) / case.eps


def improving_steps(objective_trace) -> int:
    """Iterations that raised the dual objective."""
    f = np.asarray(objective_trace, dtype=float)
    return int(np.count_nonzero(f[1:] > f[:-1]))
