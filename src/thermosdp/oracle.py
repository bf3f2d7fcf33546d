"""Independent brute-force baselines used to certify the solvers.

Nothing here calls into the solver backends: derivatives come from central
finite differences of the exact thermodynamic functions (the dual
objective from the eigenvalues of G alone, ``dual_objective``), commuting-case
energies from a support-enumeration linear program over the probability
simplex, single-qubit energies from Bloch-ball geometry in closed form,
the Kubo-Mori matrix from direct Gauss-Legendre quadrature of its
s-integral, tiny-c dual optima from a grid scan with local refinement,
and the Hessian circuit's joint outcome law from dense Pauli matrices.
A "ge" row, <Q_i> >= q_i, enters the linear program as a surplus variable
and the dual scan as the sign condition mu_i >= 0.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linprog, minimize, minimize_scalar
from scipy.special import roots_legendre

from .thermal import (
    EnergyProblem,
    ThermalModel,
    _diagonal_spectrum,
    _effective_matrix,
    _log_weights,
    _mu_vector,
    _positive_finite,
    effective_hamiltonian,
)


class Infeasible(Exception):
    """Constraint set empty; distinct from any numeric failure."""


def dual_objective(problem: EnergyProblem, mu, temperature: float) -> float:
    """f(mu) = mu.q - T ln Z_T(mu), from the eigenvalues of G alone (no
    eigenvectors); a diagonal problem reads them off its diagonal."""
    temperature = _positive_finite("temperature", temperature)
    mu = _mu_vector(problem, mu)
    if problem._diagonals is None:
        lam = np.linalg.eigvalsh(_effective_matrix(problem, mu))
    else:
        lam = _diagonal_spectrum(problem, mu)[0]
    return float(mu @ problem.q - temperature * _log_weights(lam, temperature)[0])


def finite_diff_gradient(problem: EnergyProblem, mu, temperature: float, h: float = 1e-5):
    """Central finite differences of the dual objective, adaptive step."""
    if h <= 0:
        raise ValueError("step must be positive")
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    grad = np.empty(problem.c)
    for i in range(problem.c):
        hi = h * max(1.0, abs(mu[i]))
        up, dn = mu.copy(), mu.copy()
        up[i] += hi
        dn[i] -= hi
        grad[i] = (dual_objective(problem, up, temperature)
                   - dual_objective(problem, dn, temperature)) / (2.0 * hi)
    return grad


def finite_diff_hessian(problem: EnergyProblem, mu, temperature: float, h: float = 1e-5):
    """Central finite differences of the exact gradient, symmetrized."""
    if h <= 0:
        raise ValueError("step must be positive")
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    hess = np.empty((problem.c, problem.c))
    for i in range(problem.c):
        hi = h * max(1.0, abs(mu[i]))
        up, dn = mu.copy(), mu.copy()
        up[i] += hi
        dn[i] -= hi
        col = (ThermalModel(problem, up, temperature).gradient()
               - ThermalModel(problem, dn, temperature).gradient()) / (2.0 * hi)
        hess[:, i] = col
    return (hess + hess.T) / 2.0


def _codiagonalize(problem: EnergyProblem):
    """Diagonal entries of all observables in a common eigenbasis.

    Requires every pair of observables to commute (checked); matrices
    already diagonal pass through untouched.
    """
    mats = [problem.h_dense.entries] + [Q.entries for Q in problem.q_dense]
    scale = max(max(np.abs(m).max() for m in mats), 1.0)
    for a, b in itertools.combinations(mats, 2):
        if np.abs(a @ b - b @ a).max() > 1e-10 * scale * scale:
            raise ValueError("observables do not commute; no diagonal oracle exists")
    off = max(np.abs(m - np.diag(np.diagonal(m))).max() for m in mats)
    if off <= 1e-12 * scale:
        return [np.diagonal(m).real.copy() for m in mats]
    # rotate into the eigenbasis of a generic combination to split degeneracies
    weights = np.linspace(1.0, 2.0, len(mats))
    _, V = np.linalg.eigh(sum(w * m for w, m in zip(weights, mats)))
    return [np.einsum("km,mn,nk->k", V.conj().T, m, V).real for m in mats]


def lp_diagonal_energy(problem: EnergyProblem) -> float:
    """Exact minimum energy when all observables commute.

    The problem is then a linear program over the probability simplex,
    with a zero-energy surplus column -e_i for each "ge" row i; every basic
    feasible solution has support of size at most c + 1, so enumerating
    candidate supports, solving the square system on each, and filtering
    non-negativity yields the exact optimum.

    Raises
    ------
    Infeasible
        If no probability vector meets the constraint targets.
    """
    diags = _codiagonalize(problem)
    ge = np.flatnonzero([sense == "ge" for sense in problem.senses])
    h = np.concatenate([diags[0], np.zeros(len(ge))])
    qrows = np.array(diags[1:], dtype=float).reshape(problem.c, problem.d)
    targets = np.concatenate([problem.q, [1.0]])
    rows = np.hstack([np.vstack([qrows, np.ones(problem.d)]), -np.eye(problem.c + 1)[:, ge]])
    m = problem.c + 1
    best = None
    feasible = False
    for size in range(1, m + 1):
        for support in itertools.combinations(range(rows.shape[1]), size):
            sub = rows[:, support]
            sol, residual, *_ = np.linalg.lstsq(sub, targets, rcond=None)
            if np.abs(sub @ sol - targets).max() > 1e-9:
                continue
            if sol.min() < -1e-9:
                continue
            feasible = True
            value = float(h[list(support)] @ sol)
            if best is None or value < best:
                best = value
    if not feasible:
        raise Infeasible("no probability vector satisfies the constraint targets")
    return best


def bloch_energy(hx: float, hy: float, hz: float,
                 constraints: Sequence[Tuple[float, float, float, float]] = ()) -> float:
    """Exact single-qubit minimum of hx<X> + hy<Y> + hz<Z> under
    linear Bloch constraints (gx, gy, gz, target), each gx<X>+gy<Y>+gz<Z>=t.

    States are Bloch vectors v with ||v|| <= 1; the feasible set is the
    intersection of the unit ball with an affine subspace, and the linear
    minimum has the closed form h.v0 - ||P h|| sqrt(1 - ||v0||^2) with v0
    the minimum-norm solution and P the projector onto the null space.
    """
    h = np.array([hx, hy, hz], dtype=float)
    cons = [np.asarray(row, dtype=float) for row in constraints]
    if not cons:
        return float(-np.linalg.norm(h))
    G = np.array([row[:3] for row in cons])
    t = np.array([row[3] for row in cons])
    v0, *_ = np.linalg.lstsq(G, t, rcond=None)
    if np.abs(G @ v0 - t).max() > 1e-9:
        raise Infeasible("constraint equations are inconsistent")
    n0 = float(np.linalg.norm(v0))
    if n0 > 1.0 + 1e-12:
        raise Infeasible("constraints force the state outside the Bloch ball")
    # orthonormal basis of the null space of G
    _, s, Vt = np.linalg.svd(G)
    rank = int(np.sum(s > 1e-12 * max(s[0], 1.0)))
    null = Vt[rank:].T
    slack = math.sqrt(max(0.0, 1.0 - n0 * n0))
    return float(h @ v0 - np.linalg.norm(null.T @ h) * slack)


def bloch_energy_problem(problem: EnergyProblem) -> float:
    """Bloch-ball oracle for a single-qubit Pauli problem (d = 2)."""
    if problem.d != 2 or not problem.is_pauli:
        raise ValueError("Bloch oracle needs a single-qubit Pauli problem")

    def components(psum):
        comp = {"I": 0.0, "X": 0.0, "Y": 0.0, "Z": 0.0}
        for index, coeff in psum.terms:
            comp[index] += coeff
        return comp

    hc = components(problem.hamiltonian)
    cons = []
    for Q, target in zip(problem.charges, problem.q):
        qc = components(Q)
        cons.append((qc["X"], qc["Y"], qc["Z"], target - qc["I"]))
    return hc["I"] + bloch_energy(hc["X"], hc["Y"], hc["Z"], cons)


def km_quadrature(problem: EnergyProblem, mu, temperature: float, nodes: int = 64):
    """Kubo-Mori matrix by Gauss-Legendre quadrature of the s-integral.

    Node count doubles adaptively until successive estimates agree to
    1e-10 (capped at 1024).  Serves as the independent cross-check of the
    logarithmic-mean closed form.
    """
    if nodes < 16:
        raise ValueError("need at least 16 quadrature nodes")
    model = ThermalModel(problem, mu, temperature)
    p = np.clip(model.probs, 0.0, None)
    rotated = model.rotated_charges()
    means = model.charge_expectations()
    c = problem.c

    def evaluate(n_nodes):
        x, w = roots_legendre(n_nodes)
        s_vals = (x + 1.0) / 2.0
        weights = w / 2.0
        km = np.zeros((c, c))
        for s, wt in zip(s_vals, weights):
            left = np.power(p, 1.0 - s)
            right = np.power(p, s)
            for i in range(c):
                for j in range(i, c):
                    val = np.einsum(
                        "m,mn,n,nm->", left, rotated[i], right, rotated[j]
                    ).real
                    km[i, j] += wt * val
        km = km + np.triu(km, 1).T
        return (km - np.outer(means, means)) / temperature

    current = evaluate(nodes)
    while nodes < 1024:
        nodes *= 2
        refined = evaluate(nodes)
        if np.abs(refined - current).max() < 1e-10:
            return refined
        current = refined
    return current


def dual_scan(problem: EnergyProblem, temperature: float, grid):
    """Grid search plus local refinement of the dual maximizer, c <= 2.

    ``grid`` is an array of mu values (c = 1) or a pair of axis arrays
    (c = 2).  A "ge" row keeps mu_i >= 0: its axis keeps 0 and the values
    >= 0, and the refinement is bounded below by 0 (c = 1) or reads f at
    |mu_i| (c = 2).  Returns (mu_star, f_star).
    """
    if problem.c == 0:
        return np.zeros(0), dual_objective(problem, [], temperature)
    if problem.c > 2:
        raise ValueError("dual_scan supports at most two constraints")
    ge = np.array([sense == "ge" for sense in problem.senses])

    def f(mu):
        mu = np.atleast_1d(mu)
        return dual_objective(problem, np.where(ge, np.abs(mu), mu), temperature)

    def sign_axis(values, i):
        values = np.asarray(values, dtype=float).ravel()
        return np.union1d(values[values >= 0], [0.0]) if ge[i] else values

    if problem.c == 1:
        axis = sign_axis(grid, 0)
        vals = np.array([f([m]) for m in axis])
        k = int(np.argmax(vals))
        lo = axis[max(k - 1, 0)]
        hi = axis[min(k + 1, len(axis) - 1)]
        if lo == hi:
            lo, hi = axis[k] - 1.0, axis[k] + 1.0
        lo = max(lo, 0.0) if ge[0] else lo
        res = minimize_scalar(lambda m: -f([m]), bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-12})
        mu_star = np.array([res.x])
        return mu_star, f(mu_star)

    ax0, ax1 = (sign_axis(a, i) for i, a in enumerate(grid))
    best_val, best_mu = -np.inf, None
    for m0 in ax0:
        for m1 in ax1:
            v = f([m0, m1])
            if v > best_val:
                best_val, best_mu = v, np.array([m0, m1])
    res = minimize(lambda m: -f(m), best_mu, method="Nelder-Mead",
                   options={"xatol": 1e-11, "fatol": 1e-13, "maxiter": 2000})
    mu_star = np.where(ge, np.abs(res.x), res.x)
    return mu_star, f(mu_star)


_PAULI_LETTERS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1.0 + 0j, -1.0]),
}


def _pauli_dense(index: str) -> np.ndarray:
    """Dense matrix of one Pauli string, the Kronecker product of its letters."""
    mat = np.ones((1, 1), dtype=complex)
    for letter in index:
        mat = np.kron(mat, _PAULI_LETTERS[letter])
    return mat


def hadamard_test_distribution(model: ThermalModel, k_index: str, l_index: str,
                               t: float) -> np.ndarray:
    """Exact joint outcome law probs[lambda, gamma] of the Hessian circuit.

    Control prepared in |1>, Hadamard, controlled-sigma_k on the thermal
    state, evolution U = exp(i G t / T), Hadamard, control measured in Z
    (outcome lambda) and system measured in the sigma_l eigenbasis
    (outcome gamma).  Each cell is

        Tr[(I + (-1)^gamma U^dag sigma_l U)/2 Pi_lambda rho Pi_lambda],

    Pi_lambda = (I - (-1)^lambda sigma_k)/2, clipped to [0, 1], so the
    signed expectation is -1/2 Tr[{U^dag sigma_l U, sigma_k} rho].
    """
    energies, V = np.linalg.eigh(effective_hamiltonian(model.problem, model.mu).entries)
    U = (V * np.exp(1j * energies * t / model.temperature)) @ V.conj().T
    sigma_l = U.conj().T @ _pauli_dense(l_index) @ U
    sigma_k = _pauli_dense(k_index)
    eye = np.eye(len(energies))
    probs = np.empty((2, 2))
    for lam, gamma in itertools.product((0, 1), repeat=2):
        branch = (eye - (-1) ** lam * sigma_k) / 2.0
        readout = (eye + (-1) ** gamma * sigma_l) / 2.0
        probs[lam, gamma] = np.trace(readout @ branch @ model.rho @ branch).real
    return probs.clip(0.0, 1.0)


def lp_diagonal_sdp_value(c_diag, a_rows, b, trace_bound: Optional[float] = None,
                          senses: Optional[Sequence[str]] = None) -> float:
    """LP value of a diagonal standard-form SDP (optionally trace-bounded).

    min c.p  s.t.  A p {=, >=} b,  p >= 0,  and sum(p) <= R when given.
    Infeasibility raises; unboundedness returns -inf.
    """
    c_diag = np.asarray(c_diag, dtype=float)
    a_rows = np.asarray(a_rows, dtype=float).reshape(len(b), len(c_diag))
    senses = tuple(senses) if senses is not None else ("eq",) * len(b)
    A_eq, b_eq, A_ub, b_ub = [], [], [], []
    for row, target, sense in zip(a_rows, b, senses):
        if sense == "eq":
            A_eq.append(row)
            b_eq.append(target)
        else:  # Tr[A X] >= b  ->  -row . p <= -b
            A_ub.append(-row)
            b_ub.append(-target)
    if trace_bound is not None:
        A_ub.append(np.ones(len(c_diag)))
        b_ub.append(float(trace_bound))
    res = linprog(
        c_diag,
        A_eq=np.array(A_eq) if A_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        A_ub=np.array(A_ub) if A_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        bounds=(0, None),
        method="highs",
    )
    if res.status == 2:
        raise Infeasible("diagonal SDP has no feasible point")
    if res.status == 3:
        return float("-inf")
    if not res.success:
        raise RuntimeError(f"linprog failed: {res.message}")
    return float(res.fun)
