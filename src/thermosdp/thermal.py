"""Exact thermodynamics of the parameterized thermal-state family.

Given a Hamiltonian H, charges (Q_1..Q_c) with targets q, and a chemical
potential vector mu, this module evaluates the effective Hamiltonian
G = H - mu.Q, the overflow-safe log-partition function, the thermal state
rho_T(mu) = exp(-G/T)/Z, the concave dual objective

    f(mu) = mu.q - T ln Z_T(mu),

its exact gradient q - <Q>, and its Hessian -I_KM(mu), where I_KM is the
Kubo-Mori information matrix evaluated in closed form via the logarithmic
mean of thermal eigenvalues.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .operators import (
    Density,
    PauliSum,
    SpectralHermitian,
    expectation,
    materialize,
    one_norm,
)

_DEGENERATE_LOG_GAP = 1e-12


def _as_dense(obs) -> SpectralHermitian:
    if isinstance(obs, SpectralHermitian):
        return obs
    if isinstance(obs, PauliSum):
        return materialize(obs)
    return SpectralHermitian(np.asarray(obs))


class EnergyProblem:
    """Problem data (H, Q_1..Q_c) with constraint targets q.

    Observables may be given as PauliSum, SpectralHermitian, or plain dense
    arrays; all must share one dimension.  Dense realizations are cached
    eagerly at construction, after which the instance is immutable and safe
    to share between solves.

    ``senses`` optionally marks each constraint "eq" or "ge"; "ge" restricts
    the corresponding chemical potential to be non-negative (an extension
    used by the solvers' projection step).
    """

    def __init__(self, hamiltonian, charges=(), q=(), senses: Optional[Sequence[str]] = None):
        self.hamiltonian = hamiltonian
        self.charges = tuple(charges)
        self.q = np.atleast_1d(np.asarray(q, dtype=float)).copy()
        if self.q.ndim != 1 or len(self.q) != len(self.charges):
            raise ValueError(
                f"got {len(self.charges)} charges but {self.q.size} constraint targets"
            )
        if not np.all(np.isfinite(self.q)):
            raise ValueError("constraint targets must be finite")
        if senses is None:
            senses = ("eq",) * len(self.charges)
        senses = tuple(senses)
        if len(senses) != len(self.charges) or any(s not in ("eq", "ge") for s in senses):
            raise ValueError("senses must be a per-constraint list over {'eq','ge'}")
        self.senses = senses

        self.h_dense = _as_dense(hamiltonian)
        self.q_dense = tuple(_as_dense(Q) for Q in self.charges)
        dims = {self.h_dense.dim} | {Q.dim for Q in self.q_dense}
        if len(dims) != 1:
            raise ValueError(f"observables disagree on dimension: {sorted(dims)}")
        self.d = self.h_dense.dim
        self.c = len(self.charges)
        self.q.setflags(write=False)
        # what every G = H - mu.Q reads, fixed once per problem
        self._charge_entries = tuple(Q.entries for Q in self.q_dense)
        self._g_dtype = np.result_type(self.h_dense.entries, *self._charge_entries)

    @property
    def is_pauli(self) -> bool:
        return isinstance(self.hamiltonian, PauliSum) and all(
            isinstance(Q, PauliSum) for Q in self.charges
        )

    def pauli_one_norms(self) -> np.ndarray:
        if not self.is_pauli:
            raise ValueError("problem observables are not Pauli sums")
        return np.array([one_norm(Q) for Q in self.charges], dtype=float)

    def ge_mask(self) -> np.ndarray:
        return np.array([s == "ge" for s in self.senses], dtype=bool)

    def __repr__(self):
        return f"EnergyProblem(d={self.d}, c={self.c})"


def _effective_matrix(problem: EnergyProblem, mu) -> np.ndarray:
    """Entries of G = H - sum_i mu_i Q_i, real when every observable is.

    G is a real combination of matrices symmetrized on ingestion, so it is
    exactly Hermitian and needs no re-validation.
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    if mu.size != problem.c:
        raise ValueError(f"mu has length {mu.size}, expected {problem.c}")
    mat = problem.h_dense.entries.astype(problem._g_dtype)
    for mi, Q in zip(mu, problem._charge_entries):
        mat -= mi * Q
    return mat


def effective_hamiltonian(problem: EnergyProblem, mu) -> SpectralHermitian:
    """G = H - sum_i mu_i Q_i."""
    return SpectralHermitian(_effective_matrix(problem, mu))


def _check_temperature(temperature: float) -> float:
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    return float(temperature)


def _log_weights(lam: np.ndarray, temperature: float):
    """(ln Z, ln p) from the ascending spectrum of G, by log-sum-exp shifted
    to the ground energy (stable at any T)."""
    if not np.isfinite(lam).all():
        raise ValueError("effective Hamiltonian has non-finite eigenvalues")
    shifted = (lam[0] - lam) / temperature
    logsum = math.log(np.exp(shifted).sum())
    return float(-lam[0] / temperature + logsum), shifted - logsum


class ThermalModel:
    """All spectral data of rho_T(mu) for one (problem, mu, T) triple.

    Eager: the eigensystem of G = H - mu.Q (``eigenvalues`` ascending,
    ``eigenvectors`` as columns) from one ``np.linalg.eigh``, real-symmetric
    when every observable is stored real; ``log_partition``; and the
    thermal weights ``probs``/``log_probs`` on that eigenbasis.

    Lazy, built on first access and cached: ``rho``, the plain density
    matrix V diag(p) V^dag that the charge expectations and samplers read.
    G and rho are assembled here from validated inputs and are not
    validated again; ``Density(model.rho)`` and
    :func:`effective_hamiltonian` give validated copies where one is
    wanted.  Callers that need only f(mu), such as Newton's backtracking,
    use the eigenvalue-only :func:`dual_objective` instead of a model.
    Instances are immutable apart from their caches; evaluating many
    models at distinct mu concurrently is safe.
    """

    def __init__(self, problem: EnergyProblem, mu, temperature: float):
        self.temperature = _check_temperature(temperature)
        self.problem = problem
        self.mu = np.array(mu, dtype=float, ndmin=1)
        self.mu.setflags(write=False)

        lam, V = np.linalg.eigh(_effective_matrix(problem, self.mu))
        # exact log-probabilities: ln p_k = -lam_k/T - ln Z
        self.log_partition, self.log_probs = _log_weights(lam, self.temperature)
        self.probs = np.exp(self.log_probs)
        for arr in (lam, V, self.log_probs, self.probs):
            arr.setflags(write=False)
        self.eigenvalues = lam
        self.eigenvectors = V
        self._rho = self._means = None

    @property
    def rho(self) -> np.ndarray:
        """Thermal density matrix as a plain read-only array."""
        if self._rho is None:
            V = self.eigenvectors
            self._rho = (V * self.probs) @ V.conj().T
            self._rho.setflags(write=False)
        return self._rho

    def charge_expectations(self) -> np.ndarray:
        """<Q_i> = Tr[Q_i rho] for every charge."""
        if self._means is None:
            rho = self.rho
            # Tr[Q rho] = sum_mn conj(rho_mn) Q_mn for Hermitian rho
            self._means = np.array(
                [np.vdot(rho, Q.entries).real for Q in self.problem.q_dense],
                dtype=float,
            )
            self._means.setflags(write=False)
        return self._means

    def dual_objective(self) -> float:
        return float(self.mu @ self.problem.q - self.temperature * self.log_partition)

    def gradient(self) -> np.ndarray:
        return self.problem.q - self.charge_expectations()

    def rotated_charges(self) -> list[np.ndarray]:
        """Charges conjugated into the eigenbasis of G."""
        V = self.eigenvectors
        return [V.conj().T @ Q.entries @ V for Q in self.problem.q_dense]

    def kubo_mori(self) -> np.ndarray:
        """Kubo-Mori information matrix, symmetric PSD, via logarithmic means.

        The s-integral int_0^1 Tr[rho^{1-s} Q_i rho^s Q_j] ds collapses in
        the eigenbasis to sum_{mn} L(p_m, p_n) (Q_i)_{mn} (Q_j)_{nm} with
        L(a, b) = (a - b)/(ln a - ln b) and L(a, a) = a.  Pairs whose
        log-gap is below 1e-12 switch to the mean-value form (a + b)/2.
        """
        c = self.problem.c
        if c == 0:
            return np.zeros((0, 0))
        p = self.probs
        logp = self.log_probs
        gap = logp[:, None] - logp[None, :]
        diff = p[:, None] - p[None, :]
        near = np.abs(gap) < _DEGENERATE_LOG_GAP
        L = np.where(near, (p[:, None] + p[None, :]) / 2.0,
                     diff / np.where(near, 1.0, gap))
        rotated = self.rotated_charges()
        means = self.charge_expectations()
        km = np.empty((c, c))
        for i in range(c):
            for j in range(i, c):
                s = np.sum(L * rotated[i] * rotated[j].conj()).real
                km[i, j] = km[j, i] = (s - means[i] * means[j]) / self.temperature
        return km


def log_partition(problem: EnergyProblem, mu, temperature: float) -> float:
    """ln Tr[exp(-G/T)], from the eigenvalues of G alone (no eigenvectors)."""
    temperature = _check_temperature(temperature)
    lam = np.linalg.eigvalsh(_effective_matrix(problem, mu))
    return _log_weights(lam, temperature)[0]


def thermal_state(problem: EnergyProblem, mu, temperature: float) -> Density:
    """Grand canonical thermal state exp(-G/T)/Z."""
    return Density(ThermalModel(problem, mu, temperature).rho)


def dual_objective(problem: EnergyProblem, mu, temperature: float) -> float:
    """f(mu) = mu.q - T ln Z_T(mu), from the eigenvalues of G alone."""
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    return float(mu @ problem.q - temperature * log_partition(problem, mu, temperature))


def exact_gradient(problem: EnergyProblem, mu, temperature: float) -> np.ndarray:
    """Gradient of f: component i equals q_i - Tr[Q_i rho_T(mu)]."""
    return ThermalModel(problem, mu, temperature).gradient()


def kubo_mori(problem: EnergyProblem, mu, temperature: float) -> np.ndarray:
    return ThermalModel(problem, mu, temperature).kubo_mori()


def hessian(problem: EnergyProblem, mu, temperature: float) -> np.ndarray:
    """Hessian of f, equal to minus the Kubo-Mori matrix."""
    return -kubo_mori(problem, mu, temperature)


def entropy(state: Density) -> float:
    """Von Neumann entropy -Tr[rho ln rho], with 0 ln 0 = 0."""
    p = np.clip(state.eigenvalues, 0.0, None)
    mask = p > 0
    return float(-(p[mask] * np.log(p[mask])).sum())


def relative_entropy(omega: Density, tau: Density) -> float:
    """Umegaki relative entropy D(omega || tau); +inf off tau's support."""
    if omega.dim != tau.dim:
        raise ValueError("dimension mismatch between states")
    pw = np.clip(omega.eigenvalues, 0.0, None)
    mask_w = pw > 0
    term_w = float((pw[mask_w] * np.log(pw[mask_w])).sum())

    pt = np.clip(tau.eigenvalues, 0.0, None)
    Vt = tau.eigenvectors
    support = pt > 1e-14 * max(float(pt[-1]), 1e-300)
    # weight of omega along each eigenvector of tau
    overlap = np.einsum("km,mn,nk->k", Vt.conj().T, omega.matrix, Vt).real
    overlap = np.clip(overlap, 0.0, None)
    if float(overlap[~support].sum()) > 1e-12:
        return float("inf")
    term_t = float((overlap[support] * np.log(pt[support])).sum())
    return term_w - term_t


def free_energy_primal(problem: EnergyProblem, state: Density, temperature: float) -> float:
    """<H>_rho - T S(rho)."""
    return expectation(state, problem.h_dense) - temperature * entropy(state)
