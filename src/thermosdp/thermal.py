"""Exact thermodynamics of the parameterized thermal-state family.

Given a Hamiltonian H, charges (Q_1..Q_c) with targets q, and a chemical
potential vector mu, this module evaluates the effective Hamiltonian
G = H - mu.Q, the overflow-safe log-partition function, the thermal state
rho_T(mu) = exp(-G/T)/Z and the concave dual objective

    f(mu) = mu.q - T ln Z_T(mu).

One :class:`ThermalModel` per (problem, mu, T) carries all of it: its
``gradient()`` is the exact gradient q - <Q>, and its ``kubo_mori()`` is
the Kubo-Mori information matrix I_KM, evaluated in closed form via the
logarithmic mean of thermal eigenvalues, so the Hessian of f is
``-model.kubo_mori()``.
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

    Construction also decides, with no tolerance, whether every observable
    has only zero entries off the diagonal, as LP-type data (dense diagonals,
    {I, Z} Pauli sums, direct sums of those) do.  Such a problem keeps the
    diagonals, and the thermal kernel reads the spectrum of each
    G = H - mu.Q off its diagonal instead of calling LAPACK.

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
        # the projection's mask of "ge" rows, or None when every row is "eq"
        self._ge_rows = None
        if "ge" in senses:
            self._ge_rows = np.array([s == "ge" for s in senses], dtype=bool)
            self._ge_rows.setflags(write=False)

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
        # (diagonal of H, diagonal of each Q_i) when every off-diagonal
        # entry is exactly zero, else None
        entries = (self.h_dense.entries, *self._charge_entries)
        self._diagonals = None
        if all(np.count_nonzero(A) == np.count_nonzero(np.diagonal(A)) for A in entries):
            self._diagonals = tuple(np.diagonal(A).real.copy() for A in entries)

    @property
    def is_pauli(self) -> bool:
        return isinstance(self.hamiltonian, PauliSum) and all(
            isinstance(Q, PauliSum) for Q in self.charges
        )

    def pauli_one_norms(self) -> np.ndarray:
        if not self.is_pauli:
            raise ValueError("problem observables are not Pauli sums")
        return np.array([one_norm(Q) for Q in self.charges], dtype=float)

    def __repr__(self):
        return f"EnergyProblem(d={self.d}, c={self.c})"


def _mu_vector(problem: EnergyProblem, mu) -> np.ndarray:
    """mu as a new float vector of length c (a copy: freezing it leaves the
    caller's array writeable), checked once; a non-finite entry is rejected
    before it can reach LAPACK or form 0 * inf in a diagonal G."""
    mu = np.array(mu, dtype=float, ndmin=1)
    if mu.size != problem.c:
        raise ValueError(f"mu has length {mu.size}, expected {problem.c}")
    if not all(map(math.isfinite, mu.tolist())):
        raise ValueError(f"mu has non-finite entries: {mu}")
    return mu


def _subtract(out: np.ndarray, terms, mu: np.ndarray) -> np.ndarray:
    """out - sum_i mu_i terms_i, one term at a time, in place (mu_i as floats)."""
    for mi, term in zip(mu.tolist(), terms):
        out -= mi * term
    return out


def _effective_matrix(problem: EnergyProblem, mu: np.ndarray) -> np.ndarray:
    """Entries of G = H - sum_i mu_i Q_i, real when every observable is.

    G is a real combination of matrices symmetrized on ingestion, so it is
    exactly Hermitian and needs no re-validation.
    """
    mat = problem.h_dense.entries.astype(problem._g_dtype)
    return _subtract(mat, problem._charge_entries, mu)


def _diagonal_spectrum(problem: EnergyProblem, mu: np.ndarray):
    """(eigenvalues, order) of a diagonal problem's G = H - mu.Q.

    G is its diagonal g, built with the same subtractions as the dense G.
    Its ascending spectrum is ``g[order]`` with ``order`` a stable argsort
    of g, and eigenvector k is the unit vector ``order[k]``: exactly what
    LAPACK returns on a diagonal matrix (tied eigenvalues may come in
    another order of unit vectors, which leaves rho unchanged).
    """
    h, *charges = problem._diagonals
    g = _subtract(h.copy(), charges, mu)
    order = g.argsort(kind="stable")
    return g[order], order


def effective_hamiltonian(problem: EnergyProblem, mu) -> SpectralHermitian:
    """G = H - sum_i mu_i Q_i."""
    return SpectralHermitian(_effective_matrix(problem, _mu_vector(problem, mu)))


def _positive_finite(name: str, value: float) -> float:
    """``value`` as a float, or a ValueError naming ``name`` unless
    0 < value < inf (NaN included)."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return float(value)


def _log_weights(lam: np.ndarray, temperature: float):
    """(ln Z, ln p) from the ascending spectrum of G, by log-sum-exp shifted
    to the ground energy (stable at any T).  A non-finite spectrum is
    rejected in O(1): an infinite eigenvalue is an end, tested before any
    arithmetic, and a NaN anywhere makes the partition sum NaN.  Where the
    spectral width over T exceeds the double range, the far weights get
    ln p = -inf quietly: p underflows to 0 there either way."""
    ground, top = float(lam[0]), float(lam[-1])
    if not (math.isfinite(ground) and math.isfinite(top)):
        raise ValueError("effective Hamiltonian has non-finite eigenvalues")
    if math.isinf((top - ground) / temperature):
        with np.errstate(over="ignore"):
            shifted = (ground - lam) / temperature
    else:
        shifted = (ground - lam) / temperature
    total = float(np.add.reduce(np.exp(shifted)))
    if math.isnan(total):
        raise ValueError("effective Hamiltonian has non-finite eigenvalues")
    logsum = math.log(total)
    return -ground / temperature + logsum, shifted - logsum


class ThermalModel:
    """All spectral data of rho_T(mu) for one (problem, mu, T) triple.

    Eager on every problem: ``eigenvalues`` of G = H - mu.Q (ascending),
    ``log_partition`` (ln Z) and the thermal weights ``probs``/``log_probs``
    on that eigenbasis.  A dense problem also gets ``eigenvectors`` (columns)
    eagerly, from the same ``np.linalg.eigh``, real-symmetric when every
    observable is stored real.  A problem whose observables are all
    diagonal has a diagonal G: its spectrum is read off the diagonal with
    no LAPACK call and construction is O(d), keeping only the sorting
    permutation.  This is exact, not an approximation, and gives the same
    eigenvalues and rho as ``eigh``.

    Lazy, built on first access and cached: ``rho``, the plain density
    matrix V diag(p) V^dag that the charge expectations and samplers read
    (on a diagonal problem the weights scattered onto the permuted
    diagonal, with no matmul), the charges rotated into the eigenbasis,
    which the Kubo-Mori matrix and Newton's dephased bound read, and on a
    diagonal problem ``eigenvectors``, the permutation matrix of unit
    vectors, built only when read.
    G and rho are assembled here from validated inputs and are not
    validated again; ``Density(model.rho)`` and
    :func:`effective_hamiltonian` give validated copies where one is
    wanted.  Newton's line search scores a trial by building its model,
    which it keeps if the trial is accepted; ``oracle.dual_objective``
    gives f(mu) alone, from ``eigvalsh``, for the finite-difference and
    grid-scan oracles.
    Instances are immutable apart from their caches; evaluating many
    models at distinct mu concurrently is safe.
    """

    def __init__(self, problem: EnergyProblem, mu, temperature: float):
        self.temperature = _positive_finite("temperature", temperature)
        self.problem = problem
        self.mu = _mu_vector(problem, mu)
        self.mu.setflags(write=False)

        # a dense problem's eigenvectors come from eigh; a diagonal one
        # keeps the eigenbasis as the permutation _order until it is read
        self._order = self._vectors = None
        if problem._diagonals is None:
            lam, self._vectors = np.linalg.eigh(_effective_matrix(problem, self.mu))
            self._vectors.setflags(write=False)
        else:
            lam, self._order = _diagonal_spectrum(problem, self.mu)
        # exact log-probabilities: ln p_k = -lam_k/T - ln Z
        self.log_partition, self.log_probs = _log_weights(lam, self.temperature)
        self.probs = np.exp(self.log_probs)
        for arr in (lam, self.log_probs, self.probs):
            arr.setflags(write=False)
        self.eigenvalues = lam
        self._rho = self._means = self._rotated = None

    @property
    def eigenvectors(self) -> np.ndarray:
        """Eigenvectors of G as read-only columns; on a diagonal problem the
        permutation matrix with V[order[k], k] = 1, built on first read."""
        if self._vectors is None:
            d = self.problem.d
            V = np.zeros((d, d), dtype=self.problem._g_dtype)
            V[self._order, np.arange(d)] = 1
            V.setflags(write=False)
            self._vectors = V
        return self._vectors

    @property
    def rho(self) -> np.ndarray:
        """Thermal density matrix as a plain read-only array."""
        if self._rho is None:
            if self._order is None:
                V = self._vectors
                rho = (V * self.probs) @ (V.conj().T if V.dtype.kind == "c" else V.T)
            else:
                # V diag(p) V^dag for the permutation V: p scattered onto the diagonal
                d = self.problem.d
                rho = np.zeros((d, d), dtype=self.problem._g_dtype)
                rho.reshape(-1)[:: d + 1][self._order] = self.probs
            rho.setflags(write=False)
            self._rho = rho
        return self._rho

    def charge_expectations(self) -> np.ndarray:
        """<Q_i> = Tr[Q_i rho] for every charge."""
        if self._means is None:
            rho = self.rho
            # Tr[Q rho] = sum_mn conj(rho_mn) Q_mn for Hermitian rho
            self._means = np.array(
                [np.vdot(rho, Q).real for Q in self.problem._charge_entries], dtype=float
            )
            self._means.setflags(write=False)
        return self._means

    def dual_objective(self) -> float:
        return float(self.mu.dot(self.problem.q)) - self.temperature * self.log_partition

    def gradient(self) -> np.ndarray:
        return self.problem.q - self.charge_expectations()

    def rotated_charges(self) -> np.ndarray:
        """Charges conjugated into the eigenbasis of G, V^dag Q_i V, stacked as
        one read-only (c, d, d) array built on first call and cached; on a
        diagonal problem that is Q's rows and columns taken in ``order``."""
        if self._rotated is None:
            problem = self.problem
            d = problem.d
            # the reshape gives c = 0 its (0, d, d) shape
            stack = np.array(problem._charge_entries).reshape(problem.c, d, d)
            if self._order is not None:
                # take keeps the stack C-ordered, as the GEMM in kubo_mori
                # reads it; fancy indexing would not
                rotated = stack.take(self._order, axis=1).take(self._order, axis=2)
            else:
                V = self._vectors
                rotated = V.conj().T @ stack @ V
            rotated.setflags(write=False)
            self._rotated = rotated
        return self._rotated

    def kubo_mori(self) -> np.ndarray:
        """Kubo-Mori information matrix, symmetric PSD, via logarithmic means.

        The s-integral int_0^1 Tr[rho^{1-s} Q_i rho^s Q_j] ds collapses in
        the eigenbasis to sum_{mn} L(p_m, p_n) (Q_i)_{mn} (Q_j)_{nm} with
        L(a, b) = (a - b)/(ln a - ln b) and L(a, a) = a, evaluated as
        max(a, b) expm1(x)/x at x = -|ln a - ln b| <= 0: accurate to rounding
        at every log gap, with no overflow and no series.  Two weights that
        underflowed to ln p = -inf give x = NaN, quietly, and L = 0.
        """
        lp = self.log_probs
        top = np.maximum.outer(self.probs, self.probs)
        with np.errstate(invalid="ignore"):
            x = -np.abs(np.subtract.outer(lp, lp))
            L = np.where(x < 0, top * np.expm1(x) / x, top).ravel()
        # s_ij = Re sum_mn L_mn (R_i)_mn conj(R_j)_mn as one real GEMM over
        # the charges flattened to rows: a complex row viewed as its
        # interleaved real and imaginary parts meets L repeated twice
        R = self.rotated_charges()
        if R.dtype.kind == "c":
            R, L = R.view(float), L.repeat(2)
        R = R.reshape(self.problem.c, L.size)
        s = (R * L) @ R.T
        # a GEMM need not round s_ij and s_ji alike; the mean of the two is
        # exactly symmetric
        s = (s + s.T) / 2.0
        means = self.charge_expectations()
        return (s - np.outer(means, means)) / self.temperature


def entropy(state: Density) -> float:
    """Von Neumann entropy -Tr[rho ln rho], with 0 ln 0 = 0."""
    p = np.clip(state.eigenvalues, 0.0, None)
    mask = p > 0
    return float(-(p[mask] * np.log(p[mask])).sum())


def free_energy_primal(problem: EnergyProblem, state: Density, temperature: float) -> float:
    """<H>_rho - T S(rho)."""
    return expectation(state, problem.h_dense) - temperature * entropy(state)
