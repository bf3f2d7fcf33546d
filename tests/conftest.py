import numpy as np
import pytest

from thermosdp import EnergyProblem, PauliSum, SpectralHermitian


_PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_matrix(index):
    """Dense matrix of one Pauli string as a Kronecker product of its
    letters, left to right: the reference the library's permutation-and-phase
    action is checked against.  Not cached."""
    mat = np.ones((1, 1), dtype=complex)
    for ch in index:
        mat = np.kron(mat, _PAULI_1Q[ch])
    return mat


def spectral_norm(Q):
    """||Q|| as the larger end of ``np.linalg.eigh``'s spectrum in absolute
    value: the reference the library's dense norm bounds must equal bit for
    bit (``eigvalsh`` can differ from it in the last bits)."""
    lam = np.linalg.eigh(Q.entries)[0]
    return float(max(abs(lam[0]), abs(lam[-1])))


def random_hermitian(rng, dim, scale=1.0):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2.0 * scale


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_dense_problem(rng, dim, c, norm_cap=1.0):
    """Random dense instance with charges scaled to unit spectral norm."""
    h = random_hermitian(rng, dim)
    charges = []
    for _ in range(c):
        q = random_hermitian(rng, dim)
        q = q / max(np.abs(np.linalg.eigvalsh(q)).max(), 1e-12) * norm_cap
        charges.append(q)
    targets = rng.uniform(-0.3, 0.3, size=c)
    return EnergyProblem(
        SpectralHermitian(h), [SpectralHermitian(q) for q in charges], targets
    )


def random_pauli_sum(rng, n, terms):
    """Random signed Pauli sum with distinct non-identity-heavy indices."""
    chosen = set()
    out = []
    while len(out) < terms:
        index = "".join(rng.choice(list("IXYZ"), size=n))
        if index in chosen:
            continue
        chosen.add(index)
        coeff = float(rng.uniform(0.2, 1.0)) * (1 if rng.random() < 0.5 else -1)
        out.append((index, coeff))
    return PauliSum(n, out)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
