"""Pauli-string observables and the dense Hermitian spectral core.

Observables enter the library either as signed linear combinations of
n-qubit Pauli strings (:class:`PauliSum`) or as dense Hermitian matrices
(:class:`SpectralHermitian`).  Dense entries are validated and symmetrized
once, on ingestion; the thermal kernel combines them without validating
them again.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np

PAULI_CHARS = "IXYZ"

_PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

DEFAULT_QUBIT_CAP = 10

HERMITICITY_WARN_TOL = 1e-8


class ResourceError(RuntimeError):
    """Raised when a dense materialization would exceed the qubit cap."""


class RepresentationError(ValueError):
    """Raised when an operation needs a Pauli-sum but only has dense data."""


@dataclass(frozen=True)
class PauliSum:
    """Signed real combination of n-qubit Pauli strings.

    Parameters
    ----------
    n : int
        Qubit count; every index string must have exactly ``n`` characters.
    terms : tuple of (str, float)
        Pairs ``(index, coeff)`` with ``index`` over ``{I, X, Y, Z}`` and a
        finite nonzero real coefficient.  Signed coefficients are allowed;
        samplers draw terms by ``|coeff|`` and carry the sign separately.
    """

    n: int
    terms: Tuple[Tuple[str, float], ...]

    def __init__(self, n: int, terms: Iterable[Tuple[str, float]]):
        if n < 1:
            raise ValueError(f"qubit count must be >= 1, got {n}")
        norm_terms = []
        seen = set()
        for index, coeff in terms:
            index = str(index).upper()
            if len(index) != n:
                raise ValueError(
                    f"pauli index {index!r} has length {len(index)}, expected {n}"
                )
            bad = set(index) - set(PAULI_CHARS)
            if bad:
                raise ValueError(
                    f"pauli index {index!r} contains invalid character {sorted(bad)[0]!r}"
                )
            coeff = float(coeff)
            if not np.isfinite(coeff) or coeff == 0.0:
                raise ValueError(f"coefficient for {index!r} must be finite and nonzero")
            if index in seen:
                raise ValueError(f"duplicate pauli index {index!r}")
            seen.add(index)
            norm_terms.append((index, coeff))
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "terms", tuple(norm_terms))

    @property
    def dim(self) -> int:
        return 2 ** self.n

    def indices(self) -> Tuple[str, ...]:
        return tuple(index for index, _ in self.terms)

    def coefficients(self) -> np.ndarray:
        return np.array([coeff for _, coeff in self.terms], dtype=float)

    def scaled(self, factor: float) -> "PauliSum":
        return PauliSum(self.n, [(idx, factor * c) for idx, c in self.terms])


def combine_pauli_sums(parts: Sequence[Tuple[float, PauliSum]], n: int) -> PauliSum:
    """Form ``sum_k weight_k * part_k`` as one PauliSum, dropping cancelled terms."""
    acc: dict[str, float] = {}
    for weight, part in parts:
        if part.n != n:
            raise ValueError("qubit counts differ across combined sums")
        for index, coeff in part.terms:
            acc[index] = acc.get(index, 0.0) + weight * coeff
    scale = max((abs(v) for v in acc.values()), default=0.0)
    tol = 1e-14 * max(scale, 1.0)
    kept = [(idx, c) for idx, c in acc.items() if abs(c) > tol]
    return PauliSum(n, kept)


@functools.lru_cache(maxsize=4096)
def pauli_matrix(index: str) -> np.ndarray:
    """Dense matrix of a single Pauli string (cached, read-only)."""
    mat = np.ones((1, 1), dtype=complex)
    for ch in index:
        mat = np.kron(mat, _PAULI_1Q[ch])
    mat.setflags(write=False)
    return mat


class SpectralHermitian:
    """Dense Hermitian matrix with a cached eigendecomposition.

    Input is symmetrized as ``(A + A†)/2`` on ingestion; a warning fires if
    the relative asymmetry exceeds 1e-8, and non-finite entries are
    rejected.  Input without an imaginary part is stored as a real
    symmetric matrix, so its eigensystem (and every thermal quantity built
    from real data) stays real.  The eigensystem is computed lazily on
    first access and reused by every thermal quantity.
    """

    def __init__(self, entries: np.ndarray, *, _eigensystem=None):
        arr = np.asarray(entries)
        if np.iscomplexobj(arr) and arr.imag.any():
            arr = arr.astype(complex, copy=False)
        else:
            arr = arr.real.astype(float, copy=False)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix has non-finite entries")
        scale = float(np.abs(arr).max()) if arr.size else 0.0
        asym = float(np.abs(arr - arr.conj().T).max())
        if scale > 0 and asym > HERMITICITY_WARN_TOL * scale:
            warnings.warn(
                f"input matrix asymmetry {asym:.3e} exceeds "
                f"{HERMITICITY_WARN_TOL:.0e} * scale; symmetrizing",
                stacklevel=2,
            )
        herm = (arr + arr.conj().T) / 2.0
        herm.setflags(write=False)
        self._entries = herm
        # callers that assembled entries as V diag(vals) V^dag may hand the
        # known eigensystem over instead of recomputing it
        if _eigensystem is not None:
            vals, vecs = _eigensystem
            vals = np.array(vals, dtype=float)
            vecs = np.array(vecs)
            vals.setflags(write=False)
            vecs.setflags(write=False)
            self._eig = (vals, vecs)
        else:
            self._eig = None

    @property
    def dim(self) -> int:
        return self._entries.shape[0]

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    def _eigensystem(self):
        if self._eig is None:
            vals, vecs = np.linalg.eigh(self._entries)
            vals.setflags(write=False)
            vecs.setflags(write=False)
            self._eig = (vals, vecs)
        return self._eig

    @property
    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues in ascending order."""
        return self._eigensystem()[0]

    @property
    def eigenvectors(self) -> np.ndarray:
        """Unitary matrix whose columns are the eigenvectors."""
        return self._eigensystem()[1]

    def spectral_norm(self) -> float:
        vals = self.eigenvalues
        return float(max(abs(vals[0]), abs(vals[-1]))) if len(vals) else 0.0

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


class Density(SpectralHermitian):
    """Positive semi-definite Hermitian matrix with unit trace."""

    PSD_TOL = -1e-12
    TRACE_TOL = 1e-10

    def __init__(self, entries: np.ndarray, *, _eigensystem=None):
        super().__init__(entries, _eigensystem=_eigensystem)
        tr = float(np.trace(self.entries).real)
        if abs(tr - 1.0) > self.TRACE_TOL:
            raise ValueError(f"density trace {tr!r} deviates from 1 beyond tolerance")
        if float(self.eigenvalues[0]) < self.PSD_TOL:
            raise ValueError(
                f"density has negative eigenvalue {float(self.eigenvalues[0]):.3e}"
            )

    @property
    def matrix(self) -> np.ndarray:
        return self.entries


def materialize(psum: PauliSum, qubit_cap: int = DEFAULT_QUBIT_CAP) -> SpectralHermitian:
    """Dense 2^n x 2^n Hermitian realization of a Pauli sum.

    Raises
    ------
    ResourceError
        If ``psum.n`` exceeds ``qubit_cap`` (default 10, i.e. d <= 1024).
    """
    if psum.n > qubit_cap:
        raise ResourceError(
            f"materializing {psum.n} qubits exceeds cap of {qubit_cap}"
        )
    dim = psum.dim
    mat = np.zeros((dim, dim), dtype=complex)
    for index, coeff in psum.terms:
        mat += coeff * pauli_matrix(index)
    return SpectralHermitian(mat)


def one_norm(psum: PauliSum) -> float:
    """Sum of absolute coefficients; upper-bounds the spectral norm."""
    return float(np.abs(psum.coefficients()).sum()) if psum.terms else 0.0


def expectation(state: Density, obs) -> float:
    """Real expectation value Tr[O rho].

    ``obs`` may be a SpectralHermitian or a plain array.  The imaginary
    residue must stay below 1e-10 relative; it is asserted small and dropped.
    """
    mat = obs.entries if isinstance(obs, SpectralHermitian) else np.asarray(obs)
    if mat.shape != state.matrix.shape:
        raise ValueError(
            f"dimension mismatch: observable {mat.shape} vs state {state.matrix.shape}"
        )
    val = complex(np.einsum("mn,nm->", mat, state.matrix))
    scale = max(abs(val), 1.0)
    if abs(val.imag) > 1e-10 * scale:
        raise ValueError(f"expectation has imaginary residue {val.imag:.3e}")
    return float(val.real)
