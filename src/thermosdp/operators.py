"""Pauli-string observables and validated dense Hermitian matrices.

Observables enter the library either as signed linear combinations of
n-qubit Pauli strings (:class:`PauliSum`) or as dense Hermitian matrices
(:class:`SpectralHermitian`).  Dense entries are validated and symmetrized
once, on ingestion; the thermal kernel combines them without validating
them again.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np

PAULI_CHARS = "IXYZ"

QUBIT_CAP = 10

# relative asymmetry max|A - A^dag| / max|A| above which ingestion warns and
# the CLI rejects a matrix
HERMITICITY_TOL = 1e-8


class ResourceError(RuntimeError):
    """Raised when a dense materialization would exceed the qubit cap."""


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

    # the shot estimators' table of the sum, set on its first use by
    # ``sampling._term_table``; not a field, so equality, hashing and repr
    # ignore it, and it is freed with the sum
    _table = None

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


def _pauli_action(index: str):
    """(perm, phase) with sigma|m> = phase[m] |perm[m]> for one Pauli string.

    X and Y flip their qubit's bit; Y contributes i (-1)^b and Z (-1)^b.
    The first letter acts on the most significant bit, so the action is that
    of the Kronecker product of the letters' 2x2 matrices, left to right.
    It is the library's one representation of a Pauli string; no dense
    string matrix is built anywhere.
    """
    flip = 0
    sign = np.ones(1)
    for ch in index:
        flip = 2 * flip + (ch in "XY")
        sign = np.kron(sign, (1.0, -1.0) if ch in "YZ" else (1.0, 1.0))
    perm = np.arange(len(sign)) ^ flip
    return perm, (1, 1j, -1, -1j)[index.count("Y") % 4] * sign


def _halves(arr: np.ndarray):
    """(A/2, A^dag/2, max|A - A^dag| / max|A|) for a square A, the ratio 0
    for A = 0 and at most 2; halved first (exact when normal), so no finite
    entry overflows.  max|A/2| is finite exactly when A is, so a NaN or inf
    entry raises ValueError before any difference (a complex one halves to
    NaN parts, quietly)."""
    with np.errstate(invalid="ignore"):
        half = arr / 2.0
    adjoint = half.conj().T
    scale = float(np.abs(half).max()) if arr.size else 0.0
    if not scale < np.inf:
        raise ValueError("matrix has non-finite entries")
    asym = float(np.abs(half - adjoint).max()) / scale if scale > 0 else 0.0
    return half, adjoint, asym


class SpectralHermitian:
    """Dense Hermitian matrix, validated once on ingestion.

    Input is symmetrized as ``A/2 + A†/2``; a warning fires if the relative
    asymmetry exceeds ``HERMITICITY_TOL``, and non-finite entries are
    rejected.  Input without an imaginary part is stored real.  Only
    ``entries`` and ``dim`` are kept: the thermal kernel diagonalizes
    G = H - mu.Q itself.
    """

    def __init__(self, entries: np.ndarray):
        arr = np.asarray(entries)
        if np.iscomplexobj(arr) and arr.imag.any():
            arr = arr.astype(complex, copy=False)
        else:
            arr = arr.real.astype(float, copy=False)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        half, adjoint, asym = _halves(arr)
        if asym > HERMITICITY_TOL:
            warnings.warn(
                f"input matrix asymmetry {asym:.3e} (relative to the largest entry) "
                f"exceeds {HERMITICITY_TOL:.0e}; symmetrizing",
                stacklevel=2,
            )
        herm = half + adjoint
        herm.setflags(write=False)
        self._entries = herm

    @property
    def dim(self) -> int:
        return self._entries.shape[0]

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


class Density(SpectralHermitian):
    """Positive semi-definite Hermitian matrix with unit trace.  Its PSD check
    runs ``eigh`` once and keeps the read-only ``eigenvalues`` (ascending)
    and ``eigenvectors`` (columns) for the entropies."""

    PSD_TOL = -1e-12
    TRACE_TOL = 1e-10

    def __init__(self, entries: np.ndarray):
        super().__init__(entries)
        tr = float(np.trace(self.entries).real)
        if abs(tr - 1.0) > self.TRACE_TOL:
            raise ValueError(f"density trace {tr!r} deviates from 1 beyond tolerance")
        vals, vecs = np.linalg.eigh(self.entries)
        if float(vals[0]) < self.PSD_TOL:
            raise ValueError(f"density has negative eigenvalue {float(vals[0]):.3e}")
        vals.setflags(write=False)
        vecs.setflags(write=False)
        self.eigenvalues, self.eigenvectors = vals, vecs


def materialize(psum: PauliSum) -> SpectralHermitian:
    """Dense 2^n x 2^n Hermitian realization of a Pauli sum.

    Each string adds its 2^n nonzero entries, read off its action
    (:func:`_pauli_action`), so no dense Pauli matrix is built or cached.

    Raises
    ------
    ResourceError
        If ``psum.n`` exceeds ``QUBIT_CAP`` (10, i.e. d <= 1024).
    """
    if psum.n > QUBIT_CAP:
        raise ResourceError(
            f"materializing {psum.n} qubits exceeds cap of {QUBIT_CAP}"
        )
    dim = psum.dim
    mat = np.zeros((dim, dim), dtype=complex)
    cols = np.arange(dim)
    for index, coeff in psum.terms:
        perm, phase = _pauli_action(index)
        mat[perm, cols] += coeff * phase
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
    if mat.shape != state.entries.shape:
        raise ValueError(
            f"dimension mismatch: observable {mat.shape} vs state {state.entries.shape}"
        )
    val = complex(np.einsum("mn,nm->", mat, state.entries))
    scale = max(abs(val), 1.0)
    if abs(val.imag) > 1e-10 * scale:
        raise ValueError(f"expectation has imaginary residue {val.imag:.3e}")
    return float(val.real)
