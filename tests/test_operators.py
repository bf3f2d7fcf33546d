import numpy as np
import pytest

from thermosdp import (
    Density,
    PauliSum,
    ResourceError,
    SpectralHermitian,
    expectation,
    materialize,
    one_norm,
)
from thermosdp.operators import pauli_matrix

from conftest import random_density, random_hermitian, random_pauli_sum

I2 = np.eye(2)
Z2 = np.diag([1.0, -1.0])


def kron_chain(chars):
    # independent dense construction, not via materialize
    mats = {
        "I": np.eye(2, dtype=complex),
        "X": np.array([[0, 1], [1, 0]], dtype=complex),
        "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    }
    out = np.ones((1, 1), dtype=complex)
    for ch in chars:
        out = np.kron(out, mats[ch])
    return out


class TestPauliSum:
    def test_rejects_bad_character(self):
        with pytest.raises(ValueError, match="'Q'"):
            PauliSum(2, [("ZQ", 1.0)])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="length"):
            PauliSum(2, [("Z", 1.0)])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            PauliSum(1, [("Z", 1.0), ("Z", 0.5)])

    def test_rejects_zero_and_nonfinite_coeffs(self):
        with pytest.raises(ValueError):
            PauliSum(1, [("Z", 0.0)])
        with pytest.raises(ValueError):
            PauliSum(1, [("Z", np.inf)])

    def test_empty_sum_allowed(self):
        assert one_norm(PauliSum(1, [])) == 0.0


class TestMaterialize:
    def test_single_z(self):
        mat = materialize(PauliSum(1, [("Z", 1.0)]))
        assert np.allclose(mat.entries, Z2)

    def test_identity(self):
        mat = materialize(PauliSum(1, [("I", 1.0)]))
        assert np.allclose(mat.entries, I2)

    def test_two_qubit_eigenvalues(self):
        # brute-force 4x4 eigensolve of 0.5*ZZ + 0.25*XI built independently;
        # the strings anticommute, so the spectrum is +-sqrt(0.5^2 + 0.25^2),
        # each doubly degenerate
        target = 0.5 * kron_chain("ZZ") + 0.25 * kron_chain("XI")
        expected = np.sort(np.linalg.eigvalsh(target))
        mat = materialize(PauliSum(2, [("ZZ", 0.5), ("XI", 0.25)]))
        assert np.allclose(np.sort(mat.eigenvalues), expected)
        root = np.sqrt(0.3125)
        assert np.allclose(expected, [-root, -root, root, root])

    def test_two_qubit_commuting_pair(self):
        # commuting strings do split additively: 0.5*ZZ + 0.25*XX has
        # eigenvalues {+-0.5 +- 0.25} over the Bell basis
        target = 0.5 * kron_chain("ZZ") + 0.25 * kron_chain("XX")
        mat = materialize(PauliSum(2, [("ZZ", 0.5), ("XX", 0.25)]))
        assert np.allclose(np.sort(mat.eigenvalues), np.sort(np.linalg.eigvalsh(target)))
        assert np.allclose(np.sort(mat.eigenvalues), [-0.75, -0.25, 0.25, 0.75])

    def test_qubit_cap(self):
        big = PauliSum(11, [("Z" * 11, 1.0)])
        with pytest.raises(ResourceError):
            materialize(big)
        # cap is overridable
        assert materialize(PauliSum(3, [("ZZZ", 1.0)]), qubit_cap=3).dim == 8

    def test_involution(self, rng):
        # a single Pauli term squares to coeff^2 * identity
        for _ in range(5):
            psum = random_pauli_sum(rng, 2, 1)
            mat = materialize(psum).entries
            coeff = psum.terms[0][1]
            assert np.allclose(mat @ mat, coeff ** 2 * np.eye(4))


class TestOneNorm:
    def test_goldens(self):
        assert one_norm(PauliSum(1, [("Z", 1.0)])) == 1.0
        assert one_norm(PauliSum(2, [("ZZ", 0.5), ("XI", -0.25)])) == 0.75

    def test_dominates_spectral_norm(self, rng):
        for _ in range(20):
            psum = random_pauli_sum(rng, 2, 3)
            dense = materialize(psum)
            assert one_norm(psum) >= dense.spectral_norm() - 1e-12


class TestDensity:
    def test_non_density_rejected(self):
        with pytest.raises(ValueError):
            Density(np.diag([1.5, -0.5]))
        with pytest.raises(ValueError):
            Density(np.diag([0.7, 0.7]))


class TestExpectation:
    def test_goldens(self):
        assert expectation(Density(np.eye(2) / 2), Z2) == pytest.approx(0.0, abs=1e-14)
        assert expectation(Density(np.diag([1.0, 0.0])), Z2) == pytest.approx(1.0)

    def test_double_sum_oracle(self, rng):
        for _ in range(10):
            rho = random_density(rng, 4)
            obs = random_hermitian(rng, 4)
            direct = sum(
                obs[m, n] * rho[n, m] for m in range(4) for n in range(4)
            ).real
            assert expectation(Density(rho), obs) == pytest.approx(direct, abs=1e-12)

    def test_linearity(self, rng):
        rho = Density(random_density(rng, 4))
        a = random_hermitian(rng, 4)
        b = random_hermitian(rng, 4)
        lhs = expectation(rho, 2.0 * a + 0.5 * b)
        rhs = 2.0 * expectation(rho, a) + 0.5 * expectation(rho, b)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            expectation(Density(np.eye(2) / 2), np.eye(4))


class TestSpectralHermitian:
    def test_symmetrization_warning(self):
        mat = np.array([[0.0, 0.0], [1.0, 0.0]])
        with pytest.warns(UserWarning, match="asymmetry"):
            SpectralHermitian(mat)

    def test_reconstruction(self, rng):
        mat = random_hermitian(rng, 6)
        sh = SpectralHermitian(mat)
        rebuilt = (sh.eigenvectors * sh.eigenvalues) @ sh.eigenvectors.conj().T
        scale = np.abs(mat).max()
        assert np.abs(rebuilt - sh.entries).max() <= 1e-10 * scale

    def test_storage_dtype_follows_imaginary_part(self, rng):
        # no imaginary part, even in a complex array: stored real symmetric
        real = SpectralHermitian(np.diag([1.0, -2.0]).astype(complex))
        assert real.entries.dtype == np.float64
        assert real.eigenvectors.dtype == np.float64
        assert np.array_equal(real.entries, np.diag([1.0, -2.0]))
        herm = random_hermitian(rng, 4)
        cplx = SpectralHermitian(herm)
        assert cplx.entries.dtype == np.complex128
        assert np.array_equal(cplx.entries, herm)
        # Pauli strings with an even number of Y are real, an odd number not
        assert materialize(PauliSum(2, [("YY", 1.0), ("XZ", 0.5)])).entries.dtype == np.float64
        assert materialize(PauliSum(2, [("XY", 1.0)])).entries.dtype == np.complex128

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_nonfinite_entries_rejected(self, bad):
        mat = np.eye(3, dtype=complex)
        mat[1, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            SpectralHermitian(mat)
        with pytest.raises(ValueError, match="non-finite"):
            Density(mat)

    def test_pauli_matrix_cache_is_readonly(self):
        mat = pauli_matrix("XZ")
        with pytest.raises(ValueError):
            mat[0, 0] = 5.0
