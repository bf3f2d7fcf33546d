import itertools
import tracemalloc

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

from conftest import (
    pauli_matrix,
    random_density,
    random_hermitian,
    random_pauli_sum,
    spectral_norm,
)

I2 = np.eye(2)
Z2 = np.diag([1.0, -1.0])


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
        target = 0.5 * pauli_matrix("ZZ") + 0.25 * pauli_matrix("XI")
        expected = np.sort(np.linalg.eigvalsh(target))
        mat = materialize(PauliSum(2, [("ZZ", 0.5), ("XI", 0.25)]))
        assert np.allclose(np.linalg.eigvalsh(mat.entries), expected)
        root = np.sqrt(0.3125)
        assert np.allclose(expected, [-root, -root, root, root])

    def test_two_qubit_commuting_pair(self):
        # commuting strings do split additively: 0.5*ZZ + 0.25*XX has
        # eigenvalues {+-0.5 +- 0.25} over the Bell basis
        target = 0.5 * pauli_matrix("ZZ") + 0.25 * pauli_matrix("XX")
        mat = materialize(PauliSum(2, [("ZZ", 0.5), ("XX", 0.25)]))
        spectrum = np.linalg.eigvalsh(mat.entries)
        assert np.allclose(spectrum, np.sort(np.linalg.eigvalsh(target)))
        assert np.allclose(spectrum, [-0.75, -0.25, 0.25, 0.75])

    def test_every_string_matches_kron_reference(self):
        # each string's permutation-and-phase action against its kron product
        for index in ("".join(p) for p in itertools.product("IXYZ", repeat=3)):
            mat = materialize(PauliSum(3, [(index, 1.0)])).entries
            assert np.array_equal(mat, pauli_matrix(index))

    def test_qubit_cap(self):
        # the cap is fixed at 10 qubits: 10 materialize, 11 raise
        assert materialize(PauliSum(10, [("Z" * 10, 1.0)])).dim == 1024
        with pytest.raises(ResourceError):
            materialize(PauliSum(11, [("Z" * 11, 1.0)]))

    def test_memory_and_no_pauli_matrix_cache(self, rng):
        # 10 qubits: one dense Pauli string is 16 MB, and keeping the 20 of
        # a sum would take 320 MB
        psum = random_pauli_sum(rng, 10, 20)
        tracemalloc.start()
        try:
            dense = materialize(psum)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2 ** 20
        assert dense.dim == 1024

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
            assert one_norm(psum) >= spectral_norm(dense) - 1e-12


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

    def test_asymmetry_near_the_top_of_the_range_is_finite(self):
        # A - A^dag overflows; the halved measurement reports max|A - A^dag| / max|A|
        mat = np.array([[0.0, 1.5e308], [-1.5e308, 0.0]])
        with pytest.warns(UserWarning, match=r"asymmetry 2\.000e\+00 \(relative"):
            herm = SpectralHermitian(mat)
        assert np.array_equal(herm.entries, np.zeros((2, 2)))

    def test_reconstruction(self, rng):
        # the one subclass that keeps an eigensystem: Density, for the entropies
        mat = random_density(rng, 6)
        rho = Density(mat)
        rebuilt = (rho.eigenvectors * rho.eigenvalues) @ rho.eigenvectors.conj().T
        scale = np.abs(mat).max()
        assert np.abs(rebuilt - rho.entries).max() <= 1e-10 * scale

    def test_storage_dtype_follows_imaginary_part(self, rng):
        # no imaginary part, even in a complex array: stored real symmetric
        real = SpectralHermitian(np.diag([1.0, -2.0]).astype(complex))
        assert real.entries.dtype == np.float64
        assert Density(np.diag([0.25, 0.75]).astype(complex)).eigenvectors.dtype == np.float64
        assert np.array_equal(real.entries, np.diag([1.0, -2.0]))
        herm = random_hermitian(rng, 4)
        cplx = SpectralHermitian(herm)
        assert cplx.entries.dtype == np.complex128
        assert np.array_equal(cplx.entries, herm)
        # Pauli strings with an even number of Y are real, an odd number not
        assert materialize(PauliSum(2, [("YY", 1.0), ("XZ", 0.5)])).entries.dtype == np.float64
        assert materialize(PauliSum(2, [("XY", 1.0)])).entries.dtype == np.complex128

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_entries_near_the_top_of_the_range_stay_finite(self, dtype):
        # A + A^dag overflows here, so symmetrizing must halve first; with
        # warnings as errors, an overflow in ingestion fails the test
        big = 1.5e308
        mat = np.array([[big, -big], [-big, -big]], dtype=dtype)
        if dtype is complex:
            mat[0, 1], mat[1, 0] = complex(-big, big / 2), complex(-big, -big / 2)
        herm = SpectralHermitian(mat)
        assert np.isfinite(herm.entries).all()
        assert np.array_equal(herm.entries, mat)

    @pytest.mark.parametrize("bad", [complex(np.inf, 1.0), complex(1.0, -np.inf),
                                     complex(np.nan, np.inf)])
    def test_nonfinite_complex_entries_rejected_quietly(self, bad):
        # halving a complex inf gives NaN parts; with warnings as errors,
        # any warning on the way to the ValueError fails the test
        mat = np.eye(3, dtype=complex)
        mat[0, 2] = bad
        with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
            SpectralHermitian(mat)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_nonfinite_entries_rejected(self, bad):
        mat = np.eye(3, dtype=complex)
        mat[1, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            SpectralHermitian(mat)
        with pytest.raises(ValueError, match="non-finite"):
            Density(mat)
