import numpy as np
import pytest

from epkit import cmatrix
from epkit.cmatrix import (
    eig,
    image_basis,
    kernel_basis,
    subspace_equal,
    svd_rank,
)
from epkit.errors import (
    AmbientMismatchError,
    DimensionTooLargeError,
    NonFiniteError,
    NonSquareError,
)

from conftest import jordan_block


class TestEig:
    def test_diagonal(self):
        w, v = eig(np.diag([1.0, 2.0, 3.0]))
        assert w.shape == (3,) and v.shape == (3, 3)
        np.testing.assert_allclose(sorted(w.real), [1.0, 2.0, 3.0], atol=1e-12)
        for lam, vec in zip(w, v.T):
            idx = int(round(lam.real)) - 1
            assert abs(abs(vec[idx]) - 1.0) < 1e-12

    def test_nilpotent_block(self):
        # J2(0): eigenvalue 0 twice, every returned vector along (1, 0)
        w, v = eig(jordan_block(2))
        assert np.all(np.abs(w) < 1e-12)
        assert np.all(np.abs(v[1]) < 1e-12)

    def test_product_matrix_at_degeneracy(self):
        # B B' of the mixed three-fold example with b2 = bp1 = 1
        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        w, _ = eig(m)
        assert np.all(np.abs(w) < 1e-14)

    def test_errors(self):
        with pytest.raises(NonSquareError):
            eig(np.zeros((2, 3)))
        with pytest.raises(DimensionTooLargeError):
            eig(np.eye(17))
        bad = np.eye(2, dtype=complex)
        bad[0, 0] = np.nan
        with pytest.raises(NonFiniteError):
            eig(bad)

    def test_residuals_random(self, rng):
        # 1000 random matrices, dims 2..8: residual within 1e-10 * ||M||
        for _ in range(1000):
            n = int(rng.integers(2, 9))
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            norm = np.linalg.norm(m, 2)
            w, v = eig(m)
            for lam, vec in zip(w, v.T):
                assert np.linalg.norm(m @ vec - lam * vec) <= 1e-10 * norm
                assert abs(np.linalg.norm(vec) - 1.0) < 1e-12


class TestRowNorms:
    def test_bits_of_the_one_dimensional_norm(self, rng):
        for n in (1, 2, 4, 6, 12, 16):
            rows = rng.standard_normal((7, n)) + 1j * rng.standard_normal((7, n))
            rows[0] = 0.0
            for layout in (rows, np.asfortranarray(rows)):
                want = np.array([np.linalg.norm(r) for r in layout])
                assert cmatrix.row_norms(layout).tobytes() == want.tobytes()


class TestRank:
    def test_examples(self):
        assert svd_rank([[1.0, 0.0], [0.0, 0.0]], 1e-10) == 1
        assert svd_rank(np.zeros((3, 3)), 1e-10) == 0
        # B B' at the four-fold point built from B = [[0,0],[0,1]], B' = [[1,2],[3,0]]
        b = np.array([[0.0, 0.0], [0.0, 1.0]])
        bp = np.array([[1.0, 2.0], [3.0, 0.0]])
        assert svd_rank(b @ bp, 1e-10) == 1

    def test_rank_nullity(self, rng):
        for _ in range(200):
            rows = int(rng.integers(1, 7))
            cols = int(rng.integers(1, 7))
            m = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
            for tol in (1e-8, 1e-10, 1e-12):
                assert svd_rank(m, tol) + kernel_basis(m, tol).shape[1] == cols

    def test_svd_reconstruction(self, rng):
        for _ in range(100):
            m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            u, s, vh = np.linalg.svd(m)
            err = np.max(np.abs(u @ np.diag(s) @ vh - m))
            assert err <= 1e-12 * np.linalg.norm(m, 2)


@pytest.mark.parametrize("shape", [(3,), (2, 2, 2)])
def test_as_matrix_refuses_other_dimensions(shape):
    with pytest.raises(NonSquareError, match="expected a 2-d matrix, got shape"):
        cmatrix.as_matrix(np.ones(shape))


class TestFactorize:
    def test_one_factorisation_gives_rank_kernel_image_norm(self, rng):
        for _ in range(50):
            m = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
            m[:, 2] = m[:, 0] - 2j * m[:, 1]
            f = cmatrix.factorize(m, 1e-10)
            assert f.rank == 2
            assert f.kernel.shape == (3, 1) and f.image.shape == (4, 2)
            assert f.norm == pytest.approx(np.linalg.norm(m, 2), rel=1e-14)
            assert np.linalg.norm(m @ f.kernel) <= 1e-12 * f.norm
            im = f.image
            assert np.linalg.norm(m - im @ (im.conj().T @ m)) <= 1e-12 * f.norm

    def test_cut_against_common_scale(self):
        m = np.diag([1e-12, 0.0])
        assert cmatrix.factorize(m).rank == 1
        assert cmatrix.factorize(m, 1e-9, 1.0).rank == 0
        assert cmatrix.factorize(m, 1e-9, 1e-12).rank == 1
        usv = np.linalg.svd(m)
        assert cmatrix._cut(*usv, 1e-9, 1.0).rank == 0
        assert cmatrix._cut(*usv, 1e-9, 1e-12).rank == 1

    @pytest.mark.parametrize("tol", [0.0, np.nan])
    def test_tol_must_be_positive(self, tol):
        with pytest.raises(ValueError, match="tol must be positive"):
            cmatrix.factorize(np.eye(2), tol)
        with pytest.raises(ValueError, match="tol must be positive"):
            cmatrix._cut(*np.linalg.svd(np.eye(2)), tol, 1.0)

    def test_norm_beyond_double_range_rejected(self):
        # finite entries whose modulus overflows: LAPACK returns NaN
        c = 1.5e308 + 1.5e308j
        with pytest.raises(NonFiniteError):
            cmatrix.factorize(np.diag([c, c]))
        with pytest.raises(NonFiniteError):
            cmatrix.factorize(np.full((2, 2), 1e308))

    def test_below_absolute_floor_is_zero(self):
        assert cmatrix.factorize(np.diag([1e-305, 0.0])).rank == 0
        assert svd_rank(np.eye(2), scale=0.0) == 0

    def test_kernel_and_image_are_singular_vector_slices(self, rng):
        for rank in range(4):
            m = rng.standard_normal((4, rank)) @ rng.standard_normal((rank, 3)) + 0j
            f = cmatrix.factorize(m, 1e-10)
            assert f.rank == rank
            for view, ref in ((f.kernel, f.vh[rank:].conj().T), (f.image, f.u[:, :rank])):
                assert view.dtype == ref.dtype and view.shape == ref.shape
                assert view.tobytes() == ref.tobytes()

    def test_rank_counted_once_per_cut(self, monkeypatch):
        f = cmatrix.factorize(np.diag([1.0, 1e-6, 0.0]))
        counted = []
        real_sum = np.sum
        monkeypatch.setattr(np, "sum", lambda *a, **k: counted.append(1) or real_sum(*a, **k))
        assert (f.rank, f.kernel.shape, f.image.shape, f.rank) == (2, (3, 1), (3, 2), 2)
        assert len(counted) == 1
        g = cmatrix._cut(f.u, f.s, f.vh, 1e-5, 1.0)
        assert (g.rank, g.kernel.shape, g.image.shape) == (1, (3, 2), (3, 1))
        assert len(counted) == 2

    @pytest.mark.parametrize("view", [svd_rank, kernel_basis, image_basis])
    def test_each_view_factorises_once(self, view, svd_calls):
        view(jordan_block(3))
        assert len(svd_calls) == 1


class TestKernelImage:
    def test_kernel_of_shift(self):
        basis = kernel_basis(jordan_block(2))
        assert basis.shape == (2, 1)
        assert abs(abs(basis[0, 0]) - 1.0) < 1e-12
        assert abs(basis[1, 0]) < 1e-12

    def test_kernel_of_identity(self):
        assert kernel_basis(np.eye(3)).shape == (3, 0)

    def test_image_single_row(self):
        # [[1, 2], [0, 0]] has image along (1, 0)
        basis = image_basis(np.array([[1.0, 2.0], [0.0, 0.0]]))
        assert basis.shape == (2, 1)
        assert abs(basis[1, 0]) < 1e-12

    def test_kernel_vectors_annihilated(self, rng):
        tol = 1e-10
        for _ in range(100):
            m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            m[:, 0] = m[:, 1]  # force rank deficiency
            smax = np.linalg.svd(m, compute_uv=False)[0]
            basis = kernel_basis(m, tol)
            assert basis.shape[1] >= 1
            for v in basis.T:
                assert np.linalg.norm(m @ v) <= 10 * tol * smax


class TestSubspaces:
    def test_equal_and_not(self):
        e1 = np.array([[1.0], [0.0]], dtype=complex)
        e1b = np.array([[1.0], [0.0]], dtype=complex)
        e2 = np.array([[0.0], [1.0]], dtype=complex)
        assert subspace_equal(e1, e1b)
        assert not subspace_equal(e1, e2)

    def test_image_bprime_vs_kernel_b(self):
        # Third-column relation for the mixed three-fold pair
        b = np.array([[0.0, 1.0], [0.0, 0.0]])
        bp = np.array([[1.0, 2.0], [0.0, 0.0]])
        assert subspace_equal(image_basis(bp), kernel_basis(b))

    def test_phase_and_mixing_invariance(self, rng):
        # same span through a random unitary change of basis vectors
        q, _ = np.linalg.qr(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
        mix, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        assert subspace_equal(q, q @ mix)

    def test_ambient_mismatch(self):
        a = np.array([[1.0], [0.0]], dtype=complex)
        b = np.array([[1.0], [0.0], [0.0]], dtype=complex)
        with pytest.raises(AmbientMismatchError):
            subspace_equal(a, b)

    def test_orthonormality_enforced(self):
        with pytest.raises(ValueError, match="orthonormal"):
            subspace_equal(np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex), np.eye(2))

    def test_non_finite_basis_rejected(self):
        e1 = np.array([[1.0], [0.0]], dtype=complex)
        with pytest.raises(NonFiniteError):
            subspace_equal(np.array([[np.nan], [0.0]], dtype=complex), e1)
        with pytest.raises(NonFiniteError):
            subspace_equal(e1, np.array([[1.0], [np.inf]], dtype=complex))

    @pytest.mark.parametrize("bad", [np.ones((2, 3)) / np.sqrt(2), np.array([1.0, 0.0])],
                             ids=["more-columns-than-rows", "not-2d"])
    def test_basis_shape_rejected(self, bad):
        with pytest.raises(AmbientMismatchError):
            subspace_equal(bad, np.eye(2))

    def test_trivial_subspaces(self):
        assert subspace_equal(np.zeros((3, 0)), kernel_basis(np.eye(3)))
        assert not subspace_equal(np.zeros((3, 0)), image_basis(np.eye(3)))


def test_default_tolerance_constant():
    assert cmatrix.DEFAULT_TOL == 1e-9
