import numpy as np
import pytest

from epkit.errors import (
    ChainSolveFailedError,
    NotAnEigenvalueError,
    SeedNotInKernelError,
)
from epkit.spectral import (
    _subspace_intersection,
    cluster_eigenvalues,
    ep_report,
    jordan_chain,
    jordan_structure,
    rank_sequence,
)
from epkit.sublattice import assemble_blocks

from conftest import block_diag, direction_mismatch, jordan_block, random_conditioned


class TestClustering:
    def test_near_zero_pair(self):
        clusters = cluster_eigenvalues([0.0, 1e-12, 1.0], 1e-9)
        assert [c.algebraic_multiplicity for c in clusters] == [2, 1]
        assert abs(clusters[1].center - 1.0) < 1e-12

    def test_fourfold_zero(self):
        values = np.linalg.eigvals(block_diag(jordan_block(3), [[0.0]]))
        clusters = cluster_eigenvalues(list(values), 1e-6)
        assert len(clusters) == 1
        assert clusters[0].algebraic_multiplicity == 4

    def test_doublet_pairs(self):
        # two opposite sqrt-scale energies, each doubly degenerate
        e = np.sqrt(1e-4)
        clusters = cluster_eigenvalues([e, -e, e + 1e-12, -e - 1e-12], 1e-9)
        assert sorted(c.algebraic_multiplicity for c in clusters) == [2, 2]

    def test_accepts_eigenpairs(self):
        pairs = [(1.0, np.array([1.0, 0])), (1.0 + 1e-12, np.array([0, 1.0]))]
        clusters = cluster_eigenvalues(pairs, 1e-9)
        assert len(clusters) == 1


class TestJordanStructure:
    def test_canonical_blocks(self):
        assert jordan_structure(jordan_block(4), 0.0).block_sizes == [4]
        assert jordan_structure(block_diag(jordan_block(3), [[0.0]]), 0.0).block_sizes == [3, 1]
        assert jordan_structure(block_diag(jordan_block(2), jordan_block(2)), 0.0).block_sizes == [2, 2]

    def test_not_an_eigenvalue(self):
        with pytest.raises(NotAnEigenvalueError):
            jordan_structure(np.eye(3), 0.0)

    def test_rank_sequence_properties(self, rng):
        for _ in range(50):
            sizes = []
            n = 0
            while n < 5:
                s = int(rng.integers(1, 4))
                sizes.append(s)
                n += s
            j = block_diag(*[jordan_block(s) for s in sizes])
            ranks = rank_sequence(j, 0.0)
            assert all(ranks[i] >= ranks[i + 1] for i in range(len(ranks) - 1))
            # plateau rank equals n - algebraic multiplicity (all-nilpotent: 0)
            assert ranks[-1] == 0
            got = jordan_structure(j, 0.0, with_chains=False).block_sizes
            assert got == sorted(sizes, reverse=True)

    def test_similarity_invariance(self, rng):
        for _ in range(30):
            sizes = []
            n = 0
            while n < 6:
                s = int(rng.integers(1, 5))
                if n + s > 6:
                    s = 6 - n
                sizes.append(s)
                n += s
            j = block_diag(*[jordan_block(s) for s in sizes])
            v = random_conditioned(rng, 6, 100.0)
            m = v @ j @ np.linalg.inv(v)
            got = jordan_structure(m, 0.0, with_chains=False).block_sizes
            assert got == sorted(sizes, reverse=True)

    def test_chain_residuals(self, rng):
        for _ in range(20):
            j = block_diag(jordan_block(3), jordan_block(2), [[0.7]])
            v = random_conditioned(rng, 6, 50.0)
            m = v @ j @ np.linalg.inv(v)
            hnorm = np.linalg.norm(m, 2)
            st = jordan_structure(m, 0.0)
            assert st.block_sizes == [3, 2]
            for chain in st.chains:
                assert np.linalg.norm(m @ chain[0]) <= 1e-6 * hnorm
                for k in range(1, len(chain)):
                    resid = np.linalg.norm(m @ chain[k] - chain[k - 1])
                    assert resid <= 1e-6 * hnorm

    def test_multiplicity_bookkeeping(self):
        st = jordan_structure(block_diag(jordan_block(3), [[0.0]]), 0.0)
        assert st.algebraic_multiplicity == 4
        assert st.geometric_multiplicity == 2

    def test_scale_mixed_blocks(self):
        # blocks six orders of magnitude apart: ||H||^k overestimates
        # ||H^k|| badly, so the rank cutoff must stay sensitive to the
        # small-but-genuine entries of the higher powers
        b = 7e2 * np.array([[0.0, -1.0], [0.0, 1.0]], dtype=complex)
        bp = 2e-3 * np.array([[-1j, 0.0], [1j, 1j]], dtype=complex)
        h = assemble_blocks(b, bp)
        assert np.max(np.abs(np.linalg.matrix_power(h, 3))) > 0  # index 4
        st = jordan_structure(h, 0.0, with_chains=False)
        assert st.block_sizes == [4]


    @pytest.mark.parametrize("scale", [1e-250, 1e-200, 1e160, 1e300])
    def test_extreme_overall_scale(self, scale):
        # powers of the unit-norm (H - E) cannot underflow or overflow
        m = scale * block_diag(jordan_block(3), [[0.0]])
        assert rank_sequence(m, 0.0) == [2, 1, 0, 0]
        assert jordan_structure(m, 0.0, with_chains=False).block_sizes == [3, 1]

    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-13])
    def test_chain_seeds_at_tolerance(self, tol, rng):
        # the seed of a k-block lies in ker M ∩ im M^(k-1), exactly known
        # here through the basis change, and every chain equation holds
        j = block_diag(jordan_block(3), jordan_block(2), [[0.0]], [[0.7]])
        for _ in range(10):
            v = random_conditioned(rng, 7, 10.0)
            m = v @ j @ np.linalg.inv(v)
            chain_tol = 1e-6 * np.linalg.norm(m, 2)
            st = jordan_structure(m, 0.0, tol)
            assert st.block_sizes == [3, 2, 1]
            for chain in st.chains:
                power = np.linalg.matrix_power(j, len(chain) - 1)
                image, _ = np.linalg.qr(v @ power[:, np.linalg.norm(power, axis=0) > 0])
                seed = chain[0]
                assert np.linalg.norm(m @ seed) <= chain_tol
                assert np.linalg.norm(seed - image @ (image.conj().T @ seed)) <= tol
                for k in range(1, len(chain)):
                    assert np.linalg.norm(m @ chain[k] - chain[k - 1]) <= chain_tol


def test_intersection_cut_on_principal_angle_sines():
    # e1 lies 1e-8 (its principal-angle sine) away from span(b)
    a = np.eye(3, dtype=complex)[:, :2]
    b = np.array([[1.0], [0.0], [1e-8]], dtype=complex)
    b /= np.linalg.norm(b)
    shared = _subspace_intersection(a, b, 1e-6)
    assert shared.shape == (3, 1)
    assert direction_mismatch(shared[:, 0], [1, 0, 0]) < 1e-12
    assert _subspace_intersection(a, b, 1e-9).shape == (3, 0)


class TestJordanChain:
    def test_shift_block_from_seed(self):
        chain = jordan_chain(jordan_block(2), 0.0, 2, seed_vector=[1.0, 0.0])
        assert direction_mismatch(chain[1], [0.0, 1.0]) < 1e-12

    def test_j4_standard_chain(self):
        chain = jordan_chain(jordan_block(4), 0.0, 4, seed_vector=[1, 0, 0, 0])
        expected = np.eye(4)
        for k in range(4):
            assert direction_mismatch(chain[k], expected[:, k]) < 1e-12

    def test_mixed_threefold_chain_directions(self):
        # b2 = bp1 = 1, bp2 = 2: chain from (0,0,1,0) reproduces the
        # analytic generalized eigenvectors (1,0,0,0) and (0,0,0,1)
        h = assemble_blocks([[0.0, 1.0], [0.0, 0.0]], [[1.0, 2.0], [0.0, 0.0]])
        chain = jordan_chain(h, 0.0, 3, seed_vector=[0, 0, 1, 0])
        assert direction_mismatch(chain[1], [1, 0, 0, 0]) < 1e-12
        assert direction_mismatch(chain[2], [0, 0, 0, 1]) < 1e-12
        # chain identities hold exactly
        assert np.linalg.norm(h @ chain[1] - chain[0]) < 1e-13
        assert np.linalg.norm(h @ chain[2] - chain[1]) < 1e-13

    def test_auto_seed_matches_extendable_direction(self):
        h = assemble_blocks([[0.0, 1.0], [0.0, 0.0]], [[1.0, 2.0], [0.0, 0.0]])
        chain = jordan_chain(h, 0.0, 3)
        assert direction_mismatch(chain[0], [0, 0, 1, 0]) < 1e-10

    def test_seed_rejection(self):
        with pytest.raises(SeedNotInKernelError):
            jordan_chain(jordan_block(2), 0.0, 2, seed_vector=[0.0, 1.0])

    def test_overlong_chain_fails(self):
        with pytest.raises(ChainSolveFailedError):
            jordan_chain(block_diag(jordan_block(2), jordan_block(2)), 0.0, 3)

    @pytest.mark.parametrize("scale", [1e-250, 1e-200, 1.0, 1e160, 1e300])
    def test_chains_are_finite_or_refused(self, scale):
        # at tiny scales the third chain vector is not representable; the
        # solve then has a NaN residual and must be refused, not returned
        m = scale * block_diag(jordan_block(3), [[0.0]])
        for get_chains in (lambda: jordan_structure(m, 0.0).chains,
                           lambda: [jordan_chain(m, 0.0, 3)]):
            try:
                chains = get_chains()
            except ChainSolveFailedError:
                continue
            assert all(np.all(np.isfinite(v)) for c in chains for v in c)


class TestEpReport:
    def test_doublet_is_compound(self):
        report = ep_report(block_diag(jordan_block(2), jordan_block(2)))
        assert report.flag == "compound"
        assert len(report.entries) == 1
        assert report.entries[0][1].block_sizes == [2, 2]

    def test_simple_threefold(self):
        report = ep_report(block_diag(jordan_block(3, 1.0), [[5.0]]))
        assert report.flag == "simple"
        by_center = {round(c.center.real, 6): s.block_sizes for c, s in report.entries}
        assert by_center[1.0] == [3]
        assert by_center[5.0] == [1]

    def test_opposite_pair_is_compound(self):
        report = ep_report(block_diag(jordan_block(2, 1.0), jordan_block(2, -1.0)))
        assert report.flag == "compound"
        assert all(s.block_sizes == [2] for _, s in report.entries)

    def test_diagonalizable_flag_none(self):
        report = ep_report(np.diag([1.0, 2.0, 3.0]))
        assert report.flag == "none"
