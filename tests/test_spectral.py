import math
import re

import numpy as np
import pytest

from epkit import cmatrix, spectral
from epkit.errors import (
    ChainSolveFailedError,
    NonFiniteError,
    NotAnEigenvalueError,
    RankSequenceError,
    SeedNotInKernelError,
)
from epkit.spectral import (
    EigenvalueCluster,
    _PowerLadder,
    _subspace_intersection,
    cluster_eigenvalues,
    ep_report,
    jordan_chain,
    jordan_structure,
    rank_sequence,
)
from epkit.sublattice import assemble_blocks

from conftest import (
    RISING_PAIR,
    all_rank_tables,
    assert_same_bits,
    block_diag,
    direction_mismatch,
    jordan_block,
    outcome,
    random_conditioned,
    reference_block_sizes_from_ranks,
    reference_up_to_repeat,
)


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

    @pytest.mark.parametrize("cluster_tol", [0.0, -1.0, np.nan])
    def test_tolerance_must_be_positive(self, cluster_tol):
        with pytest.raises(ValueError, match="cluster_tol"):
            cluster_eigenvalues([0.0, 1.0], cluster_tol)


class TestJordanStructure:
    @pytest.mark.parametrize("tol", [0.0, np.nan])
    def test_tol_must_be_positive(self, tol):
        # a NaN cut read the ranks of J2 as [0, 0]; a zero one divided by zero
        with pytest.raises(ValueError, match="tol must be positive"):
            rank_sequence(jordan_block(2), 0.0, tol=tol)

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


    def test_rising_ranks_refused(self, monkeypatch):
        # the ranks of the powers, each cut against its own norm, once read
        # [5, 4, 3, 4, 2, 0] here; every level of the staircase is cut at
        # one cutoff, and it reads one 2-block, as the classifier does
        h = assemble_blocks(*RISING_PAIR)
        assert rank_sequence(h, 0.0, 1e-6) == [5, 4, 4]
        assert jordan_structure(h, 0.0, 1e-6).block_sizes == [2]
        # a count that grows, which no Jordan structure has, is refused
        plant_ladder(monkeypatch, [5, 4, 2, 1, 1, 1])
        with pytest.raises(RankSequenceError, match=r"\[5, 4, 2, 1, 1\]"):
            jordan_structure(h, 0.0, 1e-6, with_chains=False)

    @pytest.mark.parametrize("ranks", [[3, 4, 0, 0], [3, 0, 0, 0], [2, 1, 2, 0]])
    def test_impossible_rank_sequences_refused(self, ranks, monkeypatch):
        # a rise, or drops that grow (blocks [2, 2, 2] in 4 x 4 for [3, 0, ...])
        plant_ladder(monkeypatch, ranks)
        with pytest.raises(RankSequenceError):
            jordan_structure(np.zeros((4, 4)), 0.0, with_chains=False)

    def test_read_up_to_the_plateau(self, monkeypatch):
        # the rise after the repeat is never read
        plant_ladder(monkeypatch, [2, 1, 1, 2])
        assert rank_sequence(np.zeros((4, 4)), 0.0) == [2, 1, 1]
        assert jordan_structure(np.zeros((4, 4)), 0.0,
                                with_chains=False).block_sizes == [2, 1]

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


def test_intersection_keeps_the_counted_directions():
    # e1 lies 1e-8 (its principal-angle sine) away from span(b), e2 is
    # orthogonal to it: the one direction kept is e1, the two span(a)
    a = np.eye(3, dtype=complex)[:, :2]
    b = np.array([[1.0], [0.0], [1e-8]], dtype=complex)
    b /= np.linalg.norm(b)
    shared = _subspace_intersection(a, b, 1)
    assert shared.shape == (3, 1)
    assert direction_mismatch(shared[:, 0], [1, 0, 0]) < 1e-12
    assert _subspace_intersection(a, b, 0).shape == (3, 0)
    both = _subspace_intersection(a, b, 2)
    assert np.linalg.norm(both @ both.conj().T - a @ a.conj().T) < 1e-12


@pytest.mark.parametrize("e", [np.nan, np.inf, complex(0, np.inf)])
@pytest.mark.parametrize("entry", [
    lambda e: jordan_structure(np.eye(2), e),
    lambda e: jordan_chain(np.eye(2), e, 1),
    lambda e: rank_sequence(np.eye(2), e),
], ids=["jordan_structure", "jordan_chain", "rank_sequence"])
def test_non_finite_shift_refused(entry, e):
    # refused before H - E is formed, so no RuntimeWarning and no LAPACK call
    with pytest.raises(NonFiniteError, match="shift"):
        entry(e)


class TestJordanChain:
    @pytest.mark.parametrize("length", [0, 3])
    def test_length_out_of_range(self, length):
        with pytest.raises(ChainSolveFailedError,
                           match=f"chain length {length} out of range for n=2"):
            jordan_chain(jordan_block(2), 0.0, length)

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

    def test_seed_scale_is_free(self):
        m = block_diag(jordan_block(2), jordan_block(2))
        seed = np.array([0.6, 0.0, 0.8j, 0.0])
        want = jordan_chain(m, 0.0, 2, seed_vector=seed)
        for k in (-1020, -60, 1, 60, 1020):
            assert_same_bits(jordan_chain(m, 0.0, 2, seed_vector=seed * 2.0 ** k),
                             want)
        for c in (1e200, 1e-200, 1e-15):
            got = jordan_chain(m, 0.0, 2, seed_vector=c * seed)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
        # unscaled, these read an all-zero chain after an overflow and
        # "zero norm"
        for seed in ([1e200, 0.0], [1e-15, 0.0]):
            chain = jordan_chain(jordan_block(2), 0.0, 2, seed_vector=seed)
            assert_same_bits(chain, np.eye(2, dtype=complex))
        with pytest.raises(SeedNotInKernelError, match="zero norm"):
            jordan_chain(jordan_block(2), 0.0, 2, seed_vector=[0.0, 0.0])

    @pytest.mark.parametrize("bad", [np.inf, np.nan, complex(0, -np.inf)])
    def test_non_finite_seed_refused(self, bad):
        with pytest.raises(NonFiniteError):
            jordan_chain(jordan_block(2), 0.0, 2, seed_vector=[bad, 0.0])

    @pytest.mark.parametrize("seed,residual", [([0, 0, 1], "1.000e+00"),
                                               ([1, 0, 1], "7.071e-01")])
    def test_seed_without_a_chain_of_that_length_fails(self, seed, residual):
        # J2 + [0]: the seed is in the kernel, but its part along the
        # trivial block is outside im(H), so no x has H x = seed; the
        # least-squares x misses the chain bound at level 2
        m = block_diag(jordan_block(2), [[0.0]])
        with pytest.raises(ChainSolveFailedError,
                           match=re.escape(f"chain equation at level 2 has residual {residual} ")):
            jordan_chain(m, 0.0, 2, seed_vector=seed)

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


#: Canonical N = 2 pairs whose H has a 4-chain or a 3-chain at zero.
CHAIN_PAIRS = {
    "EP4": ((np.array([[0.0, 0.0], [0.0, 1.0]]), np.array([[1.0, 2.0], [3.0, 0.0]])),
            [4]),
    "EP3Mixed": ((np.array([[0.0, 1.0], [0.0, 0.0]]),
                  np.array([[1.0, 2.0], [0.0, 0.0]])), [3, 1]),
}


@pytest.mark.parametrize("scale", [1e6, 1e3, 1.0, 1e-3, 1e-6, 1e-9, 1e-12])
@pytest.mark.parametrize("kind", list(CHAIN_PAIRS))
def test_chain_bound_is_scale_free(kind, scale, rng):
    # chain vector k grows like ||H||^-(k-1), so a bound fixed by ||H|| alone
    # refused level 3 of these chains at every scale <= 1e-6
    (b, bp), blocks = CHAIN_PAIRS[kind]
    for _ in range(5):
        v, w = random_conditioned(rng, 2, 50.0), random_conditioned(rng, 2, 50.0)
        h = assemble_blocks(scale * v @ b @ np.linalg.inv(w),
                            scale * w @ bp @ np.linalg.inv(v))
        structure = jordan_structure(h, 0.0)
        assert structure.block_sizes == blocks
        norm = np.linalg.norm(h, 2)
        for chain in structure.chains:
            for before, x in zip(chain, chain[1:]):
                residual = np.linalg.norm(h @ x - before)
                assert residual <= 1e-12 * norm * np.linalg.norm(x)


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

    def test_matrix_validated_once(self, monkeypatch):
        # two repeated clusters, none of which validates the matrix again
        calls = []
        as_matrix = cmatrix.as_matrix
        monkeypatch.setattr(cmatrix, "as_matrix",
                            lambda m: calls.append(1) or as_matrix(m))

        def refused(*args, **kwargs):
            raise AssertionError("ep_report went through a public reader")

        monkeypatch.setattr(cmatrix, "eig", refused)
        monkeypatch.setattr(spectral, "jordan_structure", refused)
        m = block_diag(jordan_block(2), jordan_block(2), jordan_block(3, 1.0), [[2.0]])
        report = ep_report(m)
        assert len(calls) == 1
        assert [s.block_sizes for _, s in report.entries] == [[2, 2], [3], [1]]
        assert report.flag == "compound"


@pytest.mark.parametrize("count", [2, 3])
def test_one_seed_space_per_block_size(count, monkeypatch):
    # one intersection for all blocks of a size, not one per block
    calls = []
    intersection = spectral._subspace_intersection
    monkeypatch.setattr(spectral, "_subspace_intersection",
                        lambda *args: calls.append(1) or intersection(*args))
    m = block_diag(*[jordan_block(2)] * count)
    structure = jordan_structure(m, 0.0)
    assert len(calls) == 1
    assert structure.block_sizes == [2] * count
    assert_chains_hold(m, structure.chains)
    seeds = np.array([chain[0] for chain in structure.chains]).T
    assert np.linalg.svd(seeds, compute_uv=False)[-1] > 0.5


class ReferenceLadder:
    """The power ladder before its powers were stacked: each power formed
    and factorised on first use; kept as the bitwise reference."""

    def __init__(self, a, e, tol):
        self.n = a.shape[0]
        self.tol = tol
        self.shifted = a - complex(e) * np.eye(self.n)
        base = cmatrix.factorize(self.shifted, tol)
        self.norm = base.norm
        self.kernel = base.kernel
        kept = np.where(base.s > base.cutoff,
                        base.s / max(base.norm, cmatrix._ABS_FLOOR), 0.0)
        self._powers = [np.eye(self.n, dtype=np.complex128), (base.u * kept) @ base.vh]
        self._factors = {1: self._cut(base.u, kept, base.vh)}

    def _cut(self, u, s, vh):
        scale = max(s[0], 100 * np.finfo(float).eps / self.tol)
        return cmatrix.SVD(u, s, vh, np.inf if s[0] <= 1e-300 else self.tol * scale)

    def factor(self, k):
        while len(self._powers) <= k:
            self._powers.append(self._powers[-1] @ self._powers[1])
        if k not in self._factors:
            self._factors[k] = self._cut(*np.linalg.svd(self._powers[k]))
        return self._factors[k]

    def image(self, k):
        if k == 0:
            return np.eye(self.n, dtype=np.complex128)
        return self.factor(k).image

    def ranks(self):
        ranks = []
        prev = self.n
        for k in range(1, self.n + 1):
            r = self.factor(k).rank
            ranks.append(r)
            if r == prev:
                break
            prev = r
        return ranks

    def read(self):
        ranks = self.ranks()
        try:
            return ranks, reference_block_sizes_from_ranks(self.n, ranks)
        except RankSequenceError as exc:
            return ranks, exc


def reference_clusters(eigenvalues, cluster_tol):
    """Union-find single linkage, one Python pair test at a time; kept as
    the bitwise reference."""
    values = [complex(x) for x in eigenvalues]
    n = len(values)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(values[i] - values[j]) <= cluster_tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [EigenvalueCluster(complex(np.mean([values[i] for i in groups[root]])),
                              len(groups[root]), groups[root])
            for root in sorted(groups)]


def random_jordan_matrices(rng, count):
    """Jordan matrices at eigenvalues 0 and 1, of sizes 1..8 and 16, under
    conditioned basis changes (every third one left bare) and scales from
    1e-3 to 1e3, each with its planted blocks at zero, descending."""
    out = []
    for i in range(count):
        n = 16 if i % 8 == 0 else int(rng.integers(1, 9))
        sizes = []
        while sum(sizes) < n:
            sizes.append(int(rng.integers(1, n - sum(sizes) + 1)))
        eigenvalues = [float(rng.integers(0, 2)) for _ in sizes]
        j = block_diag(*[jordan_block(s, ev) for s, ev in zip(sizes, eigenvalues)])
        if i % 3:
            v = random_conditioned(rng, n, 50.0)
            j = v @ j @ np.linalg.inv(v)
        at_zero = sorted((s for s, ev in zip(sizes, eigenvalues) if ev == 0),
                         reverse=True)
        out.append((10.0 ** rng.uniform(-3, 3) * j, at_zero))
    return out


#: Eigenvalue 0, eigenvalue 1 or none (the last shift is no eigenvalue).
SHIFTS = (0.0, 1.0, 0.5 + 0.25j)


def same_chains(got, want):
    assert len(got) == len(want)
    for chain, ref in zip(got, want):
        assert len(chain) == len(ref)
        for vec, ref_vec in zip(chain, ref):
            assert_same_bits(vec, ref_vec)


def assert_chains_hold(a, chains):
    """Each chain starts in the kernel of ``a`` and each of its equations
    holds to DEFAULT_CHAIN_FRACTION * ||a|| * ||x||."""
    bound = spectral.DEFAULT_CHAIN_FRACTION * np.linalg.norm(a, 2)
    for chain in chains:
        assert np.linalg.norm(a @ chain[0]) <= bound
        for before, x in zip(chain, chain[1:]):
            assert np.linalg.norm(a @ x - before) <= bound * np.linalg.norm(x)


def plant_ladder(monkeypatch, ranks):
    """Make the staircase of every matrix count the kernels that drop its
    powers' ranks to r_1..r_n ``ranks``."""
    def planted(u, s, vh, cutoff, dims):
        drops = -np.diff([dims, *ranks])
        return np.broadcast_to(drops[:, None], (s.shape[1], len(ranks), 1))

    monkeypatch.setattr(spectral, "_staircase", planted)


class TestWeyrReading:
    """The stacked reader gives the ranks, blocks and errors of the
    per-matrix references on every rank ladder of n <= 4."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_ladder(self, n, monkeypatch):
        tables = all_rank_tables(n, n, 1)[..., 0]
        assert len(tables) == (n + 1) ** n
        drops = tables[:, :-1] - tables[:, 1:]
        readings = spectral._weyr(drops[..., None])
        zero = np.zeros((n, n))
        seen = set()
        for table, counts, reading in zip(tables.tolist(), drops, readings):
            ranks = reference_up_to_repeat(n, table[1:])
            blocks = outcome(lambda: reference_block_sizes_from_ranks(n, ranks))
            got_ranks, got = spectral._read_powers(n, counts, reading)
            if isinstance(got, RankSequenceError):
                got = type(got), str(got)
            assert (got_ranks, got) == (ranks, blocks)
            # and alone, through the public readers
            with monkeypatch.context() as m:
                plant_ladder(m, table[1:])
                assert rank_sequence(zero, 0.0) == ranks
                alone = outcome(lambda: jordan_structure(
                    zero, 0.0, with_chains=False).block_sizes)
            if ranks[0] == n:
                assert alone == (NotAnEigenvalueError,
                                 "0.0 is not an eigenvalue at tol=1e-09")
            else:
                assert alone == blocks
            seen.add(type(blocks))
        assert seen == ({list} if n == 1 else {list, tuple})


def reference_intersection(a, b, tol):
    """span(a) ∩ span(b), the directions of span(a) whose principal-angle
    sine to span(b) is at most ``tol``."""
    if a.shape[1] == 0:
        return a
    outside = a - b @ (b.conj().T @ a)
    return a @ cmatrix._cut(*np.linalg.svd(outside), tol, 1.0).kernel


def reference_jordan_chain(a, e, length, tol):
    """jordan_chain on the lazy ladder, its seed cut at ``tol`` on
    principal-angle sines and taken as it is."""
    ladder = ReferenceLadder(np.asarray(a, dtype=np.complex128), e, tol)
    if ladder.kernel.shape[1] == 0:
        raise NotAnEigenvalueError(f"{e} is not an eigenvalue at tol={tol}")
    inter = reference_intersection(ladder.kernel, ladder.image(length - 1), tol)
    if inter.shape[1] == 0:
        raise ChainSolveFailedError(
            f"no kernel direction admits a chain of length {length}")
    chain = [inter[:, 0]]
    unit_tol = spectral.DEFAULT_CHAIN_FRACTION * ladder.norm
    for j in range(2, length + 1):
        x, residual = spectral._restricted_minnorm_solve(
            ladder.shifted, chain[-1], ladder.image(length - j))
        chain_tol = unit_tol * math.hypot(*np.abs(x))
        if not residual <= chain_tol:
            raise ChainSolveFailedError(
                f"chain equation at level {j} has residual {residual:.3e} "
                f"(chain_tol {chain_tol:.3e})")
        chain.append(x)
    return chain


def reference_jordan_structure(a, e, tol):
    """jordan_structure on the lazy ladder, its seeds and their removal cut
    at ``tol`` on principal-angle sines."""
    a = np.asarray(a, dtype=np.complex128)
    n = a.shape[0]
    ladder = ReferenceLadder(a, e, tol)
    ranks, sizes = ladder.read()
    if ranks[0] == n:
        raise NotAnEigenvalueError(f"{e} is not an eigenvalue at tol={tol}")
    if isinstance(sizes, RankSequenceError):
        raise sizes
    structure = spectral.JordanStructure(complex(e), sizes)
    kern = ladder.kernel
    used_seeds = np.zeros((n, 0), dtype=np.complex128)
    for size in sizes:
        if size == 1:
            candidates = kern
        else:
            candidates = reference_intersection(kern, ladder.image(size - 1), tol)
        if used_seeds.shape[1] and candidates.shape[1]:
            rest = candidates - used_seeds @ (used_seeds.conj().T @ candidates)
            candidates = cmatrix._cut(*np.linalg.svd(rest), tol, 1.0).image
        if candidates.shape[1] == 0:
            raise ChainSolveFailedError(
                f"could not find an independent seed for a block of size {size}")
        seed = candidates[:, 0]
        structure.chains.append(spectral._chain(ladder, size, seed))
        used_seeds = np.hstack([used_seeds, seed.reshape(-1, 1)])
    return structure


class TestMatchesReference:
    """Where the lazy ladder of powers cut one by one reads the planted
    structure (the planted blocks at zero, no eigenvalue elsewhere), the
    staircase reads the same ranks, kernel and images and builds the same
    chains bit for bit. Where the ladder misreads zero, the staircase reads
    the planted blocks. Elsewhere the shift lies within tol * ||A|| of the
    spectrum of a large block, no reading is exact, and the staircase reads
    a Jordan structure whose chains hold. The vectorised clustering gives
    the bits of union-find."""

    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-13])
    def test_ranks_and_images(self, tol, rng):
        planted = random_jordan_matrices(rng, 24) + [
            (np.zeros((1, 1)), [1]), (np.eye(1), [])]
        for a, at_zero in planted:
            a = np.asarray(a, dtype=np.complex128)
            for e in SHIFTS:
                ladder, ref = _PowerLadder(a, e, tol), ReferenceLadder(a, e, tol)
                ranks, blocks = ladder.read()
                assert_same_bits(ladder.kernel, ref.kernel)
                assert ladder.norm == ref.norm
                truth = at_zero if e == 0.0 else []
                if ref.read()[1] == truth:
                    assert ranks == ref.ranks()
                    # past the first repeat the staircase keeps the rank,
                    # as exact powers do, while the ladder's own cut of each
                    # power can fall on the parts of other eigenvalues
                    for k in range(len(ranks) + 1):
                        assert_same_bits(ladder.image(k), ref.image(k))
                elif e == 0.0:
                    assert blocks == truth
                else:
                    assert isinstance(blocks, list)

    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-13])
    def test_blocks_and_chains(self, tol, rng):
        for a, at_zero in random_jordan_matrices(rng, 16):
            n = a.shape[0]
            for e in SHIFTS:
                got = outcome(lambda: jordan_structure(a, e, tol))
                want = outcome(lambda: reference_jordan_structure(a, e, tol))
                truth = (at_zero if e == 0.0 else []) or (
                    NotAnEigenvalueError, f"{e} is not an eigenvalue at tol={tol}")
                read_right = getattr(want, "block_sizes", want) == truth
                if read_right and isinstance(want, tuple):
                    assert got == want
                elif read_right:
                    assert got.block_sizes == want.block_sizes
                    same_chains(got.chains, want.chains)
                else:
                    if isinstance(truth, list):
                        assert got.block_sizes == truth
                    assert_chains_hold(a - e * np.eye(n), got.chains)
                for k in range(1, min(n, 4) + 1):
                    chain = outcome(lambda: jordan_chain(a, e, k, tol=tol))
                    ref = outcome(lambda: reference_jordan_chain(a, e, k, tol))
                    if not isinstance(ref, tuple):
                        same_chains([chain], [ref])
                    elif isinstance(chain, tuple) or read_right:
                        assert chain == ref
                    else:
                        assert k <= max(got.block_sizes)
                        assert_chains_hold(a - e * np.eye(n), [chain])

    def test_clusters(self, rng):
        for i in range(400):
            k = i % 12
            values = (rng.standard_normal(k) + 1j * rng.standard_normal(k)) \
                * 10.0 ** rng.integers(-12, 1, size=k)
            cluster_tol = 10.0 ** rng.uniform(-12, 0)
            if i % 3 == 1:
                values = np.concatenate(
                    [values, values[: k // 2] + 1e-10 * rng.standard_normal(k // 2)])
                rng.shuffle(values)
            elif i % 3 == 2:
                # walks whose steps straddle cluster_tol: long linkage chains
                steps = rng.uniform(0.5, 1.2, k) * np.exp(1j * rng.uniform(0, 0.3, k))
                values = cluster_tol * np.cumsum(steps)
                rng.shuffle(values)
            got = cluster_eigenvalues(list(values), cluster_tol)
            want = reference_clusters(list(values), cluster_tol)
            assert [(c.member_indices, c.algebraic_multiplicity) for c in got] \
                == [(c.member_indices, c.algebraic_multiplicity) for c in want]
            for c, ref in zip(got, want):
                assert_same_bits(c.center, ref.center)
        assert cluster_eigenvalues([], 1e-9) == reference_clusters([], 1e-9) == []


#: The planted matrix of test_planted_blocks that the staircase misreads,
#: where the lazy ladder raised: (tol, index) -> blocks read.
KNOWN_MISSES = {(1e-13, 40): [11, 1]}


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-13])
def test_planted_blocks(tol):
    # 300 planted matrices: every one with blocks at zero that the lazy
    # ladder reads, the staircase reads alike; of those it refused, the
    # staircase reads the planted blocks and builds their chains, all but
    # one 16 x 16 [15, 1] at tol 1e-13
    rng = np.random.default_rng(7)
    raised = {}
    for i, (a, at_zero) in enumerate(random_jordan_matrices(rng, 300)):
        if not at_zero:
            continue
        ladder = ReferenceLadder(a, 0.0, tol).read()[1]
        got = jordan_structure(a, 0.0, tol)
        if isinstance(ladder, RankSequenceError):
            raised[i] = at_zero
            assert got.block_sizes == KNOWN_MISSES.get((tol, i), at_zero)
            assert_chains_hold(a, got.chains)
        else:
            assert ladder == got.block_sizes == at_zero
    assert len(raised) == (6 if tol == 1e-6 else 5)
    assert raised[40] == [15, 1] and raised[256] == [16]


@pytest.mark.parametrize("n", [4, 8, 16])
def test_svd_budget(n, svd_calls):
    # (H - E) itself, then one per further level of its staircase: J_n has
    # n levels, the last of them a 1 x 1 zero
    jordan_structure(jordan_block(n), 0.0, with_chains=False)
    assert len(svd_calls) == n
