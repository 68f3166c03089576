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


    def test_rising_ranks_refused(self):
        # the rank that rises used to give blocks [6, 6, 3, 3] in 6 x 6
        h = assemble_blocks(*RISING_PAIR)
        assert rank_sequence(h, 0.0, 1e-6) == [5, 4, 3, 4, 2, 0]
        with pytest.raises(RankSequenceError, match=r"\[5, 4, 3, 4, 2, 0\]"):
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


def test_intersection_cut_on_principal_angle_sines():
    # e1 lies 1e-8 (its principal-angle sine) away from span(b)
    a = np.eye(3, dtype=complex)[:, :2]
    b = np.array([[1.0], [0.0], [1e-8]], dtype=complex)
    b /= np.linalg.norm(b)
    shared = _subspace_intersection(a, b, 1e-6)
    assert shared.shape == (3, 1)
    assert direction_mismatch(shared[:, 0], [1, 0, 0]) < 1e-12
    assert _subspace_intersection(a, b, 1e-9).shape == (3, 0)


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
    1e-3 to 1e3."""
    out = []
    for i in range(count):
        n = 16 if i % 8 == 0 else int(rng.integers(1, 9))
        sizes = []
        while sum(sizes) < n:
            sizes.append(int(rng.integers(1, n - sum(sizes) + 1)))
        j = block_diag(*[jordan_block(s, float(rng.integers(0, 2))) for s in sizes])
        if i % 3:
            v = random_conditioned(rng, n, 50.0)
            j = v @ j @ np.linalg.inv(v)
        out.append(10.0 ** rng.uniform(-3, 3) * j)
    return out


#: Eigenvalue 0, eigenvalue 1 or none (the last shift is no eigenvalue).
SHIFTS = (0.0, 1.0, 0.5 + 0.25j)


def same_chains(got, want):
    assert len(got) == len(want)
    for chain, ref in zip(got, want):
        assert len(chain) == len(ref)
        for vec, ref_vec in zip(chain, ref):
            assert_same_bits(vec, ref_vec)


def plant_ladder(monkeypatch, ranks):
    """Make the power ladder of every matrix read the ranks r_1..r_n
    ``ranks`` of its powers."""
    ladders = spectral._ladders

    def planted(shifted, tol):
        u, s, vh, cutoff, _, _ = ladders(shifted, tol)
        full = [shifted.shape[-1], *ranks]
        return u, s, vh, cutoff, np.array([full] * len(shifted)), None

    monkeypatch.setattr(spectral, "_ladders", planted)


class TestWeyrReading:
    """The stacked reader gives the ranks, blocks and errors of the
    per-matrix references on every rank ladder of n <= 4."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_ladder(self, n, monkeypatch):
        tables = all_rank_tables(n, n, 1)[..., 0]
        assert len(tables) == (n + 1) ** n
        readings = spectral._weyr(spectral._power_drops(tables))
        zero = np.zeros((n, n))
        seen = set()
        for table, reading in zip(tables.tolist(), readings):
            ranks = reference_up_to_repeat(n, table[1:])
            blocks = outcome(lambda: reference_block_sizes_from_ranks(n, ranks))
            got_ranks, got = spectral._read_powers(table, reading)
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


class TestMatchesReference:
    """The eager ladder and the vectorised clustering give the bits of the
    lazy ladder and of union-find."""

    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-13])
    def test_ranks_and_images(self, tol, rng):
        for a in random_jordan_matrices(rng, 24) + [np.zeros((1, 1)), np.eye(1)]:
            a = np.asarray(a, dtype=np.complex128)
            n = a.shape[0]
            for e in SHIFTS:
                ladder, ref = _PowerLadder(a, e, tol), ReferenceLadder(a, e, tol)
                ranks = ladder.read()[0]
                assert ranks == ref.ranks()
                assert_same_bits(ladder.kernel, ref.kernel)
                assert ladder.norm == ref.norm
                top = n if ranks[0] < n else 1
                for k in range(top + 1):
                    assert_same_bits(ladder.image(k), ref.image(k))

    @pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-13])
    def test_blocks_and_chains(self, tol, rng, monkeypatch):
        for a in random_jordan_matrices(rng, 16):
            for e in SHIFTS:
                got = outcome(lambda: jordan_structure(a, e, tol))
                chains = [outcome(lambda: jordan_chain(a, e, k, tol=tol))
                          for k in range(1, min(a.shape[0], 4) + 1)]
                with monkeypatch.context() as m:
                    m.setattr(spectral, "_PowerLadder", ReferenceLadder)
                    want = outcome(lambda: jordan_structure(a, e, tol))
                    ref_chains = [outcome(lambda: jordan_chain(a, e, k, tol=tol))
                                  for k in range(1, min(a.shape[0], 4) + 1)]
                if isinstance(want, tuple):
                    assert got == want
                else:
                    assert got.block_sizes == want.block_sizes
                    same_chains(got.chains, want.chains)
                for chain, ref in zip(chains, ref_chains):
                    if isinstance(ref, tuple):
                        assert chain == ref
                    else:
                        same_chains([chain], [ref])

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


@pytest.mark.parametrize("n", [4, 8, 16])
def test_svd_budget(n, svd_calls):
    # (H - E) itself, then all of its powers in one stacked call
    jordan_structure(jordan_block(n), 0.0, with_chains=False)
    assert len(svd_calls) <= 2
