import cmath

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from epkit import cmatrix, spectral
from epkit.classify import (
    EPKind,
    _classify_pairs,
    check_ep2n,
    classify_nonzero_energy,
    classify_point,
    classify_zero_energy,
    mixed_limit_family,
)
from epkit.errors import (
    CrossCheckMismatchError,
    DimensionTooLargeError,
    EpkitError,
    NonFiniteError,
    RankSequenceError,
    ZeroEigenvaluePresentError,
)
from epkit.models import build_model
from epkit.spectral import ep_report, jordan_structure
from epkit.sublattice import assemble_blocks

from conftest import (
    RISING_PAIR,
    all_rank_tables,
    block_diag,
    jordan_block,
    outcome,
    plant_counts,
    random_conditioned,
    ranks_of_blocks,
    reference_block_sizes_from_ranks,
    reference_chains_from_ranks,
    reference_up_to_repeat,
    rising_chains,
)

#: Few, reproducible examples: the property tests share Tier-1's time budget.
PROPERTY_SETTINGS = settings(max_examples=15, deadline=None, derandomize=True,
                             database=None)

CANONICAL = {
    EPKind.DOUBLET_EP2: (np.zeros((2, 2)), 2.0 * np.eye(2)),
    EPKind.EP4: (np.array([[0.0, 0.0], [0.0, 1.0]]),
                 np.array([[1.0, 2.0], [3.0, 0.0]])),
    EPKind.EP3_MIXED: (np.array([[0.0, 1.0], [0.0, 0.0]]),
                       np.array([[1.0, 2.0], [0.0, 0.0]])),
    EPKind.NONDEGENERATE: (np.diag([1.0, 2.0]), np.eye(2)),
}


def brute_force_zero_blocks(b, bprime, tol=1e-9):
    """Rank-sequence Jordan blocks at E = 0, computed with plain numpy."""
    h = assemble_blocks(b, bprime)
    n = h.shape[0]
    hnorm = np.linalg.norm(h, 2)
    ranks = [n]
    power = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        power = power @ h
        s = np.linalg.svd(power, compute_uv=False)
        ranks.append(int(np.sum(s > tol * hnorm**k)))
        if ranks[-1] == ranks[-2]:
            break
    # ge[k-1] = number of blocks of size >= k
    blocks = []
    ge = [ranks[k - 1] - ranks[k] for k in range(1, len(ranks))]
    for k in range(len(ge), 0, -1):
        exactly = ge[k - 1] - (ge[k] if k < len(ge) else 0)
        blocks.extend([k] * exactly)
    return sorted(blocks, reverse=True)


class TestZeroEnergyTaxonomy:
    @pytest.mark.parametrize("tol", [0.0, np.nan])
    def test_tol_must_be_positive(self, tol):
        # at tol 1e-9 the pair is EP4; a NaN cut read it as Diabolic
        assert classify_point(np.eye(2), jordan_block(2)).kind is EPKind.EP4
        with pytest.raises(ValueError, match="tol must be positive"):
            classify_point(np.eye(2), jordan_block(2), tol=tol)

    @pytest.mark.parametrize("n", [1, 3])
    def test_zero_energy_verdict_is_for_n_2(self, n):
        with pytest.raises(ValueError, match="classify_zero_energy handles N = 2"):
            classify_zero_energy(np.eye(n), np.eye(n))

    def test_verdict_text(self):
        assert str(classify_point(np.eye(2), jordan_block(2))) == "EP4, blocks [4]"
        assert str(classify_point(np.eye(2), np.eye(2))) == "Nondegenerate"

    def test_canonical_kinds(self):
        expected_blocks = {
            EPKind.DOUBLET_EP2: [2, 2],
            EPKind.EP4: [4],
            EPKind.EP3_MIXED: [3, 1],
            EPKind.NONDEGENERATE: [],
        }
        for kind, (b, bp) in CANONICAL.items():
            result = classify_zero_energy(b, bp)
            assert result.kind is kind
            assert result.evidence["jordan_blocks_at_zero"] == expected_blocks[kind]

    def test_third_column_parametrization(self):
        # u = (1, 0), p = (1, 0), p' = (0, 1):
        # B = [[p1 u1, p1 u2], [p2 u1, p2 u2]], B' = [[u2 p'2, -u2 p'1],
        # [-u1 p'2, u1 p'1]]
        u = (1.0, 0.0)
        p = (1.0, 0.0)
        pp = (0.0, 1.0)
        b = np.array([[p[0] * u[0], p[0] * u[1]], [p[1] * u[0], p[1] * u[1]]])
        bp = np.array([[u[1] * pp[1], -u[1] * pp[0]],
                       [-u[0] * pp[1], u[0] * pp[0]]])
        assert pp[0] * p[1] - pp[1] * p[0] != 0
        result = classify_zero_energy(b, bp)
        assert result.kind is EPKind.EP3_MIXED
        assert result.evidence["jordan_blocks_at_zero"] == [3, 1]

    def test_mirror_swap_preserves_kind(self):
        for kind, (b, bp) in CANONICAL.items():
            assert classify_zero_energy(bp, b).kind is kind

    def test_own_bases_not_revalidated(self, monkeypatch):
        # only bases from outside go through the validator of subspace_equal
        def refuse(v):
            raise AssertionError("classifier re-validated its own basis")

        monkeypatch.setattr(cmatrix, "_orthonormal_columns", refuse)
        with pytest.raises(AssertionError):
            cmatrix.subspace_equal(np.eye(2), np.eye(2))
        for kind, (b, bp) in CANONICAL.items():
            assert classify_zero_energy(b, bp).kind is kind

    def test_twoblock_pair_without_su2_form_is_doublet(self):
        # B = 0 with B' not proportional to I: two 2-chains in ker B, the
        # doublet in a basis where B' is not of the SU(2) form
        result = classify_zero_energy(np.zeros((2, 2)), np.diag([1.0, 2.0]))
        assert result.kind is EPKind.DOUBLET_EP2
        assert result.evidence["jordan_blocks_at_zero"] == [2, 2]
        assert result.evidence["chains"] == [{"length": 2, "in_ker": "B"}] * 2

    def test_evidence_chains(self):
        # the odd-order EP as a mixture: a 3-chain whose eigenvector lies
        # in ker B beside a trivial zero mode in ker B'
        b, bp = CANONICAL[EPKind.EP3_MIXED]
        assert classify_zero_energy(b, bp).evidence["chains"] == [
            {"length": 3, "in_ker": "B"}, {"length": 1, "in_ker": "B'"}]
        assert classify_zero_energy(bp, b).evidence["chains"] == [
            {"length": 3, "in_ker": "B'"}, {"length": 1, "in_ker": "B"}]

    def test_basis_covariance(self, rng):
        # conjugating H by diag(V, W) maps (B, B') to (V B W^-1, W B' V^-1)
        # and preserves the Jordan structure, so no kind may move
        for kind in CANONICAL:
            b, bp = CANONICAL[kind]
            for _ in range(20):
                v = random_conditioned(rng, 2, 50.0)
                w = random_conditioned(rng, 2, 50.0)
                b2 = v @ b @ np.linalg.inv(w)
                bp2 = w @ bp @ np.linalg.inv(v)
                assert classify_zero_energy(b2, bp2).kind is kind

    def test_random_pairs_agree_with_jordan(self, rng):
        # entries from {0, +-1, +-i}, random overall scales
        pool = np.array([0, 1, -1, 1j, -1j], dtype=complex)
        kinds_seen = set()
        for _ in range(300):
            b = rng.choice(pool, size=(2, 2)) * 10.0 ** rng.uniform(-2, 2)
            bp = rng.choice(pool, size=(2, 2)) * 10.0 ** rng.uniform(-2, 2)
            if np.all(b == 0) and np.all(bp == 0):
                continue
            result = classify_zero_energy(b, bp)
            blocks = brute_force_zero_blocks(b, bp)
            if result.kind is EPKind.EP4:
                assert blocks == [4]
            elif result.kind is EPKind.EP3_MIXED:
                assert blocks == [3, 1]
            elif result.kind is EPKind.NONDEGENERATE:
                assert blocks == []
            elif result.kind is EPKind.DOUBLET_EP2:
                assert blocks == [2, 2]
            kinds_seen.add(result.kind)
        assert EPKind.EP4 in kinds_seen
        assert EPKind.NONDEGENERATE in kinds_seen


def verdict(b, bp):
    result = classify_zero_energy(b, bp)
    return result.kind, result.evidence["jordan_blocks_at_zero"]


KINDS = st.sampled_from(list(CANONICAL))
SCALES = st.floats(-250.0, 300.0)
PHASES = st.floats(0.0, 2 * np.pi)
ENTRIES = st.lists(st.floats(-2.0, 2.0), min_size=8, max_size=8)


def conditioned(entries, cond_cap=10.0):
    """2 x 2 complex matrix from 8 reals, or None when badly conditioned."""
    m = np.array(entries[:4]).reshape(2, 2) + 1j * np.array(entries[4:]).reshape(2, 2)
    return m if np.linalg.cond(m) < cond_cap else None


class TestInvariances:
    """Invariances the taxonomy relies on: overall scale, basis change and
    mirror swap keep the kind and the Jordan blocks at zero."""

    @PROPERTY_SETTINGS
    @given(kind=KINDS, x=SCALES, phase=PHASES)
    @example(kind=EPKind.EP3_MIXED, x=-200.0, phase=0.0)
    @example(kind=EPKind.EP3_MIXED, x=160.0, phase=0.0)
    def test_overall_scale(self, kind, x, phase):
        b, bp = CANONICAL[kind]
        c = 10.0 ** x * np.exp(1j * phase)
        assert verdict(c * b, c * bp) == verdict(b, bp)

    @PROPERTY_SETTINGS
    @given(kind=KINDS, u=ENTRIES, v=ENTRIES)
    def test_basis_change(self, kind, u, v):
        # B -> U B V^-1, B' -> V B' U^-1 conjugates H by diag(U, V)
        u, v = conditioned(u), conditioned(v)
        assume(u is not None and v is not None)
        b, bp = CANONICAL[kind]
        b2 = u @ b @ np.linalg.inv(v)
        bp2 = v @ bp @ np.linalg.inv(u)
        assert verdict(b2, bp2) == verdict(b, bp)

    @PROPERTY_SETTINGS
    @given(kind=KINDS, x=SCALES, phase=PHASES)
    def test_mirror_swap(self, kind, x, phase):
        b, bp = CANONICAL[kind]
        c = 10.0 ** x * np.exp(1j * phase)
        assert verdict(c * bp, c * b) == verdict(b, bp)


def flipped(chains):
    """The chain list of the mirror pair (B', B): every side exchanged."""
    other = {"B": "B'", "B'": "B"}
    return sorted(({"length": c["length"], "in_ker": other[c["in_ker"]]}
                   for c in chains), key=lambda c: (-c["length"], c["in_ker"]))


@st.composite
def planted_chains(draw):
    """``(n, chains)``: a multiset of (length, side) chains that fits N x N
    blocks, longest first and "B" before "B'", as the reader lists them.

    A chain of length k whose eigenvector lies in ker B has ceil(k / 2)
    vectors on the lower sublattice and floor(k / 2) on the upper one;
    trivial chains on the short side even out the two sublattices, since
    the rest of the space must be paired by an invertible block pair.
    """
    n = draw(st.integers(1, 6))
    drawn = draw(st.lists(st.tuples(st.integers(1, 2 * n), st.sampled_from(["B", "B'"])),
                          max_size=2 * n))
    chains, low, up = [], 0, 0
    for length, side in drawn:
        dl, du = (length + 1) // 2, length // 2
        if side == "B'":
            dl, du = du, dl
        if max(low + dl, up + du) <= n:
            chains.append((length, side))
            low, up = low + dl, up + du
    chains += [(1, "B'" if low > up else "B")] * abs(low - up)
    chains.sort(key=lambda c: (-c[0], c[1]))
    return n, [{"length": k, "in_ker": side} for k, side in chains]


def build_pair(n, chains):
    """Exact (B, B') whose Jordan chains at zero are ``chains``.

    H = [[0, iB], [-iB', 0]] sends a lower-sublattice vector (0, chi) to
    (iB chi, 0) and an upper one (psi, 0) to (0, -iB' psi). Each chain
    takes fresh basis vectors, alternating sublattices from its
    eigenvector on, and B or B' maps each vector onto the one before; the
    indices left over are paired by B = B' = I.
    """
    b = np.zeros((n, n), dtype=complex)
    bp = np.zeros((n, n), dtype=complex)
    free = {"B": list(range(n)), "B'": list(range(n))}  # lower, upper
    for chain in chains:
        side = chain["in_ker"]
        prev = None
        for _ in range(chain["length"]):
            idx = free[side].pop()
            if prev is not None:
                if side == "B":    # lower vector onto the upper one before
                    b[prev, idx] = 1.0
                else:
                    bp[prev, idx] = 1.0
            prev, side = idx, "B'" if side == "B" else "B"
    assert len(free["B"]) == len(free["B'"])
    b[free["B'"], free["B"]] = 1.0
    bp[free["B"], free["B'"]] = 1.0
    return b, bp


def unit_conditioned(rng, n, cond=10.0):
    """Random complex n x n matrix of norm 1 and condition number <= cond."""
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    sigma = np.concatenate([[1.0, 1.0 / cond], rng.uniform(1.0 / cond, 1.0, n)])[:n]
    return (q1 * sigma) @ q2


class TestChainReading:
    """Chains planted in an exact pair are read back with their sides."""

    @pytest.mark.parametrize("ranks", [
        [[2, 2], [1, 1], [2, 1]],           # r rises
        [[2, 2], [1, 2], [1, 0], [0, 0]],   # two 2-chains in ker B, one 1-chain
        [[2, 2], [1, 1], [2, 0]],           # the sum stays, r rises, r' falls
    ])
    def test_impossible_ranks_refused(self, ranks, monkeypatch):
        # the table's last row repeated up to 2N + 1 rows
        table = ranks + ranks[-1:] * (5 - len(ranks))
        plant_ranks(monkeypatch, [table], [ranks_of_blocks(4, [])])
        message = (f"ranks {[r for r, _ in table]} and {[r for _, r in table]} "
                   "of the alternating products of B and B' fit no Jordan structure")
        with pytest.raises(RankSequenceError) as refused:
            classify_point(np.eye(2), np.eye(2))
        assert str(refused.value) == message

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(planted=planted_chains(), seed=st.integers(0, 2**32 - 1), x=SCALES,
           phase=PHASES)
    @example(planted=(3, [{"length": 3, "in_ker": "B"}, {"length": 1, "in_ker": "B"},
                          {"length": 1, "in_ker": "B'"}, {"length": 1, "in_ker": "B'"}]),
             seed=0, x=0.0, phase=0.0)
    @example(planted=(6, [{"length": 12, "in_ker": "B'"}]), seed=1, x=-200.0, phase=1.0)
    def test_planted_chains_read_back(self, planted, seed, x, phase):
        n, chains = planted
        b0, bp0 = build_pair(n, chains)
        lengths = [c["length"] for c in chains]
        assert brute_force_zero_blocks(b0, bp0) == lengths
        rng = np.random.default_rng(seed)
        u, v = unit_conditioned(rng, n), unit_conditioned(rng, n)
        c = 10.0 ** x * np.exp(1j * phase)
        b = c * (u @ b0 @ np.linalg.inv(v))
        bp = c * (v @ bp0 @ np.linalg.inv(u))
        result = classify_point(b, bp)
        assert result.evidence["chains"] == chains
        assert result.evidence["jordan_blocks_at_zero"] == lengths
        assert classify_point(bp, b).evidence["chains"] == flipped(chains)


#: The SVD calls of one classification: the blocks', then one per level
#: of the staircase of (B, H, B'), H's first. There are as many levels as
#: the longest chain is long, and one more that finds no kernel where
#: something is left.
SVD_CALLS = {"DoubletEP2": 3, "EP4": 5, "EP3Mixed": 4, "Nondegenerate": 2,
             "EP6": 7, "EP4+gap": 6, "DoubletEP2x3": 3}


@pytest.mark.parametrize("kind", list(CANONICAL))
def test_svd_budget(kind, svd_calls):
    classify_zero_energy(*CANONICAL[kind])
    assert len(svd_calls) == SVD_CALLS[kind.value]


N3_PAIRS = {
    "EP6": (np.eye(3), jordan_block(3)),
    "EP4+gap": (block_diag(jordan_block(2), [[1.0]]), np.eye(3)),
    "DoubletEP2x3": (np.zeros((3, 3)), np.eye(3)),
    "Nondegenerate": (np.diag([1.0, 2.0, 3.0]), np.eye(3)),
}


@pytest.mark.parametrize("entry", [classify_point, check_ep2n],
                         ids=["classify_point", "check_ep2n"])
@pytest.mark.parametrize("name", list(N3_PAIRS))
def test_svd_budget_n3(entry, name, svd_calls):
    entry(*N3_PAIRS[name])
    assert len(svd_calls) == SVD_CALLS[name]


@pytest.mark.parametrize("pair", [*CANONICAL.values(), *N3_PAIRS.values()],
                         ids=[*(kind.value for kind in CANONICAL), *N3_PAIRS])
def test_each_array_validated_once(pair, monkeypatch):
    # B and B' by the pair check; every array built from them, H included,
    # is taken as it is
    calls = []
    as_matrix = cmatrix.as_matrix
    monkeypatch.setattr(cmatrix, "as_matrix",
                        lambda m: calls.append(1) or as_matrix(m))
    classify_point(*pair)
    assert len(calls) == 2


def stack_outcomes(results):
    """The items of a _classify_pairs stack with each error as its type and
    message, as classify_point's outcome reads them."""
    return [(type(r), str(r)) if isinstance(r, EpkitError) else r for r in results]


def test_stacked_equals_alone(rng, monkeypatch):
    # one N = 3 stack: basis-changed and scaled N3_PAIRS, including the
    # Nondegenerate pair, the rising pair, planted here with chains that fit
    # no Jordan structure, and a pair whose norm leaves the double range
    staircase = spectral._staircase
    marker = np.linalg.norm(RISING_PAIR[0], 2)

    def planted(u, s, vh, cutoff, dims):
        counts = staircase(u, s, vh, cutoff, dims)
        rising = np.isclose(s[0, :, 0], marker, rtol=1e-12)
        counts[rising] = rising_chains(counts[rising])
        return counts

    monkeypatch.setattr(spectral, "_staircase", planted)
    pairs = []
    for b, bp in N3_PAIRS.values():
        for scale in (1.0, 1e-4, 1e5):
            v = random_conditioned(rng, 3, 20.0)
            w = random_conditioned(rng, 3, 20.0)
            pairs.append((scale * v @ b @ np.linalg.inv(w),
                          scale * w @ bp @ np.linalg.inv(v)))
    pairs[5:5] = [RISING_PAIR]
    pairs.append((np.full((3, 3), 1.5e308 + 1.5e308j), np.eye(3)))
    alone = []
    for b, bp in pairs:
        try:
            alone.append(classify_point(b, bp, 1e-6))
        except EpkitError as exc:
            alone.append((type(exc), str(exc)))
    b, bp = (np.array(side, dtype=complex) for side in zip(*pairs))
    stacked = stack_outcomes(_classify_pairs(b, bp, 1e-6))
    assert stacked == alone
    failing = [i for i, r in enumerate(alone) if isinstance(r, tuple)]
    assert [alone[i][0] for i in failing] == [RankSequenceError, NonFiniteError]
    # without the failing pairs, every other pair reads the same
    rest = [i for i in range(len(pairs)) if i not in failing]
    assert stack_outcomes(_classify_pairs(b[rest], bp[rest], 1e-6)) == [
        alone[i] for i in rest]


def test_reference_at_or_below_the_pair_scale_keeps_the_cuts(rng):
    # basis-changed N3_PAIRS at three scales: a reference no larger than
    # any pair's own scale changes no bit of any verdict or error
    pairs = []
    for b, bp in N3_PAIRS.values():
        for scale in (1.0, 1e-4, 1e5):
            v = random_conditioned(rng, 3, 20.0)
            w = random_conditioned(rng, 3, 20.0)
            pairs.append((scale * v @ b @ np.linalg.inv(w),
                          scale * w @ bp @ np.linalg.inv(v)))
    b, bp = (np.array(side, dtype=complex) for side in zip(*pairs))
    own = np.linalg.norm(np.array([b, bp]), 2, axis=(-2, -1)).max(axis=0)
    want = stack_outcomes(_classify_pairs(b, bp, 1e-6))
    for reference in (own.min(), 0.5 * own.min(), own):
        assert stack_outcomes(_classify_pairs(b, bp, 1e-6, reference)) == want


@pytest.mark.parametrize("size", [1e-15, 1e-250])
def test_blocks_below_the_reference_read_as_zero(size, rng):
    # a pair that is full rank against its own scale is zero against a
    # reference it is tiny beside; the evidence keeps the pair's scale
    b, bp = (size * random_conditioned(rng, 2, 10.0) for _ in range(2))
    assert classify_point(b, bp, 1e-6).kind is EPKind.NONDEGENERATE
    [result] = _classify_pairs(b[None], bp[None], 1e-6, 1.0)
    assert result.kind is EPKind.DIABOLIC
    assert result.evidence["jordan_blocks_at_zero"] == [1, 1, 1, 1]
    assert result.evidence["scale"] == classify_point(b, bp, 1e-6).evidence["scale"]
    # one block below it beside one above: B vanishes, H^2 = 0
    [result] = _classify_pairs(b[None], np.eye(2)[None] + 0j, 1e-6, 1.0)
    assert result.kind is EPKind.DOUBLET_EP2


@pytest.mark.parametrize("c", [1e-320, 1e-305, 0.0])
def test_pair_at_the_absolute_floor(c):
    # the chains cut both blocks at or under 1e-300 as zero; the H of the
    # cross-check, divided by the floored pair scale, must see them so too
    b, bp = c * np.eye(2), c * jordan_block(2)
    result = classify_point(b, bp)
    assert result.kind is EPKind.DIABOLIC
    assert result.evidence["jordan_blocks_at_zero"] == [1, 1, 1, 1]
    # one block at the floor beside a regular one reads as zero too
    assert classify_point(b, np.eye(2)).evidence["chains"] == [
        {"length": 2, "in_ker": "B"}, {"length": 2, "in_ker": "B"}]


def plant_blocks(monkeypatch, blocks):
    """Make the classifier's Jordan cross-check see ``blocks`` at E = 0
    ([] for no zero mode) in every H of its stack."""
    def plant(counts):
        counts[..., 1] = [sum(size >= k for size in blocks)
                          for k in range(1, counts.shape[1] + 1)]
        return counts

    plant_counts(monkeypatch, plant)


def plant_ranks(monkeypatch, tables, powers):
    """Make the classifier's staircase count the kernels that drop the
    ranks ``tables`` (K, 2N + 1, 2) of the alternating products of B and
    B' and ``powers`` (K, 2N + 1) of the powers of H, for the K pairs of
    its stack."""
    pair, h = -np.diff(tables, axis=1), -np.diff(powers, axis=1)
    plant_counts(monkeypatch,
                 lambda counts: np.stack([pair[..., 0], h, pair[..., 1]], axis=-1))


def identity_pairs(count, n):
    eye = np.broadcast_to(np.eye(n, dtype=complex), (count, n, n))
    return eye, eye


def test_h_over_the_cap(svd_calls):
    # N = 9: H, 18 x 18, is over the cap, so no verdict can be reached, and
    # the pairs are refused unread
    too_large = (DimensionTooLargeError, "dimension 18 exceeds the cap of 16")
    assert outcome(lambda: classify_point(np.eye(9), np.eye(9))) == too_large
    b, bp = identity_pairs(2, 9)
    assert stack_outcomes(_classify_pairs(b, bp, 1e-9)) == [too_large] * 2
    assert not svd_calls


class TestWeyrReading:
    """One stacked reading of every rank table of N <= 2 gives the chains,
    the blocks of H and the errors of the per-pair references."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_every_chain_table(self, n, monkeypatch):
        tables = all_rank_tables(n, 2 * n, 2)
        want = [outcome(lambda: reference_chains_from_ranks(t)) for t in tables]
        # H has the blocks of the reference's chains, so the chains decide
        lengths = [[c["length"] for c in w] if isinstance(w, list) else []
                   for w in want]
        plant_ranks(monkeypatch, tables, [ranks_of_blocks(2 * n, b) for b in lengths])
        got = stack_outcomes(_classify_pairs(*identity_pairs(len(tables), n), 1e-9))
        assert len(got) == (n + 1) ** (4 * n) == len(tables)
        for result, chains, blocks in zip(got, want, lengths):
            if isinstance(chains, tuple):
                assert result == chains
            else:
                assert result.evidence["chains"] == chains
                assert result.evidence["jordan_blocks_at_zero"] == blocks
        refused = sum(isinstance(w, tuple) for w in want)
        assert 0 < refused < len(want)

    @pytest.mark.parametrize("n", [1, 2])
    def test_every_power_table(self, n, monkeypatch):
        # no chain at all, so H decides: no zero mode, a mismatch that names
        # its blocks, or the error of its ranks
        powers = all_rank_tables(2 * n, 2 * n, 1)[..., 0]
        plant_ranks(monkeypatch, np.full((len(powers), 2 * n + 1, 2), n), powers)
        got = stack_outcomes(_classify_pairs(*identity_pairs(len(powers), n), 1e-9))
        seen = set()
        for result, ranks in zip(got, powers.tolist()):
            ranks = reference_up_to_repeat(2 * n, ranks[1:])
            blocks = outcome(lambda: reference_block_sizes_from_ranks(2 * n, ranks))
            if isinstance(blocks, tuple):
                assert result == blocks
            elif blocks:
                assert result == (CrossCheckMismatchError,
                                  f"B and B' give chains of lengths [] but H "
                                  f"has zero-energy blocks {blocks}")
            else:
                assert result.kind is EPKind.NONDEGENERATE
            seen.add(type(blocks))
        assert seen == {tuple, list}


class TestCrossCheckMismatch:
    @pytest.mark.parametrize("kind,planted", [
        (EPKind.DOUBLET_EP2, [4]),
        (EPKind.EP4, [3, 1]),
        (EPKind.EP3_MIXED, [2, 2]),
        (EPKind.NONDEGENERATE, [2]),
    ])
    def test_disagreeing_blocks_raise(self, kind, planted, monkeypatch):
        plant_blocks(monkeypatch, planted)
        with pytest.raises(CrossCheckMismatchError):
            classify_zero_energy(*CANONICAL[kind])

    def test_unclassified_can_be_a_mismatch(self, monkeypatch):
        # chains [2, 1, 1] name no kind; H planted with [4] disagrees
        b, bp = np.zeros((2, 2)), np.diag([1.0, 0.0])
        assert classify_zero_energy(b, bp).kind is EPKind.UNCLASSIFIED
        plant_blocks(monkeypatch, [4])
        with pytest.raises(CrossCheckMismatchError):
            classify_zero_energy(b, bp)

    @pytest.mark.parametrize("planted", [[4, 2], []])
    def test_check_ep2n(self, planted, monkeypatch):
        plant_blocks(monkeypatch, planted)
        with pytest.raises(CrossCheckMismatchError):
            check_ep2n(np.eye(3), jordan_block(3))


class TestNonzeroEnergy:
    def test_defective_product(self):
        result = classify_nonzero_energy(jordan_block(2, 1.0), np.eye(2))
        assert result.kind is EPKind.NONZERO_EP2_PAIR
        (e_plus, e_minus), = result.evidence["doublet_energies"]
        assert e_plus == pytest.approx(1.0)
        assert e_minus == pytest.approx(-1.0)

    def test_diagonalizable_product(self):
        result = classify_nonzero_energy(np.diag([1.0, 4.0]), np.eye(2))
        assert result.kind is EPKind.NONDEGENERATE

    def test_complex_doublet_blocks(self):
        lam = 2.0 + 1.0j
        b = jordan_block(2, lam)
        bp = np.eye(2)
        result = classify_nonzero_energy(b, bp)
        assert result.kind is EPKind.NONZERO_EP2_PAIR
        h = assemble_blocks(b, bp)
        for e in (np.sqrt(lam), -np.sqrt(lam)):
            st = jordan_structure(h, e, with_chains=False)
            assert st.block_sizes == [2]

    @pytest.mark.parametrize("c", [1e160, 1e-170])
    def test_extreme_scale(self, c):
        # B B' = c^2 J2(1) overflows at 1e160 and underflows to zero at
        # 1e-170 unless it is formed from the divided blocks
        ref = classify_nonzero_energy(jordan_block(2, 1.0), np.eye(2))
        result = classify_nonzero_energy(c * jordan_block(2, 1.0), c * np.eye(2))
        assert result.kind is EPKind.NONZERO_EP2_PAIR
        np.testing.assert_allclose(np.array(result.evidence["doublet_energies"]) / c,
                                   ref.evidence["doublet_energies"], rtol=1e-7)

    @pytest.mark.parametrize("c", [1e160, 1e-170])
    def test_scaled_eigenvalues_exact(self, c):
        # c^2 J2(1) has eigenvalue c^2, which overflows at 1e160 and
        # underflows at 1e-170; the reported values stay exact
        ref = classify_nonzero_energy(jordan_block(2, 1.0), np.eye(2))
        result = classify_nonzero_energy(c * jordan_block(2, 1.0), c * np.eye(2))
        assert result.kind is ref.kind
        assert_same_unscaled(result, ref, "eigenvalues", c, [1.0, 1.0])
        assert_same_unscaled(result, ref, "defective_lambdas", c, [1.0])
        np.testing.assert_allclose(np.array(result.evidence["doublet_energies"]) / c,
                                   ref.evidence["doublet_energies"], rtol=1e-7)

    def test_finite_value_with_overflowing_modulus_in_range(self):
        # the unscaled eigenvalue is (1.3e308, 1.3e308): finite, though its
        # modulus is beyond the double range
        c = np.sqrt(1.3e308)
        ref = classify_nonzero_energy((1 + 1j) * np.eye(2), np.eye(2))
        result = classify_nonzero_energy(c * (1 + 1j) * np.eye(2), c * np.eye(2))
        assert result.kind is EPKind.NONDEGENERATE
        assert all(cmath.isfinite(v) for v in result.evidence["eigenvalues"])
        assert_same_unscaled(result, ref, "eigenvalues", c, [1 + 1j, 1 + 1j])

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError, match="matching shapes"):
            classify_nonzero_energy(np.eye(2), np.eye(3))

    def test_zero_eigenvalue_rejected(self):
        with pytest.raises(ZeroEigenvaluePresentError):
            classify_nonzero_energy(np.diag([0.0, 1.0]), np.eye(2))

    def test_zero_eigenvalue_names_the_any_n_classifier(self):
        # classify_zero_energy refuses N = 3; classify_point reads it
        b, bp = np.diag([0.0, 1.0, 2.0]), np.eye(3)
        with pytest.raises(ZeroEigenvaluePresentError,
                           match=r"zero eigenvalue; use classify_point$"):
            classify_nonzero_energy(b, bp)
        assert classify_point(b, bp).kind is EPKind.EP2

    def test_one_eigendecomposition(self, monkeypatch):
        calls = []
        eig = np.linalg.eig

        def counting_eig(*args, **kwargs):
            calls.append(1)
            return eig(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eig", counting_eig)
        classify_nonzero_energy(jordan_block(2, 1.0), np.eye(2))
        assert len(calls) == 1

    def test_blocks_validated_once(self, monkeypatch):
        # the product, formed from the validated blocks, is read as it is,
        # not validated again by eig and by each repeated cluster's reading
        calls = []
        as_matrix = cmatrix.as_matrix
        monkeypatch.setattr(cmatrix, "as_matrix",
                            lambda m: calls.append(1) or as_matrix(m))

        def refused(*args, **kwargs):
            raise AssertionError("the verdict went through a public reader")

        monkeypatch.setattr(cmatrix, "eig", refused)
        monkeypatch.setattr(spectral, "jordan_structure", refused)
        b = block_diag(jordan_block(2, 1.0), jordan_block(2, 4.0), [[9.0]])
        result = classify_nonzero_energy(b, np.eye(5))
        assert len(calls) == 2
        assert result.kind is EPKind.NONZERO_EP2_PAIR
        unit = 2.0 ** result.evidence["eigenvalue_scale_log2"]
        lambdas = np.multiply(result.evidence["defective_lambdas"], unit)
        assert lambdas.tolist() == [1, 4]

    def test_verdict_builds_no_chains(self, monkeypatch):
        def no_chains(*args, **kwargs):
            raise AssertionError("the nonzero-energy verdict built a chain")

        monkeypatch.setattr(spectral, "_chain", no_chains)
        result = classify_nonzero_energy(jordan_block(2, 1.0), np.eye(2))
        assert result.kind is EPKind.NONZERO_EP2_PAIR


def assert_same_unscaled(result, ref, key, c, exact):
    """The values ``key`` of ``result`` for the pair scaled by ``c`` are
    c^2 times those of ``ref``, the unscaled pair, whose values are
    ``exact``: value * 2**eigenvalue_scale_log2, evaluated for ``result``
    as value * (s / c)^2 so that nothing leaves the range."""
    s = 2.0 ** (result.evidence["eigenvalue_scale_log2"] // 2)
    ref_s = 2.0 ** (ref.evidence["eigenvalue_scale_log2"] // 2)
    got = np.array(result.evidence[key]) * (s / c) ** 2
    want = np.array(ref.evidence[key]) * ref_s ** 2
    np.testing.assert_allclose(want, exact, rtol=1e-14)
    np.testing.assert_allclose(got, want, rtol=1e-14)


class TestNearExactPoints:
    """Just off the catalog EPs the products of B and B' and the powers of
    H, each cut against its own norm, once read drops that fit no Jordan
    structure; every level of the staircase is cut once."""

    # at d = 1e-9 and tol 1e-9 the point is resolved off the EP
    @pytest.mark.parametrize("d,tol", [(1e-12, 1e-6), (1e-12, 1e-9), (1e-9, 1e-6)])
    @pytest.mark.parametrize("name,kind,blocks", [
        ("ep4-sqrt", EPKind.EP4, [4]), ("ep3", EPKind.EP3_MIXED, [3, 1])])
    def test_catalog_points(self, name, kind, blocks, d, tol):
        bh = build_model(name)
        q = bh.q_star + d * np.array([1.0, 0.3])
        b, bp = bh.b(q), bh.b_prime(q)
        result = classify_point(b, bp, tol)
        assert result.kind is kind
        assert result.evidence["jordan_blocks_at_zero"] == blocks
        structure = jordan_structure(assemble_blocks(b, bp), 0.0, tol)
        assert structure.block_sizes == blocks
        assert [len(chain) for chain in structure.chains] == blocks

    @pytest.mark.parametrize("name,tol,blocks", [
        ("ep4-sqrt", 1e-2, [4]), ("yao-lee-ep4", 1e-2, [4]),
        ("yao-lee-ep4", 1e-6, [4]), ("yao-lee-ep3", 1e-2, [3, 1])])
    def test_chains_at_a_loose_cut(self, name, tol, blocks):
        # a block cut at tol * ||H|| has chain equations that hold to
        # 10 * tol * ||H|| * ||x||, not to DEFAULT_CHAIN_FRACTION
        bh = build_model(name)
        q = bh.q_star + 1e-6 * np.array([1.0, 0.3])
        h = assemble_blocks(bh.b(q), bh.b_prime(q))
        structure = jordan_structure(h, 0.0, tol)
        assert structure.block_sizes == blocks
        assert [len(chain) for chain in structure.chains] == blocks
        unit_tol = 10 * tol * np.linalg.norm(h, 2)
        residuals = []
        for chain in structure.chains:
            assert np.linalg.norm(h @ chain[0]) <= unit_tol
            for below, x in zip(chain, chain[1:]):
                residuals.append(np.linalg.norm(h @ x - below) / np.linalg.norm(x))
        assert max(residuals) <= unit_tol
        assert max(residuals) > spectral.DEFAULT_CHAIN_FRACTION * np.linalg.norm(h, 2)

    def test_yao_lee_ep4_chain(self):
        # the seed of the 4-chain, cut at tol on principal-angle sines, was
        # once missed where the ranks read a 4-block
        bh = build_model("yao-lee-ep4")
        q = bh.q_star + 1e-9 * np.array([1.0, 0.3])
        structure = jordan_structure(assemble_blocks(bh.b(q), bh.b_prime(q)), 0.0, 1e-9)
        assert structure.block_sizes == [4]
        assert len(structure.chains[0]) == 4


class TestHighestOrderCondition:
    def test_n2_instances(self):
        b, bp = CANONICAL[EPKind.EP4]
        assert check_ep2n(b, bp) is True
        b, bp = CANONICAL[EPKind.EP3_MIXED]
        assert check_ep2n(b, bp) is False

    def test_n3_shift_instance(self):
        b = jordan_block(3)
        bp = np.eye(3, dtype=complex)
        assert check_ep2n(b, bp) is True
        st = jordan_structure(assemble_blocks(b, bp), 0.0, with_chains=False)
        assert st.block_sizes == [6]

    def test_kernel_perturbations_flip(self):
        b = jordan_block(3)
        # extra kernel direction in B'
        assert check_ep2n(b, np.diag([1.0, 1.0, 0.0])) is False
        # nilpotency order broken: (B'B)^2 = 0 with a rank-1 B
        b_flat = np.zeros((3, 3), dtype=complex)
        b_flat[0, 1] = 1.0
        assert check_ep2n(b_flat, np.eye(3)) is False
        # one chain, of length 2 only
        assert check_ep2n(np.diag([0.0, 1.0, 1.0]), np.eye(3)) is False


class TestMixedLimitFamilies:
    def test_via_two_block_reports(self):
        m = mixed_limit_family("ViaEP2", 0.1)
        report = ep_report(m)
        by_center = {complex(np.round(c.center, 12)): s.block_sizes
                     for c, s in report.entries}
        assert by_center[0j] == [2]
        assert by_center[0.1 + 0j] == [1]
        assert by_center[0.2 + 0j] == [1]

    def test_via_four_block_reports(self):
        report = ep_report(mixed_limit_family("ViaEP4", 0.1))
        assert len(report.entries) == 1
        assert report.entries[0][1].block_sizes == [4]

    def test_limit_point(self):
        for kind in ("ViaEP2", "ViaEP4"):
            report = ep_report(mixed_limit_family(kind, 0.0))
            assert report.entries[0][1].block_sizes == [3, 1]

    def test_entrywise_linear_convergence(self):
        target = mixed_limit_family("ViaEP4", 0.0)
        for eps in (0.1, 0.01, 0.001):
            assert np.max(np.abs(mixed_limit_family("ViaEP4", eps) - target)) == eps
            assert np.max(np.abs(mixed_limit_family("ViaEP2", eps) - target)) == 2 * eps

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            mixed_limit_family("ViaEP3", 0.1)


class TestGenericNFallback:
    """The chain reading is the one verdict for every N."""

    def test_single_flavour_two_block(self):
        # 1 x 1 blocks with B = 0: a lone 2-chain is an EP2
        result = classify_point(np.zeros((1, 1)), np.array([[2.0]]))
        assert result.kind is EPKind.EP2
        assert result.evidence["jordan_blocks_at_zero"] == [2]

    def test_three_flavour_four_block(self):
        # a defective lambda = 0 pair of B'B inside a 3-flavour system is a
        # genuine 4-block of the 6 x 6 Hamiltonian
        b = block_diag(jordan_block(2), [[1.0]])
        bp = np.eye(3, dtype=complex)
        result = classify_point(b, bp)
        assert result.kind is EPKind.EP4
        assert result.evidence["jordan_blocks_at_zero"] == [4]
        assert result.evidence["chains"] == [{"length": 4, "in_ker": "B"}]

    def test_inexact_point_classifies_at_loose_tolerance(self):
        # a refined-but-inexact degeneracy: the residual coupling (~1e-10)
        # must count as zero at tol = 1e-6 even though it is the largest
        # entry of its own block
        from epkit.models import kitaev_model

        bh = kitaev_model(1.0, 1.0, 1.0, 0.3, 0.1)
        q = bh.q_star + np.array([3e-11, -2e-11])
        result = classify_point(bh.b(q), bh.b_prime(q), tol=1e-6)
        assert result.kind is EPKind.EP2
        assert result.evidence["jordan_blocks_at_zero"] == [2]

    def test_lone_two_block_outside_taxonomy(self):
        # one simple zero of B with everything else regular: a single
        # 2-block in a 6-band system, none of the paper's N = 2 kinds,
        # named for what it is
        b = np.diag([0.0, 1.0, 1.0]).astype(complex)
        bp = np.eye(3, dtype=complex)
        result = classify_point(b, bp)
        assert result.kind is EPKind.EP2
        assert result.evidence["jordan_blocks_at_zero"] == [2]

    def test_rising_ranks_refused(self, monkeypatch):
        # one block about 1e-5 of the other: the products of B and B', each
        # cut against its own norm, once read ranks that rise. Every level
        # of the staircase is cut at one cutoff: it reads one 2-chain, as
        # the staircase of H does
        b, bp = RISING_PAIR
        assert classify_point(b, bp, 1e-6).evidence["chains"] == [
            {"length": 2, "in_ker": "B"}]
        # chains that fit no Jordan structure are refused
        plant_counts(monkeypatch, rising_chains)
        message = (r"ranks \[3, 2, 2, 2, 2, 2, 2\] and \[3, 3, 1, 1, 1, 1, 1\] "
                   "of the alternating products")
        with pytest.raises(RankSequenceError, match=message):
            classify_point(b, bp, 1e-6)
        with pytest.raises(RankSequenceError):
            check_ep2n(b, bp, 1e-6)
