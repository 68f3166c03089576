import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from epkit import spectral
from epkit.classify import (
    EPKind,
    check_ep2n,
    classify_nonzero_energy,
    classify_point,
    classify_zero_energy,
    mixed_limit_family,
)
from epkit.errors import (
    CrossCheckMismatchError,
    NotAnEigenvalueError,
    ZeroEigenvaluePresentError,
)
from epkit.spectral import JordanStructure, ep_report, jordan_structure
from epkit.sublattice import assemble_blocks

from conftest import block_diag, jordan_block, random_conditioned

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

    def test_twoblock_pair_without_su2_form_unclassified(self):
        # B = 0 with B' not proportional to I: Jordan blocks are [2, 2] but
        # the doublet conditions fail in this basis
        result = classify_zero_energy(np.zeros((2, 2)), np.diag([1.0, 2.0]))
        assert result.kind is EPKind.UNCLASSIFIED
        assert result.evidence["jordan_blocks_at_zero"] == [2, 2]

    def test_evidence_relations(self):
        b, bp = CANONICAL[EPKind.EP3_MIXED]
        rel = classify_zero_energy(b, bp).evidence["relations"]
        assert rel["im_bprime_eq_ker_b"] and not rel["im_b_eq_ker_bprime"]

    def test_basis_covariance(self, rng):
        # conjugating H by diag(V, W) maps (B, B') to (V B W^-1, W B' V^-1)
        # and preserves the Jordan structure; kernel/image kinds must not
        # move (the doublet test is basis-bound, so it is excluded here)
        for kind in (EPKind.EP4, EPKind.EP3_MIXED, EPKind.NONDEGENERATE):
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
        # B -> U B V^-1, B' -> V B' U^-1 conjugates H by diag(U, V); the
        # doublet's B' = 2I stays proportional to I only for U = V
        u, v = conditioned(u), conditioned(v)
        if kind is EPKind.DOUBLET_EP2:
            v = u
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


@pytest.mark.parametrize("kind", list(CANONICAL))
def test_svd_budget(kind, svd_calls):
    # each block, the product and each power of H are factorised once
    classify_zero_energy(*CANONICAL[kind])
    assert 0 < len(svd_calls) <= 8


def plant_blocks(monkeypatch, blocks):
    """Make the classifier's Jordan cross-check see ``blocks`` at E = 0."""
    def planted(h, e, tol, chain_tol=None, with_chains=True):
        if not blocks:
            raise NotAnEigenvalueError("planted: no zero mode")
        return JordanStructure(complex(e), list(blocks))

    monkeypatch.setattr(spectral, "jordan_structure", planted)


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

    def test_unclassified_is_never_a_mismatch(self, monkeypatch):
        plant_blocks(monkeypatch, [4])
        result = classify_zero_energy(np.diag([0.0, 1.0]), np.eye(2))
        assert result.kind is EPKind.UNCLASSIFIED

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

    def test_zero_eigenvalue_rejected(self):
        with pytest.raises(ZeroEigenvaluePresentError):
            classify_nonzero_energy(np.diag([0.0, 1.0]), np.eye(2))


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
    def test_single_flavour_two_block(self):
        # 1 x 1 blocks with B = 0: the SU(N) first-column family at N = 1
        result = classify_point(np.zeros((1, 1)), np.array([[2.0]]))
        assert result.kind is EPKind.DOUBLET_EP2
        assert result.evidence["jordan_blocks_at_zero"] == [2]

    def test_three_flavour_four_block(self):
        # a defective lambda = 0 pair of B'B inside a 3-flavour system is a
        # genuine 4-block of the 6 x 6 Hamiltonian
        b = block_diag(jordan_block(2), [[1.0]])
        bp = np.eye(3, dtype=complex)
        result = classify_point(b, bp)
        assert result.evidence["generic_n_fallback"] is True
        assert result.kind is EPKind.EP4
        assert result.evidence["jordan_blocks_at_zero"] == [4]

    def test_inexact_point_classifies_at_loose_tolerance(self):
        # a refined-but-inexact degeneracy: the residual coupling (~1e-10)
        # must count as zero at tol = 1e-6 even though it is the largest
        # entry of its own block
        from epkit.models import kitaev_model

        bh = kitaev_model(1.0, 1.0, 1.0, 0.3, 0.1)
        q = bh.q_star + np.array([3e-11, -2e-11])
        result = classify_point(bh.b(q), bh.b_prime(q), tol=1e-6)
        assert result.kind is EPKind.DOUBLET_EP2
        assert result.evidence["jordan_blocks_at_zero"] == [2]

    def test_lone_two_block_outside_taxonomy(self):
        # one simple zero of B with everything else regular: a single
        # 2-block in a 6-band system, not in the N = 2 taxonomy
        b = np.diag([0.0, 1.0, 1.0]).astype(complex)
        bp = np.eye(3, dtype=complex)
        result = classify_point(b, bp)
        assert result.kind is EPKind.UNCLASSIFIED
        assert result.evidence["jordan_blocks_at_zero"] == [2]
