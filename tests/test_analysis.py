import numpy as np
import pytest

from epkit import analysis
from epkit.analysis import (
    BOUNDED,
    CONVERGES,
    bz_scan,
    coalescence_profile,
    match_branches,
    path_scan,
    quantum_distance,
    scaling_exponent,
)
from epkit.classify import EPKind
from epkit.errors import NoiseFloorReachedError, ZeroVectorError
from epkit.models import (
    build_model,
    ep4_sqrt_model,
    kitaev_ep_locations,
    kitaev_model,
    zero_targets,
)
from epkit.sublattice import partner_state, reduced_spectrum


class TestQuantumDistance:
    def test_gauge_invariance(self, rng):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v /= np.linalg.norm(v)
        assert quantum_distance(v, v) == 0.0
        assert quantum_distance(v, np.exp(0.7j) * v) < 1e-14

    def test_orthogonal(self):
        assert quantum_distance([1.0, 0.0], [0.0, 1.0]) == pytest.approx(2.0)

    def test_diagonal_overlap(self):
        d = quantum_distance([1.0, 0.0], np.array([1.0, 1.0]) / np.sqrt(2))
        assert d == pytest.approx(2.0 - np.sqrt(2.0))

    def test_symmetry_and_range(self, rng):
        for _ in range(100):
            u = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            duv = quantum_distance(u, v)
            assert duv == pytest.approx(quantum_distance(v, u), abs=1e-14)
            assert 0.0 <= duv <= 2.0

    def test_zero_vector(self):
        with pytest.raises(ZeroVectorError):
            quantum_distance([0.0, 0.0], [1.0, 0.0])

    def test_partner_pair_equidistant_from_zero_modes(self, rng):
        # (psi, chi) and its sublattice partner see any zero mode (which has
        # support on only one sublattice) at identical distance
        bh = build_model("ep3")
        targets = zero_targets(bh)
        for r in (1e-3, 1e-5):
            for s in reduced_spectrum(bh, bh.q_star + np.array([r, 0.0])):
                p = partner_state(s)
                for _, t in targets:
                    d1 = quantum_distance(s.vector, t)
                    d2 = quantum_distance(p.vector, t)
                    assert abs(d1 - d2) <= 1e-10


class TestPathScan:
    def test_branches_come_in_pairs(self):
        bh = ep4_sqrt_model()
        scan = path_scan(bh, bh.q_star, 0.0)
        assert scan.n_branches == 4
        for k in range(len(scan.radii)):
            e = np.sort_complex(scan.energies[:, k])
            np.testing.assert_allclose(e, np.sort_complex(-e), atol=1e-12)

    def test_radii_validation(self):
        bh = ep4_sqrt_model()
        with pytest.raises(ValueError):
            path_scan(bh, bh.q_star, 0.0, radii=[1e-2, 1e-3])  # too few
        with pytest.raises(ValueError):
            path_scan(bh, bh.q_star, 0.0, radii=[1e-3, 1e-2, 1e-4, 1e-5])
        with pytest.raises(ValueError):
            path_scan(bh, bh.q_star, 0.0,
                      radii=[3e-2, 2e-2, 1.5e-2, 1e-2])  # under two decades

    def test_continuation_is_permutation_consistent(self):
        bh = build_model("ep3")
        scan = path_scan(bh, bh.q_star, np.pi / 2, tol=1e-13)
        for k in range(1, len(scan.radii)):
            fwd, _ = match_branches(scan.states[:, k - 1], scan.states[:, k])
            bwd, _ = match_branches(scan.states[:, k], scan.states[:, k - 1])
            assert list(fwd) == list(range(scan.n_branches))
            assert list(bwd) == list(range(scan.n_branches))

    def test_overlap_quality(self):
        bh = ep4_sqrt_model()
        scan = path_scan(bh, bh.q_star, 0.7)
        assert scan.min_overlap > 0.9
        assert scan.branch_switches == []

    def test_degenerate_radii_skipped(self):
        # along theta = pi/2 the quadratic branch of the mixed model falls
        # below the default zero cutoff at small radii
        bh = build_model("ep3")
        scan = path_scan(bh, bh.q_star, np.pi / 2)
        assert len(scan.skipped_radii) > 0
        assert len(scan.radii) + len(scan.skipped_radii) == 12


class TestCoalescence:
    def test_fourfold_collapse(self):
        bh = ep4_sqrt_model()
        scan = path_scan(bh, bh.q_star, 0.0)
        profile = coalescence_profile(scan, zero_targets(bh))
        assert profile.target_labels == ["e1"]
        assert all(profile.verdicts[b, 0] == CONVERGES for b in range(4))

    def test_doublet_splits_pairwise(self):
        bh = build_model("doublet-ep2")
        scan = path_scan(bh, bh.q_star, 0.0)
        profile = coalescence_profile(scan, zero_targets(bh))
        towards_e1 = [b for b in range(4) if profile.verdicts[b, 0] == CONVERGES]
        towards_e2 = [b for b in range(4) if profile.verdicts[b, 1] == CONVERGES]
        assert len(towards_e1) == 2 and len(towards_e2) == 2
        assert set(towards_e1).isdisjoint(towards_e2)
        for b in towards_e1:
            assert profile.verdicts[b, 1] == BOUNDED

    def test_mixed_model_path_one(self):
        bh = build_model("ep3")
        scan = path_scan(bh, bh.q_star, 0.0)
        profile = coalescence_profile(scan, zero_targets(bh))
        for b in range(4):
            assert profile.verdicts[b, 0] == CONVERGES  # e1
            assert profile.verdicts[b, 1] == BOUNDED     # e2

    def test_indeterminate_band(self):
        # a branch frozen at distance 0.01 sits between the thresholds
        radii = np.geomspace(1e-2, 1e-6, 12)
        overlap = 1.0 - 0.01 / 2.0
        state = np.array([overlap, np.sqrt(1 - overlap**2), 0, 0],
                         dtype=complex)
        states = np.tile(state, (1, 12, 1))
        scan = analysis.PathScan(np.zeros(2), 0.0, radii,
                                 np.ones((1, 12), dtype=complex), states)
        profile = coalescence_profile(scan, [("e1", [1.0, 0, 0, 0])])
        assert profile.verdicts[0, 0] == analysis.INDETERMINATE

    def test_distance_matrix_shape_and_range(self):
        bh = build_model("ep3")
        scan = path_scan(bh, bh.q_star, 0.0)
        profile = coalescence_profile(scan, zero_targets(bh))
        assert profile.distances.shape == (4, len(scan.radii), 2)
        assert np.all(profile.distances >= 0) and np.all(profile.distances <= 2)


class TestScalingExponent:
    def test_exact_power_law_recovery(self):
        radii = np.geomspace(1e-2, 1e-6, 12)
        for p in (0.25, 0.5, 1.0, 2.0):
            energies = (3.7 * radii**p)[np.newaxis, :].astype(complex)
            scan = analysis.PathScan(np.zeros(2), 0.0, radii, energies,
                                     np.zeros((1, 12, 4), dtype=complex))
            exponent, r2 = scaling_exponent(scan, 0)
            assert abs(exponent - p) < 1e-10
            assert abs(r2 - 1.0) < 1e-12

    def test_noise_floor(self):
        radii = np.geomspace(1e-2, 1e-6, 12)
        energies = np.full((1, 12), 1e-15, dtype=complex)
        scan = analysis.PathScan(np.zeros(2), 0.0, radii, energies,
                                 np.zeros((1, 12, 4), dtype=complex))
        with pytest.raises(NoiseFloorReachedError):
            scaling_exponent(scan, 0)

    def test_model_exponents(self):
        for name, theta, expected in (
            ("doublet-ep2", 0.0, {0.5}),
            ("ep4-sqrt", 0.0, {0.5}),
            ("ep4-quartic", 0.0, {0.25}),
            ("ep3", 0.0, {0.5}),
        ):
            bh = build_model(name)
            scan = path_scan(bh, bh.q_star, theta)
            for b in range(scan.n_branches):
                exponent, _ = scaling_exponent(scan, b)
                assert min(abs(exponent - e) for e in expected) < 0.05


class TestBZScan:
    def test_grid_validation(self):
        bh = kitaev_model(1.0, 1.0, 1.0, 0.3, 0.1)
        with pytest.raises(ValueError):
            bz_scan(bh, (8, 32), ((-1, 1), (-1, 1)))

    def test_kitaev_against_closed_form(self):
        bh = kitaev_model(1.0, 1.0, 1.0, 0.3, 0.1)
        bounds = ((-np.pi, np.pi), (-np.sqrt(3) * np.pi, np.sqrt(3) * np.pi))
        candidates = bz_scan(bh, (64, 64), bounds)
        assert candidates
        for q_expected in kitaev_ep_locations(1.0, 1.0, 1.0, 0.3, 0.1):
            best = min(np.max(np.abs(c.q_refined - q_expected))
                       for c in candidates)
            assert best < 1e-4

    def test_embedded_fourfold_point(self):
        bh = ep4_sqrt_model(q_star=(0.3, 0.7))
        candidates = bz_scan(bh, (24, 24), ((-0.2, 0.8), (0.2, 1.2)))
        assert len(candidates) == 1
        assert np.max(np.abs(candidates[0].q_refined - [0.3, 0.7])) < 1e-4
        assert candidates[0].classification.kind is EPKind.EP4

    def test_gapped_model_yields_nothing(self):
        bh = kitaev_model(3.0, 1.0, 1.0, 0.0, 0.0)
        bounds = ((-np.pi, np.pi), (-np.sqrt(3) * np.pi, np.sqrt(3) * np.pi))
        assert bz_scan(bh, (32, 32), bounds) == []
