import numpy as np
import pytest

from epkit.classify import EPKind, classify_point, classify_zero_energy
from epkit.errors import ParamViolationError
from epkit.models import (
    MODEL_CATALOG,
    build_model,
    cartesian_to_reciprocal,
    doublet_ep2_model,
    ep3_model,
    ep4_quartic_model,
    ep4_sqrt_model,
    kitaev_bloch,
    kitaev_ep_locations,
    kitaev_model,
    reciprocal_to_cartesian,
    yao_lee_ep3_model,
    yao_lee_ep4_model,
    zero_targets,
)
from epkit.spectral import jordan_structure
from epkit.sublattice import assemble, reduced_spectrum, symmetry_residual

from conftest import direction_mismatch

EXPECTED_KIND = {
    "doublet-ep2": EPKind.DOUBLET_EP2,
    "ep4-sqrt": EPKind.EP4,
    "ep4-quartic": EPKind.EP4,
    "ep3": EPKind.EP3_MIXED,
    "yao-lee-ep4": EPKind.EP4,
    "yao-lee-ep3": EPKind.EP3_MIXED,
}

ABSTRACT = ("doublet-ep2", "ep4-sqrt", "ep4-quartic", "ep3")


def _assert_matches_points(name, batch, points):
    """Batched generator output against one call per point: identical for
    the abstract models, which are pure arithmetic; within 1e-14 ||B|| for
    the lattice models, whose batched q . r_j (a matrix product) may round
    differently from the single-point dot product."""
    if name in ABSTRACT:
        np.testing.assert_array_equal(batch, points)
    else:
        scale = np.max(np.linalg.norm(points, 2, axis=(-2, -1)))
        assert np.max(np.abs(batch - points)) <= 1e-14 * scale


class TestCatalogInvariants:
    def test_every_model_classifies_as_named(self):
        for name, kind in EXPECTED_KIND.items():
            bh = build_model(name)
            b = bh.b(bh.q_star)
            bp = bh.b_prime(bh.q_star)
            if bh.n == 2:
                assert classify_zero_energy(b, bp).kind is kind, name
            else:
                sub = classify_zero_energy(b[:2, :2], bp[:2, :2], 1e-8)
                assert sub.kind is kind, name

    def test_symmetry_residual_zero_everywhere(self, rng):
        for name in MODEL_CATALOG:
            bh = build_model(name)
            q = rng.uniform(-1.0, 1.0, 2)
            assert symmetry_residual(assemble(bh, q)) == 0.0

    @pytest.mark.parametrize("name", sorted(MODEL_CATALOG))
    def test_batch_matches_single_points(self, name, rng):
        bh = build_model(name)
        qs = np.vstack([rng.uniform(-2.0, 2.0, (9, 2)), bh.q_star])
        for generator in (bh.b, bh.b_prime):
            batch = generator(qs)
            assert batch.shape == (len(qs), bh.n, bh.n)
            _assert_matches_points(name, batch,
                                   np.array([generator(q) for q in qs]))

    @pytest.mark.parametrize("name", sorted(MODEL_CATALOG))
    def test_assemble_on_grid_matches_single_points(self, name):
        bh = build_model(name)
        qx, qy = np.meshgrid(np.linspace(-1.0, 1.5, 5), np.linspace(-2.0, 0.5, 4),
                             indexing="ij")
        grid = np.stack([qx, qy], axis=-1)
        h = assemble(bh, grid)
        assert h.shape == (5, 4, 2 * bh.n, 2 * bh.n)
        points = np.array([[assemble(bh, q) for q in row] for row in grid])
        _assert_matches_points(name, h, points)

    def test_build_model_rejects_unknowns(self):
        with pytest.raises(ParamViolationError):
            build_model("no-such-model")
        with pytest.raises(ParamViolationError):
            build_model("ep3", {"bogus": 1.0})


class TestDoubletModel:
    def test_spectrum_at_small_radius(self):
        bh = doublet_ep2_model(v_x=1.0, v_y=1.0, c=1.0)
        states = reduced_spectrum(bh.b((1e-4, 0.0)), bh.b_prime((1e-4, 0.0)))
        energies = np.array(sorted((s.energy for s in states),
                                   key=lambda z: (z.real, z.imag)))
        # E^2 = i c v |dq|: pairs +-sqrt(i) * 1e-2, each doubly degenerate
        z = np.sqrt(1j * 1e-4)
        np.testing.assert_allclose(energies, [-z, -z, z, z], atol=1e-12)
        assert all(abs(abs(s.energy) - 1e-2) < 1e-12 for s in states)

    def test_param_violations(self):
        with pytest.raises(ParamViolationError):
            doublet_ep2_model(c=0.0)
        with pytest.raises(ParamViolationError):
            doublet_ep2_model(v_x=0.0, v_y=0.0)

    def test_angle_family(self):
        bh = doublet_ep2_model(v_x=2.0, v_y=0.5, c=1.0)
        # theta = pi/2: v = i v_y
        b = bh.b((0.0, 1e-3))
        np.testing.assert_allclose(b, 1j * 0.5e-3 * np.eye(2), atol=1e-18)


class TestFourfoldModels:
    def test_sqrt_variant_eigenvectors_collapse(self):
        bh = ep4_sqrt_model()
        e1 = np.array([0, 0, 1.0, 0])
        for r in (1e-4, 1e-6):
            q = bh.q_star + np.array([r, 0.0])
            for s in reduced_spectrum(bh.b(q), bh.b_prime(q)):
                assert direction_mismatch(s.vector, e1) < 20 * np.sqrt(r)

    def test_quartic_lambda_formula(self):
        b2, bp1, bp4, v3 = 1.0, 0.8, 1.3, 0.9
        bh = ep4_quartic_model(b2=b2, bp1=bp1, bp4=bp4, v3=v3)
        r = 1e-3
        q = bh.q_star + np.array([r, 0.0])
        lams = np.linalg.eigvals(bh.b_prime(q) @ bh.b(q))
        expected = np.sqrt(b2 * bp1 * bp4 * v3 * r)
        got = sorted(lams, key=lambda z: z.real)
        np.testing.assert_allclose(got, [-expected, expected], atol=1e-14)

    def test_sqrt_variant_lambda_expansion(self):
        # leading order along theta = 0 the product eigenvalues are
        # r/2 * (T +- sqrt(T^2 - 4 D)) with T = bp1 v1 + b2 vp3 + bp4 v4
        # and D = bp1 v1 bp4 v4; exact here because the model is its
        # leading-order form
        b2, bp1, bp4, v1, v4, vp3 = 1.0, 1.1, 0.9, 0.9, 0.7, 0.8
        bh = ep4_sqrt_model(b2=b2, bp1=bp1, bp4=bp4, v1=v1, v4=v4, vp3=vp3)
        r = 1e-5
        lams = np.linalg.eigvals(bh.b_prime((r, 0.0)) @ bh.b((r, 0.0)))
        t = bp1 * v1 + b2 * vp3 + bp4 * v4
        d = bp1 * v1 * bp4 * v4
        root = np.sqrt(t * t - 4 * d)
        expected = np.array([t - root, t + root]) * r / 2
        np.testing.assert_allclose(sorted(lams.real), expected, rtol=1e-12)

    def test_preconditions(self):
        with pytest.raises(ParamViolationError):
            ep4_sqrt_model(b2=0.0)
        with pytest.raises(ParamViolationError):
            ep4_quartic_model(v3=0.0)


class TestMixedThreefoldModel:
    def test_blocks_at_point(self):
        bh = ep3_model()
        st = jordan_structure(assemble(bh, bh.q_star), 0.0, with_chains=False)
        assert st.block_sizes == [3, 1]

    def test_axis_limits_of_lower_row(self):
        bh = ep3_model(vp3=0.9, vp4=0.5, rp3=0.3, rp4=-3.0)
        r = 1e-3
        along_x = bh.b_prime(bh.q_star + np.array([r, 0.0]))
        np.testing.assert_allclose(along_x[1], [0.9 * r, 0.5 * r], atol=1e-18)
        along_y = bh.b_prime(bh.q_star + np.array([0.0, r]))
        np.testing.assert_allclose(along_y[1], [0.3 * r * r, -3.0 * r * r],
                                   atol=1e-18)

    def test_quadratic_axis_lambda_expansion(self):
        # along theta = pi/2: lambda1 ~ A r and lambda2 ~ (D2/A) r^2 with
        # A = (bp1 v1 + bp2 v3) * i and D2 = b2 (i v3) (rp3 bp2 - rp4 bp1)
        b2, bp1, bp2 = 1.0, 1.0, 2.0
        v1, v3 = 1.0, 0.4
        rp3, rp4 = 0.3, -3.0
        bh = ep3_model()
        a_coef = 1j * (bp1 * v1 + bp2 * v3)
        d_coef = b2 * (1j * v3) * (rp3 * bp2 - rp4 * bp1)
        for r in (1e-4, 1e-6):
            lams = sorted(
                np.linalg.eigvals(bh.b_prime((0.0, r)) @ bh.b((0.0, r))),
                key=abs,
            )
            assert abs(lams[1] - a_coef * r) < 1e-4 * abs(a_coef) * r
            assert abs(lams[0] - (d_coef / a_coef) * r * r) \
                < 1e-3 * abs(d_coef / a_coef) * r * r

    def test_zero_targets(self):
        bh = ep3_model()
        targets = zero_targets(bh)
        assert [label for label, _ in targets] == ["e1", "e2"]
        np.testing.assert_allclose(targets[0][1], [0, 0, 1.0, 0], atol=1e-14)
        np.testing.assert_allclose(targets[1][1],
                                   np.array([2.0, -1.0, 0, 0]) / np.sqrt(5),
                                   atol=1e-14)


class TestKitaev:
    def test_dirac_point(self):
        q = reciprocal_to_cartesian((2 * np.pi / 3, -2 * np.pi / 3))
        h = kitaev_bloch(q)
        assert abs(h[0, 1]) < 1e-14

    def test_gamma_point(self):
        h = kitaev_bloch((0.0, 0.0))
        assert h[0, 1] == pytest.approx(6j)
        np.testing.assert_allclose(sorted(np.linalg.eigvals(h).real), [-6.0, 6.0],
                                   atol=1e-12)

    def test_hermitian_limit_reduces_to_dirac(self):
        locs = kitaev_ep_locations(1.0, 1.0, 1.0, 0.0, 0.0)
        recs = sorted([tuple(cartesian_to_reciprocal(l)) for l in locs])
        k = 2 * np.pi / 3
        np.testing.assert_allclose(recs, sorted([(-k, k), (k, -k)]), atol=1e-12)

    def test_gapped_phase_empty(self):
        assert kitaev_ep_locations(3.0, 1.0, 1.0, 0.0, 0.0) == []
        assert kitaev_ep_locations(3.0, 1.0, 1.0, 0.3, 0.1) == []

    def test_locations_annihilate_coupling(self, rng):
        for _ in range(10):
            j1 = rng.uniform(0.8, 1.2)
            j2 = rng.uniform(0.8, 1.2)
            p1, p2 = rng.uniform(-0.5, 0.5, 2)
            locs = kitaev_ep_locations(j1, j2, 1.0, p1, p2)
            assert len(locs) == 2
            for q in locs:
                h = kitaev_bloch(q, j1, j2, 1.0, p1, p2)
                assert abs(h[0, 1]) <= 1e-9 * 2 * (j1 + j2 + 1.0)

    def test_nilpotent_two_block_at_point(self):
        locs = kitaev_ep_locations(1.0, 1.0, 1.0, 0.3, 0.1)
        for q in locs:
            h = kitaev_bloch(q, 1.0, 1.0, 1.0, 0.3, 0.1)
            assert abs(h[1, 0]) > 0.1  # partner coupling stays finite
            st = jordan_structure(h, 0.0, with_chains=False)
            assert st.block_sizes == [2]

    def test_model_carries_point(self):
        bh = kitaev_model(1.0, 1.0, 1.0, 0.3, 0.1)
        assert bh.q_star is not None
        result = classify_point(bh.b(bh.q_star), bh.b_prime(bh.q_star), 1e-8)
        assert result.kind is EPKind.DOUBLET_EP2
        assert result.evidence["jordan_blocks_at_zero"] == [2]


class TestYaoLee:
    def test_particle_hole_pairing(self, rng):
        for builder in (yao_lee_ep4_model, yao_lee_ep3_model):
            bh = builder()
            worst = 0.0
            for _ in range(100):
                q = rng.uniform(-np.pi, np.pi, 2)
                worst = max(worst, float(np.max(np.abs(
                    bh.b_prime(-q) - bh.b(q).T
                ))))
            assert worst <= 1e-14

    def test_third_flavour_decouples(self, rng):
        bh = yao_lee_ep4_model(j01=3.0, j02=1.0, j03=1.0)
        for _ in range(10):
            q = rng.uniform(-np.pi, np.pi, 2)
            six = np.linalg.eigvals(assemble(bh, q))
            two = np.linalg.eigvals(kitaev_bloch(q, 3.0, 1.0, 1.0, 0.0, 0.0))
            for z in two:
                assert np.min(np.abs(six - z)) < 1e-9

    def test_six_band_blocks_at_point(self):
        for builder, blocks in ((yao_lee_ep4_model, [4]),
                                (yao_lee_ep3_model, [3, 1])):
            bh = builder()
            st = jordan_structure(assemble(bh, bh.q_star), 0.0, 1e-8,
                                  with_chains=False)
            assert st.block_sizes == blocks

    def test_point_is_kitaev_zero(self):
        bh = yao_lee_ep4_model(jt=1.0, phi=0.3)
        qt = cartesian_to_reciprocal(bh.q_star)
        np.testing.assert_allclose(qt, [2 * np.pi / 3 - 0.3, -2 * np.pi / 3],
                                   atol=1e-12)
        assert abs(bh.b(bh.q_star)[0, 0]) < 1e-12

    def test_mirror_coupling_needs_pure_x_hopping(self):
        with pytest.raises(ParamViolationError):
            yao_lee_ep3_model(z2=0.05)

    def test_hermitian_phi_rejected(self):
        with pytest.raises(ParamViolationError):
            yao_lee_ep4_model(phi=0.0)
