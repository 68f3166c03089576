import numpy as np
import pytest

from epkit.classify import EPKind, classify_point, classify_zero_energy
from epkit.analysis import GRID_CHUNK_ENTRIES
from epkit.errors import GeneratorFailureError, ParamViolationError
from epkit import models
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
from epkit.sublattice import (
    _grid_blocks,
    assemble,
    reduced_spectrum,
    symmetry_residual,
)

from conftest import (
    KITAEV_SCALES,
    assert_same_bits,
    direction_mismatch,
    outcome,
    signed_kitaev_couplings,
)

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

    def test_catalog_params_are_the_builder_defaults(self):
        # in signature order, q_star split into qstar_x and qstar_y
        assert list(MODEL_CATALOG["doublet-ep2"].params.items()) == [
            ("v_x", 1.0), ("v_y", 1.0), ("c", 1.0), ("qstar_x", 0.0), ("qstar_y", 0.0)]
        assert list(MODEL_CATALOG["kitaev"].params.items()) == [
            ("j1", 1.0), ("j2", 1.0), ("j3", 1.0), ("phi1", 0.0), ("phi2", 0.0)]
        assert MODEL_CATALOG["ep3"].params["rp4"] == -3.0
        assert MODEL_CATALOG["yao-lee-ep4"].params["phi"] == 0.3

    def test_build_model_rejects_unknowns(self):
        with pytest.raises(ParamViolationError):
            build_model("no-such-model")
        with pytest.raises(ParamViolationError):
            build_model("ep3", {"bogus": 1.0})


#: Each catalog model's builder and the parameters its models carry, in
#: order, written out apart from the catalog that records them
YAO_LEE_PARAMS = ("jt", "phi", "z1", "z2", "zp1", "zp2", "j01", "j02", "j03")
BUILT = {
    "doublet-ep2": (doublet_ep2_model, ("v_x", "v_y", "c")),
    "ep4-sqrt": (ep4_sqrt_model, ("b2", "bp1", "bp4", "v1", "v4", "vp3")),
    "ep4-quartic": (ep4_quartic_model, ("b2", "bp1", "bp4", "v3")),
    "ep3": (ep3_model, ("b2", "bp1", "bp2", "v1", "v3", "v4", "vp3", "vp4",
                        "rp3", "rp4")),
    "kitaev": (kitaev_model, ("j1", "j2", "j3", "phi1", "phi2")),
    "yao-lee-ep4": (yao_lee_ep4_model, YAO_LEE_PARAMS),
    "yao-lee-ep3": (yao_lee_ep3_model, YAO_LEE_PARAMS),
}


def expected_q_star(name, args):
    """The degeneracy point each builder gives for the arguments ``args``."""
    if name == "kitaev":
        locations = kitaev_ep_locations(*args.values())
        return locations[0] if locations else None
    if name.startswith("yao-lee"):
        return reciprocal_to_cartesian((2 * np.pi / 3 - args["phi"], -2 * np.pi / 3))
    return np.asarray(args["q_star"], dtype=float)


class TestCatalogRecordsItsModels:
    def test_catalog_lists_every_builder_in_order(self):
        assert list(MODEL_CATALOG) == list(BUILT)
        for name, (builder, params) in BUILT.items():
            spec = MODEL_CATALOG[name]
            assert spec.builder is builder
            q_star = ("qstar_x", "qstar_y") if "qstar_x" in spec.params else ()
            assert list(spec.params) == [*params, *q_star]

    @pytest.mark.parametrize("name", list(BUILT))
    def test_every_call_names_and_records_the_model(self, name, rng):
        # defaults, positional, by keyword, partly by keyword and through
        # build_model all give the same name, parameters and point
        builder, names = BUILT[name]
        defaults = MODEL_CATALOG[name].params
        draws = [dict(defaults)] + [
            {k: v if k == "z2" else v * (1 + 0.1 * rng.standard_normal())
             for k, v in defaults.items()} for _ in range(6)]
        for values in draws:
            args = dict(values)
            if "qstar_x" in args:
                args["q_star"] = (args.pop("qstar_x"), args.pop("qstar_y"))
            first, *rest = args
            built = [builder(*args.values()), builder(**args),
                     builder(args[first], **{k: args[k] for k in rest}),
                     build_model(name, values)]
            if values is draws[0]:
                built += [builder(), build_model(name)]
            for bh in built:
                assert bh.name == name
                assert list(bh.params.items()) == [(k, args[k]) for k in names]
                if bh.q_star is None:
                    assert expected_q_star(name, args) is None
                else:
                    assert_same_bits(bh.q_star, expected_q_star(name, args))

    def test_params_are_the_arguments_as_given(self):
        bh = kitaev_model(2, j3=-1, phi2=0.25)
        assert list(bh.params.items()) == [
            ("j1", 2), ("j2", 1.0), ("j3", -1), ("phi1", 0.0), ("phi2", 0.25)]
        assert type(bh.params["j1"]) is int


def reference_kitaev_bloch(q, j1=1.0, j2=1.0, j3=1.0, phi1=0.0, phi2=0.0):
    """The Bloch matrix with its layout [[0, i A(q)], [-i A(-q), 0]]
    written out entry by entry."""
    a = models._a_tilde(q, j1, j2, j3, phi1, phi2)
    am = models._a_tilde(-np.asarray(q, dtype=float), j1, j2, j3, phi1, phi2)
    return models._matrix([[0.0, 1j * a], [-1j * am, 0.0]])


def test_kitaev_bloch_bits_as_its_layout(rng):
    q = rng.uniform(-4.0, 4.0, (300, 2))
    couplings = rng.uniform(-2.0, 2.0, (300, 5))
    for point, j in zip(q, couplings):
        assert_same_bits(kitaev_bloch(point, *j), reference_kitaev_bloch(point, *j))
    assert_same_bits(kitaev_bloch(q, *couplings[0]),
                     reference_kitaev_bloch(q, *couplings[0]))
    assert_same_bits(kitaev_bloch([0.5, -1.0]), reference_kitaev_bloch([0.5, -1.0]))


class TestReciprocalCoordinates:
    @pytest.mark.parametrize("k", [1, 2, 3, 17, 1000])
    def test_phases_do_not_depend_on_batch_size(self, k, rng):
        qs = rng.uniform(-5.0, 5.0, (k, 2))
        batch = cartesian_to_reciprocal(qs)
        assert batch.shape == (k, 2)
        for q, row in zip(qs, batch):
            np.testing.assert_array_equal(row, cartesian_to_reciprocal(q))

    @pytest.mark.parametrize("name", ["kitaev", "yao-lee-ep4"])
    def test_assemble_rows_match_points_bitwise(self, name, rng):
        bh = (kitaev_model(1.0, 1.0, 1.0, 0.3, 0.1) if name == "kitaev"
              else build_model(name))
        qs = rng.uniform(-5.0, 5.0, (200, 2))
        h = assemble(bh, qs)
        for q, row in zip(qs, h):
            np.testing.assert_array_equal(row, assemble(bh, q))


class TestDoubletModel:
    def test_spectrum_at_small_radius(self):
        bh = doublet_ep2_model(v_x=1.0, v_y=1.0, c=1.0)
        energies, _ = reduced_spectrum(bh.b((1e-4, 0.0)), bh.b_prime((1e-4, 0.0)))
        ordered = np.array(sorted(energies, key=lambda z: (z.real, z.imag)))
        # E^2 = i c v |dq|: pairs +-sqrt(i) * 1e-2, each doubly degenerate
        z = np.sqrt(1j * 1e-4)
        np.testing.assert_allclose(ordered, [-z, -z, z, z], atol=1e-12)
        assert all(abs(abs(e) - 1e-2) < 1e-12 for e in energies)

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
            _, states = reduced_spectrum(bh.b(q), bh.b_prime(q))
            for row in states:
                assert direction_mismatch(row, e1) < 20 * np.sqrt(r)

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

    @pytest.mark.parametrize("couplings", [
        (1.0, 1.0, 1.0, 0.3, -0.2), (0.9, 1.1, 1.0, 0.3, 0.1),
        (1.2, 0.8, -1.0, -0.4, 0.2), (1.0, 1.0, 1.0, 0.0, 0.0),
    ])
    @pytest.mark.parametrize("k", [600, -600])
    def test_locations_keep_their_bits_at_any_scale(self, couplings, k):
        # 2**600 squared overflows and 2**-600 squared underflows
        *j, p1, p2 = couplings
        want = kitaev_ep_locations(*j, p1, p2)
        got = kitaev_ep_locations(*(2.0 ** k * x for x in j), p1, p2)
        assert len(want) == 2
        assert len(got) == len(want)
        for q, ref in zip(got, want):
            assert_same_bits(q, ref)

    def test_negative_couplings_fold_into_the_phase(self, rng):
        # J e^{i phi} = |J| e^{i (phi + pi)}: a negative J1 or J2 once gave
        # no point, though A~ vanishes at those of the folded phase
        for _ in range(20):
            j1, j2 = rng.uniform(0.8, 1.2, 2) * rng.choice([-1.0, 1.0], 2)
            j3 = float(rng.choice([-1.0, 1.0]))
            p1, p2 = rng.uniform(-0.5, 0.5, 2)
            locs = kitaev_ep_locations(j1, j2, j3, p1, p2)
            assert len(locs) == 2
            for q in locs:
                h = kitaev_bloch(q, j1, j2, j3, p1, p2)
                assert abs(h[0, 1]) <= 1e-9 * 2 * (abs(j1) + abs(j2) + 1.0)
            folded = kitaev_ep_locations(abs(j1), abs(j2), j3, p1 + np.pi * (j1 < 0),
                                         p2 + np.pi * (j2 < 0))
            for q, ref in zip(locs, folded):
                assert_same_bits(q, ref)

    @pytest.mark.parametrize("zero", range(3))
    def test_zero_coupling_gives_no_point(self, zero):
        couplings = [1.0, 0.9, 1.1]
        couplings[zero] = 0.0
        assert kitaev_ep_locations(*couplings, 0.3, -0.2) == []

    def test_zero_targets_need_a_point(self):
        bh = kitaev_model(3.0, 1.0, 1.0)
        assert bh.q_star is None
        with pytest.raises(ParamViolationError, match="'kitaev' has no degeneracy point"):
            zero_targets(bh)

    def test_complex_coupling_gives_no_point(self):
        # the triangle law needs real couplings; a complex one is not refused
        assert kitaev_ep_locations(1.0 + 0.1j, 1.0, 1.0, 0.3, 0.1) == []

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
        assert result.kind is EPKind.EP2
        assert result.evidence["jordan_blocks_at_zero"] == [2]


def _kitaev_window_axes(nx, ny):
    return (np.linspace(-np.pi, np.pi, nx),
            np.linspace(-np.sqrt(3) * np.pi, np.sqrt(3) * np.pi, ny))


def _pointwise_grid(bh, qx, qy):
    q = np.stack(np.meshgrid(qx, qy, indexing="ij"), axis=-1)
    return np.stack([bh.b(q), bh.b_prime(q)])


class TestKitaevGrid:
    """The grid form of the Kitaev model against its pointwise generators."""

    @pytest.mark.parametrize("scale", KITAEV_SCALES)
    @pytest.mark.parametrize("grid,rows", [((37, 53), 37), ((96, 128), 20)])
    def test_matches_pointwise_generators(self, scale, grid, rows, rng):
        eps = np.finfo(float).eps
        qx, qy = _kitaev_window_axes(*grid)
        for _ in range(8):
            *j, p1, p2 = signed_kitaev_couplings(rng)
            j = [scale * x for x in j]
            bh = kitaev_model(*j, p1, p2)
            want = _pointwise_grid(bh, qx, qy)
            bound = 8 * eps * 2 * sum(abs(x) for x in j)
            # row chunks as bz_scan takes them; the last one is short
            for start in range(0, len(qx), rows):
                got = _grid_blocks(bh, qx[start:start + rows], qy)
                assert got.shape == (2, len(qx[start:start + rows]), len(qy), 1, 1)
                assert np.max(np.abs(got - want[:, start:start + rows])) <= bound

    def test_refuses_the_couplings_the_generators_refuse(self, rng):
        # 2 (|J1| + |J2| + |J3|) passes the double range from about 3e307:
        # some grid points of a set overflow and others do not
        qx, qy = _kitaev_window_axes(64, 48)
        seen = set()
        for scale in (2e307, 2.6e307, 3e307, 3.5e307, 4.5e307, 1.7e308):
            for _ in range(6):
                *j, p1, p2 = signed_kitaev_couplings(rng)
                bh = kitaev_model(*(scale * x for x in j), p1, p2)
                got = outcome(lambda: _grid_blocks(bh, qx, qy) is not None)
                assert got == outcome(lambda: _pointwise_grid(bh, qx, qy)
                                      is not None)
                seen.add(got if got is True else got[1])
        assert seen == {True, "B(q) returned non-finite entries"}

    def test_overflow_message_names_b_prime_when_only_it_overflows(self):
        # near q.r1 = q.r2 = 1, where the phases of A~(-q) vanish, A~(-q)
        # is about 6 * 4e307 and overflows, while A~(q) stays finite
        bh = kitaev_model(4e307, 4e307, 4e307, 1.0, 1.0)
        qx, qy = np.linspace(0.95, 1.05, 16), np.linspace(0.55, 0.6, 16)
        for blocks in (lambda: _grid_blocks(bh, qx, qy),
                       lambda: _pointwise_grid(bh, qx, qy)):
            with pytest.raises(GeneratorFailureError,
                               match=r"^B'\(q\) returned non-finite entries$"):
                blocks()

    def test_only_the_lattice_models_have_a_grid_form(self):
        assert [name for name in MODEL_CATALOG
                if build_model(name).grid is not None] == [
                    "kitaev", "yao-lee-ep4", "yao-lee-ep3"]


#: Coupling sets of the six-band models beside their defaults, each built
#: (the sub-block at q* keeps its kind). yao-lee-ep3 keeps its kind only
#: for |z2| up to about 1e-8, and only z2 reaches its mirrored e^{i q.r2}.
YAO_LEE_PARAMS = [
    ("yao-lee-ep4", {}),
    ("yao-lee-ep4", {"phi": -0.7, "z2": 0.05, "zp2": -0.2, "jt": 1.3}),
    ("yao-lee-ep4", {"phi": 1.1, "z1": -0.4, "z2": 0.3, "zp1": 0.25,
                     "zp2": 0.6, "j01": -1.5, "j02": 2.0, "j03": 0.5}),
    ("yao-lee-ep3", {}),
    ("yao-lee-ep3", {"phi": 0.45, "z1": 0.2, "zp1": -0.1, "zp2": 0.3}),
    ("yao-lee-ep3", {"z2": 1e-9, "zp2": -0.2}),
    ("yao-lee-ep3", {"phi": -1.2, "jt": 0.7, "z1": -0.35, "zp1": 0.5,
                     "zp2": -0.4, "j01": 1.0, "j02": -2.5, "j03": 1.5}),
]

#: The couplings of the six-band models that an overall scale multiplies.
YAO_LEE_COUPLINGS = ("jt", "z1", "z2", "zp1", "zp2", "j01", "j02", "j03")
#: KITAEV_SCALES less 2^-1000, which puts the sub-block at q* under the
#: classifier's absolute floor, so the builders refuse it.
YAO_LEE_SCALES = tuple(s for s in KITAEV_SCALES if s != 2.0 ** -1000)


def _yao_lee_window_axes(bh, grid):
    """The axes of the q* +- 0.4 window that bz-scan and bz-lattice scan."""
    return tuple(np.linspace(c - 0.4, c + 0.4, n) for c, n in zip(bh.q_star, grid))


def _scaled_yao_lee(name, params, scale):
    defaults = MODEL_CATALOG[name].params
    return build_model(name, {**params, **{
        key: scale * params.get(key, defaults[key]) for key in YAO_LEE_COUPLINGS}})


def _assert_overflow_as_generators(bh, qx, qy):
    """The grid form's entries overflow exactly where the generators' do."""
    q = np.stack(np.meshgrid(qx, qy, indexing="ij"), axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):
        grid = bh.grid(qx, qy)
        points = np.stack([bh.block(q), bh.block_prime(q)])
    np.testing.assert_array_equal(np.isfinite(grid), np.isfinite(points))


class TestYaoLeeGrid:
    """The grid forms of the six-band models against their pointwise
    generators."""

    @pytest.mark.parametrize("scale", YAO_LEE_SCALES)
    @pytest.mark.parametrize("name,params", YAO_LEE_PARAMS)
    def test_matches_pointwise_generators(self, name, params, scale):
        eps = np.finfo(float).eps
        bh = _scaled_yao_lee(name, params, scale)
        values = bh.params
        bound = 8 * eps * 2 * sum(abs(values[key]) for key in YAO_LEE_COUPLINGS)
        bound *= 1 + 2 * (name == "yao-lee-ep4")  # jt in three entries of B
        windows = [(_yao_lee_window_axes(bh, (64, 64)), None),
                   (_yao_lee_window_axes(bh, (33, 47)), 20),
                   (_kitaev_window_axes(96, 128), 20)]
        for (qx, qy), rows in windows:
            want = _pointwise_grid(bh, qx, qy)
            # row chunks as bz_scan takes them (one chunk at these sizes),
            # then shorter ones, of which the last is short
            rows = rows or max(1, GRID_CHUNK_ENTRIES // (len(qy) * 6 ** 2))
            for start in range(0, len(qx), rows):
                got = _grid_blocks(bh, qx[start:start + rows], qy)
                assert got.shape == (2, len(qx[start:start + rows]), len(qy), 3, 3)
                assert np.max(np.abs(got - want[:, start:start + rows])) <= bound

    def test_zero_entries_are_exact(self):
        # the entries that the generators leave zero stay exactly zero
        for name, params in YAO_LEE_PARAMS:
            bh = build_model(name, params)
            qx, qy = _kitaev_window_axes(40, 24)
            got, want = _grid_blocks(bh, qx, qy), _pointwise_grid(bh, qx, qy)
            np.testing.assert_array_equal(got == 0, want == 0)

    def test_refuses_the_couplings_the_generators_refuse(self, rng):
        # signed couplings of 5e306 to 6e307, under half the double range
        # (see _a_grids): over the q* window and over the zone some grids
        # overflow in B, some in B' only, some not at all
        seen, built = set(), 0
        for name in ("yao-lee-ep4", "yao-lee-ep3"):
            for scale in (1e307, 2e307, 3e307):
                for _ in range(16):
                    signs = rng.choice([-1.0, 1.0], len(YAO_LEE_COUPLINGS))
                    params = dict(zip(YAO_LEE_COUPLINGS,
                                      scale * rng.uniform(0.5, 2.0, len(signs)) * signs))
                    params.update(jt=abs(params["jt"]), phi=rng.uniform(0.1, 1.2))
                    if name == "yao-lee-ep3":
                        params["z2"] = 0.0
                    bh = outcome(lambda: build_model(name, params))
                    if isinstance(bh, tuple):
                        # refused at construction: the blocks at q* overflow,
                        # or the sub-block there changes its kind
                        continue
                    built += 1
                    for qx, qy in (_yao_lee_window_axes(bh, (64, 64)),
                                   _kitaev_window_axes(64, 48)):
                        _assert_overflow_as_generators(bh, qx, qy)
                        got = outcome(lambda: _grid_blocks(bh, qx, qy) is not None)
                        assert got == outcome(lambda: _pointwise_grid(bh, qx, qy)
                                              is not None)
                        seen.add(got if got is True else got[1])
        assert built >= 40
        assert seen == {True, "B(q) returned non-finite entries",
                        "B'(q) returned non-finite entries"}

    def test_entries_are_summed_in_the_generators_order(self):
        # A~'(q) = (A~(q) + zp1 g(q)) + zp2 h(-q): here the first sum
        # overflows at points of the zone where the whole would not
        bh = yao_lee_ep4_model(
            jt=3.877232928092327e307, phi=0.47384563363410215,
            z1=-1.685390313317694e307, z2=-3.6554648914543663e307,
            zp1=3.2796716932983755e307, zp2=2.5816502414520153e307,
            j01=-2.8470220554584044e307, j02=2.781772604839505e307,
            j03=3.54487362482518e307)
        _assert_overflow_as_generators(bh, *_kitaev_window_axes(64, 48))


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

    def test_zero_line_is_diabolic(self):
        # on the line qx = q*_x both B and B' are singular, each with a
        # trivial zero mode
        bh = yao_lee_ep3_model()
        q = bh.q_star + np.array([0.0, 0.2])
        result = classify_point(bh.b(q), bh.b_prime(q))
        assert result.kind is EPKind.DIABOLIC
        assert result.evidence["jordan_blocks_at_zero"] == [1, 1]

    def test_mirror_coupling_needs_pure_x_hopping(self):
        with pytest.raises(ParamViolationError):
            yao_lee_ep3_model(z2=0.05)

    def test_sub_block_refusal_names_the_expected_kind(self):
        with pytest.raises(ParamViolationError,
                           match="classifies as DoubletEP2, expected EP4;"):
            yao_lee_ep4_model(z1=0.0)

    def test_hermitian_phi_rejected(self):
        with pytest.raises(ParamViolationError):
            yao_lee_ep4_model(phi=0.0)


def reference_yao_lee_blocks(name, jt=1.0, phi=0.3, z1=0.1, z2=0.0, zp1=0.1,
                             zp2=0.0, j01=3.0, j02=1.0, j03=1.0):
    """B and B' of the six-band models as they were built before each
    generator call converted its momenta to reciprocal coordinates once
    (six times per call for yao-lee-ep4); kept as the bitwise reference."""
    c2r = cartesian_to_reciprocal

    def a_tilde(q, j1, j2, j3, phi1, phi2):
        qt = c2r(q)
        return 2.0 * (j1 * np.exp(1j * (qt[..., 0] + phi1))
                      + j2 * np.exp(1j * (qt[..., 1] + phi2)) + j3)

    qt_star = np.array([2 * np.pi / 3 - phi, -2 * np.pi / 3])
    q_star = reciprocal_to_cartesian(qt_star)
    g2 = np.exp(1j * qt_star[1])
    h1 = np.exp(-1j * (qt_star[0] + phi))

    def g(q):
        return np.exp(1j * (c2r(q)[..., 0] + phi)) + g2 + 1.0

    def h(q):
        return h1 + np.exp(1j * c2r(q)[..., 1]) + 1.0

    def upper(q):
        a = a_tilde(q, jt, jt, jt, phi, 0.0)
        if name == "yao-lee-ep4":
            w = z1 * g(-q) + z2 * h(q)
            return [[a, w], [0.0, a + zp1 * g(q) + zp2 * h(-q)]]
        mirrored = np.stack([q[..., 0], 2 * q_star[1] - q[..., 1]], axis=-1)
        w_top = z1 * g(-q) + z2 * h(q) + (z1 * g(-mirrored) + z2 * h(mirrored))
        return [[a, w_top], [zp1 * g(q) + zp2 * h(-q), 0.0]]

    def block(q):
        (a, b), (c, d) = upper(q)
        a0 = a_tilde(q, j01, j02, j03, 0.0, 0.0)
        return models._matrix([[a, b, 0.0], [c, d, 0.0], [0.0, 0.0, a0]])

    return block, lambda q: np.swapaxes(block(-q), -1, -2)


class TestYaoLeeGenerators:
    @pytest.mark.parametrize("name,params", [
        ("yao-lee-ep4", {}),
        ("yao-lee-ep4", {"phi": -0.7, "z2": 0.05, "zp2": -0.2, "jt": 1.3}),
        ("yao-lee-ep3", {}),
        ("yao-lee-ep3", {"phi": 0.45, "z1": 0.2, "zp1": -0.1, "zp2": 0.3})])
    def test_bits_as_with_six_conversions_per_call(self, name, params, rng):
        bh = build_model(name, params)
        reference = reference_yao_lee_blocks(name, **params)
        shapes = [(2,), (1, 5, 2), (7, 5, 2), (64, 64, 2), (3, 2)]
        arrays = [rng.uniform(-5.0, 5.0, shape) for shape in shapes * 10]
        # signed zeros, where -q~(q) and q~(-q) could differ in sign
        arrays.append(np.array([[0.0, -1.5], [-0.0, 1.5], [0.0, 0.0],
                                [-0.0, -0.0], [2.0, 0.0], [-2.0, -0.0],
                                bh.q_star, -bh.q_star]))
        for q in arrays:
            for got, want in zip((bh.block, bh.block_prime), reference):
                assert_same_bits(got(q), want(q))
