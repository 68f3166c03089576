import itertools
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from epkit import analysis, cli
from epkit.analysis import (
    BOUNDED,
    CONVERGES,
    _max_weight_assignment,
    bz_scan,
    coalescence_profile,
    path_scan,
    quantum_distance,
    scaling_exponent,
)
from epkit.classify import EPKind, classify_point
from epkit.cmatrix import DEFAULT_TOL
from epkit.errors import (
    CrossCheckMismatchError,
    DimensionTooLargeError,
    NoiseFloorReachedError,
    NonFiniteError,
    ZeroVectorError,
)
from epkit.models import (
    MODEL_CATALOG,
    build_model,
    cartesian_to_reciprocal,
    ep4_sqrt_model,
    kitaev_ep_locations,
    kitaev_model,
    reciprocal_to_cartesian,
    zero_targets,
)
from epkit.sublattice import (BlockHamiltonian, _grid_blocks, _pow2_scales,
                              _spectra, pow2_scale, reduced_spectrum)

from bz_sweep import CATALOG_GRIDS
from conftest import (assert_same_bits, plant_counts, planted_kinds,
                      random_conditioned, rising_chains, rising_model)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
KITAEV_BOUNDS = ((-np.pi, np.pi), (-np.sqrt(3) * np.pi, np.sqrt(3) * np.pi))


def counting_generators(bh):
    """Copy of bh whose generators record the shape of every q passed in."""
    shapes = {"B": [], "B'": []}

    def counted(fn, label):
        def wrapper(q):
            shapes[label].append(q.shape)
            return fn(q)
        return wrapper

    return replace(bh, block=counted(bh.block, "B"),
                   block_prime=counted(bh.block_prime, "B'")), shapes


def counting_solver(monkeypatch):
    """The weights of every _max_weight_assignment call that path_scan
    makes from now on, in order."""
    calls = []
    solve = analysis._max_weight_assignment

    def counted(w):
        calls.append(np.array(w))
        return solve(w)

    monkeypatch.setattr(analysis, "_max_weight_assignment", counted)
    return calls


def counting_det(monkeypatch):
    """The shapes of every np.linalg.det call from now on, in order."""
    shapes = []
    det = np.linalg.det

    def counted(a):
        shapes.append(np.shape(a))
        return det(a)

    monkeypatch.setattr(np.linalg, "det", counted)
    return shapes


def loop_minima(sig, threshold):
    """Grid local minima by the per-point double loop bz_scan used before
    it was vectorised; kept as the reference."""
    nx, ny = sig.shape
    minima = []
    for i in range(nx):
        for j in range(ny):
            v = sig[i, j]
            if v > threshold:
                continue
            neighborhood = sig[max(0, i - 1):i + 2, max(0, j - 1):j + 2]
            if v <= np.min(neighborhood):
                minima.append((i, j))
    return minima


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

    def test_scale_free(self, rng):
        # both vectors are divided by the power of two above their peak
        # modulus, which is exact
        for _ in range(20):
            u, v = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
            want = quantum_distance(u, v)
            for k in (-1000, -60, 1, 60, 1000):
                got = quantum_distance(u * 2.0 ** k, v * 2.0 ** -k)
                assert np.float64(got).tobytes() == np.float64(want).tobytes()
            for c in (1e200, 1e-200):
                assert quantum_distance(c * u, v) == pytest.approx(want, abs=1e-14)
        # unscaled, these read 2.0 after an overflow and ZeroVectorError
        assert quantum_distance([1e200, 0.0], [1.0, 0.0]) == 0.0
        assert quantum_distance([1e-200, 0.0], [0.0, 1e-200]) == 2.0
        assert quantum_distance([5e-324, 0.0], [1.0, 0.0]) == 0.0

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0, np.inf)])
    def test_non_finite_vector_refused(self, bad):
        with pytest.raises(NonFiniteError):
            quantum_distance([bad, 0.0], [1.0, 0.0])
        with pytest.raises(NonFiniteError):
            quantum_distance([1.0, 0.0], [1.0, bad])

    def test_partner_pair_equidistant_from_zero_modes(self, rng):
        # (psi, chi) and its sublattice partner (psi, -chi) see any zero
        # mode (which has support on only one sublattice) at identical
        # distance
        bh = build_model("ep3")
        targets = zero_targets(bh)
        for r in (1e-3, 1e-5):
            q = bh.q_star + np.array([r, 0.0])
            _, states = reduced_spectrum(bh.b(q), bh.b_prime(q))
            for row in states:
                partner = np.concatenate([row[:2], -row[2:]])
                for _, t in targets:
                    d1 = quantum_distance(row, t)
                    d2 = quantum_distance(partner, t)
                    assert abs(d1 - d2) <= 1e-10


def assignment_value(w, perm):
    return float(np.sum(w[np.arange(len(perm)), perm]))


def assert_permutation(perm, n):
    assert sorted(np.asarray(perm).tolist()) == list(range(n))


def weight_matrices(rng, n):
    """Random weights of size n: continuous, small integers (many exact
    ties), identical rows (every row maximum in one column) and constant."""
    yield rng.random((n, n))
    yield rng.integers(0, 3, (n, n)).astype(float)
    yield np.tile(rng.random(n), (n, 1))
    yield np.full((n, n), 0.5)


def random_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def overlap_matrix(prev_states, new_states):
    """|<prev[i] | new[j]>|, as branch matching weighs the states."""
    return np.abs(prev_states.conj() @ new_states.T)


def scipy_match_branches(prev_states, new_states):
    """Branch matching as it was with scipy's solver; the reference."""
    linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
    overlap = overlap_matrix(prev_states, new_states)
    rows, cols = linear_sum_assignment(-overlap)
    perm = np.empty(len(cols), dtype=int)
    perm[rows] = cols
    return perm, float(np.min(overlap[rows, cols]))


class TestAssignment:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_against_brute_force(self, rng, n):
        perms = [list(p) for p in itertools.permutations(range(n))]
        for _ in range(5):
            for w in weight_matrices(rng, n):
                perm = _max_weight_assignment(w)
                assert_permutation(perm, n)
                best = max(assignment_value(w, p) for p in perms)
                assert assignment_value(w, perm) == pytest.approx(best, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 16, 24, 31, 32])
    def test_against_scipy(self, rng, n):
        linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
        for _ in range(3):
            for w in weight_matrices(rng, n):
                perm = _max_weight_assignment(w)
                assert_permutation(perm, n)
                rows, cols = linear_sum_assignment(-w)
                assert assignment_value(w, perm) == pytest.approx(
                    float(np.sum(w[rows, cols])), abs=1e-12 * n)

    def test_distinct_row_maxima_are_the_answer(self, rng):
        target = rng.permutation(8)
        w = rng.random((8, 8))
        w[np.arange(8), target] += 1.0
        assert list(_max_weight_assignment(w)) == list(target)

    @pytest.mark.parametrize("w,expected", [
        ([[10.0, 9.0], [10.0, 1.0]], [1, 0]),
        ([[5.0, 4.0, 0.0], [5.0, 0.0, 3.0], [5.0, 1.0, 1.0]], [1, 2, 0]),
        ([[1.0, 0.9, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
          [0.0, 0.0, 1.0, 0.9], [0.0, 0.0, 1.0, 0.0]], [1, 0, 3, 2]),
    ])
    def test_colliding_row_maxima_are_solved(self, w, expected):
        w = np.array(w)
        assert len(set(np.argmax(w, axis=1).tolist())) < len(w)
        assert list(_max_weight_assignment(w)) == expected

    @pytest.mark.parametrize("w", [
        np.ones((2, 3)),
        np.ones(4),
        np.array([[1.0, np.nan], [0.0, 1.0]]),
        np.array([[np.inf, 0.0], [0.0, 1.0]]),
    ])
    def test_rejects_bad_weights(self, w):
        with pytest.raises(ValueError):
            _max_weight_assignment(w)

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 12, 16, 32])
    def test_match_branches_as_with_scipy(self, rng, n):
        for _ in range(5):
            prev = random_unitary(rng, n)
            # a nearby rotated basis (row maxima distinct) and an unrelated
            # one (row maxima collide for n > 2 in most draws)
            near = prev + 1e-2 * random_unitary(rng, n)
            for new in (near[rng.permutation(n)], random_unitary(rng, n)):
                overlap = overlap_matrix(prev, new)
                perm = _max_weight_assignment(overlap)
                worst = float(overlap[np.arange(n), perm].min())
                ref_perm, ref_worst = scipy_match_branches(prev, new)
                assert list(perm) == list(ref_perm)
                assert worst == ref_worst


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

    @pytest.mark.parametrize("arg, kwargs", [
        ("radii", {"radii": [1e-2, np.nan, 1e-4, 1e-5]}),
        ("radii", {"radii": [np.inf, 1e-3, 1e-4, 1e-5]}),
        ("theta", {"theta": np.nan}),
        ("theta", {"theta": np.inf}),
        ("q_star", {"q_star": (np.nan, 0.0)}),
    ], ids=["nan-radius", "inf-radius", "nan-theta", "inf-theta", "nan-q_star"])
    def test_non_finite_input_refused(self, arg, kwargs):
        # refused up front, not blamed on the model's generators
        bh = ep4_sqrt_model()
        call = {"q_star": bh.q_star, "theta": 0.0,
                "radii": [1e-2, 1e-3, 1e-4, 1e-5], **kwargs}
        with pytest.raises(ValueError, match=arg):
            path_scan(bh, call["q_star"], call["theta"], call["radii"])

    @pytest.mark.parametrize("tol", [-1.0, 0.0, np.nan])
    def test_tol_refused_before_the_generators_run(self, tol):
        calls = []
        bh = ep4_sqrt_model()
        counted = replace(bh, block=lambda q: calls.append(q) or bh.block(q))
        with pytest.raises(ValueError, match="^tol must be positive$"):
            path_scan(counted, bh.q_star, 0.0, tol=tol)
        assert calls == []

    def test_continuation_is_permutation_consistent(self):
        bh = build_model("ep3")
        scan = path_scan(bh, bh.q_star, np.pi / 2, tol=1e-13)
        for k in range(1, len(scan.radii)):
            prev, new = scan.states[:, k - 1], scan.states[:, k]
            fwd = _max_weight_assignment(overlap_matrix(prev, new))
            bwd = _max_weight_assignment(overlap_matrix(new, prev))
            assert list(fwd) == list(range(scan.n_branches))
            assert list(bwd) == list(range(scan.n_branches))

    def test_generators_called_once_per_ray(self):
        bh, shapes = counting_generators(ep4_sqrt_model())
        path_scan(bh, bh.q_star, 0.7)
        assert shapes == {"B": [(12, 2)], "B'": [(12, 2)]}

    def test_overlap_quality(self):
        bh = ep4_sqrt_model()
        scan = path_scan(bh, bh.q_star, 0.7)
        assert scan.min_overlap > 0.9
        assert scan.branch_switches == []

    def test_solver_runs_only_where_row_maxima_collide(self, monkeypatch):
        calls = counting_solver(monkeypatch)
        bh = ep4_sqrt_model()
        path_scan(bh, bh.q_star, 0.7)
        assert calls == []
        # the four yao-lee-ep4 states that coalesce at q* are nearly
        # parallel along the ray, so the row maxima of all 11 steps collide
        bh = build_model("yao-lee-ep4")
        scan = path_scan(bh, bh.q_star, 0.0, analysis.DEFAULT_RADII, tol=1e-9)
        assert len(scan.radii) == 12 and len(calls) == 11
        for w in calls:
            assert len(set(w.argmax(axis=1).tolist())) < len(w)

    def test_degenerate_radii_skipped(self):
        # along theta = pi/2 the quadratic branch of the mixed model falls
        # below the default zero cutoff at small radii
        bh = build_model("ep3")
        scan = path_scan(bh, bh.q_star, np.pi / 2)
        assert len(scan.skipped_radii) > 0
        assert len(scan.radii) + len(scan.skipped_radii) == 12


def reference_path_scan(bh, q_star, theta, radii=None, tol=DEFAULT_TOL):
    """path_scan as it was before a ray became one batched pass: one
    reduced_spectrum call per radius and one overlap product per step;
    kept as the bitwise reference."""
    qs = np.asarray(q_star, dtype=float).reshape(2)
    r_all = analysis._validate_radii(analysis.DEFAULT_RADII if radii is None else radii)
    direction = np.array([np.cos(theta), np.sin(theta)])
    two_n = 2 * bh.n
    ray = qs + r_all[:, None] * direction
    kept_radii, kept_energies, kept_states, skipped = [], [], [], []
    for r, b, bp in zip(r_all, bh.b(ray), bh.b_prime(ray)):
        energies, states = reduced_spectrum(b, bp, tol)
        if len(energies) != two_n:
            skipped.append(float(r))
            continue
        kept_radii.append(float(r))
        kept_energies.append(energies)
        kept_states.append(states)
    if len(kept_radii) < 2:
        raise NoiseFloorReachedError("fewer than two usable radii in the scan")
    energies = np.empty((two_n, len(kept_radii)), dtype=np.complex128)
    vectors = np.empty((two_n, len(kept_radii), two_n), dtype=np.complex128)
    energies[:, 0] = kept_energies[0]
    vectors[:, 0] = kept_states[0]
    min_overlap = 1.0
    switches = []
    for k in range(1, len(kept_radii)):
        overlap = overlap_matrix(vectors[:, k - 1], kept_states[k])
        perm = _max_weight_assignment(overlap)
        worst = float(overlap[np.arange(len(perm)), perm].min())
        energies[:, k] = kept_energies[k][perm]
        vectors[:, k] = kept_states[k][perm]
        min_overlap = min(min_overlap, worst)
        if worst < 0.9:
            switches.append({"radius": kept_radii[k], "overlap": worst})
    return analysis.PathScan(qs, float(theta), np.array(kept_radii), energies,
                             vectors, skipped, switches, min_overlap)


def assert_same_scan(got, want):
    """Every field of two scans equal, arrays to the last bit."""
    for name in ("q_star", "radii", "energies", "states"):
        assert_same_bits(getattr(got, name), getattr(want, name))
    assert got.theta == want.theta
    assert got.skipped_radii == want.skipped_radii
    assert all(type(r) is float for r in got.skipped_radii)
    assert got.branch_switches == want.branch_switches
    assert got.min_overlap == want.min_overlap


def scaled_model(bh, factor):
    """bh with both generators, and its grid form if any, multiplied by
    ``factor``."""
    grid = None if bh.grid is None else lambda qx, qy: factor * bh.grid(qx, qy)
    return replace(bh, block=lambda q: factor * bh.block(q),
                   block_prime=lambda q: factor * bh.block_prime(q), grid=grid)


RADIUS_GRIDS = [analysis.DEFAULT_RADII, np.geomspace(3e-2, 1e-6, 48)]
CATALOG_WITH_POINT = sorted(
    name for name in MODEL_CATALOG if build_model(name).q_star is not None)


class TestPathScanMatchesReference:
    """The batched ray gives the bits of the per-radius reference."""

    def check(self, bh, q_star, theta, radii=None, tol=DEFAULT_TOL):
        scan = path_scan(bh, q_star, theta, radii, tol=tol)
        assert_same_scan(scan, reference_path_scan(bh, q_star, theta, radii, tol))
        return scan

    @pytest.mark.parametrize("name", CATALOG_WITH_POINT)
    def test_catalog_rays(self, name):
        bh = build_model(name)
        for theta, tol, radii in itertools.product(
                (0.0, 0.7, np.pi / 2, 2.5, 4.0), (1e-9, 1e-13), RADIUS_GRIDS):
            self.check(bh, bh.q_star, theta, radii, tol)

    def test_skipped_radii(self):
        bh = build_model("ep3")
        scan = self.check(bh, bh.q_star, np.pi / 2, tol=1e-9)
        assert len(scan.skipped_radii) > 0

    def test_dropped_pairs_read_in_one_pass(self):
        # 33 of the 48 radii drop an eigenvalue of B'B, and their zero
        # modes come from one stacked reading; 25 radii are left with 3
        # states and skipped
        bh = build_model("ep3")
        theta, radii, tol = np.pi / 2, RADIUS_GRIDS[1], 1e-6
        scan = self.check(bh, bh.q_star, theta, radii, tol)
        assert len(scan.skipped_radii) == 25
        ray = bh.q_star + radii[:, None] * [np.cos(theta), np.sin(theta)]
        b, bp = bh.b(ray), bh.b_prime(ray)
        energies, states, owner, scales = _spectra(b, bp, tol)
        assert len(np.unique(owner[energies == 0])) == 33
        alone = [reduced_spectrum(*pair, tol) for pair in zip(b, bp)]
        assert_same_bits(owner, np.repeat(np.arange(48), [len(e) for e, _ in alone]))
        assert_same_bits(energies, np.concatenate([e for e, _ in alone]))
        assert_same_bits(states, np.concatenate([s for _, s in alone]))
        # the pair scales the products were divided by; the scan keeps
        # the largest
        assert_same_bits(scales, np.array([pow2_scale(*pair) for pair in zip(b, bp)]))
        assert scan.scale == scales.max()

    def test_each_radius_keeps_its_own_scale_and_cutoff(self):
        # the blocks at radius r are 2^e(r) (I, diag(r^2, 1e-8 r^2)) with
        # e(r) from -500 to 620: one power of two for the whole ray would
        # underflow the products at the small radii, and one cutoff for the
        # whole ray would drop their small eigenvalue
        def magnitude(q):
            e = np.rint(250 * (np.log10(q[..., 0]) + 4)).astype(int)
            return np.ldexp(1.0, e)[..., None, None]

        def block(q):
            return magnitude(q) * np.eye(2)

        def block_prime(q):
            return magnitude(q) * q[..., 0, None, None] ** 2 * np.diag([1.0, 1e-8])

        bh = BlockHamiltonian(2, block, block_prime)
        scan = self.check(bh, (0.0, 0.0), 0.0, RADIUS_GRIDS[1])
        assert scan.skipped_radii == [] and np.all(scan.energies != 0.0)

    def test_zero_modes_alone_fill_a_radius(self):
        # B = B' = (qx - r0) I vanishes at r0, where the four kernel-built
        # zero modes are the whole spectrum
        r0 = analysis.DEFAULT_RADII[5]

        def block(q):
            return (q[..., 0, None, None] - r0) * np.eye(2)

        bh = BlockHamiltonian(2, block, block)
        scan = self.check(bh, (0.0, 0.0), 0.0)
        k0 = list(scan.radii).index(r0)
        assert np.all(scan.energies[:, k0] == 0.0)
        assert np.all(scan.energies[:, np.arange(len(scan.radii)) != k0] != 0.0)

    def test_fewer_than_two_radii_refused(self):
        bh = BlockHamiltonian(2, lambda q: np.zeros((2, 2)),
                              lambda q: np.diag([1.0, 0.0]))
        for scan in (path_scan, reference_path_scan):
            with pytest.raises(NoiseFloorReachedError):
                scan(bh, (0.0, 0.0), 0.0)

    def test_overlaps_rounded_above_one(self):
        # B = 1, B' = 2 on the whole ray: the states repeat exactly and every
        # matched overlap rounds to 1 + 2^-52, but the worst overlap reads
        # 1.0, the value it starts from
        bh = BlockHamiltonian(1, lambda q: np.ones((1, 1)),
                              lambda q: np.full((1, 1), 2.0))
        scan = self.check(bh, (0.0, 0.0), 0.0)
        states = scan.states[0]
        assert np.all(np.abs(np.sum(states[:-1].conj() * states[1:], axis=1)) > 1.0)
        assert scan.min_overlap == 1.0

    def test_switch_and_colliding_maxima(self, monkeypatch):
        # B = [[1, 1], [r, 1]] has an EP2 at r = 0: its eigenvectors
        # (1, +-sqrt(r)) nearly coincide. Its basis turns by 0.3 rad below
        # r = 3e-3, where the two nearly parallel +E rows find their maxima
        # in one column but every matched overlap stays above 0.9, and by
        # 0.7 rad more below r = 3e-5, where the matched overlaps drop to
        # about cos(0.7)
        def block(q):
            r = q[..., 0]
            angle = np.where(r < 3e-3, 0.3, 0.0) + np.where(r < 3e-5, 0.7, 0.0)
            c, s = np.cos(angle), np.sin(angle)
            turn = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
            ep2 = np.array([[1.0, 1.0], [0.0, 1.0]]) + r[..., None, None] * np.array(
                [[0.0, 0.0], [1.0, 0.0]])
            return turn @ ep2 @ turn.swapaxes(-1, -2)

        bh = BlockHamiltonian(2, block, lambda q: np.eye(2))
        calls = counting_solver(monkeypatch)
        scan = self.check(bh, (0.0, 0.0), 0.0, tol=1e-9)
        # path_scan's solver calls, the step below 3e-3, then the one
        # below 3e-5 (reference_path_scan calls the solver unpatched)
        assert len(calls) == 2
        for w in calls:
            assert len(set(w.argmax(axis=1).tolist())) < len(w)
        first = calls[0][np.arange(4), _max_weight_assignment(calls[0])]
        assert first.min() > 0.9
        radii = analysis.DEFAULT_RADII
        assert [s["radius"] for s in scan.branch_switches] == [radii[radii < 3e-5][0]]
        assert scan.min_overlap < 0.9
        assert scan.min_overlap == scan.branch_switches[0]["overlap"]


def test_path_scan_refuses_blocks_over_the_cap():
    bh = BlockHamiltonian(17, lambda q: np.eye(17), lambda q: 2.0 * np.eye(17))
    with pytest.raises(DimensionTooLargeError, match="dimension 17 exceeds the cap of 16"):
        path_scan(bh, (0.0, 0.0), 0.3)


class TestPathScanScale:
    @pytest.mark.parametrize("name", ["ep4-sqrt", "doublet-ep2", "yao-lee-ep4"])
    @pytest.mark.parametrize("k", [-900, 900])
    def test_power_of_two_scale_is_exact(self, name, k):
        # each radius is divided by its own power of two, so the pair
        # (2^k B, 2^k B') neither overflows nor underflows and scales the
        # energies exactly, keeping every state bit
        bh = build_model(name)
        for theta in (0.0, 0.7):
            ref = path_scan(bh, bh.q_star, theta, RADIUS_GRIDS[1], tol=1e-13)
            assert np.all(ref.energies != 0.0)  # no kernel-built zero modes
            scan = path_scan(scaled_model(bh, 2.0 ** k), bh.q_star, theta,
                             RADIUS_GRIDS[1], tol=1e-13)
            assert np.array_equal(scan.energies, 2.0 ** k * ref.energies)
            assert_same_bits(scan.states, ref.states)
            assert scan.radii.tolist() == ref.radii.tolist()

    def test_energies_out_of_range_raise(self):
        # |E| overflows at the largest radius only: the scan refuses the
        # ray instead of returning NaN rows
        m = np.array([[1.0, 1.0], [1.0, -1.0]])

        def block(q):
            return 1.5e308 * (q[..., 0, None, None] / 1e-2) * m

        bh = BlockHamiltonian(2, block, block)
        with pytest.raises(NonFiniteError):
            path_scan(bh, (0.0, 0.0), 0.0)
        scan = path_scan(bh, (0.0, 0.0), 0.0, analysis.DEFAULT_RADII[1:])
        assert np.all(np.isfinite(scan.energies)) and np.all(np.isfinite(scan.states))


CLI_SCAN_CONFIGS = sorted(CONFIG_DIR.glob("path-scan-*.cfg")) + sorted(
    CONFIG_DIR.glob("fit-*.cfg"))


@pytest.mark.parametrize("config", CLI_SCAN_CONFIGS, ids=lambda p: p.stem)
def test_cli_bytes_as_with_reference_scan(config, tmp_path, monkeypatch):
    """Every shipped path-scan and fit config writes the same bytes, CSV
    and JSON, with the batched path_scan and with the reference."""
    command = "path-scan" if config.stem.startswith("path-scan") else "fit"

    def outputs(tag):
        written = []
        for extra in ([], ["--json"]):
            out = tmp_path / f"{tag}{len(written)}.out"
            code = cli.main([command, "--config", str(config), *extra,
                             "--out", str(out)])
            written.append((code, out.read_bytes()))
        return written

    batched = outputs("batched")
    monkeypatch.setattr(analysis, "path_scan", reference_path_scan)
    assert outputs("reference") == batched


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


    def test_target_scale_is_free(self):
        bh = ep4_sqrt_model()
        scan = path_scan(bh, bh.q_star, 0.0)
        targets = zero_targets(bh)
        want = coalescence_profile(scan, targets)
        for k in (-1000, -300, 7, 300, 1000):
            got = coalescence_profile(
                scan, [(label, np.asarray(v) * 2.0 ** k) for label, v in targets])
            assert_same_bits(got.distances, want.distances)
        for c in (1e200, 1e-200):
            got = coalescence_profile(scan, [(label, c * np.asarray(v))
                                             for label, v in targets])
            # unscaled, these read BoundedAway and ZeroVectorError
            assert got.verdicts.tolist() == want.verdicts.tolist()
            assert np.all(got.verdicts == CONVERGES)
            np.testing.assert_allclose(got.distances, want.distances, atol=1e-14)

    def test_non_finite_target_refused(self):
        bh = build_model("ep3")
        scan = path_scan(bh, bh.q_star, 0.0)
        with pytest.raises(NonFiniteError):
            coalescence_profile(scan, [("inf", [np.inf, 0.0, 0.0, 0.0])])

    def test_zero_target_raises(self):
        bh = build_model("ep3")
        scan = path_scan(bh, bh.q_star, 0.0)
        with pytest.raises(ZeroVectorError):
            coalescence_profile(scan, zero_targets(bh) + [("zero", np.zeros(4))])


def reference_quantum_distance(u, v):
    """quantum_distance as it was, one pair of vectors at a time."""
    u = np.asarray(u, dtype=np.complex128).reshape(-1)
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu < 1e-150 or nv < 1e-150:
        raise ZeroVectorError("quantum distance of a zero vector is undefined")
    overlap = abs(np.vdot(u, v)) / (nu * nv)
    return float(min(2.0, max(0.0, 2.0 - 2.0 * overlap)))


def reference_coalescence_profile(scan, targets, converge_threshold=1e-3,
                                  bounded_threshold=0.05):
    """coalescence_profile as it was: a loop over branches, radii and
    targets, then over the verdicts; kept as the bitwise reference.
    Returns (distances, verdicts)."""
    tvecs = np.array([np.asarray(v, dtype=np.complex128) for _, v in targets])
    nb, nr = scan.energies.shape
    nt = len(targets)
    dist = np.empty((nb, nr, nt))
    for b in range(nb):
        for k in range(nr):
            for t in range(nt):
                dist[b, k, t] = reference_quantum_distance(scan.states[b, k], tvecs[t])
    verdicts = np.empty((nb, nt), dtype=object)
    for b in range(nb):
        for t in range(nt):
            tail = dist[b, -3:, t]
            final = dist[b, -1, t]
            if final < converge_threshold and np.all(np.diff(tail) <= 0):
                verdicts[b, t] = CONVERGES
            elif final > bounded_threshold:
                verdicts[b, t] = BOUNDED
            else:
                verdicts[b, t] = analysis.INDETERMINATE
    return dist, verdicts


class TestCoalescenceMatchesReference:
    """One overlap product and array masks give the bits and verdicts of
    the per-pair loop."""

    def check(self, scan, targets, **thresholds):
        profile = coalescence_profile(scan, targets, **thresholds)
        dist, verdicts = reference_coalescence_profile(scan, targets, **thresholds)
        assert profile.distances.shape == dist.shape
        assert profile.distances.tobytes() == dist.tobytes()
        assert profile.verdicts.tolist() == verdicts.tolist()
        assert all(type(v) is str for v in profile.verdicts.ravel())

    @pytest.mark.parametrize("name", ["doublet-ep2", "ep3", "ep4-quartic",
                                      "ep4-sqrt", "yao-lee-ep3", "yao-lee-ep4"])
    def test_catalog_rays(self, name):
        bh = build_model(name)
        for theta in (0.0, 0.7, np.pi / 2, 4.0):
            scan = path_scan(bh, bh.q_star, theta, tol=1e-13)
            self.check(scan, zero_targets(bh))
            # thresholds that put many pairs in each verdict
            self.check(scan, zero_targets(bh), converge_threshold=0.5,
                       bounded_threshold=0.6)

    def test_zero_mode_radii(self):
        bh = build_model("ep3")
        scan = path_scan(bh, bh.q_star, np.pi / 2, tol=1e-9)
        assert len(scan.skipped_radii) == 5
        self.check(scan, zero_targets(bh))

    def test_hermitian_kitaev_point(self):
        bh = kitaev_model()
        scan = path_scan(bh, bh.q_star, 0.3)
        assert zero_targets(bh) == []  # the known "Nondegenerate" defect
        self.check(scan, [])
        self.check(scan, [("a", [1.0, 0.0]), ("b", [1.0, 1j]), ("c", [0.3, -2.0])])

    def test_random_tails(self, rng):
        # states at random distances straddling both thresholds, so every
        # verdict and every shape of the last three samples occurs
        targets = [("e1", [1.0, 0, 0, 0]), ("e2", [0, 0.6, 0.8j, 0])]
        noise = rng.standard_normal((60, 6, 4)) + 1j * rng.standard_normal((60, 6, 4))
        noise *= 10.0 ** rng.uniform(-3.5, -0.5, (60, 6, 1))
        states = np.array(targets[0][1]) + noise
        scan = analysis.PathScan(np.zeros(2), 0.0, np.geomspace(1e-2, 1e-6, 6),
                                 np.ones((60, 6), dtype=complex), states)
        self.check(scan, targets)
        verdicts = coalescence_profile(scan, targets).verdicts[:, 0]
        assert {CONVERGES, BOUNDED, analysis.INDETERMINATE} <= set(verdicts)

    def test_single_pairs(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 9))
            u, v = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
            for w in (v, u * (0.3 - 0.4j)):
                got = quantum_distance(u, w)
                assert np.float64(got).tobytes() == np.float64(
                    reference_quantum_distance(u, w)).tobytes()


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

    @pytest.mark.parametrize("name", ["ep4-sqrt", "ep3"])
    def test_floor_in_units_of_the_ray_scale(self, name):
        # with the blocks scaled by 1e-14 every ep4-sqrt energy fell under
        # the absolute floor 1e-12; at 1e-10 the last ep3 radii did
        bh = build_model(name)
        fits = {}
        for c in (1.0, 1e-10, 1e-14, 2.0 ** -60):
            scaled = replace(bh, block=lambda q, f=bh.b: c * f(q),
                             block_prime=lambda q, f=bh.b_prime: c * f(q))
            scan = path_scan(scaled, bh.q_star, 0.0)
            assert scan.scale == pow2_scale(scaled.b(bh.q_star + [1e-2, 0.0]),
                                            scaled.b_prime(bh.q_star + [1e-2, 0.0]))
            fits[c] = [scaling_exponent(scan, b)[0] for b in range(scan.n_branches)]
        for got in fits.values():
            np.testing.assert_allclose(got, fits[1.0], rtol=0, atol=1e-6)

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


def kitaev_zeros(window, *couplings):
    """Every zero of A(q) or A(-q) inside the window: the closed-form
    locations, their reciprocal-lattice translates and their negatives."""
    (x0, x1), (y0, y1) = window
    zeros = []
    for q in kitaev_ep_locations(*couplings):
        qt = cartesian_to_reciprocal(q)
        for n in itertools.product(range(-3, 4), repeat=2):
            for sign in (1.0, -1.0):
                z = sign * reciprocal_to_cartesian(qt + 2 * np.pi * np.array(n))
                if x0 <= z[0] <= x1 and y0 <= z[1] <= y1:
                    zeros.append(z)
    return zeros


def reference_newton_roots(det, starts, lo, hi):
    """_newton_roots as it was before starts stopped on a stalled step;
    kept as the bitwise reference."""
    eps = np.finfo(float).eps
    h = np.cbrt(eps) * np.max(hi - lo)
    resolution = eps * np.max(np.abs([lo, hi]))
    offsets = np.array([[0.0, 0.0], [h, 0.0], [-h, 0.0], [0.0, h], [0.0, -h]])
    q = np.array(starts, dtype=float)
    active = np.arange(len(q))
    for _ in range(analysis.NEWTON_STEPS):
        if not len(active):
            break
        points = q[active, None] + offsets
        f = det(points)
        slope = (f[:, [1, 3]] - f[:, [2, 4]]) / (2 * h)
        jac = np.stack([slope.real, slope.imag], axis=1)
        residual = np.stack([f[:, 0].real, f[:, 0].imag], axis=-1)
        step = (np.linalg.pinv(jac, rcond=1e-12) @ residual[..., None])[..., 0]
        target = q[active] - step
        q[active] = np.clip(target, lo, hi)
        inside = np.all((target >= lo) & (target <= hi), axis=-1)
        active = active[inside & (np.max(np.abs(step), axis=-1) > resolution)]
    return q


def newton_runs(monkeypatch, bh, grid, window):
    """The (det, starts, lo, hi) of every side with starts in the one
    _newton_roots lockstep of a bz_scan, B side first."""
    runs = []
    newton = analysis._newton_roots

    def recorded(dets, starts, lo, hi):
        runs.extend((det, side_starts, lo, hi)
                    for det, side_starts in zip(dets, starts) if len(side_starts))
        return newton(dets, starts, lo, hi)

    monkeypatch.setattr(analysis, "_newton_roots", recorded)
    bz_scan(bh, grid, window)
    monkeypatch.setattr(analysis, "_newton_roots", newton)
    return runs


class TestNewtonRoots:
    @pytest.mark.parametrize("name,params", [
        ("yao-lee-ep4", None), ("kitaev", {"phi1": 0.3, "phi2": 0.1})])
    def test_each_start_as_alone(self, name, params, rng):
        # the starts of both sides in one lockstep, side after side
        bh = build_model(name, params)
        lo, hi = bh.q_star - 0.4, bh.q_star + 0.4
        dets = [lambda q: np.linalg.det(bh.b(q)),
                lambda q: np.linalg.det(bh.b_prime(q))]
        starts = [rng.uniform(lo, hi, (16, 2)), rng.uniform(lo, hi, (9, 2))]
        roots = analysis._newton_roots(dets, starts, lo, hi)
        alone = [analysis._newton_roots([det], [start[None]], lo, hi)[0]
                 for det, side_starts in zip(dets, starts)
                 for start in side_starts]
        assert len(roots) == len(alone) == 25
        for root, ref in zip(roots, alone):
            assert_same_bits(root, ref)

    def test_no_start_leaves_the_box(self, rng):
        # the zeros of A(q) lie outside this box, so starts walk to its edge
        bh = kitaev_model(1.0, 1.0, 1.0, 0.3, 0.1)
        lo, hi = np.array([-1.0, -1.5]), np.array([0.5, 1.0])
        starts = np.concatenate([[lo, hi, [lo[0], 0.2], [0.1, hi[1]]],
                                 rng.uniform(lo, hi, (20, 2))])
        centres = []

        def det(q):
            centres.append(q[:, 0])
            return bh.b(q)[..., 0, 0]

        roots = analysis._newton_roots([det], [starts], lo, hi)
        assert not kitaev_zeros(zip(lo, hi), 1.0, 1.0, 1.0, 0.3, 0.1)
        assert np.any((roots == lo) | (roots == hi))
        for q in [roots, *centres]:
            assert np.all((q >= lo) & (q <= hi))

    def test_simple_zero_found_to_rounding(self):
        # f = (x - a) + 2i (y - b) has one simple zero
        a, b = 0.3125, -0.7
        lo, hi = np.array([-1.0, -1.0]), np.array([1.0, 1.0])

        def det(q):
            return (q[..., 0] - a) + 2j * (q[..., 1] - b)

        [root] = analysis._newton_roots([det], [[[0.9, 0.4]]], lo, hi)
        np.testing.assert_allclose(root, [a, b], rtol=0, atol=1e-15)

    def test_double_zero_within_the_step_cap(self):
        # f = z^2: the start ends at the zero well inside the step cap
        lo, hi = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
        calls = []

        def det(q):
            calls.append(len(q))
            return (q[..., 0] + 1j * q[..., 1]) ** 2

        [root] = analysis._newton_roots([det], [[[0.05, -0.03]]], lo, hi)
        assert len(calls) < analysis.NEWTON_STEPS
        assert np.max(np.abs(root)) < 1e-15

    def test_flat_determinant_stops_at_once(self):
        calls = []

        def det(q):
            calls.append(q.shape)
            return np.ones(q.shape[:-1], dtype=complex)

        starts = np.array([[0.1, 0.2], [0.3, -0.4]])
        roots = analysis._newton_roots([det], [starts], np.array([-1.0, -1.0]),
                                       np.array([1.0, 1.0]))
        assert calls == [(2, 5, 2)]
        assert_same_bits(roots, starts)

    def test_step_cap_ends_a_slow_start(self):
        # a zero of order 40: each step keeps 39/40 of the distance, beyond
        # the order estimate's range, so the start never takes the m-fold
        # step
        calls = []

        def det(q):
            calls.append(len(q))
            return (q[..., 0] + 1j * q[..., 1]) ** 40

        analysis._newton_roots([det], [[[0.5, 0.25]]], np.array([-1.0, -1.0]),
                               np.array([1.0, 1.0]))
        assert len(calls) == analysis.NEWTON_STEPS

    @pytest.mark.parametrize("couplings", [
        (1.0, 1.0, 1.0, 0.3, 0.1), (1.1, 0.9, 1.0, -0.4, 0.2),
        (1.0, 1.0, 1.0, 0.01, -0.02), (1.0, 1.0, 1.0, 0.0, 0.0)])
    def test_kitaev_starts_as_before(self, couplings, monkeypatch):
        # simple zeros: the resolution rule ends every start first
        runs = newton_runs(monkeypatch, kitaev_model(*couplings), (128, 128),
                           KITAEV_BOUNDS)
        assert len(runs) == 2
        dets, starts, (lo, _), (hi, _) = zip(*runs)
        assert_same_bits(
            analysis._newton_roots(dets, starts, lo, hi),
            np.concatenate([reference_newton_roots(det, side_starts, lo, hi)
                            for det, side_starts in zip(dets, starts)]))

    def test_simple_zeros_as_before(self, rng):
        a, b = 0.3125, -0.7
        lo, hi = np.array([-1.0, -1.0]), np.array([1.0, 1.0])

        def det(q):
            return (q[..., 0] - a) + 2j * (q[..., 1] - b)

        starts = rng.uniform(lo, hi, (12, 2))
        assert_same_bits(analysis._newton_roots([det], [starts], lo, hi),
                         reference_newton_roots(det, starts, lo, hi))

    @pytest.mark.parametrize("order", [2, 3, 4, 5, 6, 7, 8])
    def test_zeros_of_order_2_to_8_settle_in_few_calls(self, order, rng):
        # two plain steps that each keep 1 - 1/m of the distance fix m; the
        # m-fold step then lands on the zero, to rounding for a quadratic
        # (its central differences are exact) and, from m = 3, as far as
        # the difference width's bias on J allows
        a, b = 0.3125, -0.7
        lo, hi = np.array([-1.0, -1.0]), np.array([1.0, 1.0])
        calls = []

        def det(q):
            calls.append(len(q))
            return ((q[..., 0] - a) + 2j * (q[..., 1] - b)) ** order

        starts = rng.uniform(lo, hi, (12, 2))
        roots = analysis._newton_roots([det], [starts], lo, hi)
        assert len(calls) <= 5
        assert np.max(np.abs(roots - [a, b])) <= (1e-15 if order == 2 else 1e-7)

    def test_double_zero_stops_at_its_rounding_floor(self, monkeypatch):
        # det B ~ r^2 at the yao-lee-ep4 q*, where a plain step only halves
        # the distance
        bh = build_model("yao-lee-ep4")
        window = tuple((c - 0.4, c + 0.4) for c in bh.q_star)
        det, starts, lo, hi = newton_runs(monkeypatch, bh, (64, 64), window)[0]
        calls = []

        def counted(q):
            calls.append(len(q))
            return det(q)

        [root] = analysis._newton_roots([counted], [starts], lo, hi)
        assert len(calls) <= 16
        assert np.max(np.abs(root - bh.q_star)) < 1e-11

    def test_difference_width_follows_the_moves(self, monkeypatch):
        # det B at the yao-lee-ep4 q* is not a pure quadratic: J taken over
        # the fixed width h carries a bias of order h^2 f''', which would
        # stop the start about 1e-11 from q* after 13 calls
        bh = build_model("yao-lee-ep4")
        window = tuple((c - 0.4, c + 0.4) for c in bh.q_star)
        det, starts, lo, hi = newton_runs(monkeypatch, bh, (64, 64), window)[0]
        widths = []

        def counted(q):
            widths.append(q[0, 1, 0] - q[0, 0, 0])
            return det(q)

        [root] = analysis._newton_roots([counted], [starts], lo, hi)
        assert len(widths) <= 10
        assert np.max(np.abs(root - bh.q_star)) < 1e-14
        assert widths[-1] < 0.1 * widths[0]

    @pytest.mark.parametrize("name", ["doublet-ep2", "ep4-sqrt"])
    def test_catalog_double_zeros_in_few_calls(self, name, monkeypatch):
        # det B = c (dq_x + i dq_y)^2, where a plain step only halves the
        # distance
        bh = build_model(name)
        window = tuple((c - 0.4, c + 0.4) for c in bh.q_star)
        runs = newton_runs(monkeypatch, bh, (64, 64), window)
        assert runs
        for det, starts, lo, hi in runs:
            calls = []

            def counted(q):
                calls.append(len(q))
                return det(q)

            analysis._newton_roots([counted], [starts], lo, hi)
            assert len(calls) <= 8
        [candidate] = bz_scan(bh, (64, 64), window)
        assert np.max(np.abs(candidate.q_refined - bh.q_star)) < 1e-15

    @pytest.mark.parametrize("a,start", [(1e-2, (0.5, -0.2)), (1e-3, (-1.1, 0.7))])
    def test_m_fold_step_that_does_not_lower_f_goes_back(self, a, start):
        # f = z (z + a): from afar its two simple zeros read as one double
        # zero, so m settles at 2; the doubled step overshoots, |f| rises,
        # and the start goes back to m = 1. Kept at m = 2, these starts
        # jumped between the same two points for all NEWTON_STEPS steps
        lo, hi = np.array([-2.0, -2.0]), np.array([2.0, 2.0])
        calls = []

        def det(q):
            calls.append(len(q))
            z = q[..., 0] + 1j * q[..., 1]
            return z * (z + a)

        [root] = analysis._newton_roots([det], [[start]], lo, hi)
        z = complex(*root)
        assert min(abs(z), abs(z + a)) < 1e-15
        assert len(calls) < analysis.NEWTON_STEPS

    def test_stalled_start_stops_without_the_step(self):
        # residuals 1, 1/2, 1/2, 1/2 against a fixed Jacobian: the third
        # step is the first no smaller than the one before and is taken;
        # the fourth is the second in a row and is not
        residuals = iter([1.0, 0.5, 0.5, 0.5])
        centres = []

        def det(q):
            centres.append(q[0, 0].copy())
            return np.array([[next(residuals), 1.0, -1.0, 1j, -1j]])

        [root] = analysis._newton_roots([det], [[[0.0, 0.0]]],
                                        np.array([-4.0, -4.0]),
                                        np.array([4.0, 4.0]))
        assert len(centres) == 4
        assert not np.array_equal(centres[2], centres[3])
        assert_same_bits(root, centres[3])


class TestBZScan:
    def test_grid_validation(self):
        bh = kitaev_model(1.0, 1.0, 1.0, 0.3, 0.1)
        with pytest.raises(ValueError):
            bz_scan(bh, (8, 32), ((-1, 1), (-1, 1)))

    def test_infinite_bound_refused(self):
        bh = kitaev_model(1.0, 1.0, 1.0, 0.3, 0.1)
        with pytest.raises(ValueError, match="bounds"):
            bz_scan(bh, (16, 16), ((-1, np.inf), (-1, 1)))

    def test_decreasing_bounds_refused(self):
        bh = kitaev_model(1.0, 1.0, 1.0, 0.3, 0.1)
        with pytest.raises(ValueError, match="bounds must be increasing per axis"):
            bz_scan(bh, (16, 16), ((-1, 1), (1, -1)))

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

    def test_vectorised_minima_match_loop(self, rng):
        large = [(40, 40), (128, 128), (57, 93), (128, 41), (100, 77), (64, 64)]
        for trial in range(300 + 2 * len(large)):
            if trial < 300:
                nx, ny = (int(n) for n in rng.integers(1, 13, 2))
            else:
                nx, ny = large[(trial - 300) // 2]
            if trial % 3:
                # few levels: ties and plateaus, plus planted edge minima
                sig = rng.integers(0, 4, (nx, ny)).astype(float)
                sig[int(rng.integers(nx)), 0] = -1.0
                sig[-1, int(rng.integers(ny))] = -1.0
            else:
                sig = rng.random((nx, ny))
            threshold = float(rng.choice([-1.0, 0.5, 1.0, 2.0, np.inf]))
            got = [tuple(int(k) for k in ij)
                   for ij in analysis._grid_minima(sig, threshold)]
            assert got == loop_minima(sig, threshold)

    def test_n1_grid_minima_as_with_det(self, rng):
        # the entry |A(+-q)| in place of |det(blocks / s)| * s moves grid
        # values by a few ulp and no minimum
        sets = [(1.0, 1.0, 1.0, 0.0, 0.0), (2.0, 2.0, 2.0, 0.0, 0.0)]
        for bound in (0.06,) * 6 + (0.5,) * 12:
            j1, j2 = rng.uniform(0.8, 1.2, 2)
            phases = rng.uniform(0.005, bound, 2) * rng.choice([-1.0, 1.0], 2)
            sets.append((j1, j2, 1.0, *phases))
        assert len(sets) == 20
        qx = np.linspace(*KITAEV_BOUNDS[0], 128)
        qy = np.linspace(*KITAEV_BOUNDS[1], 128)
        grid = np.stack(np.meshgrid(qx, qy, indexing="ij"), axis=-1)
        for couplings in sets:
            bh = kitaev_model(*couplings)
            blocks = np.stack([bh.b(grid), bh.b_prime(grid)])
            s = _pow2_scales(*blocks)
            threshold = analysis.COARSE_FRACTION * s.max()
            with_det = np.abs(np.linalg.det(blocks / s[..., None, None])) * s
            for entry, side in zip(np.abs(blocks[..., 0, 0]), with_det):
                assert_same_bits(analysis._grid_minima(entry, threshold),
                                 analysis._grid_minima(side, threshold))

    @pytest.mark.parametrize("name,params,grid", [
        ("kitaev", {"phi1": 0.3, "phi2": 0.1}, (128, 128)),
        ("ep4-sqrt", None, (64, 64)),
        ("yao-lee-ep4", None, (64, 64)),
        ("yao-lee-ep3", None, (33, 47))])
    def test_no_det_on_the_grid_up_to_n3(self, name, params, grid, monkeypatch):
        # N = 1 reads the entry, N = 2 and 3 the cofactors; only the Newton
        # refinement calls np.linalg.det, on (k, 5, N, N) stacks
        bh = build_model(name, params)
        window = (KITAEV_BOUNDS if name == "kitaev"
                  else tuple((c - 0.4, c + 0.4) for c in bh.q_star))
        shapes = counting_det(monkeypatch)
        bz_scan(bh, grid, window)
        assert shapes
        assert all(s[1:] == (5, bh.n, bh.n) for s in shapes)

    def test_det_runs_once_per_grid_chunk_from_n4(self, monkeypatch):
        # a hand-built N = 4 pair: B = diag(qx + i qy, 1, 1, 1) plus ones
        # above the diagonal, B' = I; 7 rows of 24 per chunk, the last short
        monkeypatch.setattr(analysis, "GRID_CHUNK_ENTRIES", 7 * 24 * 8 ** 2)

        def block(q):
            b = np.broadcast_to(np.eye(4, k=1) + np.eye(4),
                                q.shape[:-1] + (4, 4)).astype(complex)
            b[..., 0, 0] = q[..., 0] + 1j * q[..., 1]
            return b

        bh = BlockHamiltonian(4, block, lambda q: np.eye(4, dtype=complex))
        shapes = counting_det(monkeypatch)
        [candidate] = bz_scan(bh, (24, 24), ((-0.7, 0.5), (-0.4, 0.6)))
        assert np.max(np.abs(candidate.q_refined)) < 1e-10
        grid_calls = [s for s in shapes if s[2:3] == (24,)]
        assert grid_calls == [(2, 7, 24, 4, 4)] * 3 + [(2, 3, 24, 4, 4)]
        assert all(s[1:] == (5, 4, 4) for s in shapes if s not in grid_calls)

    @pytest.mark.parametrize("name,params,grid,grid_scales", [
        ("kitaev", {"phi1": 0.3, "phi2": 0.1}, (128, 128), 0),
        ("yao-lee-ep4", None, (64, 64), 1)])
    def test_per_point_scales_only_from_n2(self, name, params, grid,
                                           grid_scales, monkeypatch):
        # at N = 1 the grid is the modulus of the entry, and the scan's
        # scale the power of two of its peak
        bh = build_model(name, params)
        window = (KITAEV_BOUNDS if name == "kitaev"
                  else tuple((c - 0.4, c + 0.4) for c in bh.q_star))
        calls = []
        scales = analysis._pow2_scales
        monkeypatch.setattr(analysis, "_pow2_scales",
                            lambda *blocks: calls.append(1) or scales(*blocks))
        bz_scan(bh, grid, window)
        assert len(calls) == grid_scales

    def test_cli_yao_lee_refinement_budget(self, capsys, monkeypatch):
        # the double zero of det B takes the 2-fold step once two plain
        # steps have each halved the distance
        shapes = {}

        def build(name, params=None):
            bh, shapes[name] = counting_generators(build_model(name, params))
            return bh

        monkeypatch.setattr(cli, "build_model", build)
        assert cli.main(["bz-scan", "--model", "yao-lee-ep4"]) == 0
        assert capsys.readouterr().out.endswith(",EP4\n")
        steps = [s for s in shapes["yao-lee-ep4"]["B"] if s[1:] == (5, 2)]
        assert 0 < len(steps) <= 16

    def test_chunked_grid_matches_one_chunk(self, monkeypatch):
        bh = kitaev_model(1.0, 1.0, 1.0, 0.3, 0.1)
        bounds = ((-np.pi, np.pi), (-np.sqrt(3) * np.pi, np.sqrt(3) * np.pi))
        whole = bz_scan(bh, (64, 64), bounds)
        # twenty grid rows per chunk, each from the grid form; the last is short
        monkeypatch.setattr(analysis, "GRID_CHUNK_ENTRIES", 5 * 64 * 16)
        chunked = bz_scan(bh, (64, 64), bounds)
        assert len(chunked) == len(whole) > 0
        for a, b in zip(whole, chunked):
            np.testing.assert_array_equal(a.q_refined, b.q_refined)
            assert a.classification.kind is b.classification.kind

    @pytest.mark.parametrize("name", list(MODEL_CATALOG))
    def test_grid_form_gives_the_generators_candidates(self, name):
        # on the CLI's default window the grid form and one generator call
        # per side give the same grid, so every candidate keeps its bits
        bh = build_model(name)
        window = cli._default_bounds(bh)
        got = bz_scan(bh, (64, 64), window)
        want = bz_scan(replace(bh, grid=None), (64, 64), window)
        assert got and len(got) == len(want)
        for a, b in zip(got, want):
            assert_same_bits(a.q_grid, b.q_grid)
            assert_same_bits(a.q_refined, b.q_refined)
            assert_same_bits(np.float64(a.sigma_min), np.float64(b.sigma_min))
            assert a.classification == b.classification

    def test_grid_stage_calls_generators_once_per_chunk(self, monkeypatch):
        monkeypatch.setattr(analysis, "GRID_CHUNK_ENTRIES", 7 * 24 * 16)
        # the chunked generator path of a model built without a grid form
        bh, shapes = counting_generators(
            replace(ep4_sqrt_model(q_star=(0.3, 0.7)), grid=None))
        bz_scan(bh, (24, 24), ((-0.2, 0.8), (0.2, 1.2)))
        for label in ("B", "B'"):
            # refinement calls are (k, 5, 2): a point and its neighbours
            grid_calls = [s for s in shapes[label] if s[1:] == (24, 2)]
            assert grid_calls == [(7, 24, 2)] * 3 + [(3, 24, 2)]

    def test_kitaev_grid_calls_no_pointwise_generator(self):
        # the grid comes from the grid form; the generators see only the
        # Newton batches and the refined points
        bh, shapes = counting_generators(kitaev_model(1.0, 0.9, 1.1, 0.3, -0.2))
        assert bz_scan(bh, (128, 128), KITAEV_BOUNDS)
        for label in ("B", "B'"):
            steps = [s for s in shapes[label] if len(s) == 3]
            assert steps and all(s[1:] == (5, 2) for s in steps)
            [(roots, _)] = [s for s in shapes[label] if len(s) != 3]
            assert shapes[label][-1] == (roots, 2)

    def test_yao_lee_grid_calls_the_generators(self):
        for name in ("yao-lee-ep4", "yao-lee-ep3"):
            bh = build_model(name)
            window = tuple((c - 0.4, c + 0.4) for c in bh.q_star)
            # with the grid form dropped, one generator call per side on
            # the grid
            counted, shapes = counting_generators(replace(bh, grid=None))
            bz_scan(counted, (64, 64), window)
            for label in ("B", "B'"):
                assert [s for s in shapes[label] if s[1:] == (64, 2)] == [(64, 64, 2)]
            # with it, the generators see only the Newton batches and the
            # refined points, no grid-shaped momenta
            counted, shapes = counting_generators(bh)
            assert bz_scan(counted, (64, 64), window)
            for label in ("B", "B'"):
                assert shapes[label]
                assert all(s[1:] == (5, 2) or len(s) == 2 for s in shapes[label])

    def test_refinement_calls_generators_in_batches(self, monkeypatch):
        counted, shapes = counting_generators(kitaev_model(1.0, 1.0, 1.0, 0.3, 0.1))
        runs = []
        newton = analysis._newton_roots

        def recorded(dets, starts, lo, hi):
            first = {label: len(calls) for label, calls in shapes.items()}
            roots = newton(dets, starts, lo, hi)
            runs.append(([len(s) for s in starts],
                         {label: calls[first[label]:]
                          for label, calls in shapes.items()}))
            return roots

        monkeypatch.setattr(analysis, "_newton_roots", recorded)
        bz_scan(counted, (64, 64), KITAEV_BOUNDS)
        # both sides in one lockstep: per step one call per side with
        # active starts, on those starts only
        [(counts, calls)] = runs
        for k, side in zip(counts, ("B", "B'")):
            assert k >= 2
            assert calls[side][0] == (k, 5, 2)
            assert all(s[1:] == (5, 2) and 1 <= s[0] <= k for s in calls[side])
            assert len(calls[side]) <= analysis.NEWTON_STEPS
        # sigma_min of every refined point from one call per side
        total = sum(counts)
        for label in ("B", "B'"):
            assert [s for s in shapes[label] if len(s) == 2] == [(total, 2)]

    @pytest.mark.parametrize("bh,window", [
        (kitaev_model(1.0, 1.0, 1.0, 0.3, 0.1), KITAEV_BOUNDS),
        (ep4_sqrt_model(q_star=(0.3, 0.7)), ((-0.2, 0.8), (0.2, 1.2))),
    ], ids=["kitaev", "ep4-sqrt"])
    def test_candidates_classified_from_the_sigma_blocks(self, bh, window):
        # no generator call on a single point: each kept root is classified
        # from the blocks that its sigma_min was read from
        counted, shapes = counting_generators(bh)
        candidates = bz_scan(counted, (64, 64), window)
        assert candidates
        assert all((2,) not in calls for calls in shapes.values())
        for c in candidates:
            q = c.q_refined
            assert c.classification == classify_point(bh.b(q), bh.b_prime(q),
                                                      1e-6)

    def test_no_minimum_below_threshold_skips_refinement(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("refinement ran without a grid minimum")

        monkeypatch.setattr(analysis, "_newton_roots", refused)
        eye = np.eye(2, dtype=complex)
        bh = BlockHamiltonian(2, lambda q: eye, lambda q: eye, name="constant")
        assert bz_scan(bh, (16, 16), ((-1.0, 1.0), (-1.0, 1.0))) == []

    def test_small_phases_find_every_zero(self):
        # the zeros of A(q) and A(-q) share grid basins of sigma_min(H)
        couplings = (1.0, 1.0, 1.0, 0.01, -0.02)
        window = ((-4.2, 4.2), (-4.2, 4.2))
        zeros = kitaev_zeros(window, *couplings)
        assert len(zeros) == 12
        candidates = bz_scan(kitaev_model(*couplings), (128, 128), window)
        for z in zeros:
            best = min(np.max(np.abs(c.q_refined - z)) for c in candidates)
            assert best < 1e-4, z
        assert any(np.max(np.abs(z - [-2.1044, 3.6565])) < 1e-4 for z in zeros)

    def test_ep3_window_lists_its_point(self):
        bh = build_model("ep3")
        window = tuple((c - 0.4, c + 0.4) for c in bh.q_star)
        candidates = bz_scan(bh, (64, 64), window)
        [hit] = [c for c in candidates
                 if np.max(np.abs(c.q_refined - bh.q_star)) < 1e-4]
        assert hit.classification.kind is EPKind.EP3_MIXED

    @pytest.mark.parametrize("exponent", [340, -340])
    def test_power_of_two_scale_moves_no_point(self, exponent):
        bh = build_model("yao-lee-ep4")
        window = tuple((c - 0.4, c + 0.4) for c in bh.q_star)
        plain = bz_scan(bh, (32, 32), window)
        scaled = bz_scan(scaled_model(bh, 2.0 ** exponent), (32, 32), window)
        assert len(scaled) == len(plain) == 1
        for a, b in zip(plain, scaled):
            assert_same_bits(b.q_refined, a.q_refined)
            assert b.sigma_min == a.sigma_min * 2.0 ** exponent
            assert b.classification.kind is a.classification.kind

    @pytest.mark.parametrize("tol", [np.nan, 0.0, -1.0])
    def test_tol_must_be_positive(self, tol):
        bh = kitaev_model(1.1, 0.9, 1.0, 0.3, 0.1)
        with pytest.raises(ValueError, match="tol"):
            bz_scan(bh, (32, 32), KITAEV_BOUNDS, tol=tol)

    @pytest.mark.parametrize("scale", [1.0, 2.0, 1e200, 1e-200])
    def test_hermitian_kitaev_points_read_diabolic(self, scale, rng):
        # at a Dirac point both A(q*) and A(-q*) vanish to rounding, about
        # 1e-15 of the couplings: full rank against that pair's own scale,
        # zero against the scan's, the cut that kept the point. Unit
        # couplings, then signed ones, all with zero phases
        signed = [(*(rng.uniform(0.8, 1.2, 2) * rng.choice([-1.0, 1.0], 2)),
                   rng.choice([-1.0, 1.0])) for _ in range(3)]
        for j in [(1.0, 1.0, 1.0), *signed]:
            couplings = (*(scale * float(x) for x in j), 0.0, 0.0)
            found = bz_scan(kitaev_model(*couplings), (128, 128), KITAEV_BOUNDS)
            assert found
            for c in found:
                evidence = c.classification.evidence
                assert c.classification.kind is EPKind.DIABOLIC
                assert evidence["jordan_blocks_at_zero"] == [1, 1]
                assert [ch["in_ker"] for ch in evidence["chains"]] == ["B", "B'"]
                # the pair's own scale, far below the scan's
                assert evidence["scale"] < 1e-12 * scale

    # yao-lee-ep3 is left out: its scan misses q* (ROADMAP, known defect 2)
    @pytest.mark.parametrize("name", [n for n in MODEL_CATALOG if n != "yao-lee-ep3"])
    def test_verdict_at_qstar_kept_in_a_wider_window(self, name):
        # a block counts as zero against the window's peak; eight times the
        # CLI's window (up to 64 times the peak of a quadratic block) must
        # not change the verdict at q*
        bh = build_model(name)
        verdicts = []
        for half, grid in [(0.4, 64), (3.2, 128)]:
            bounds = [(x - half, x + half) for x in bh.q_star]
            found = bz_scan(bh, (grid, grid), bounds)
            [c] = [c for c in found if np.max(np.abs(c.q_refined - bh.q_star)) < 1e-6]
            verdicts.append((c.classification.kind,
                             c.classification.evidence["jordan_blocks_at_zero"]))
        assert verdicts[0] == verdicts[1]

    def test_classification_error_is_kept(self, monkeypatch):
        def mismatch(b, bprime, tol, reference):
            return [CrossCheckMismatchError("planted mismatch")] * len(b)

        monkeypatch.setattr(analysis._classify, "_classify_pairs", mismatch)
        bh = ep4_sqrt_model(q_star=(0.3, 0.7))
        [candidate] = bz_scan(bh, (24, 24), ((-0.2, 0.8), (0.2, 1.2)))
        assert candidate.classification.kind is EPKind.UNCLASSIFIED
        assert candidate.classification.evidence == {"error": "planted mismatch"}

    def test_rising_ranks_kept_as_error(self, monkeypatch):
        plant_counts(monkeypatch, rising_chains)
        [candidate] = bz_scan(rising_model(), (17, 17), ((-1.0, 1.0), (-1.0, 1.0)))
        assert candidate.classification.kind is EPKind.UNCLASSIFIED
        assert "fit no Jordan structure" in candidate.classification.evidence["error"]

    def test_other_classification_errors_propagate(self, monkeypatch):
        def bug(*args, **kwargs):
            raise RuntimeError("planted bug")

        monkeypatch.setattr(analysis._classify, "_classify_pairs", bug)
        bh = ep4_sqrt_model(q_star=(0.3, 0.7))
        with pytest.raises(RuntimeError, match="planted bug"):
            bz_scan(bh, (24, 24), ((-0.2, 0.8), (0.2, 1.2)))


def _permanent_of_moduli(a):
    """The permanent of |a| for each matrix of the stack: the sum of the
    moduli of the products that the determinant adds up."""
    n = a.shape[-1]
    moduli = np.abs(a)
    return sum(np.prod([moduli[..., i, p[i]] for i in range(n)], axis=0)
               for p in itertools.permutations(range(n)))


def _grid_scaled(b, bprime):
    """The pairs of stacks divided by their power of two, as bz_scan
    divides its grid: shape (2, ..., N, N)."""
    s = _pow2_scales(b, bprime)
    return np.stack([b, bprime]) / s[..., None, None]


class TestGridDets:
    """The cofactor |det| of bz_scan's grid against np.linalg.det."""

    @staticmethod
    def assert_agree(a):
        # np.linalg.det returns sign * exp(log |det|), whose relative error
        # grows with |log |det||; the cofactors are within a few eps of the
        # permanent of |a|. Products that underflow add a few subnormals.
        # Where every entry is subnormal, the LU divides by a subnormal
        # pivot and np.linalg.det may return NaN; the cofactors stay finite
        eps, tiny = np.finfo(float).eps, np.finfo(float).smallest_subnormal
        got = analysis._abs_dets(a)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            want = np.abs(np.linalg.det(a))
        assert np.isfinite(got).all()
        lapack = np.isfinite(want)
        assert lapack.mean() > 0.9
        got, want = got[lapack], want[lapack]
        logs = np.abs(np.log(np.where(want > 0, want, 1.0)))
        bound = 4 * eps * (_permanent_of_moduli(a[lapack]) + logs * want) + 4 * tiny
        assert np.all(np.abs(got - want) <= bound)

    @pytest.mark.parametrize("n", [2, 3])
    def test_gaussian_pairs_at_any_scale(self, n, rng):
        # each block at its own scale 10^x, x in +-300: the smaller block
        # of a pair is divided by the larger one's power of two, down to
        # subnormal entries and to zero
        for _ in range(20):
            b, bp = (np.einsum("knm,k->knm",
                               rng.standard_normal((256, n, n))
                               + 1j * rng.standard_normal((256, n, n)),
                               10.0 ** rng.uniform(-300, 300, 256))
                     for _ in range(2))
            self.assert_agree(_grid_scaled(b, bp))

    @pytest.mark.parametrize("n", [2, 3])
    def test_subnormal_entries(self, n, rng):
        # B' at unit scale and B at 2^-1020 to 2^-1080 of it: B's entries
        # are partly or wholly subnormal, or zero, once the pair is divided
        # by B''s scale
        b = rng.standard_normal((2, 300, n, n))
        b = np.ldexp(b, rng.integers(-1080, -1020, 300)[:, None, None])
        b = b[0] + 1j * b[1]
        bp = rng.standard_normal((300, n, n)) + 1j * rng.standard_normal((300, n, n))
        a = _grid_scaled(b, bp)
        assert np.any((a[0] != 0) & (np.abs(a[0]) < np.finfo(float).tiny))
        self.assert_agree(a)

    def test_singular_canonical_pairs(self, rng):
        # the canonical pairs of the taxonomy, read-only, each basis-changed
        # as planted_model does and at an overall scale 10^x, x in +-300:
        # B, B' or both singular
        for kind, (b0, bp0, _, _) in planted_kinds().items():
            b0, bp0 = np.array(b0, dtype=complex), np.array(bp0, dtype=complex)
            n = len(b0)
            pairs = []
            for _ in range(50):
                p, q = (random_conditioned(rng, n, 10.0) for _ in range(2))
                scale = 10.0 ** rng.uniform(-300, 300)
                pairs.append((scale * (p @ b0 @ np.linalg.inv(q)),
                              scale * (q @ bp0 @ np.linalg.inv(p))))
            self.assert_agree(_grid_scaled(*map(np.array, zip(*pairs))))

    @pytest.mark.parametrize("name", [n for n in MODEL_CATALOG
                                      if build_model(n).n > 1])
    @pytest.mark.parametrize("grid", CATALOG_GRIDS)
    def test_grid_minima_as_with_lapack(self, name, grid):
        # on every catalog window of the bz sweep, either determinant
        # gives the same grid minima, bit for bit
        bh = build_model(name)
        qx, qy = (np.linspace(c - 0.4, c + 0.4, k) for c, k in zip(bh.q_star, grid))
        blocks = _grid_blocks(bh, qx, qy)
        s = _pow2_scales(*blocks)
        a = blocks / s[..., None, None]
        threshold = analysis.COARSE_FRACTION * s.max()
        with np.errstate(divide="ignore", invalid="ignore"):
            lapack = np.abs(np.linalg.det(a)) ** (1 / bh.n) * s
        cofactor = analysis._abs_dets(a) ** (1 / bh.n) * s
        minima = [analysis._grid_minima(side, threshold) for side in lapack]
        assert sum(map(len, minima)) > 0
        for got, want in zip(cofactor, minima):
            assert_same_bits(analysis._grid_minima(got, threshold), want)
